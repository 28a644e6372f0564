"""Seeded-bug probes for the whole-program passes of ``repro lint``.

Each probe plants one specific cross-module hazard in a scratch tree
shaped like the real one (``src/repro/...``), runs the one analyzer
over it, and asserts the matching pass reports it — rule id, file and
semantics — while the surrounding clean code stays silent.  Further
classes pin the determinism contract (two runs over one tree are
byte-identical), the CLI over dataflow findings, and the merge itself:
one suppression tag, one syntax-error finding.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.linter import lint_paths
from repro.analysis.reporters import render_json
from repro.analysis.rules import RULES
from repro.cli import main as repro_main


pytestmark = pytest.mark.analysis

#: The kernel root used by every allocation probe.
ROOT = "repro.pkg.kernel.Simulator.run"

#: The real package sources, for probes that plant bugs in a copy.
REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def main(argv):
    return repro_main(["lint", *argv])


def write_tree(tmp_path, files):
    """Lay out ``files`` (name -> source) as src/repro/pkg/<name>."""
    pkg = tmp_path / "src" / "repro" / "pkg"
    pkg.mkdir(parents=True, exist_ok=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    for name, source in files.items():
        (pkg / name).write_text(textwrap.dedent(source))
    return tmp_path / "src"


def audit(tmp_path, files, roots=(ROOT,)):
    root = write_tree(tmp_path, files)
    return lint_paths([root], root=tmp_path, roots=roots)


def rules_of(findings):
    return sorted(f.rule for f in findings)


class TestUnitsPass:
    def test_mixed_dimension_addition_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def total(latency_us, timeout_s):
                    return latency_us + timeout_s
            """,
        })
        assert rules_of(findings) == ["RPR020"]
        assert "time-us + time-s" in findings[0].message

    def test_ordered_comparison_across_dimensions_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def fits(size_bytes, window_us):
                    return size_bytes < window_us
            """,
        })
        assert rules_of(findings) == ["RPR020"]
        assert "dimensionally meaningless" in findings[0].message

    def test_unknown_dimensions_never_flag(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def f(a, b):
                    return a + b
            """,
        })
        assert findings == []

    def test_units_helper_argument_checked(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def convert(latency_us):
                    return us_from_s(latency_us)
            """,
        })
        assert rules_of(findings) == ["RPR021"]
        assert "expects time-s, got time-us" in findings[0].message

    def test_units_helper_conversion_accepted(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def convert(timeout_s, base_us):
                    return us_from_s(timeout_s) + base_us
            """,
        })
        assert findings == []

    def test_return_dim_propagates_interprocedurally(self, tmp_path):
        # ``backoff`` has no dimension suffix of its own; its return
        # dimension (us, from the parameter) must flow through the
        # fixpoint into the caller's addition.
        findings = audit(tmp_path, {
            "m.py": """
                def backoff(delay_us):
                    return delay_us * 2


                def total(timeout_s):
                    return backoff(1.0) + timeout_s
            """,
        })
        assert rules_of(findings) == ["RPR020"]
        assert "time-us + time-s" in findings[0].message

    def test_callee_parameter_dim_checked_across_modules(self, tmp_path):
        findings = audit(tmp_path, {
            "helper.py": """
                def wait(delay_us):
                    return delay_us
            """,
            "m.py": """
                from repro.pkg.helper import wait


                def go(timeout_s):
                    return wait(timeout_s)
            """,
        })
        assert rules_of(findings) == ["RPR021"]
        assert "expects time-us, got time-s" in findings[0].message

    def test_suffix_binding_mismatch_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def f(timeout_s):
                    deadline_us = timeout_s
                    return deadline_us
            """,
        })
        assert rules_of(findings) == ["RPR020"]
        assert "claims time-us" in findings[0].message

    def test_inline_suppression_honored(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def total(latency_us, timeout_s):
                    return latency_us + timeout_s  # repro-lint: disable=RPR020 -- probe
            """,
        })
        assert findings == []


KERNEL_OK = """
    class Simulator:
        def run(self):
            self._tick()

        def _tick(self):
            return self._count + 1
"""


class TestAllocationPass:
    def test_allocation_deep_in_call_graph_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "kernel.py": """
                class Simulator:
                    def run(self):
                        self._tick()

                    def _tick(self):
                        self._record()

                    def _record(self):
                        stats = {"n": 1}
                        return stats
            """,
        })
        assert rules_of(findings) == ["RPR022"]
        assert "dict display" in findings[0].message
        assert "reachable from the kernel roots" in findings[0].message

    def test_unreachable_allocation_not_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "kernel.py": KERNEL_OK,
            "report.py": """
                def summarize():
                    return {"cold": True}
            """,
        })
        assert findings == []

    def test_raise_path_is_cold(self, tmp_path):
        findings = audit(tmp_path, {
            "kernel.py": """
                class Simulator:
                    def run(self):
                        if self._broken:
                            raise RuntimeError(f"bad state {self._broken}")
                        return self._count
            """,
        })
        assert findings == []

    def test_annotations_are_not_allocations(self, tmp_path):
        findings = audit(tmp_path, {
            "kernel.py": """
                from typing import Dict, Any


                class Simulator:
                    def run(self) -> Dict[str, Any]:
                        x: Dict[str, Any] = self._cached
                        return x
            """,
        })
        assert findings == []

    def test_tuple_swap_is_not_an_allocation(self, tmp_path):
        findings = audit(tmp_path, {
            "kernel.py": """
                class Simulator:
                    def run(self):
                        a, b = self._left, self._right
                        self._left, self._right = b, a
            """,
        })
        assert findings == []

    def test_closure_construction_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "kernel.py": """
                class Simulator:
                    def run(self):
                        cb = lambda: self._count
                        return cb()
            """,
        })
        assert rules_of(findings) == ["RPR022"]
        assert "lambda" in findings[0].message

    def test_inline_suppression_honored(self, tmp_path):
        findings = audit(tmp_path, {
            "kernel.py": """
                class Simulator:
                    def run(self):
                        self._heap.append((self._now, self._seq))  # repro-lint: disable=RPR022 -- heap entry
            """,
        })
        assert findings == []

    def test_null_log_append_is_a_hot_root(self, tmp_path):
        """An allocation planted in the disabled event log's append fires."""
        real = REPO_SRC / "repro" / "telemetry" / "stream.py"
        clean = real.read_text()
        null_append = (
            "    def append(self, now: float, category: str, message: str) -> bool:\n"
            "        return False\n"
        )
        assert clean.count(null_append) == 1
        planted = clean.replace(null_append, (
            "    def append(self, now: float, category: str, message: str) -> bool:\n"
            "        self.last = (now, category, message)\n"
            "        return False\n"
        ))
        pkg = tmp_path / "src" / "repro" / "telemetry"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "stream.py").write_text(clean)
        assert lint_paths([tmp_path / "src"], root=tmp_path) == []
        (pkg / "stream.py").write_text(planted)
        findings = lint_paths([tmp_path / "src"], root=tmp_path)
        assert rules_of(findings) == ["RPR022"]
        assert "tuple display" in findings[0].message
        assert findings[0].path.endswith("telemetry/stream.py")


class TestProvenancePass:
    def test_ambient_draw_two_calls_deep_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "jitter.py": """
                import random


                def _draw():
                    return random.random()


                def _middle():
                    return _draw()


                def jitter_us():
                    return _middle() * 2.0
            """,
        })
        # The per-file rule sees the ambient call in its own module too.
        assert rules_of(findings) == ["RPR001", "RPR023"]
        (draw,) = [f for f in findings if f.rule == "RPR023"]
        assert "ambient module random" in draw.message

    def test_named_stream_draw_is_clean(self, tmp_path):
        findings = audit(tmp_path, {
            "faults.py": """
                class Injector:
                    def __init__(self, sim):
                        self._rng = sim.rng.stream("fault.ber")

                    def draw(self):
                        return self._rng.random()
            """,
        })
        assert findings == []

    def test_parameter_traced_to_ambient_caller(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                import random


                def _sample(rng):
                    return rng.uniform(0.0, 1.0)


                def go():
                    return _sample(random)
            """,
        })
        assert rules_of(findings) == ["RPR023"]
        assert "passed as 'rng'" in findings[0].message

    def test_parameter_traced_to_seeded_caller_is_clean(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def _sample(rng):
                    return rng.uniform(0.0, 1.0)


                def go(sim):
                    return _sample(sim.rng.stream("bench.perm"))
            """,
        })
        assert findings == []

    def test_ambient_mint_flagged(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                from numpy.random import default_rng


                def go():
                    rng = default_rng(42)
                    return rng.integers(0, 10)
            """,
        })
        # The per-file rule sees the unseeded mint in its own module too.
        assert rules_of(findings) == ["RPR001", "RPR023"]
        (draw,) = [f for f in findings if f.rule == "RPR023"]
        assert "default_rng()" in draw.message

    def test_unknown_provenance_never_flags(self, tmp_path):
        findings = audit(tmp_path, {
            "m.py": """
                def go(machine):
                    return machine.choice([1, 2, 3])
            """,
        })
        assert findings == []


class TestDeterminism:
    DIRTY = {
        "kernel.py": """
            class Simulator:
                def run(self):
                    return {"n": self._count}
        """,
        "m.py": """
            import random


            def jitter(latency_us, timeout_s):
                return random.random() + latency_us + timeout_s
        """,
    }

    def test_two_audits_are_byte_identical(self, tmp_path):
        root = write_tree(tmp_path, self.DIRTY)
        first = lint_paths([root], root=tmp_path, roots=(ROOT,))
        second = lint_paths([root], root=tmp_path, roots=(ROOT,))
        as_json = lambda fs: render_json(Baseline().split(fs))  # noqa: E731
        assert as_json(first) == as_json(second)
        assert first  # the probes did fire

    def test_findings_sorted_by_location(self, tmp_path):
        root = write_tree(tmp_path, self.DIRTY)
        findings = lint_paths([root], root=tmp_path, roots=(ROOT,))
        keys = [(f.path, f.line, f.col, f.rule) for f in findings]
        assert keys == sorted(keys)


class TestAuditCli:
    CLEAN = {"m.py": "def f(sim):\n    return sim.now\n"}
    DIRTY = {
        "m.py": "def f(latency_us, timeout_s):\n"
                "    return latency_us + timeout_s\n",
    }

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        assert main([str(root)]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.DIRTY)
        assert main([str(root)]) == 1
        assert "RPR020" in capsys.readouterr().out

    def test_list_rules_flag_lists_every_rule(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted(RULES)
        assert len(listed) == 16
        for rule in ("RPR001", "RPR012", "RPR020", "RPR021", "RPR022", "RPR023"):
            assert rule in listed

    def test_update_baseline_then_clean(self, tmp_path):
        root = write_tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "audit-baseline.json"
        assert main(
            [str(root), "--baseline", str(baseline), "--update-baseline"]
        ) == 0
        assert main([str(root), "--baseline", str(baseline)]) == 0

    def test_baseline_survives_line_drift(self, tmp_path):
        """Moving the flagged line must keep it baselined."""
        root = write_tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "audit-baseline.json"
        main([str(root), "--baseline", str(baseline), "--update-baseline"])
        mod = root / "repro" / "pkg" / "m.py"
        mod.write_text("# a new leading comment\n\n" + mod.read_text())
        assert main([str(root), "--baseline", str(baseline)]) == 0

    def test_edited_finding_resurfaces(self, tmp_path):
        """Changing the flagged line's text must invalidate the entry."""
        root = write_tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "audit-baseline.json"
        main([str(root), "--baseline", str(baseline), "--update-baseline"])
        mod = root / "repro" / "pkg" / "m.py"
        mod.write_text(
            mod.read_text().replace(
                "latency_us + timeout_s", "latency_us + 2 * timeout_s"
            )
        )
        assert main([str(root), "--baseline", str(baseline)]) == 1

    def test_json_report(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.DIRTY)
        assert main([str(root), "--format", "json"]) == 1
        out = capsys.readouterr().out
        assert '"rule": "RPR020"' in out

    def test_real_tree_is_clean(self):
        repo_root = Path(__file__).resolve().parents[2]
        src = repo_root / "src"
        baseline = repo_root / ".repro-lint-baseline.json"
        assert main([str(src), "--baseline", str(baseline)]) == 0
        assert main(
            [str(src), str(repo_root / "benchmarks"), "--baseline", str(baseline)]
        ) == 0


class TestMergedAnalyzer:
    """One parse, one tag, one report across per-file and dataflow rules."""

    DIRTY = {
        "kernel.py": """
            class Simulator:
                def run(self):
                    return {"n": self._count}  # repro-lint: disable=all
        """,
        "m.py": """
            import random


            def jitter(latency_us, timeout_s):
                total = latency_us + timeout_s  # repro-lint: disable=all
                return total + random.random()  # repro-lint: disable=all


            def wait(delay_us):
                return delay_us


            def go(timeout_s):
                return wait(timeout_s)  # repro-lint: disable=all
        """,
    }

    def test_disable_all_silences_dataflow_rules(self, tmp_path):
        unsuppressed = {
            name: source.replace("  # repro-lint: disable=all", "")
            for name, source in self.DIRTY.items()
        }
        fired = audit(tmp_path / "bare", unsuppressed)
        assert set(rules_of(fired)) == {
            "RPR001", "RPR020", "RPR021", "RPR022", "RPR023",
        }
        assert audit(tmp_path / "tagged", self.DIRTY) == []

    def test_syntax_error_yields_exactly_one_rpr000(self, tmp_path):
        findings = audit(tmp_path, {
            "broken.py": "def broken(:\n    pass\n",
            "m.py": "def total(latency_us, timeout_s):\n"
                    "    return latency_us + timeout_s\n",
        })
        assert rules_of(findings) == ["RPR000", "RPR020"]
        (syntax,) = [f for f in findings if f.rule == "RPR000"]
        assert syntax.path.endswith("pkg/broken.py")
        assert syntax.line == 1

    def test_per_file_and_dataflow_findings_share_one_report(self, tmp_path, capsys):
        root = write_tree(tmp_path, {
            "m.py": "import time\n\n"
                    "def f(latency_us, timeout_s):\n"
                    "    return time.time() + latency_us + timeout_s\n",
        })
        assert main([str(root), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert sorted(f["rule"] for f in payload["new"]) == ["RPR001", "RPR020"]
