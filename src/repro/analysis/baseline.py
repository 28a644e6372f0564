"""Committed-baseline gating for ``repro lint``.

The baseline file records the fingerprints of findings that predate the
linter (or were accepted deliberately).  CI compares a fresh lint run
against it:

* a finding whose fingerprint is in the baseline is **known** — allowed;
* a finding not in the baseline is **new** — fails the run;
* a baseline entry no fresh finding matches is **expired** — reported so
  the file can be re-shrunk with ``--update-baseline``.

The shipped tree is clean, so ``.repro-lint-baseline.json`` holds an
empty entry list; any finding at all is "new" and fails CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from .linter import Finding

_FORMAT_VERSION = 1


@dataclass
class Baseline:
    """A set of accepted finding fingerprints, loadable from JSON."""

    #: fingerprint -> summary of the accepted finding (for humans
    #: reading the committed file; matching uses only the key).
    entries: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if data.get("format") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported baseline format {data.get('format')!r} "
                f"in {path} (expected {_FORMAT_VERSION})"
            )
        return cls(entries=dict(data.get("entries", {})))

    @classmethod
    def load_or_empty(cls, path: Path = None) -> "Baseline":  # type: ignore[assignment]
        if path is not None and Path(path).is_file():
            return cls.load(Path(path))
        return cls()

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        entries = {
            f.fingerprint: {
                "rule": f.rule,
                "path": f.path,
                "text": f.text,
            }
            for f in findings
        }
        return cls(entries=entries)

    def save(self, path: Path) -> None:
        payload = {
            "format": _FORMAT_VERSION,
            "entries": {
                k: self.entries[k] for k in sorted(self.entries)
            },
        }
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )

    def split(
        self, findings: Sequence[Finding]
    ) -> "BaselineDiff":
        """Partition a fresh run against this baseline."""
        seen = set()
        new: List[Finding] = []
        known: List[Finding] = []
        for finding in findings:
            seen.add(finding.fingerprint)
            if finding.fingerprint in self.entries:
                known.append(finding)
            else:
                new.append(finding)
        expired = {
            k: self.entries[k]
            for k in sorted(self.entries)
            if k not in seen
        }
        return BaselineDiff(new=new, known=known, expired=expired)


@dataclass
class BaselineDiff:
    """Result of comparing a lint run against a baseline."""

    new: List[Finding]
    known: List[Finding]
    expired: Dict[str, Dict[str, object]]

    @property
    def ok(self) -> bool:
        """True when the run introduces no new findings."""
        return not self.new
