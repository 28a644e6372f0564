"""Static and runtime determinism analysis for the repro simulator.

Every conclusion this reproduction draws — the eager/rendezvous
crossover, the 4 MB pin-down-cache thrash, NIC-thread vs host matching —
rests on one repo-wide invariant: *same-seed runs are bit-identical and
serial == parallel*.  This package enforces that contract mechanically,
at three layers:

* :mod:`~repro.analysis.linter` — the ``repro lint`` analyzer.  It
  parses each file once and runs one rule table
  (:mod:`~repro.analysis.rules`) over it: per-file rules targeting the
  hazards that actually corrupt simulation results (wall-clock reads,
  unseeded RNG, unordered ``set`` iteration, float accumulation over
  dict views, mutable default arguments, non-``Event`` yields in sim
  processes, unpicklable campaign spec values, telemetry allocation on
  the disabled path, swallowed simulation errors, ...), then the
  whole-program dataflow passes of :mod:`~repro.analysis.flow` — units
  checking (RPR020/021), hot-path allocation gating (RPR022) and RNG
  provenance (RPR023) — catching the cross-module hazards a per-file
  rule cannot see.
* :mod:`~repro.analysis.sanitizer` — an opt-in runtime sanitizer that
  flags same-timestamp event pairs touching one resource without a
  deterministic tiebreak key: the sim-level analogue of a data race.
* :mod:`~repro.analysis.invariants` — end-of-run conservation checks
  (no held resource slots, credits balanced, registration-cache bytes
  consistent, lifecycle spans closed) raising a structured
  :class:`~repro.errors.InvariantViolation`.

The analyzer ships with an empty baseline — the tree is clean — and CI
fails on any *new* finding, so a stray ``random.random()`` or
hash-ordered iteration cannot silently land.
"""

from ..errors import InvariantViolation
from .baseline import Baseline
from .invariants import Violation, check_invariants, verify_invariants
from .linter import Finding, lint_paths
from .rules import RULES, rule_ids
from .sanitizer import RaceFinding, RaceSanitizer

__all__ = [
    "Baseline",
    "Finding",
    "InvariantViolation",
    "RaceFinding",
    "RaceSanitizer",
    "RULES",
    "Violation",
    "check_invariants",
    "lint_paths",
    "rule_ids",
    "verify_invariants",
]
