"""``repro.analysis.flow`` — the whole-program dataflow passes of ``repro lint``.

Where the per-file rules see one module at a time, these passes work on
the :class:`~.symbols.SymbolTable` and :class:`~.callgraph.CallGraph`
of the whole analyzed tree:

* :mod:`~.dimensions` — units checking (RPR020/RPR021): time-us vs
  time-s vs bytes vs B/us vs dollars, inferred from name suffixes,
  :mod:`repro.units` helpers and annotations, propagated through
  assignments, calls and returns;
* :mod:`~.allocations` — hot-path allocation gating (RPR022) over the
  kernel event loop, grant paths and disabled-telemetry singletons;
* :mod:`~.provenance` — RNG provenance (RPR023): every random draw must
  provably reach a named seeded stream.

:func:`repro.analysis.linter.lint_paths` builds the table once, runs
these passes after the per-file rules, and assembles every hit into
one suppression-aware, baseline-gated report.
"""

from .allocations import DEFAULT_HOT_ROOTS, check_allocations
from .callgraph import CallGraph
from .dimensions import check_dimensions
from .provenance import check_provenance
from .symbols import SymbolTable

__all__ = [
    "CallGraph",
    "DEFAULT_HOT_ROOTS",
    "SymbolTable",
    "check_allocations",
    "check_dimensions",
    "check_provenance",
]
