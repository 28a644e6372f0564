"""Model-parameter inventory: every calibrated constant, dumped.

A reproduction's credibility rests on its parameters being inspectable.
This module renders the complete parameter state of both network models,
the node model and the cache/pollution models as tables — used by
``repro report`` and kept in sync with the dataclasses automatically
(it reads the live objects, so a drifted doc is impossible).
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, List, Tuple

from ..hardware import POWEREDGE_1750, XEON_CACHE, XEON_POLLUTION
from ..networks.params import ELAN_4, IB_4X
from .tables import render_table


def dataclass_rows(obj: Any, prefix: str = "") -> List[Tuple[str, str]]:
    """(name, value) rows for a dataclass, recursing into nested ones."""
    if not is_dataclass(obj):
        raise TypeError(f"{obj!r} is not a dataclass instance")
    rows: List[Tuple[str, str]] = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        name = f"{prefix}{f.name}"
        if is_dataclass(value):
            rows.extend(dataclass_rows(value, prefix=f"{name}."))
        elif isinstance(value, float):
            rows.append((name, f"{value:g}"))
        else:
            rows.append((name, str(value)))
    return rows


def render_parameters() -> str:
    """The full parameter inventory as ASCII tables."""
    sections = [
        ("Node model (Dell PowerEdge 1750)", POWEREDGE_1750),
        ("Cache model (Xeon 512 KB L2)", XEON_CACHE),
        ("Pollution / interference model", XEON_POLLUTION),
        ("4X InfiniBand + MVAPICH parameters", IB_4X),
        ("Quadrics Elan-4 + Tports parameters", ELAN_4),
    ]
    parts = []
    for title, obj in sections:
        rows = dataclass_rows(obj)
        parts.append(
            render_table(("parameter", "value"), rows, title=title)
        )
    parts.append(
        "Units: times in us, bandwidths in bytes/us (== MB/s), sizes in "
        "bytes, prices in April-2004 USD."
    )
    return "\n\n".join(parts)


def parameter_count() -> int:
    """Number of tunable constants across all models (for reporting)."""
    total = 0
    for obj in (POWEREDGE_1750, XEON_CACHE, XEON_POLLUTION, IB_4X, ELAN_4):
        total += len(dataclass_rows(obj))
    return total
