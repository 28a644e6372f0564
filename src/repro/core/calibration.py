"""Calibration anchors: the paper's quantitative claims, checked.

Each anchor compares a simulated quantity against the paper's reported
value or qualitative claim with an explicit tolerance.  ``check_all``
regenerates every micro-benchmark anchor (application anchors live in the
integration tests, which need longer sweeps) and returns structured
results; ``repro report`` prints them, and tests assert them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..microbench import run_pingpong, run_streaming
from ..units import KiB, MiB


@dataclass(frozen=True)
class Anchor:
    """One checked claim."""

    name: str
    claim: str
    measured: float
    low: float
    high: float

    @property
    def passed(self) -> bool:
        return self.low <= self.measured <= self.high


def microbenchmark_anchors(seed: int = 0) -> List[Anchor]:
    """Regenerate and check every Figure 1 anchor."""
    sizes = [0, 1024, 2048, 8192, 1 * MiB, 4 * MiB]
    pp = {net: run_pingpong(net, sizes=sizes, seed=seed) for net in ("ib", "elan")}
    st_sizes = [64, 256]
    st = {
        net: run_streaming(net, sizes=st_sizes, seed=seed)
        for net in ("ib", "elan")
    }
    anchors = [
        Anchor(
            name="latency_ratio",
            claim="Elan-4 average latency ~ half of InfiniBand",
            measured=pp["elan"].latency(0) / pp["ib"].latency(0),
            low=0.35,
            high=0.65,
        ),
        Anchor(
            name="ib_eager_jump",
            claim="IB latency jumps sharply between 1 KB and 2 KB",
            measured=pp["ib"].latency(2 * KiB) / pp["ib"].latency(1 * KiB),
            low=1.5,
            high=4.0,
        ),
        Anchor(
            name="elan_no_jump",
            claim="Elan-4 has no comparable protocol jump at 2 KB",
            measured=pp["elan"].latency(2 * KiB) / pp["elan"].latency(1 * KiB),
            low=1.0,
            high=1.7,
        ),
        Anchor(
            name="elan_8k_bandwidth",
            claim="Elan-4 ping-pong ~552 MB/s at 8 KB",
            measured=pp["elan"].bandwidth(8 * KiB),
            low=552 * 0.75,
            high=552 * 1.25,
        ),
        Anchor(
            name="ib_8k_bandwidth",
            claim="InfiniBand ping-pong ~249 MB/s at 8 KB",
            measured=pp["ib"].bandwidth(8 * KiB),
            low=249 * 0.75,
            high=249 * 1.25,
        ),
        Anchor(
            name="asymptotic_parity",
            claim="Both networks asymptote to similar bandwidth (1 MB)",
            measured=pp["elan"].bandwidth(1 * MiB) / pp["ib"].bandwidth(1 * MiB),
            low=0.87,
            high=1.15,
        ),
        Anchor(
            name="ib_4mb_dip",
            claim="IB 4 MB bandwidth drops vs 1 MB (registration thrash)",
            measured=pp["ib"].bandwidth(4 * MiB) / pp["ib"].bandwidth(1 * MiB),
            low=0.30,
            high=0.90,
        ),
        Anchor(
            name="elan_4mb_monotone",
            claim="Elan-4 has no 4 MB dip",
            measured=pp["elan"].bandwidth(4 * MiB) / pp["elan"].bandwidth(1 * MiB),
            low=0.95,
            high=1.2,
        ),
        Anchor(
            name="streaming_small_ratio",
            claim="Streaming advantage over 5x at small messages",
            measured=st["elan"].bandwidth(64) / st["ib"].bandwidth(64),
            low=5.0,
            high=12.0,
        ),
    ]
    return anchors


def check_all(seed: int = 0) -> Dict[str, Anchor]:
    """All micro-benchmark anchors keyed by name."""
    return {a.name: a for a in microbenchmark_anchors(seed=seed)}


def render_anchors(anchors: List[Anchor]) -> str:
    """Human-readable pass/fail table."""
    from .tables import render_table

    rows = []
    for a in anchors:
        rows.append(
            (
                "PASS" if a.passed else "FAIL",
                a.name,
                f"{a.measured:.3f}",
                f"[{a.low:.3f}, {a.high:.3f}]",
                a.claim,
            )
        )
    return render_table(
        ("", "anchor", "measured", "accepted", "claim"),
        rows,
        title="Calibration anchors (paper Figure 1 claims)",
    )
