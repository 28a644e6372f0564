"""The full-paper report: regenerate every experiment and print it.

``repro report`` runs the complete reproduction.  ``--quick`` shrinks
sweeps for a fast smoke pass; ``--only fig3,fig7`` selects experiments.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from ..results import series_to_csv, series_to_dict
from ..version import PAPER, __version__
from .calibration import microbenchmark_anchors, render_anchors
from .figures import EXPERIMENTS, FigureData


def export_figures(figures: List[FigureData], directory: str) -> List[str]:
    """Write each figure's series as ``<id>.csv`` and ``<id>.json``.

    Text-only exhibits (the platform/price tables) export their rendered
    text as ``<id>.txt``.  Returns the written paths.
    """
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[str] = []
    for fig in figures:
        if fig.series:
            csv_path = out_dir / f"{fig.exp_id}.csv"
            csv_path.write_text(series_to_csv(fig.series))
            json_path = out_dir / f"{fig.exp_id}.json"
            json_path.write_text(
                json.dumps(
                    {"title": fig.title, "series": series_to_dict(fig.series)},
                    indent=2,
                )
            )
            written.extend([str(csv_path), str(json_path)])
        else:
            txt_path = out_dir / f"{fig.exp_id}.txt"
            txt_path.write_text(fig.render())
            written.append(str(txt_path))
    return written


def run_experiments(
    ids: Optional[Sequence[str]] = None,
    quick: bool = False,
    seed: int = 0,
    echo=None,
    engine=None,
) -> List[FigureData]:
    """Run the selected experiments (all, in paper order, by default).

    Passing a :class:`repro.campaign.CampaignEngine` routes every
    scaling-study sweep through its cache and worker pool; the numbers
    are identical either way.
    """
    selected = list(ids) if ids else list(EXPERIMENTS)
    unknown = [i for i in selected if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment ids: {unknown}; "
                       f"known: {sorted(EXPERIMENTS)}")
    out = []
    for exp_id in selected:
        t0 = time.time()  # repro-lint: disable=RPR001 - host wall time
        fig = EXPERIMENTS[exp_id](quick=quick, seed=seed, engine=engine)
        if echo is not None:
            echo(  # host wall time, not simulated time
                f"[{exp_id}] regenerated in "  # repro-lint: disable=RPR001
                f"{time.time() - t0:.1f}s"  # repro-lint: disable=RPR001
            )
        out.append(fig)
    return out


def render_report(
    figures: List[FigureData],
    with_anchors: bool = True,
    seed: int = 0,
    plots: bool = False,
) -> str:
    """The complete text report."""
    lines = [
        "=" * 72,
        "Reproduction report",
        PAPER,
        f"repro package version {__version__}",
        "=" * 72,
        "",
    ]
    if with_anchors:
        lines.append(render_anchors(microbenchmark_anchors(seed=seed)))
        lines.append("")
    for fig in figures:
        lines.append(fig.render(plots=plots))
        lines.append("")
    return "\n".join(lines)


def cmd_report(args: argparse.Namespace) -> int:
    if args.parameters:
        from .parameters import render_parameters

        print(render_parameters())
        print()
    engine = None
    if args.workers is not None or args.campaign_root:
        from ..campaign import DEFAULT_ROOT, CampaignEngine

        engine = CampaignEngine(
            root=args.campaign_root or DEFAULT_ROOT,
            workers=args.workers if args.workers is not None else 1,
        )
    ids = [s.strip() for s in args.only.split(",") if s.strip()] or None
    figures = run_experiments(
        ids=ids, quick=args.quick, seed=args.seed, echo=lambda m: print(m, file=sys.stderr),
        engine=engine,
    )
    print(
        render_report(
            figures,
            with_anchors=not args.no_anchors,
            seed=args.seed,
            plots=args.plots,
        )
    )
    if args.export_dir:
        written = export_figures(figures, args.export_dir)
        print(f"exported {len(written)} files to {args.export_dir}", file=sys.stderr)
    return 0


def configure(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps (smoke run)"
    )
    parser.add_argument(
        "--only",
        default="",
        help="comma-separated experiment ids (e.g. fig1a,fig7,table2_3)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--no-anchors", action="store_true", help="skip calibration anchors"
    )
    parser.add_argument(
        "--plots", action="store_true", help="render ASCII charts too"
    )
    parser.add_argument(
        "--parameters",
        action="store_true",
        help="print the full model-parameter inventory first",
    )
    parser.add_argument(
        "--export-dir",
        default="",
        help="also write each figure's series as CSV/JSON into this directory",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="run study sweeps on a campaign worker pool of this size "
        "(0 = one per CPU); implies --campaign-root",
    )
    parser.add_argument(
        "--campaign-root",
        default="",
        help="cache study sweeps in this campaign directory "
        "(see repro campaign)",
    )
    parser.set_defaults(func=cmd_report)
