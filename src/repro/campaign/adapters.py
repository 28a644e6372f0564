"""Bridges between the campaign engine and the study/figure layers.

:func:`run_study` executes a declarative :class:`~repro.core.study.
ScalingStudy` through a :class:`~.engine.CampaignEngine` — same cells,
same seeds, same assembly — so existing figure generators gain caching
and parallelism without any change in their numbers.  :func:`study_spec`
exposes the same sweep as a :class:`~.spec.CampaignSpec` for the
``repro campaign`` CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import ConfigurationError
from .engine import CampaignEngine, CampaignResult
from .spec import CampaignSpec, study_runspecs


def _require_declarative(study) -> None:
    if study.app is None:
        raise ConfigurationError(
            "campaign execution needs a declarative study: build "
            "ScalingStudy with app=/app_args= instead of a closure "
            "program_factory"
        )


def run_study(
    study,
    engine: CampaignEngine,
    progress: Optional[Callable[[str], None]] = None,
):
    """Run a declarative ScalingStudy's sweep on the campaign engine.

    Returns the same :class:`~repro.core.study.StudyResult` the study's
    serial runner would produce — the engine only changes *where* and
    *whether* each simulation executes, never its outcome.
    """
    _require_declarative(study)
    specs = study_runspecs(
        app=study.app,
        app_args=study.app_args,
        node_counts=study.node_counts,
        networks=study.networks,
        ppns=study.ppns,
        repetitions=study.repetitions,
        seed_base=study.seed_base,
    )
    result = engine.run_specs(specs)
    failed = result.failed()
    if failed:
        first = failed[0]
        raise ConfigurationError(
            f"{len(failed)} of {result.total} campaign runs failed; first: "
            f"{first.get('label', first.get('key'))}: {first.get('error')}"
        )
    values: Dict[Tuple[str, int, int, int], float] = {}
    index = 0
    for network, ppn, nodes in study.cells():
        for rep in range(study.repetitions):
            values[(network, ppn, nodes, rep)] = result.records[index]["value"]
            index += 1
    return study.assemble(values, progress=progress)


def study_spec(study, name: str) -> CampaignSpec:
    """A declarative study as a CampaignSpec (for files and the CLI)."""
    _require_declarative(study)
    base = {"app": study.app}
    base.update({f"app_args.{k}": v for k, v in study.app_args.items()})
    return CampaignSpec(
        name=name,
        base=base,
        grid={
            "network": list(study.networks),
            "nodes": list(study.node_counts),
            "ppn": list(study.ppns),
        },
        repetitions=study.repetitions,
        seed_base=study.seed_base,
    )


def campaign_summary(result: CampaignResult) -> str:
    """One-line engine outcome for progress surfaces."""
    return result.summary()
