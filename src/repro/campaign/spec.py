"""Declarative campaign specifications.

A :class:`CampaignSpec` names a parameter sweep — a cartesian ``grid``
over network, node count, PPN, application and application arguments,
plus optional explicit ``points`` — and expands it into individual
:class:`RunSpec` measurement runs (one per grid point per repetition).

A :class:`RunSpec` is the atom of campaign execution: a fully
declarative, picklable, JSON-serializable description of one simulated
measurement.  Its :attr:`RunSpec.key` is a stable content hash of the
spec plus the ``repro`` package version, which keys the on-disk result
cache and the run journal — two campaigns agree on a key exactly when
they would produce bit-identical results.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..faults import FaultPlan
from ..mpi.machine import NETWORKS
from ..topology import TopologySpec
from ..version import __version__

#: RunSpec fields a grid/point is allowed to set directly.
_RUN_FIELDS = ("app", "network", "nodes", "ppn", "ib_progress_thread")

#: Prefix for sweeping application arguments, e.g. ``app_args.size``.
_ARG_PREFIX = "app_args."

#: Prefix for sweeping fault-plan knobs, e.g. ``fault.ber``.
_FAULT_PREFIX = "fault."

#: Prefix for sweeping topology fields, e.g. ``topology.kind``.
_TOPO_PREFIX = "topology."


def _check_json_value(name: str, value: Any) -> None:
    if not isinstance(value, (str, int, float, bool, type(None))):
        raise ConfigurationError(
            f"campaign parameter {name}={value!r} is not a JSON scalar"
        )


def _canon_scalar(value: Any) -> Any:
    """Collapse numerically-equal JSON scalars onto one canonical form.

    ``ber=0`` and ``ber=0.0`` describe the same simulation, so they must
    hash to the same cache key — otherwise the serve layer would run (and
    fail to coalesce) duplicate jobs for one question.  Integral floats
    become ints; bools are left alone (``True != 1`` as a knob value).
    """
    if isinstance(value, float) and not isinstance(value, bool):
        if value.is_integer():
            return int(value)
    return value


def _canon_pairs(pairs: Iterable[Tuple[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Sorted, scalar-canonicalized ``(name, value)`` pairs.

    Sorting here (not just in ``to_dict``) makes *spec equality* — and
    therefore in-flight coalescing — agree with cache-key equality even
    for specs built with hand-ordered tuples.
    """
    return tuple(sorted((name, _canon_scalar(value)) for name, value in pairs))


@dataclass(frozen=True)
class RunSpec:
    """One declarative measurement run (app x network x shape x seed).

    Field values must be plain data — no lambdas, closures or live
    objects — so the spec pickles for parallel workers and hashes into
    a stable cache key (``repro-lint`` rule RPR006 enforces this at
    construction sites).
    """

    app: str
    network: str
    nodes: int
    ppn: int = 1
    seed: int = 0
    #: Application arguments as sorted ``(name, value)`` pairs so the
    #: spec stays hashable; use :attr:`args` for the dict view.
    app_args: Tuple[Tuple[str, Any], ...] = ()
    #: InfiniBand asynchronous progress thread (ablation knob).
    ib_progress_thread: bool = False
    #: Fault-plan overrides as sorted ``(field, value)`` pairs — the
    #: degraded-fabric axes (see :class:`repro.faults.FaultPlan`).  Empty
    #: means a pristine machine (no injector attached at all).
    faults: Tuple[Tuple[str, Any], ...] = ()
    #: Topology overrides as sorted ``(field, value)`` pairs (see
    #: :class:`repro.topology.TopologySpec`).  Empty means the default
    #: single-chassis crossbar.
    topology: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.network not in NETWORKS:
            raise ConfigurationError(
                f"unknown network {self.network!r}; expected one of {NETWORKS}"
            )
        # Canonicalize before validating: semantically identical specs
        # (hand-ordered tuples, int-vs-float scalars like ber=0 vs
        # ber=0.0) must compare equal and hash to one cache key, or the
        # serve layer would fail to coalesce identical in-flight work.
        # The dataclass is frozen, so normalized fields are written back
        # through object.__setattr__.
        for name in ("app_args", "faults", "topology"):
            object.__setattr__(self, name, _canon_pairs(getattr(self, name)))
        for name in ("nodes", "ppn", "seed"):
            value = getattr(self, name)
            if isinstance(value, float) and not isinstance(value, bool):
                canon = _canon_scalar(value)
                if not isinstance(canon, int):
                    raise ConfigurationError(
                        f"{name}={value!r} must be an integer"
                    )
                object.__setattr__(self, name, canon)
        if self.nodes < 1:
            raise ConfigurationError("need at least one node")
        if self.ppn < 1:
            raise ConfigurationError("need at least one process per node")
        for name, value in self.app_args:
            _check_json_value(f"{_ARG_PREFIX}{name}", value)
        for name, value in self.faults:
            _check_json_value(f"{_FAULT_PREFIX}{name}", value)
        for name, value in self.topology:
            _check_json_value(f"{_TOPO_PREFIX}{name}", value)
        # Validate knob names and ranges eagerly, at declaration time.
        self.fault_plan
        self.topology_spec

    @property
    def args(self) -> Dict[str, Any]:
        """Application arguments as a plain dict."""
        return dict(self.app_args)

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The run's :class:`~repro.faults.FaultPlan`, or ``None``."""
        if not self.faults:
            return None
        return FaultPlan.from_dict(dict(self.faults))

    @property
    def topology_spec(self) -> Optional[TopologySpec]:
        """The run's :class:`~repro.topology.TopologySpec`, or ``None``."""
        if not self.topology:
            return None
        return TopologySpec.from_dict(dict(self.topology))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready canonical form (sorted app_args)."""
        return {
            "app": self.app,
            "app_args": dict(sorted(self.app_args)),
            "network": self.network,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "seed": self.seed,
            "ib_progress_thread": self.ib_progress_thread,
            "faults": dict(sorted(self.faults)),
            "topology": dict(sorted(self.topology)),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunSpec":
        """Build a spec from its :meth:`to_dict` form; unknown keys raise."""
        valid = {f.name for f in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise ConfigurationError(
                f"unknown RunSpec keys {sorted(unknown)}; valid: {sorted(valid)}"
            )
        args = data.get("app_args") or {}
        faults = data.get("faults") or {}
        topology = data.get("topology") or {}
        return cls(
            app=data["app"],
            network=data["network"],
            nodes=int(data["nodes"]),
            ppn=int(data.get("ppn", 1)),
            seed=int(data.get("seed", 0)),
            app_args=tuple(sorted(args.items())),
            ib_progress_thread=bool(data.get("ib_progress_thread", False)),
            faults=tuple(sorted(faults.items())),
            topology=tuple(sorted(topology.items())),
        )

    @property
    def key(self) -> str:
        """Stable content hash of this run plus the repro version.

        Any change to the spec *or* to the package version (and hence
        potentially to the model) yields a new key, so stale cache
        entries can never be mistaken for current results.

        Memoized per instance: the serve daemon derives the key on
        every request, and the spec is frozen so it cannot go stale.
        """
        cached = self.__dict__.get("_key")
        if cached is not None:
            return cached
        payload = json.dumps(
            {"version": __version__, "run": self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
        object.__setattr__(self, "_key", digest)
        return digest

    def label(self) -> str:
        """Compact human-readable identity for journals and logs."""
        args = ",".join(f"{k}={v}" for k, v in self.app_args)
        app = f"{self.app}({args})" if args else self.app
        text = f"{app} {self.network} {self.nodes}n x{self.ppn}ppn seed={self.seed}"
        if self.faults:
            knobs = ",".join(f"{k}={v}" for k, v in self.faults)
            text += f" faults[{knobs}]"
        if self.topology:
            knobs = ",".join(f"{k}={v}" for k, v in self.topology)
            text += f" topo[{knobs}]"
        return text


def _point_to_spec(point: Dict[str, Any], seed: int) -> RunSpec:
    """Build one RunSpec from a flat parameter dict (dotted app args)."""
    fields: Dict[str, Any] = {}
    args: Dict[str, Any] = {}
    faults: Dict[str, Any] = {}
    topology: Dict[str, Any] = {}
    for name, value in point.items():
        if name.startswith(_ARG_PREFIX):
            args[name[len(_ARG_PREFIX):]] = value
        elif name.startswith(_FAULT_PREFIX):
            faults[name[len(_FAULT_PREFIX):]] = value
        elif name.startswith(_TOPO_PREFIX):
            topology[name[len(_TOPO_PREFIX):]] = value
        elif name == "app_args":
            if not isinstance(value, dict):
                raise ConfigurationError("app_args must be a mapping")
            args.update(value)
        elif name == "faults":
            if not isinstance(value, dict):
                raise ConfigurationError("faults must be a mapping")
            faults.update(value)
        elif name == "topology":
            if not isinstance(value, dict):
                raise ConfigurationError("topology must be a mapping")
            topology.update(value)
        elif name in _RUN_FIELDS:
            fields[name] = value
        else:
            raise ConfigurationError(
                f"unknown campaign parameter {name!r}; expected one of "
                f"{_RUN_FIELDS}, {_ARG_PREFIX}<name>, {_FAULT_PREFIX}<knob> "
                f"or {_TOPO_PREFIX}<field>"
            )
    if "app" not in fields:
        raise ConfigurationError("every campaign point needs an 'app'")
    if "network" not in fields:
        raise ConfigurationError("every campaign point needs a 'network'")
    fields.setdefault("nodes", 1)
    return RunSpec(
        seed=seed,
        app_args=tuple(sorted(args.items())),
        faults=tuple(sorted(faults.items())),
        topology=tuple(sorted(topology.items())),
        **fields,
    )


@dataclass
class CampaignSpec:
    """A named sweep: base parameters, a cartesian grid, explicit points.

    ``base`` holds defaults applied to every run (e.g. the app and its
    fixed arguments); ``grid`` maps parameter names to value lists and
    expands to their cartesian product; ``points`` appends explicit
    parameter dicts (each merged over ``base``) for irregular sweeps.
    Application arguments are addressed with dotted names
    (``app_args.size``) or a nested ``app_args`` mapping.  Every
    expanded point runs ``repetitions`` times with seeds ``seed_base``,
    ``seed_base + 1``, ... — the paper's four-repetition methodology.
    """

    name: str
    base: Dict[str, Any] = field(default_factory=dict)
    grid: Dict[str, List[Any]] = field(default_factory=dict)
    points: List[Dict[str, Any]] = field(default_factory=list)
    repetitions: int = 1
    seed_base: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("campaign needs a name")
        if self.repetitions < 1:
            raise ConfigurationError("need at least one repetition")
        for axis, values in self.grid.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"grid axis {axis!r} must be a non-empty list"
                )

    def expand(self) -> List[RunSpec]:
        """All runs, in deterministic order (grid order, reps innermost)."""
        specs: List[RunSpec] = []
        axes = sorted(self.grid)
        if self.grid or not self.points:
            # An empty grid with no explicit points runs the base alone;
            # with explicit points, only the points run.
            for combo in itertools.product(*(self.grid[a] for a in axes)):
                point = dict(self.base)
                point.update(dict(zip(axes, combo)))
                specs.extend(self._repeat(point))
        for extra in self.points:
            point = dict(self.base)
            point.update(extra)
            specs.extend(self._repeat(point))
        if not specs:
            raise ConfigurationError(
                f"campaign {self.name!r} expands to zero runs"
            )
        return specs

    def _repeat(self, point: Dict[str, Any]) -> Iterable[RunSpec]:
        return (
            _point_to_spec(point, seed=self.seed_base + rep)
            for rep in range(self.repetitions)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base": dict(self.base),
            "grid": {k: list(v) for k, v in self.grid.items()},
            "points": [dict(p) for p in self.points],
            "repetitions": self.repetitions,
            "seed_base": self.seed_base,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        unknown = set(data) - {
            "name", "base", "grid", "points", "repetitions", "seed_base"
        }
        if unknown:
            raise ConfigurationError(
                f"unknown campaign spec keys: {sorted(unknown)}"
            )
        return cls(
            name=data.get("name", ""),
            base=dict(data.get("base") or {}),
            grid={k: list(v) for k, v in (data.get("grid") or {}).items()},
            points=[dict(p) for p in (data.get("points") or [])],
            repetitions=int(data.get("repetitions", 1)),
            seed_base=int(data.get("seed_base", 0)),
        )

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        """Load a campaign from a JSON file (see EXPERIMENTS.md)."""
        text = Path(path).read_text()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"bad campaign file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"campaign file {path} must hold an object")
        return cls.from_dict(data)


def study_runspecs(
    app: str,
    app_args: Optional[Dict[str, Any]],
    node_counts: Sequence[int],
    networks: Sequence[str],
    ppns: Sequence[int],
    repetitions: int,
    seed_base: int,
) -> List[RunSpec]:
    """The scaling-study sweep as RunSpecs, in the study's own order.

    Unlike :meth:`CampaignSpec.expand` this preserves the historical
    ``network -> ppn -> nodes -> repetition`` nesting of
    :class:`repro.core.study.ScalingStudy`, so seeds and assembly order
    match the serial runner exactly.
    """
    args = tuple(sorted((app_args or {}).items()))
    return [
        RunSpec(
            app=app,
            network=network,
            nodes=nodes,
            ppn=ppn,
            seed=seed_base + rep,
            app_args=args,
        )
        for network in networks
        for ppn in ppns
        for nodes in node_counts
        for rep in range(repetitions)
    ]
