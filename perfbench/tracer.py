"""Layer tracer: spans around the simulator's public entry points.

:class:`LayerTracer` wraps, at run time and only while installed, the
entry points each layer of the simulator is reached through:

* ``Simulator.spawn`` -- every spawned generator is driven through a
  wrapper, so each resumption becomes a span credited to the layer of
  the module that defines the generator;
* ``transfer`` (``repro.sim.pipelines``), as bound by name in every
  module that imported it;
* ``Nic.push``, ``Topology.wire_stages`` and ``TopologySpec.build``;
* ``MpiRank.isend/irecv/wait/waitall/compute`` and the collectives.

A generator method is timed per resumption: each stretch of host time
its frames run between two yields is one span.  Spans (name, start,
end, parent) are kept in flat arrays and can be written out with
:meth:`LayerTracer.save_spans`.  A span's self time is its duration
minus the durations of its direct children; a layer's self time is the
sum over the span names that belong to it.

Nothing here changes what the simulation computes: the wrappers pass
every value, exception and return value through unchanged.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

import repro.networks.base as nbase
import repro.networks.elan.nic as elan_nic
import repro.networks.ib.hca as ib_hca
import repro.sim as rsim
import repro.sim.pipelines as pipelines
from repro.mpi import MpiRank
from repro.networks.base import Nic
from repro.sim import Simulator
from repro.topology import TopologySpec
from repro.topology.base import Topology

_now_ns = time.perf_counter_ns

#: Collective methods of ``MpiRank`` (each call counts once, however
#: many point-to-point messages it sends underneath).
COLLECTIVES = (
    "barrier", "bcast", "reduce", "allreduce", "allgather",
    "alltoall", "gather", "scatter", "alltoallv",
)

#: Point-to-point and completion methods of ``MpiRank``.
POINT_TO_POINT = ("isend", "irecv", "wait", "waitall")


def layer_of_module(module: str) -> str:
    """The layer a generator-defining module belongs to.

    Rank processes are the ``runner`` generator of ``repro.mpi.machine``;
    their own frames are the application program, so they count as
    ``apps`` (the MPI calls they make are child spans).
    """
    if module == "repro.sim.pipelines":
        return "pipelines"
    if module.startswith("repro.networks"):
        return "nic"
    if module.startswith("repro.topology"):
        return "topology"
    if module == "repro.mpi.machine" or module.startswith("repro.apps"):
        return "apps"
    if module.startswith("repro.mpi"):
        return "mpi"
    if module.startswith("repro.sim"):
        return "sim"
    return "other"


def _module_of(generator: Any) -> str:
    frame = getattr(generator, "gi_frame", None)
    if frame is None:
        return ""
    return frame.f_globals.get("__name__", "")


class LayerTracer:
    """Records layer spans and counts while installed (``with`` block)."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.reset()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counts (names stay registered)."""
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {
            "spawns": 0,
            "pipelines.spawns": 0,
            "pipelines.transfers": 0,
            "pipelines.stages": 0,
            "topology.routes": 0,
            "nic.pushes": 0,
            "nic.bytes": 0,
            "mpi.isends": 0,
            "mpi.collectives": 0,
            "apps.compute_calls": 0,
        }

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0)
        stack.append(idx)
        self.span_start.append(_now_ns())
        return idx

    def _exit(self, idx: int) -> None:
        self.span_end[idx] = _now_ns()
        self._stack.pop()

    def _drive(self, nid: int, gen: Any) -> Iterator[Any]:
        """Run ``gen`` to completion, one span per resumption."""
        value: Any = None
        exc: Any = None
        while True:
            idx = self._enter(nid)
            try:
                if exc is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(exc)
            except StopIteration as stop:
                self._exit(idx)
                return stop.value
            except BaseException:
                self._exit(idx)
                raise
            self._exit(idx)
            try:
                value = yield target
                exc = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into ``gen``
                value = None
                exc = err

    def _timed_call(self, nid: int, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        idx = self._enter(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(idx)

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        """Wrap every traced entry point (undone by :meth:`uninstall`)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        tracer = self
        drive = self._drive
        timed = self._timed_call

        orig_spawn = Simulator.spawn
        proc_ids = {
            layer: self._name_id(f"proc:{layer}")
            for layer in ("pipelines", "nic", "topology", "mpi", "apps", "sim", "other")
        }
        layer_cache: Dict[Any, str] = {}

        def spawn(sim: Any, generator: Any, name: str = "", daemon: bool = False) -> Any:
            code = getattr(generator, "gi_code", None)
            layer = layer_cache.get(code)
            if layer is None:
                layer = layer_cache[code] = layer_of_module(_module_of(generator))
            c = tracer.counts
            c["spawns"] += 1
            if layer == "pipelines":
                c["pipelines.spawns"] += 1
            # Keep the name the process would have had unwrapped.
            name = name or getattr(generator, "__name__", "process")
            return orig_spawn(
                sim, drive(proc_ids[layer], generator), name=name, daemon=daemon
            )

        self._patch(Simulator, "spawn", spawn)

        orig_transfer = pipelines.transfer
        transfer_id = self._name_id("pipelines.transfer")

        def transfer(sim: Any, stages: Any, size: int, *args: Any, **kwargs: Any) -> Any:
            c = tracer.counts
            c["pipelines.transfers"] += 1
            c["pipelines.stages"] += len(stages)
            return drive(transfer_id, orig_transfer(sim, stages, size, *args, **kwargs))

        # ``transfer`` is imported by name into these modules; patch each
        # binding, the lazy ``from ...sim import transfer`` included.
        for module in (pipelines, rsim, nbase, ib_hca, elan_nic):
            self._patch(module, "transfer", transfer)

        orig_push = Nic.push
        push_id = self._name_id("nic.push")

        def push(nic: Any, dst_nic: Any, size: int, *args: Any, **kwargs: Any) -> Any:
            c = tracer.counts
            c["nic.pushes"] += 1
            c["nic.bytes"] += size
            return drive(push_id, orig_push(nic, dst_nic, size, *args, **kwargs))

        self._patch(Nic, "push", push)

        orig_wire = Topology.wire_stages
        wire_id = self._name_id("topology.wire_stages")

        def wire_stages(topo: Any, src: int, dst: int) -> Any:
            tracer.counts["topology.routes"] += 1
            return timed(wire_id, orig_wire, topo, src, dst)

        self._patch(Topology, "wire_stages", wire_stages)

        orig_build = TopologySpec.build
        build_id = self._name_id("topology.build")

        def build(spec: Any, *args: Any, **kwargs: Any) -> Any:
            return timed(build_id, orig_build, spec, *args, **kwargs)

        self._patch(TopologySpec, "build", build)

        def gen_method(method: str, span: str, counter: str = "") -> None:
            orig = MpiRank.__dict__[method]
            nid = self._name_id(span)

            def wrapper(api: Any, *args: Any, **kwargs: Any) -> Any:
                if counter:
                    tracer.counts[counter] += 1
                return drive(nid, orig(api, *args, **kwargs))

            wrapper.__name__ = method
            self._patch(MpiRank, method, wrapper)

        for method in POINT_TO_POINT:
            gen_method(method, f"mpi.{method}", "mpi.isends" if method == "isend" else "")
        for method in COLLECTIVES:
            gen_method(method, f"mpi.{method}", "mpi.collectives")
        gen_method("compute", "apps.compute", "apps.compute_calls")

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reduction -----------------------------------------------------------

    def ns_by_name(self) -> Tuple[Dict[str, int], Dict[str, int]]:
        """``(total, self)`` nanoseconds per span name, over all its spans."""
        if not len(self.span_name):
            return {}, {}
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.int64) - np.frombuffer(
            self.span_start, dtype=np.int64
        )
        own = dur.copy()
        nested = parent >= 0
        np.subtract.at(own, parent[nested], dur[nested])
        width = len(self._names)
        total = np.bincount(names, weights=dur, minlength=width)
        self_ = np.bincount(names, weights=own, minlength=width)
        return (
            {name: int(total[i]) for i, name in enumerate(self._names)},
            {name: int(self_[i]) for i, name in enumerate(self._names)},
        )

    def save_spans(self, path: Any) -> int:
        """Write the recorded spans to ``path`` (``.npz``); returns the count."""
        np.savez(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )
        return len(self.span_name)


class IsendCounter:
    """Counts ``MpiRank.isend`` calls while installed; records no spans."""

    def __init__(self) -> None:
        self.isends = 0
        self._orig: Any = None

    def __enter__(self) -> "IsendCounter":
        orig = self._orig = MpiRank.__dict__["isend"]
        counter = self

        def isend(api: Any, *args: Any, **kwargs: Any) -> Any:
            counter.isends += 1
            return orig(api, *args, **kwargs)

        MpiRank.isend = isend
        return self

    def __exit__(self, *exc: Any) -> None:
        MpiRank.isend = self._orig
