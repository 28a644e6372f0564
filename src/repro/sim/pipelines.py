"""Pipelined multi-stage transfers with exact resource contention.

A message crossing ``host -> PCI-X -> wire -> PCI-X -> host`` is a pipeline:
stage *i+1* may begin once the first *chunk* has cleared stage *i*, while
each stage's resource stays busy for the message's full serialization time.
Modelling this at chunk granularity would cost O(chunks) events per message
(a 4 MB transfer in 2 KB MTUs is 2048 chunks); instead each stage is a
single acquire/hold/release with analytically-computed start and finish
times.  Contention remains exact — a stage's resource is occupied for the
true duration — while intra-message pipelining costs O(stages) events
and no processes (see :class:`_Transfer`).

Timing rules for stage *i* acquiring its resource at time ``a_i``:

* serialization time ``T_i = overhead_i + size / bandwidth_i``;
* finish ``f_i = max(a_i + T_i, f_{i-1} + head_i)`` where
  ``head_i = min(size, chunk) / bandwidth_i`` — a fast stage cannot finish
  before the final chunk has arrived from its slower predecessor (the
  predecessor's ``latency_{i-1}`` delays only the gate below, not this
  bound);
* the first chunk leaves stage *i* at ``a_i + overhead_i + head_i`` and
  reaches stage *i+1* after ``latency_i``, gating that stage's start;
* the message is delivered ``latency_out`` after the last stage finishes.

For messages not larger than one chunk, this degrades to store-and-forward,
which is the correct small-message behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, Optional, Sequence

from ..errors import SimulationError
from .events import Event, Timeout
from .resources import FifoResource

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

#: Default pipelining chunk: the 4X InfiniBand MTU used by MVAPICH-era
#: stacks and close to the Elan-4 packet payload; both models override it
#: from their parameter sets.
DEFAULT_CHUNK = 2048


@dataclass(frozen=True)
class Stage:
    """One pipeline stage."""

    #: The contended resource this stage occupies, or ``None`` for a pure
    #: delay stage (e.g. a switch crossing whose per-port contention is
    #: modelled in the adjacent link stages).
    resource: Optional[FifoResource]
    #: Serialization bandwidth in bytes/us (== MB/s); ``None`` is infinite.
    bandwidth: Optional[float] = None
    #: Fixed per-message cost in us, paid before the first byte moves.
    overhead: float = 0.0
    #: Propagation delay in us from this stage to the next.
    latency_out: float = 0.0
    #: Debug label.
    name: str = ""
    #: The slice of ``latency_out`` spent crossing a switch/router: blame
    #: metadata only; timing reads ``latency_out`` alone.
    switch_latency: float = 0.0

    def serialization(self, size: int) -> float:
        """Full serialization time for ``size`` bytes."""
        t = self.overhead
        if self.bandwidth is not None:
            if self.bandwidth <= 0:
                raise SimulationError(f"stage {self.name!r}: bad bandwidth")
            t += size / self.bandwidth
        return t

    def chunk_time(self, nbytes: int) -> float:
        """Serialization time of ``nbytes`` (no overhead)."""
        if self.bandwidth is None:
            return 0.0
        return nbytes / self.bandwidth


def transfer(
    sim: "Simulator",
    stages: Sequence[Stage],
    size: int,
    chunk: int = DEFAULT_CHUNK,
    key: Any = None,
) -> Generator[Event, Any, float]:
    """Run one message of ``size`` bytes through ``stages``.

    A generator to be driven inside a simulation process (``yield from``).
    Returns the completion time (when the last stage finishes).  Zero-byte
    messages still pay each stage's overhead and latency — control messages
    are never free.

    ``key`` identifies the *message* for same-time tiebreak auditing
    (see :meth:`~repro.sim.events.Event.tiebreak_key`): each stage's
    resource grant carries ``(key, stage-index)``, so two transfers
    contending for one bus at the same instant are distinguishable by
    their message identity, not just schedule order.
    """
    if size < 0:
        raise SimulationError(f"negative transfer size: {size}")
    if chunk < 1:
        raise SimulationError(f"chunk must be >= 1, got {chunk}")
    if not stages:
        raise SimulationError("transfer needs at least one stage")
    return (yield _Transfer(sim, stages, size, min(size, chunk), key))


class _Transfer(Event):
    """One message's walk through its stages, driven by kernel callbacks.

    Its own completion event (as a process is), succeeding with the
    delivery time.  A stage's grant (synchronous when its resource is
    idle; or, resource-less, its open gate) computes ``a_i``/``f_i``,
    hands the slot to :meth:`FifoResource.release_at` for ``f_i`` (a
    lazy release: no event unless someone queues behind it) and
    schedules a gate timer that opens the next stage; the last stage's
    one timer delivers.  Grants arrive in stage order, so a stage
    counter and ``f_{i-1}`` are all the state.
    """

    __slots__ = ("stages", "size", "head", "msg_key", "stage", "_prev",
                 "_req", "_on_grant", "_on_gate")

    def __init__(self, sim: "Simulator", stages: Sequence[Stage], size: int,
                 head: int, key: Any) -> None:
        super().__init__(sim)
        self.stages, self.size, self.head, self.msg_key = stages, size, head, key
        self.stage, self._prev, self._req = -1, None, None
        self._on_grant, self._on_gate = self._granted, self._open
        self._open()

    def _open(self, gate: Any = None) -> None:
        i = self.stage = self.stage + 1
        resource = self.stages[i].resource
        if resource is None:
            self._req = None
            return self._granted(None)
        key = None if self.msg_key is None else (self.msg_key, i)  # repro-lint: disable=RPR022 -- the per-stage grant key RaceSanitizer audits
        req = self._req = resource.request(key=key)
        if req.callbacks is None:
            self._granted(req)
        else:
            req.callbacks.append(self._on_grant)

    def _granted(self, req: Any) -> None:
        sim, st = self.sim, self.stages[self.stage]
        a_i = sim._now
        finish = a_i + st.serialization(self.size)
        head_time = st.chunk_time(self.head)
        if self._prev is not None:
            finish = max(finish, self._prev + head_time)
        self._prev = finish
        until = a_i + max(0.0, finish - a_i)
        if req is not None:
            req.resource.release_at(req, until)
        if self.stage + 1 < len(self.stages):
            # The first chunk, out and propagated, opens the next stage.
            first_out = a_i + st.overhead + head_time + st.latency_out
            Timeout(sim, max(0.0, first_out - a_i)).callbacks.append(self._on_gate)
        elif until + st.latency_out > a_i:
            sim._call_at(until + st.latency_out, self._delivered)
        else:
            self._delivered()

    def _delivered(self, timer: Any = None) -> None:
        # Drop the pre-bound callbacks: they close a reference cycle.
        self._on_grant = self._on_gate = None
        self.succeed(self.sim._now)

    def describe(self) -> str:
        req = self._req
        where = req.describe() if req is not None and not req.triggered else "in flight"
        return f"transfer stage {self.stage + 1}/{len(self.stages)}: {where}"


def transfer_time_estimate(
    stages: Sequence[Stage], size: int, chunk: int = DEFAULT_CHUNK
) -> float:
    """Closed-form uncontended transfer time (for tests and calibration).

    Computes the same recurrence as :func:`transfer` assuming every resource
    is granted immediately.
    """
    head = min(size, chunk)
    start, finish = 0.0, None
    for st in stages:
        prev, finish = finish, start + st.serialization(size)
        if prev is not None:
            finish = max(finish, prev + st.chunk_time(head))
        start = start + st.overhead + st.chunk_time(head) + st.latency_out
    return finish + stages[-1].latency_out
