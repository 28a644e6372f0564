"""Folded-Clos fat trees of ``radix``-port switches, 1 to 3 levels.

The port arithmetic is shared with :mod:`repro.cost.switchmath` (the
paper's Figure 7 cost model): leaves dedicate half their ports to hosts
and half to uplinks, so ``m = radix // 2`` hosts hang off each leaf, a
two-level tree reaches ``m * radix`` hosts and a three-level tree
``m^2 * radix``.  Building a topology asserts its own switch/link counts
against the cost model, so the performance and procurement answers can
never drift apart.

Routing is deterministic source-based up-routing with d-mod-k selection
(up-path switch = ``dst mod k``), matching both technologies' era
routing: every (src, dst) pair uses one fixed path, so ISL hot spots are
reproducible rather than averaged away.

Stage naming: node links keep the historical ``up{i}`` / ``down{i}``
names; inter-switch links are ``isl:`` stages on ``link.*`` resources,
so repro-explain blames them as an ``isl`` component distinct from the
node cables and the switch crossings, and fault plans can target one
named ISL (``fault.link = "isl:l0>s1"``).

A 1-level fat tree *is* the crossbar (stage-for-stage identical — the
golden-equivalence pin in the tests), which is what lets the crossbar
remain the default fabric while large what-ifs swap in deeper trees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..cost import switchmath
from ..errors import ConfigurationError, CostModelError
from ..sim import Stage
from .base import CrossbarTopology

if TYPE_CHECKING:  # pragma: no cover
    from ..sim import Simulator
    from .base import FabricSpec


class FatTreeTopology(CrossbarTopology):
    """Fat tree of homogeneous ``radix``-port switches.

    ``levels=0`` (the default) picks the shallowest tree that reaches
    ``n_nodes``; explicit 1/2/3 force a depth (useful for equivalence
    pins and what-ifs).  Level meanings:

    * 1 — single chassis, identical to :class:`CrossbarTopology`;
    * 2 — leaf/spine folded Clos;
    * 3 — pods of ``m`` leaves and ``m`` aggregation switches under a
      core layer of ``m^2`` switches (``m = radix // 2``).
    """

    kind = "fattree"

    def __init__(
        self,
        sim: "Simulator",
        n_nodes: int,
        spec: "FabricSpec",
        radix: int,
        levels: int = 0,
    ) -> None:
        super().__init__(sim, n_nodes, spec)
        if radix < 4 or radix % 2:
            raise ConfigurationError(f"radix must be even and >= 4: {radix}")
        self.radix = radix
        m = radix // 2
        if levels == 0:
            if n_nodes <= radix:
                levels = 1
            elif n_nodes <= m * radix:
                levels = 2
            else:
                levels = 3
        if levels not in (1, 2, 3):
            raise ConfigurationError(f"fat tree levels must be 1..3: {levels}")
        self.levels = levels
        try:
            #: Bill of switching materials — the same arithmetic the
            #: cost model sells, asserted against the built structure.
            self.switch_count = switchmath.fat_tree(n_nodes, radix, levels)
        except CostModelError as exc:
            if levels != 2:
                raise ConfigurationError(str(exc)) from exc
            # An *explicit* two-level tree past full-bisection capacity is
            # allowed as an oversubscribed folded Clos, using the same
            # ceil arithmetic as :func:`~repro.cost.switchmath.two_level`,
            # minus the cap.
            leaves = -(-n_nodes // m)
            spines = max(1, -(-leaves * m // radix))
            self.switch_count = switchmath.SwitchCount(
                leaves=leaves, spines=spines, isl_cables=leaves * m
            )
        #: Hosts per leaf switch.
        self.down_per_leaf = 1 if levels == 1 else m
        self.n_leaves = -(-n_nodes // m) if levels > 1 else 1
        if levels == 2:
            self.n_spines = self.switch_count.spines
        elif levels == 3:
            self.leaves_per_pod = m
            self.aggs_per_pod = m
            self.n_pods = -(-n_nodes // (m * m))
            self.n_cores = self.switch_count.cores
            self.n_spines = self.switch_count.spines  # aggregation layer
        else:
            self.n_spines = 0
        if levels > 1 and self.n_leaves != self.switch_count.leaves:
            raise ConfigurationError(
                "topology/cost model disagree on leaf count: "
                f"{self.n_leaves} vs {self.switch_count.leaves}"
            )

    # -- structure ---------------------------------------------------------

    def leaf_of(self, node: int) -> int:
        """Index of the leaf switch ``node`` attaches to."""
        self._check(node)
        if self.levels == 1:
            return 0
        return node // (self.radix // 2)

    def pod_of(self, node: int) -> int:
        """Index of the pod ``node`` belongs to (3-level trees)."""
        self._check(node)
        if self.levels < 3:
            return 0
        m = self.radix // 2
        return node // (m * m)

    @property
    def hops(self) -> int:
        return {1: 1, 2: 3, 3: 5}[self.levels]

    def max_route_stages(self) -> int:
        return {1: 2, 2: 4, 3: 6}[self.levels]

    def describe(self) -> str:
        c = self.switch_count
        return (
            f"fat tree ({self.n_nodes} nodes, radix {self.radix}, "
            f"{self.levels} level(s), {c.total_switches} switches, "
            f"{c.isl_cables} ISL cables)"
        )

    # -- liveness (hard failures) ------------------------------------------

    def link_targets(self) -> List[str]:
        names = [f"up{i}" for i in range(self.n_nodes)]
        names += [f"down{i}" for i in range(self.n_nodes)]
        if self.levels == 2:
            for leaf in range(self.n_leaves):
                for spine in range(self.n_spines):
                    names.append(f"isl:l{leaf}>s{spine}")
                    names.append(f"isl:s{spine}>l{leaf}")
        elif self.levels == 3:
            m = self.radix // 2
            for leaf in range(self.n_leaves):
                pod = leaf // m
                for j in range(m):
                    agg = pod * m + j
                    names.append(f"isl:l{leaf}>a{agg}")
                    names.append(f"isl:a{agg}>l{leaf}")
            # Core c wires to the aggs sharing its offset c % m in every
            # pod (the d-mod-k selection arithmetic guarantees it).
            for agg in range(self.n_spines):
                for core in range(self.n_cores):
                    if core % m == agg % m:
                        names.append(f"isl:a{agg}>c{core}")
                        names.append(f"isl:c{core}>a{agg}")
        return sorted(names)

    def switch_ids(self) -> List[str]:
        if self.levels == 1:
            return super().switch_ids()
        ids = [f"l{i}" for i in range(self.n_leaves)]
        if self.levels == 2:
            ids += [f"s{j}" for j in range(self.n_spines)]
        else:
            ids += [f"a{j}" for j in range(self.n_spines)]
            ids += [f"c{k}" for k in range(self.n_cores)]
        return sorted(ids)

    def switch_links(self, switch_id: str) -> List[str]:
        if self.levels == 1:
            return super().switch_links(switch_id)
        kind, idx = switch_id[:1], switch_id[1:]
        if kind not in ("l", "s", "a", "c") or not idx.isdigit():
            raise ConfigurationError(f"unknown fat-tree switch {switch_id!r}")
        idx = int(idx)
        m = self.radix // 2
        names: List[str] = []
        if kind == "l":
            for node in range(self.n_nodes):
                if node // m == idx:
                    names += [f"up{node}", f"down{node}"]
            if self.levels == 2:
                for spine in range(self.n_spines):
                    names += [f"isl:l{idx}>s{spine}", f"isl:s{spine}>l{idx}"]
            else:
                pod = idx // m
                for j in range(m):
                    agg = pod * m + j
                    names += [f"isl:l{idx}>a{agg}", f"isl:a{agg}>l{idx}"]
        elif kind == "s":
            for leaf in range(self.n_leaves):
                names += [f"isl:l{leaf}>s{idx}", f"isl:s{idx}>l{leaf}"]
        elif kind == "a":
            pod = idx // m
            for leaf in range(pod * m, min((pod + 1) * m, self.n_leaves)):
                names += [f"isl:l{leaf}>a{idx}", f"isl:a{idx}>l{leaf}"]
            for core in range(self.n_cores):
                if core % m == idx % m:
                    names += [f"isl:a{idx}>c{core}", f"isl:c{core}>a{idx}"]
        else:
            for agg in range(self.n_spines):
                if agg % m == idx % m:
                    names += [f"isl:a{agg}>c{idx}", f"isl:c{idx}>a{agg}"]
        return sorted(set(names))

    def _alternate_route(self, src: int, dst: int) -> Optional[List[Stage]]:
        """Next live d-mod-k up-path, in deterministic offset order.

        InfiniBand's Automatic Path Migration preprograms alternate
        paths through different spines/cores; Elan's second rail uses an
        independent fabric but this same selection models its routing.
        Node cables (``up{i}``/``down{i}``) and same-leaf pairs have no
        path diversity — a dead node cable is unroutable.
        """
        if self.levels == 1:
            return None
        src_leaf, dst_leaf = self.leaf_of(src), self.leaf_of(dst)
        if src_leaf == dst_leaf:
            return None
        up = self._node_stage("up", src, last=False)
        down = self._node_stage("down", dst, last=True)
        if up.name in self.dead or down.name in self.dead:
            return None
        if self.levels == 2:
            for k in range(1, self.n_spines):
                spine = (dst + k) % self.n_spines
                route = [
                    up,
                    self._isl_stage(f"isl:l{src_leaf}>s{spine}"),
                    self._isl_stage(f"isl:s{spine}>l{dst_leaf}"),
                    down,
                ]
                if self.route_alive(route):
                    return route
            return None
        m = self.radix // 2
        src_pod, dst_pod = self.pod_of(src), self.pod_of(dst)
        if src_pod == dst_pod:
            for k in range(1, m):
                agg = dst_pod * m + (dst + k) % m
                route = [
                    up,
                    self._isl_stage(f"isl:l{src_leaf}>a{agg}"),
                    self._isl_stage(f"isl:a{agg}>l{dst_leaf}"),
                    down,
                ]
                if self.route_alive(route):
                    return route
            return None
        for k in range(1, self.n_cores):
            core = (dst + k) % self.n_cores
            offset = core % m
            agg_src = src_pod * m + offset
            agg_dst = dst_pod * m + offset
            route = [
                up,
                self._isl_stage(f"isl:l{src_leaf}>a{agg_src}"),
                self._isl_stage(f"isl:a{agg_src}>c{core}"),
                self._isl_stage(f"isl:c{core}>a{agg_dst}"),
                self._isl_stage(f"isl:a{agg_dst}>l{dst_leaf}"),
                down,
            ]
            if self.route_alive(route):
                return route
        return None

    # -- routing -----------------------------------------------------------

    def _node_stage(self, direction: str, node: int, last: bool) -> Stage:
        s = self.spec
        if direction == "up":
            return Stage(
                resource=self.uplinks[node],
                bandwidth=s.link_bandwidth,
                latency_out=s.cable_latency + s.switch_latency,
                name=f"up{node}",
                switch_latency=s.switch_latency,
            )
        return Stage(
            resource=self.downlinks[node],
            bandwidth=s.link_bandwidth,
            latency_out=s.cable_latency,
            name=f"down{node}",
        )

    def _isl_stage(self, name: str) -> Stage:
        """One inter-switch hop: a cable plus the downstream crossing."""
        s = self.spec
        return Stage(
            resource=self._link(f"link.{name}"),
            bandwidth=s.link_bandwidth,
            latency_out=s.cable_latency + s.switch_latency,
            name=name,
            switch_latency=s.switch_latency,
        )

    def _route(self, src: int, dst: int) -> List[Stage]:
        if self.levels == 1:
            return super()._route(src, dst)
        src_leaf, dst_leaf = self.leaf_of(src), self.leaf_of(dst)
        if src_leaf == dst_leaf:
            return super()._route(src, dst)
        up = self._node_stage("up", src, last=False)
        down = self._node_stage("down", dst, last=True)
        if self.levels == 2:
            spine = dst % self.n_spines  # deterministic d-mod-k up-route
            return [
                up,
                self._isl_stage(f"isl:l{src_leaf}>s{spine}"),
                self._isl_stage(f"isl:s{spine}>l{dst_leaf}"),
                down,
            ]
        # Three levels: leaf -> agg [-> core -> agg'] -> leaf'.
        m = self.radix // 2
        src_pod, dst_pod = self.pod_of(src), self.pod_of(dst)
        agg_dst = dst_pod * m + dst % m
        if src_pod == dst_pod:
            return [
                up,
                self._isl_stage(f"isl:l{src_leaf}>a{agg_dst}"),
                self._isl_stage(f"isl:a{agg_dst}>l{dst_leaf}"),
                down,
            ]
        agg_src = src_pod * m + dst % m
        core = dst % self.n_cores
        return [
            up,
            self._isl_stage(f"isl:l{src_leaf}>a{agg_src}"),
            self._isl_stage(f"isl:a{agg_src}>c{core}"),
            self._isl_stage(f"isl:c{core}>a{agg_dst}"),
            self._isl_stage(f"isl:a{agg_dst}>l{dst_leaf}"),
            down,
        ]
