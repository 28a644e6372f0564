"""Campaign topology.* axes and the simulated-vs-extrapolated study."""

import json
import os

import pytest

from repro.campaign import CampaignEngine, CampaignSpec, RunSpec
from repro.errors import ConfigurationError
from repro.topology import TopologyScalingStudy, TopologySpec

pytestmark = pytest.mark.topology

#: One crossbar, one fat-tree and one torus point of the same app.
CAMPAIGN = CampaignSpec(
    name="topology-axes",
    base={
        "app": "pingpong",
        "app_args.size": 4096,
        "app_args.repetitions": 6,
        "network": "elan",
        "nodes": 8,
    },
    points=[
        {},
        {"topology.kind": "fattree", "topology.radix": 4},
        {"topology.kind": "torus", "topology.dims": "2x2x2"},
    ],
    repetitions=2,
    seed_base=7,
)


def payload(records):
    return json.dumps(
        [
            {k: v for k, v in r.items() if k not in ("wall_s", "reused")}
            for r in records
        ],
        sort_keys=True,
    )


class TestTopologyAxes:
    def test_dotted_axes_build_a_spec(self):
        spec = RunSpec(
            app="pingpong", network="elan", nodes=8,
            topology=(("dims", "2x2x2"), ("kind", "torus")),
        )
        assert spec.topology_spec == TopologySpec(kind="torus", dims="2x2x2")
        assert "topo[" in spec.label()
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_no_axes_means_no_spec(self):
        spec = RunSpec(app="pingpong", network="elan", nodes=8)
        assert spec.topology_spec is None
        assert "topology" in spec.to_dict()

    def test_bad_axes_rejected_at_declaration(self):
        with pytest.raises(ConfigurationError):
            RunSpec(
                app="pingpong", network="elan", nodes=8,
                topology=(("kind", "moebius"),),
            )
        with pytest.raises(ConfigurationError):
            RunSpec(
                app="pingpong", network="elan", nodes=8,
                topology=(("kind", "torus"), ("radix", 3)),
            )

    def test_keys_distinguish_topologies(self):
        base = dict(app="pingpong", network="elan", nodes=8)
        plain = RunSpec(**base)
        torus = RunSpec(**base, topology=(("kind", "torus"),))
        assert plain.key != torus.key

    def test_expansion_carries_topology_points(self):
        specs = CAMPAIGN.expand()
        assert len(specs) == 6
        kinds = {s.topology_spec.kind if s.topology_spec else None for s in specs}
        assert kinds == {None, "fattree", "torus"}

    def test_serial_equals_parallel(self, tmp_path):
        serial = CampaignEngine(
            root=tmp_path / "s", workers=1, use_cache=False, resume=False
        ).run(CAMPAIGN)
        parallel = CampaignEngine(
            root=tmp_path / "p", workers=3, use_cache=False, resume=False
        ).run(CAMPAIGN)
        assert serial.misses == parallel.misses == serial.total == 6
        assert payload(serial.records) == payload(parallel.records)


class TestScalingStudy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TopologyScalingStudy(rank_counts=(8,))
        with pytest.raises(ConfigurationError):
            TopologyScalingStudy(rank_counts=(16, 8))
        with pytest.raises(ConfigurationError):
            TopologyScalingStudy(rank_counts=(8, 16), mode="weak")

    def test_simulated_vs_extrapolated_side_by_side(self):
        study = TopologyScalingStudy(
            app="sweep3d",
            app_args={"n": 24},
            network="elan",
            rank_counts=(4, 8, 16),
            topology=TopologySpec(kind="fattree", radix=8),
            mode="fixed",
        )
        result = study.run(check_invariants=True)
        assert [p.ranks for p in result.points] == [4, 8, 16]
        assert result.fit is not None
        # Counts inside the fit window define the trend (no guess to
        # compare against); the large count gets both numbers.
        assert result.points[0].fitted and result.points[1].fitted
        assert result.points[0].extrapolated is None
        final = result.points[-1]
        assert not final.fitted
        assert final.extrapolated is not None
        assert 0.0 < final.efficiency <= 1.5
        assert final.events > 0
        table = result.table()
        assert "sim eff" in table and "trend eff" in table and "(fit)" in table
        json.dumps(result.to_dict())  # JSON-ready

    def test_same_seed_studies_agree(self):
        def run_once():
            return TopologyScalingStudy(
                app="pingpong",
                app_args={"size": 2048, "repetitions": 4},
                network="elan",
                rank_counts=(8, 16),
                topology=TopologySpec(kind="torus"),
            ).run()

        first, second = run_once(), run_once()
        assert first.to_dict() == second.to_dict()


@pytest.mark.skipif(
    os.environ.get("REPRO_TOPO_FULL", "") in ("", "0"),
    reason="set REPRO_TOPO_FULL=1 for the 1024-rank acceptance runs",
)
class TestFullScale:
    """1024-rank acceptance: deterministic, invariant-clean completion."""

    def _run_twice(self, network, topology, program_args):
        from repro.campaign.programs import build_program
        from repro.mpi.machine import Machine

        outcomes = []
        for _ in range(2):
            machine = Machine(network, 1024, seed=1, topology=topology)
            result = machine.run(
                build_program(*program_args), check_invariants=True
            )
            outcomes.append(
                (result.elapsed_us, tuple(result.values))
            )
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    def test_1024_rank_fat_tree_pingpong_and_sweep3d(self):
        topo = TopologySpec(kind="fattree", radix=32)
        elapsed, _ = self._run_twice(
            "ib", topo, ("pingpong", {"size": 8192, "repetitions": 4})
        )
        assert elapsed > 0
        self._run_twice("elan", topo, ("sweep3d", {"n": 32}))

    def test_1024_rank_torus_pingpong_and_sweep3d(self):
        topo = TopologySpec(kind="torus", dims="8x8x16")
        elapsed, _ = self._run_twice(
            "elan", topo, ("pingpong", {"size": 8192, "repetitions": 4})
        )
        assert elapsed > 0
        self._run_twice("elan", topo, ("sweep3d", {"n": 32}))
