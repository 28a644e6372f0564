"""Tests for campaign/run specs: expansion, keys, serialization."""

import pytest

from repro.campaign import CampaignSpec, RunSpec, build_program, study_runspecs
from repro.errors import ConfigurationError


def small_campaign(**overrides):
    kwargs = dict(
        name="t",
        base={"app": "pingpong", "nodes": 2},
        grid={"network": ["ib", "elan"], "app_args.size": [0, 1024]},
        repetitions=2,
        seed_base=7,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def test_grid_expansion_counts_and_seeds():
    specs = small_campaign().expand()
    assert len(specs) == 2 * 2 * 2  # networks x sizes x reps
    assert {s.seed for s in specs} == {7, 8}
    assert {s.network for s in specs} == {"ib", "elan"}
    assert {dict(s.app_args)["size"] for s in specs} == {0, 1024}


def test_expansion_is_deterministic():
    a = [s.key for s in small_campaign().expand()]
    b = [s.key for s in small_campaign().expand()]
    assert a == b


def test_explicit_points_merge_over_base():
    spec = CampaignSpec(
        name="t",
        base={"app": "pingpong", "nodes": 2},
        points=[{"network": "ib", "app_args": {"size": 64}}],
    )
    (run,) = spec.expand()
    assert run.network == "ib"
    assert run.nodes == 2
    assert run.args == {"size": 64}


def test_key_stable_under_arg_order():
    a = RunSpec(app="pingpong", network="ib", nodes=2,
                app_args=tuple(sorted({"size": 8, "repetitions": 3}.items())))
    b = RunSpec.from_dict(a.to_dict())
    assert a == b
    assert a.key == b.key


def test_key_changes_with_any_parameter():
    base = RunSpec(app="pingpong", network="ib", nodes=2, seed=0)
    keys = {
        base.key,
        RunSpec(app="pingpong", network="elan", nodes=2, seed=0).key,
        RunSpec(app="pingpong", network="ib", nodes=4, seed=0).key,
        RunSpec(app="pingpong", network="ib", nodes=2, seed=1).key,
        RunSpec(app="pingpong", network="ib", nodes=2, seed=0, ppn=2).key,
    }
    assert len(keys) == 5


def test_key_folds_in_package_version(monkeypatch):
    import repro.campaign.spec as spec_mod

    old = RunSpec(app="pingpong", network="ib", nodes=2).key
    monkeypatch.setattr(spec_mod, "__version__", "999.0.0")
    # A fresh spec under the new version derives a different key (the
    # key is memoized per frozen instance, and versions only change
    # across interpreter runs).
    assert RunSpec(app="pingpong", network="ib", nodes=2).key != old


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        RunSpec(app="pingpong", network="myrinet", nodes=2)
    with pytest.raises(ConfigurationError):
        RunSpec(app="pingpong", network="ib", nodes=0)
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="t", grid={"network": []}).expand()
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="t", points=[{"app": "pingpong"}]).expand()
    with pytest.raises(ConfigurationError):
        CampaignSpec(
            name="t", points=[{"app": "x", "network": "ib", "bogus": 1}]
        ).expand()
    with pytest.raises(ConfigurationError):
        CampaignSpec(name="").expand()


def test_non_scalar_app_arg_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec(app="pingpong", network="ib", nodes=2,
                app_args=(("sizes", [1, 2]),))


def test_from_file_roundtrip(tmp_path):
    import json

    spec = small_campaign()
    path = tmp_path / "c.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = CampaignSpec.from_file(path)
    assert [s.key for s in loaded.expand()] == [s.key for s in spec.expand()]


def test_from_file_rejects_garbage(tmp_path):
    path = tmp_path / "c.json"
    path.write_text("{nope")
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_file(path)
    path.write_text("[1]")  # valid JSON, but not an object
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_file(path)


def test_study_runspecs_order_matches_study_nesting():
    specs = study_runspecs(
        app="lammps",
        app_args={"config": "ljs"},
        node_counts=[1, 2],
        networks=["ib", "elan"],
        ppns=[1],
        repetitions=2,
        seed_base=1000,
    )
    assert len(specs) == 8
    # network outermost, reps innermost; seeds are seed_base + rep.
    assert [(s.network, s.nodes, s.seed) for s in specs[:4]] == [
        ("ib", 1, 1000), ("ib", 1, 1001), ("ib", 2, 1000), ("ib", 2, 1001)
    ]


def test_build_program_registry():
    assert callable(build_program("pingpong", {"size": 8}))
    assert callable(build_program("lammps", {"config": "membrane"}))
    assert callable(build_program("sweep3d", {"n": 30, "iterations": 1}))
    assert callable(build_program("cg", {"config": "A"}))
    with pytest.raises(ConfigurationError):
        build_program("fortran", {})
    with pytest.raises(ConfigurationError):
        build_program("lammps", {"config": "nope"})
    with pytest.raises(ConfigurationError):
        build_program("lammps", {"config": "ljs", "bogus": 1})
    with pytest.raises(ConfigurationError):
        build_program("pingpong", {"size": 8, "bogus": 1})


# -- key canonicalization (semantically identical specs, one cache key) ------


def test_key_ignores_app_arg_pair_order():
    a = RunSpec(app="pingpong", network="ib", nodes=2,
                app_args=(("size", 8), ("repetitions", 3)))
    b = RunSpec(app="pingpong", network="ib", nodes=2,
                app_args=(("repetitions", 3), ("size", 8)))
    assert a == b
    assert a.key == b.key


def test_key_ignores_integral_float_noise():
    a = RunSpec(app="pingpong", network="ib", nodes=2,
                app_args=(("size", 1024),))
    b = RunSpec(app="pingpong", network="ib", nodes=2.0,
                app_args=(("size", 1024.0),))
    assert a.key == b.key
    assert a.nodes == b.nodes == 2
    assert isinstance(b.nodes, int)
    assert dict(b.app_args)["size"] == 1024
    assert isinstance(dict(b.app_args)["size"], int)


def test_key_ignores_fault_float_noise():
    a = RunSpec(app="pingpong", network="ib", nodes=2,
                faults=(("ber", 0),))
    b = RunSpec(app="pingpong", network="ib", nodes=2,
                faults=(("ber", 0.0),))
    assert a.key == b.key


def test_key_distinguishes_true_fractions():
    a = RunSpec(app="pingpong", network="ib", nodes=2,
                faults=(("ber", 0.5),))
    b = RunSpec(app="pingpong", network="ib", nodes=2,
                faults=(("ber", 0),))
    assert a.key != b.key
    assert dict(a.faults)["ber"] == 0.5


def test_key_does_not_conflate_bools_and_ints():
    a = RunSpec(app="pingpong", network="ib", nodes=2,
                app_args=(("verify", True),))
    b = RunSpec(app="pingpong", network="ib", nodes=2,
                app_args=(("verify", 1),))
    assert a.key != b.key


def test_non_integral_node_count_rejected():
    with pytest.raises(ConfigurationError):
        RunSpec(app="pingpong", network="ib", nodes=2.5)


def test_from_dict_key_matches_constructed_key():
    spec = RunSpec(app="pingpong", network="ib", nodes=2,
                   app_args=(("size", 8),))
    via_dict = RunSpec.from_dict(
        {"app": "pingpong", "network": "ib", "nodes": 2.0,
         "app_args": {"size": 8.0}}
    )
    assert via_dict.key == spec.key


def test_from_dict_rejects_unknown_keys():
    typo = {"app": "pingpong", "network": "ib", "nodes": 2, "ppm": 2,
            "topolgy": {"kind": "torus"}}
    with pytest.raises(ConfigurationError) as info:
        RunSpec.from_dict(typo)
    message = str(info.value)
    assert "['ppm', 'topolgy']" in message
    assert "'ppn'" in message and "'topology'" in message
    # The canonical form round-trips: every to_dict key is accepted.
    spec = RunSpec(app="pingpong", network="ib", nodes=2)
    assert RunSpec.from_dict(spec.to_dict()) == spec
