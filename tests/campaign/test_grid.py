"""Grid expansion, variants, retry policy, and spec round-trips."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import SpecificationError
from repro.io.campaign_json import canonical_dumps
from repro.campaign import (
    CampaignSpec,
    RetryPolicy,
    Variant,
    expand_jobs,
    spec_from_flags,
)
from repro.campaign.grid import VARIANT_PRESETS, job_id


def _spec(**overrides):
    defaults = dict(
        name="t",
        kind="selftest",
        examples=("a", "b"),
        scales=(0.05, 0.1),
        variants=(Variant("default"), Variant("no-reconfig",
                                              {"reconfiguration": False})),
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def test_expansion_is_the_full_grid_in_axis_order():
    jobs = expand_jobs(_spec())
    assert len(jobs) == 2 * 2 * 2
    # examples outermost, then scales, then variants
    assert [j.id for j in jobs[:4]] == [
        "selftest:a@0.05:default",
        "selftest:a@0.05:no-reconfig",
        "selftest:a@0.1:default",
        "selftest:a@0.1:no-reconfig",
    ]
    assert len({j.id for j in jobs}) == len(jobs)


def test_variant_config_reaches_jobs():
    jobs = expand_jobs(_spec())
    by_id = {j.id: j for j in jobs}
    assert by_id["selftest:a@0.05:no-reconfig"].config == {
        "reconfiguration": False
    }
    assert by_id["selftest:a@0.05:default"].config == {}


def test_duplicate_variant_names_are_rejected():
    spec = _spec(variants=(Variant("v"),
                           Variant("v", {"reconfiguration": False})))
    with pytest.raises(SpecificationError, match="duplicate job id"):
        expand_jobs(spec)


def test_spec_round_trips_through_canonical_json():
    spec = _spec(policy=RetryPolicy(retries=3, backoff_s=0.1, timeout_s=5.0))
    rebuilt = CampaignSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert canonical_dumps(rebuilt.to_dict()) == canonical_dumps(spec.to_dict())


def test_unknown_kind_and_empty_axes_are_rejected():
    with pytest.raises(SpecificationError, match="unknown campaign kind"):
        _spec(kind="table9")
    # ``synthesize`` jobs need a per-job spec only the service builds;
    # a grid of them would fail every job after its retries.
    synthesize = r"'synthesize' \(choose from selftest, table2, table3\)"
    with pytest.raises(SpecificationError, match=synthesize):
        _spec(kind="synthesize")
    with pytest.raises(SpecificationError, match=synthesize):
        CampaignSpec.from_dict(dict(_spec().to_dict(), kind="synthesize"))
    with pytest.raises(SpecificationError, match="at least one example"):
        _spec(examples=())
    with pytest.raises(SpecificationError, match="at least one scale"):
        _spec(scales=())


@pytest.mark.parametrize("kind", ["table2", "table3"])
@pytest.mark.parametrize(
    "axes, match",
    [
        pytest.param({"examples": ("NOPE",)}, "unknown example 'NOPE'",
                     id="unknown-example"),
        pytest.param({"examples": ("A1TR", "a1tr")}, "unknown example 'a1tr'",
                     id="lower-case-example"),
        pytest.param({"scales": (0.0,)}, r"scale 0\.0 must be in \(0, 1\]",
                     id="scale-0"),
        pytest.param({"scales": (0.05, 2.0)},
                     r"scale 2\.0 must be in \(0, 1\]", id="scale-2"),
        pytest.param({"scales": (-0.5,)}, "must be in", id="negative-scale"),
        pytest.param({"scales": (float("nan"),)}, "must be in",
                     id="nan-scale"),
    ],
)
def test_table_campaign_refuses_inputs_its_jobs_cannot_run(kind, axes, match):
    """``build_example`` refuses these every time, so a table grid
    naming them is refused when it is built, not after each job's
    retries (the CLI then exits 2)."""
    fields = dict(kind=kind, examples=("A1TR",), scales=(0.05,))
    fields.update(axes)
    with pytest.raises(SpecificationError, match=match):
        _spec(**fields)
    with pytest.raises(SpecificationError, match=match):
        CampaignSpec.from_dict(dict(_spec().to_dict(), **fields))


def test_selftest_campaign_keeps_free_examples_and_scales():
    spec = _spec(examples=("NOPE",), scales=(2.0,))
    assert [j.id for j in expand_jobs(spec)] == [
        "selftest:NOPE@2:default", "selftest:NOPE@2:no-reconfig",
    ]


@pytest.mark.parametrize(
    "flags",
    [["--examples", "NOPE"], ["--examples", "A1TR", "--scales", "0"],
     ["--examples", "A1TR", "--scales", "2"]],
    ids=["unknown-example", "scale-0", "scale-2"],
)
def test_cli_refuses_a_table_campaign_it_cannot_run(tmp_path, capsys, flags):
    directory = tmp_path / "c"
    code = main(["campaign", "run", "--kind", "table2", "--dir",
                 str(directory)] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not directory.exists()


def test_retry_policy_backoff_is_bounded_exponential():
    policy = RetryPolicy(retries=5, backoff_s=1.0, backoff_cap_s=3.0)
    assert policy.delay(2) == 1.0
    assert policy.delay(3) == 2.0
    assert policy.delay(4) == 3.0  # capped
    assert policy.delay(5) == 3.0
    with pytest.raises(SpecificationError):
        RetryPolicy(retries=-1)
    with pytest.raises(SpecificationError):
        RetryPolicy(timeout_s=0.0)


def test_variant_presets_cover_the_kill_switch_matrix():
    """Only presets that can change a result remain: pruning never
    does, so ``pruned``/``no-prune`` are gone."""
    assert set(VARIANT_PRESETS) == {"default", "largest-first"}
    v = Variant.preset("largest-first")
    assert v.config == {"policy": "largest-first"}
    for name in ("no-prune", "pruned", "turbo"):
        with pytest.raises(SpecificationError,
                           match="unknown variant preset"):
            Variant.preset(name)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: Variant(name="typo", config={"prunee": False}),
                 id="constructed"),
    pytest.param(lambda: Variant.from_dict(
        {"name": "stored", "config": {"prunee": False}}), id="from-dict"),
])
def test_variant_rejects_unknown_config_fields(build):
    """A misspelled knob fails when the grid is built, naming the key,
    not later as retried TypeErrors inside a worker."""
    with pytest.raises(SpecificationError, match="prunee"):
        build()


@pytest.mark.parametrize("config, message", [
    ({"max_explicit_copies": 0}, "max_explicit_copies must be >= 1"),
    ({"policy": "reuse-first"}, "unknown policy 'reuse-first'"),
])
def test_variant_rejects_values_crusade_config_refuses(config, message):
    """A bad value fails when the grid is built, not as a failed job in
    every worker of its column; a stored campaign naming the removed
    ``reuse-first`` order fails at load the same way."""
    with pytest.raises(SpecificationError, match=message) as info:
        Variant.from_dict({"name": "v", "config": config})
    assert str(info.value).startswith("variant 'v': ")


def test_removed_preset_keys_are_rejected_at_load():
    """Campaigns stored with the removed from-scratch presets fail at
    load with the offending key named."""
    with pytest.raises(SpecificationError, match="incremental"):
        Variant.from_dict({"name": "from-scratch",
                           "config": {"prune": False, "incremental": False}})


def test_stored_prune_variants_are_rejected_at_load():
    """Campaigns stored with the removed pruning presets, or naming
    the removed bound-abort switch, fail at load with the key named:
    both search cuts are always on."""
    for key in ("prune", "bound_abort"):
        with pytest.raises(SpecificationError,
                           match=r"unknown config field\(s\) %s$" % key):
            Variant.from_dict({"name": "no-prune", "config": {key: False}})


@pytest.mark.parametrize("config, message", [
    pytest.param({"link_strategies": ["fastes"]},
                 "link_strategies must be a list of names from cheapest, "
                 "fastest, got ['fastes']", id="misspelled-strategy"),
    pytest.param({"link_strategies": "fastest"},
                 "link_strategies must be a list of names from cheapest, "
                 "fastest, got 'fastest'", id="bare-strategy-string"),
    pytest.param({"reconfiguration": "false"},
                 "reconfiguration must be a bool, got 'false'",
                 id="string-bool"),
    pytest.param({"fast_inner_loop": 0},
                 "fast_inner_loop must be a bool or None, got 0",
                 id="int-bool"),
    pytest.param({"interface_retries": 1.5},
                 "interface_retries must be an int, got 1.5",
                 id="float-int"),
    pytest.param({"max_explicit_copies": True},
                 "max_explicit_copies must be an int, got True",
                 id="bool-int"),
    pytest.param({"delay_policy": {"eruf": 0.5}},
                 "delay_policy must be a DelayPolicy, got {'eruf': 0.5}",
                 id="dict-policy"),
    pytest.param({"policy": ["default"]},
                 "unknown policy ['default'] (choose from default, "
                 "largest-first)", id="list-policy"),
])
def test_variant_rejects_values_of_the_wrong_type(config, message):
    """``CrusadeConfig`` checks its field types when it is built, so a
    stored variant with a wrong-typed value fails at load, naming the
    field and the value, instead of running with the value
    misread (``"false"`` is truthy) or failing every allocation (an
    unknown link strategy)."""
    with pytest.raises(SpecificationError) as info:
        Variant.from_dict({"name": "v", "config": config})
    assert str(info.value) == "variant 'v': " + message


def test_json_shaped_values_load_and_digest_as_before():
    """A stored variant's JSON lists and nulls are valid values; the
    list is kept as a tuple and digests as the tuple does."""
    from repro.core.config import CrusadeConfig
    from repro.perf.store.digests import config_digest

    v = Variant.from_dict({"name": "v", "config": {
        "link_strategies": ["fastest"], "fast_inner_loop": None,
    }})
    config = CrusadeConfig(**v.config)
    assert config.link_strategies == ("fastest",)
    assert config_digest(config) == config_digest(
        CrusadeConfig(link_strategies=("fastest",))
    )
    assert config_digest(
        CrusadeConfig(link_strategies=["cheapest", "fastest"])
    ) == "d343d88a5ab5d42e957c17a2dcf6e8de"


def test_spec_from_flags_uses_presets():
    spec = spec_from_flags(
        "ci", "table2", ["A1TR", "HROST"], [0.05], ["largest-first"]
    )
    jobs = expand_jobs(spec)
    assert [j.id for j in jobs] == [
        "table2:A1TR@0.05:largest-first",
        "table2:HROST@0.05:largest-first",
    ]


def test_job_id_format_is_stable():
    assert job_id("table2", "A1TR", 0.05, "pruned") == "table2:A1TR@0.05:pruned"
    assert job_id("table3", "NGXM", 1.0, "default") == "table3:NGXM@1:default"
