"""Strict run-configuration parsing: dotted-path errors, coercion, defaults; every parsed
single-leaf document also runs through the commands."""

import dataclasses
import inspect
import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolab.adapters import DEFAULT_RANK
from resolab.cli import main
from resolab.data import GENERATORS, SyntheticDataset
from resolab.diffusion import DESK_TIMESTEPS, MAX_TIMESTEPS, DiffusionSchedule, SamplerConfig
from resolab.errors import ConfigError
from resolab.runconfig import (
    EvalConfig,
    RunConfig,
    TrainConfig,
    default_runconfig,
    load_runconfig,
    parse_runconfig,
)
from resolab.unet import UNetConfig


def test_defaults_are_valid_and_coherent():
    rc = default_runconfig()
    assert rc.schedule.timesteps == DESK_TIMESTEPS
    assert rc.train.standard_resolution == 16
    assert rc.train.rank == DEFAULT_RANK
    assert rc.train.lr == 1e-4  # adapter phase keeps the reference rate
    assert rc.train.lr_base == 1e-3
    assert 0.0 <= rc.train.alpha_r <= 1.0
    assert rc.data.generator in GENERATORS
    assert rc.data.channels == rc.model.in_channels
    assert isinstance(rc.train.resolutions, tuple)
    assert all(isinstance(hw, tuple) and len(hw) == 2 for hw in rc.train.resolutions)


def test_empty_document_equals_defaults():
    assert parse_runconfig({}) == default_runconfig()


def test_load_none_gives_defaults():
    assert load_runconfig(None) == default_runconfig()


def test_partial_override_keeps_other_defaults():
    rc = parse_runconfig({"train": {"lr": 0.01}})
    assert rc.train.lr == 0.01
    assert rc.train.steps_base == default_runconfig().train.steps_base
    assert rc.model == default_runconfig().model


def test_unknown_top_level_key():
    with pytest.raises(ConfigError, match=r"unknown config key\(s\): trane"):
        parse_runconfig({"trane": {}})


def test_unknown_nested_key_reports_dotted_path():
    with pytest.raises(ConfigError, match=r"unknown config key\(s\): train.stepz"):
        parse_runconfig({"train": {"stepz": 3}})


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="section 'train' must be an object"):
        parse_runconfig({"train": 5})


def test_document_must_be_object():
    with pytest.raises(ConfigError, match="must be a JSON object"):
        parse_runconfig([1, 2])


def test_resolution_pairs_coerced_to_tuples():
    rc = parse_runconfig({"train": {"resolutions": [[8, 8], [24, 32]]}})
    assert rc.train.resolutions == ((8, 8), (24, 32))


def test_resolution_pair_wrong_arity():
    with pytest.raises(ConfigError, match=r"entries must be \[H, W\] pairs"):
        parse_runconfig({"train": {"resolutions": [[8]]}})


def test_resolution_list_wrong_type():
    with pytest.raises(ConfigError, match=r"must be a list of \[H, W\] pairs"):
        parse_runconfig({"train": {"resolutions": 8}})


def test_resolution_pair_rejects_float():
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_runconfig({"train": {"resolutions": [[8.5, 8]]}})


def test_channel_mults_coerced():
    rc = parse_runconfig({"model": {"channel_mults": [1, 2]},
                          "train": {"resolutions": [[8, 8], [24, 24]]}})
    assert rc.model.channel_mults == (1, 2)


def test_channel_mults_reject_float():
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_runconfig({"model": {"channel_mults": [1, 2.5]}})


def test_eval_alphas_accept_ints_as_floats():
    rc = parse_runconfig({"eval": {"alphas": [0, 1]}})
    assert rc.eval.alphas == (0.0, 1.0)
    assert all(isinstance(a, float) for a in rc.eval.alphas)


def test_bool_is_not_an_integer():
    with pytest.raises(ConfigError, match="must be an integer, got True"):
        parse_runconfig({"train": {"steps_base": True}})


def test_int_accepted_for_float_field():
    rc = parse_runconfig({"train": {"lr": 1}})
    assert rc.train.lr == 1.0 and isinstance(rc.train.lr, float)


def test_string_field_rejects_number():
    with pytest.raises(ConfigError, match="must be a string"):
        parse_runconfig({"data": {"generator": 3}})


def test_unknown_generator_rejected():
    with pytest.raises(ConfigError):
        parse_runconfig({"data": {"generator": "voronoi"}})


def test_channels_must_match_model():
    with pytest.raises(ConfigError, match=r"data.channels \(2\) must equal"):
        parse_runconfig({"data": {"channels": 2}})


def test_negative_weight_decay_rejected():
    with pytest.raises(ConfigError, match=r"train\.weight_decay must be in \[0, inf\), got -0\.5"):
        parse_runconfig({"train": {"weight_decay": -0.5}})


def test_p_uncond_range_checked():
    for bad in (1.5, 1.0):  # 1.0 would drop every label
        with pytest.raises(ConfigError, match=rf"train\.p_uncond must be in \[0, 1\), got {bad}"):
            parse_runconfig({"train": {"p_uncond": bad}})


def test_alpha_r_range_checked():
    with pytest.raises(ConfigError, match=r"train.alpha_r must be in \[0, 1\], got 1.5"):
        parse_runconfig({"train": {"alpha_r": 1.5}})


def test_empty_eval_buckets_rejected():
    with pytest.raises(ConfigError, match="eval.buckets must be non-empty"):
        parse_runconfig({"eval": {"buckets": []}})


@pytest.mark.parametrize("bucket", [[0, 8], [8, 0], [-8, 8]])
def test_eval_bucket_sides_checked_at_load(bucket):
    with pytest.raises(ConfigError, match=rf"eval.buckets\[1\] must be in \[1, inf\), got {min(bucket)}"):
        parse_runconfig({"eval": {"buckets": [[8, 8], bucket]}})


@pytest.mark.parametrize("alpha", [2.0, -0.1, float("nan"), float("inf")])
def test_eval_alphas_range_checked(alpha):
    with pytest.raises(ConfigError, match=rf"eval.alphas\[1\] must be in \[0, 1\], got {alpha}"):
        parse_runconfig({"eval": {"alphas": [0.5, alpha]}})


@pytest.mark.parametrize("build,message", [
    (lambda: TrainConfig(alpha_r="x"), "train.alpha_r must be a number, got 'x'"),
    (lambda: TrainConfig(alpha_r=True), "train.alpha_r must be a number, got True"),
    (lambda: EvalConfig(alphas=("x",)), "eval.alphas[0] must be a number, got 'x'"),
], ids=["train_string", "train_bool", "eval_string"])
def test_a_non_number_alpha_is_a_config_error(build, message):
    # a string used to raise a raw TypeError, and a bool passed until the bundle refused it;
    # the fields' type rule now refuses both, worded as a config file's refusal is
    with pytest.raises(ConfigError) as exc:
        build()
    assert str(exc.value) == message


def test_sampler_section_is_an_unknown_key():
    # sampler settings come from the sample and bench-tiled flags alone
    with pytest.raises(ConfigError, match=r"unknown config key\(s\): sampler"):
        parse_runconfig({"sampler": {"steps": 25}})


def test_schedule_betas_checked_at_load():
    with pytest.raises(ConfigError, match="beta_end"):
        parse_runconfig({"schedule": {"beta_end": 1.5}})


def test_readme_defaults_block_equals_the_code():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Run configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == json.loads(json.dumps(dataclasses.asdict(default_runconfig())))


@pytest.mark.parametrize("section,name", [("train", "train.seed"), ("eval", "eval.seed")])
def test_negative_seed_rejected(section, name):
    with pytest.raises(ConfigError, match=rf"{name} must be in \[0, inf\), got -3"):
        parse_runconfig({section: {"seed": -3}})


def test_load_from_file_round_trips(tmp_path):
    doc = {"train": {"lr": 0.003, "steps_base": 50},
           "data": {"generator": "discs"}}
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    rc = load_runconfig(str(path))
    assert rc.train.lr == 0.003
    assert rc.data.generator == "discs"


def test_malformed_json_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed run configuration JSON"):
        load_runconfig(str(path))


def test_to_dict_survives_json_round_trip():
    rc = default_runconfig()
    reparsed = parse_runconfig(json.loads(json.dumps(dataclasses.asdict(rc))))
    assert reparsed == rc


def test_schedule_and_data_sections_are_the_objects_they_configure():
    rc = parse_runconfig({"schedule": {"timesteps": 7, "beta_start": 0.01, "beta_end": 0.02},
                          "data": {"generator": "discs", "num_classes": 3}})
    assert rc.schedule == DiffusionSchedule(7, 0.01, 0.02)
    assert rc.data == SyntheticDataset("discs", 3)
    assert parse_runconfig(dataclasses.asdict(rc)) == rc
    assert dataclasses.asdict(rc)["schedule"] == {"timesteps": 7, "beta_start": 0.01, "beta_end": 0.02}


def test_data_classes_must_fit_the_model():
    # class id 4 of a 5-class dataset would be the 4-class model's null token
    with pytest.raises(ConfigError,
                       match=r"data.num_classes \(5\) must not exceed model.num_classes \(4\)"):
        parse_runconfig({"data": {"num_classes": 5}})
    assert parse_runconfig({"data": {"num_classes": 3}}).data.num_classes == 3
    # an unconditional model ignores the labels, but has no null class for label dropout
    assert parse_runconfig({"model": {"num_classes": 0},
                            "train": {"p_uncond": 0.0}}).model.num_classes == 0


@pytest.mark.parametrize("document,message", [
    ({"train": {"standard_resolution": 10**30}},
     "train.standard_resolution must fit in 64 bits, got a 100-bit integer"),
    ({"train": {"resolutions": [[10**30, 8], [8, 8]]}}, r"train.resolutions\[0\] must fit in 64 bits"),
    ({"train": {"steps_base": 2**63}}, "train.steps_base must fit in 64 bits"),
    ({"train": {"lr": 10**400}}, "train.lr must fit in 64 bits"),  # float(10**400) overflows
    ({"schedule": {"timesteps": 10**30}}, "schedule.timesteps must fit in 64 bits"),
    ({"schedule": {"timesteps": 10**12}}, rf"timesteps must be in \[1, {MAX_TIMESTEPS}\], got 10+$"),
    ({"schedule": {"timesteps": MAX_TIMESTEPS + 1}}, "timesteps must be in"),
    # repr() of an int past 4,300 digits raises ValueError, so messages show its bit length
    ({"train": 10**5000}, "section 'train' must be an object, got a 16610-bit integer"),
    ({"train": {"resolutions": [[10**5000]]}}, r"pairs, got \[a 16610-bit integer\]"),
    ({"model": {"attn_at_bottleneck": 10**5000}}, "boolean, got a 16610-bit integer"),
    ({"data": {"generator": 10**5000}}, "string, got a 16610-bit integer"),
    ({"train": {"lr": [10**5000]}}, r"number, got \[a 16610-bit integer\]"),
], ids=["standard_resolution", "resolution_side", "steps_base", "lr", "timesteps_int64",
        "timesteps_1e12", "timesteps_bound", "digits_section", "digits_pair", "digits_bool",
        "digits_str", "digits_float_list"])
def test_oversized_integers_fail_typed(document, message):
    with pytest.raises(ConfigError, match=message):
        parse_runconfig(document)


def test_int64_edges_and_largest_schedule_parse():
    rc = parse_runconfig({"train": {"steps_base": 2**63 - 1},
                          "schedule": {"timesteps": MAX_TIMESTEPS}})
    assert rc.train.steps_base == 2**63 - 1
    assert rc.schedule.beta.shape == (MAX_TIMESTEPS,)


def test_json_integer_past_the_digit_limit_is_a_config_error(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"train": {"steps_base": 1' + "0" * 5000 + "}}")
    with pytest.raises(ConfigError, match="malformed run configuration JSON"):
        load_runconfig(str(path))


@pytest.mark.parametrize("build", [
    lambda: UNetConfig(groups=0),
    lambda: SamplerConfig(steps=0),
    lambda: SyntheticDataset("plaid"),
    lambda: DiffusionSchedule(beta_end=2.0),
    lambda: SyntheticDataset(channels=0),
    lambda: TrainConfig(lr=-1.0),
    lambda: EvalConfig(n_batches=0),
    lambda: RunConfig(data=SyntheticDataset(channels=3)),
], ids=["UNetConfig", "SamplerConfig", "SyntheticDataset", "DiffusionSchedule",
        "SyntheticDataset.channels", "TrainConfig", "EvalConfig", "RunConfig"])
def test_configs_are_checked_when_built(build):
    with pytest.raises(ConfigError):
        build()


# --- fuzz: every document parses or raises ConfigError -----------------------

_DEFAULTS = dataclasses.asdict(default_runconfig())
_LEAVES = [(section, key) for section, body in _DEFAULTS.items() for key in body]
_INTS = [-1, 0, 1, 7, 2**63, 10**30]
_SCALAR_POOL = [*_INTS, True, False, None, "", "discs", float("nan"), float("inf"),
                float("-inf"), float("1e400")]
_SCALARS = st.sampled_from(_SCALAR_POOL)
# flat lists for scalar-list fields; pairs of every length (the right one included)
_LISTS = st.lists(st.one_of(_SCALARS, st.lists(st.sampled_from([*_INTS, 8]), max_size=3)),
                  max_size=3)
_VALUES = st.one_of(_SCALARS, _LISTS)


# 150 examples x 34 leaves: about 5,100 documents in ~2.5 s
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(values=st.lists(_VALUES, min_size=len(_LEAVES), max_size=len(_LEAVES)),
       extra=st.sampled_from([""] * 15 + ["key", "section", "scalar section"]),
       scalar=_SCALARS)
def test_fuzzed_documents_parse_or_raise_config_error(values, extra, scalar):
    # Each example fuzzes every leaf, one document per leaf over the defaults, so every
    # leaf meets each kind of value within the example budget. An unknown key, an unknown
    # section or a non-object section fails before the leaf is read, so those stay rare.
    for (section, key), value in zip(_LEAVES, values):
        document = {section: {key: value}}
        if extra == "key":
            document[section]["zoom"] = 1
        elif extra == "section":
            document["sampler"] = {}
        elif extra == "scalar section":
            document["eval" if section == "train" else "train"] = scalar
        try:
            parse_runconfig(document)
        except ConfigError:
            pass
        except Exception as exc:
            raise AssertionError(f"{document!r} raised {exc!r}") from exc


# --- end to end: every single-leaf document that parses also runs ------------

_LIST_POOL = [[], [0, 1], [1, 7], [[8, 8]], [[8, 8], [1, 7]]]
_SINGLE_LEAF = list(itertools.product(_LEAVES, [*_SCALAR_POOL, *_LIST_POOL]))


def _parsed_leaves() -> list[tuple]:
    """(section, key, value) of each single-leaf document that parses."""
    leaves = []
    for (section, key), value in _SINGLE_LEAF:
        try:
            parse_runconfig({section: {key: value}})
        except ConfigError:
            continue
        leaves.append((section, key, value))
    return leaves


_PARSED = _parsed_leaves()

# Documents that once parsed and then failed in a command; each rule now also runs at load.
_FAIL_AT_LOAD = [
    ("model", "base_channels", 1,
     r"train.rank: rank at down.0.sampler.conv.weight must be in \[1, 1\], got 4"),
    ("model", "num_classes", 0, r"train \(base phase\): p_uncond 0.1 > 0 needs a model that"),
    ("model", "null_class_reserved", False, r"train \(base phase\): p_uncond 0.1 > 0"),
    ("train", "standard_resolution", 1, r"train \(base phase\): bucket 1x1 not divisible"),
    ("train", "standard_resolution", 7, r"train \(base phase\): bucket 7x7 not divisible"),
    ("train", "resolutions", [[8, 8], [1, 7]], r"train \(adapter phase\): bucket 1x7 not"),
    ("eval", "buckets", [[8, 8], [1, 7]], r"eval.buckets: bucket 1x7 not divisible"),
    ("eval", "alphas", [], "eval.alphas must be non-empty"),
]


@pytest.mark.parametrize("section,key,value,message", _FAIL_AT_LOAD,
                         ids=[f"{s}.{k}={v!r}" for s, k, v, _ in _FAIL_AT_LOAD])
def test_documents_that_would_fail_in_a_command_fail_at_load(section, key, value, message):
    assert ((section, key), value) in _SINGLE_LEAF
    with pytest.raises(ConfigError, match=message):
        parse_runconfig({section: {key: value}})


_SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "resolab"
_RULE_FRAGMENTS = ["must equal model.in_channels", "must not exceed model.num_classes",
                   "not divisible by the model's spatial divisor", 'f"rank at {site}"',
                   "must be in {self}"]


def test_each_rule_between_a_runs_parts_has_one_home():
    # the commands and the loader call one check per rule; the loader adds none of its own
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(_SRC.glob("*.py")))
    assert {f: text.count(f) for f in _RULE_FRAGMENTS} == dict.fromkeys(_RULE_FRAGMENTS, 1)
    assert "raise" not in inspect.getsource(RunConfig.__post_init__)


_INTERVAL_WORDINGS = ["must be >", "must be <", "must lie in", "must be in [", "must be in (",
                      "finite and >"]


def test_every_interval_refusal_comes_from_the_one_range_rule():
    # errors.Range words every out-of-range refusal; no other module builds one itself
    found = {(path.name, w) for path in _SRC.glob("*.py") if path.name != "errors.py"
             for w in _INTERVAL_WORDINGS if w in path.read_text(encoding="utf-8")}
    assert found == set()


def test_the_other_single_leaf_documents_still_parse():
    assert len(_PARSED) == 50  # 58 parsed before the load-time fit checks; 8 fail above


@pytest.mark.parametrize("section,key,value", _PARSED,
                         ids=[f"{section}.{key}={value!r}" for section, key, value in _PARSED])
def test_parsed_leaf_documents_run_through_every_command(section, key, value, tmp_path, capsys):
    config, model, bundle = tmp_path / "run.json", tmp_path / "m.rsbm", tmp_path / "a.rsad"
    config.write_text(json.dumps({section: {key: value}}))
    common = ["--config", str(config)]
    codes = [main(["train-base", *common, "--steps", "1", "--out", str(model)]),
             main(["train-adapter", *common, "--steps", "1", "--model", str(model),
                   "--out", str(bundle)])]
    adapter = ["--adapter", str(bundle)] if bundle.exists() else []
    codes.append(main(["sample", *common, "--steps", "1", "--model", str(model), *adapter,
                       "--out", str(tmp_path / "x.pgm")]))
    # eval.alphas is read only by the ablation grid, which costs ~1 s, so only they run it
    grid = adapter if key == "alphas" else []
    codes.append(main(["eval", *common, "--model", str(model), *grid]))
    assert codes == [0, 0, 0, 0], capsys.readouterr().err
