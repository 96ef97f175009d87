"""End-to-end command-line flows against a miniature run configuration."""

import json
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from container_fixtures import read_parts, write_parts
import resolab
from resolab import cli, pgm, store
from resolab.adapters import effective_param_map
from resolab.cli import main
from resolab.diffusion import SamplerConfig, ddim_sample
from resolab.evalbench import tiled_generate
from resolab.runconfig import load_runconfig
from resolab.trainer import train_base
from resolab.unet import UNetConfig, build_unet

TINY_DOC = {
    "model": {"base_channels": 4, "channel_mults": [1, 2],
              "num_res_blocks_per_level": 1, "groups": 4, "time_embed_dim": 8,
              "num_classes": 2},
    "schedule": {"timesteps": 10, "beta_start": 0.001, "beta_end": 0.05},
    "data": {"generator": "checkers", "num_classes": 2, "channels": 1},
    "train": {"resolutions": [[8, 8], [24, 24]], "standard_resolution": 16,
              "steps_base": 12, "steps_adapter": 12, "batch_size": 2,
              "lr": 0.001, "seed": 0, "rank": 2},
    "eval": {"buckets": [[8, 8], [16, 16]], "n_batches": 1, "batch_size": 2,
             "seed": 5},
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """One trained checkpoint + bundle shared by every CLI test."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "run.json"
    config.write_text(json.dumps(TINY_DOC))
    model = root / "base.rsbm"
    bundle = root / "adapter.rsad"
    assert main(["train-base", "--config", str(config), "--out", str(model),
                 "--trace", str(root / "base.trace")]) == 0
    assert main(["train-adapter", "--config", str(config), "--model", str(model),
                 "--out", str(bundle)]) == 0
    return {"root": root, "config": str(config), "model": str(model),
            "bundle": str(bundle)}


# ---------------------------------------------------------------------------
# argument handling


def test_no_command_prints_help_exits_1(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().err


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_argument_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["train-base"])  # --out is required
    assert exc.value.code == 1


def test_bad_size_argument_exits_2(work, capsys):
    code = main(["sample", "--config", work["config"], "--model", work["model"], "--size", "16",
                 "--out", str(work["root"] / "x.pgm")])
    assert code == 2
    assert "size must look like HxW" in capsys.readouterr().err


def test_missing_model_file_exits_2(work, capsys):
    code = main(["sample", "--config", work["config"], "--model", str(work["root"] / "nope.rsbm"),
                 "--out", str(work["root"] / "x.pgm")])
    assert code == 2
    assert "No such file or directory" in capsys.readouterr().err


_SAMPLE = "sample --config {config} --model {model} --steps 2 --out {root}/x.pgm"
_TILED = ("bench-tiled --config {config} --model {model} --steps 2 --repeats 1 "
          "--target 32x32 --tile 16x16")
_ALPHA = r"alpha_r must be in [0, 1], got {}"


@pytest.mark.parametrize("argv,message", [
    (f"{_SAMPLE} --size 15x15", "spatial dims must be divisible by 2 for 2 levels; got 15x15"),
    (f"{_SAMPLE} --steps 100", "steps must be in [1, 10], got 100"),  # the last --steps counts
    *((f"{cmd} --alpha {alpha}", _ALPHA.format(alpha)) for cmd in (
        f"{_SAMPLE} --adapter {{bundle}}",
        "merge --model {model} --adapter {bundle} --out {root}/merged-x.rsbm",
        "eval --config {config} --model {model} --adapter {bundle}",
    ) for alpha in ("1.5", "-0.5", "nan")),
    (f"{_TILED} --tile 48x48", "tile 48x48 larger than target 32x32"),
    (f"{_TILED} --overlap 16", "overlap must be in [0, 16), got 16"),
    (f"{_TILED} --overlap -1", "overlap must be in [0, 16), got -1"),
    (f"{_TILED} --repeats 0", "repeats must be in [1, inf), got 0"),
    ("train-base --config {config} --steps -3 --out {root}/never.rsbm",
     "steps must be in [0, inf), got -3"),
    (f"{_SAMPLE} --class-id 7", "cfg_predict: class id must be in [0, 2), got 7"),
    ("inspect {root}", "Is a directory"),
    ("sample --config {config} --model {root} --out {root}/x.pgm", "Is a directory"),
    ("train-base --config {config} --steps 1 --out {root}/missing_dir/m.rsbm",
     "No such file or directory"),
    ("train-base --config {config} --steps 1 --out {root}", "Is a directory"),
])
def test_bad_argument_exits_2(work, capsys, argv, message):
    code = main(argv.format(**work).split())
    err = capsys.readouterr().err
    assert code == 2, err
    assert "error:" in err and "Traceback" not in err
    assert message in err
    assert ".resolab-" not in err  # a failed write names its target, not the temp file


def test_malformed_config_exits_2(work, capsys):
    bad = work["root"] / "bad.json"
    bad.write_text("{oops")
    code = main(["train-base", "--config", str(bad),
                 "--out", str(work["root"] / "y.rsbm")])
    assert code == 2
    assert "malformed run configuration JSON" in capsys.readouterr().err


def test_unknown_config_key_exits_2(work, capsys):
    doc = dict(TINY_DOC)
    doc["train"] = dict(TINY_DOC["train"], stepz=3)
    bad = work["root"] / "typo.json"
    bad.write_text(json.dumps(doc))
    code = main(["train-base", "--config", str(bad),
                 "--out", str(work["root"] / "y.rsbm")])
    assert code == 2
    assert "train.stepz" in capsys.readouterr().err


def test_more_data_classes_than_model_classes_exits_2_without_a_file(tmp_path, capsys):
    # the 4-class model's null token is id 4, so class-4 images would train as unconditional
    config = tmp_path / "classes.json"
    config.write_text(json.dumps({"data": {"num_classes": 5}}))
    out = tmp_path / "m.rsbm"
    assert main(["train-base", "--config", str(config), "--steps", "1", "--out", str(out)]) == 2
    assert "data.num_classes (5) must not exceed model.num_classes (4)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sample", "--steps", "1"],
    ["bench-tiled", "--steps", "1", "--repeats", "1", "--target", "16x16", "--tile", "8x8",
     "--overlap", "0"],
])
@pytest.mark.parametrize("class_id", ["4", "-1"])
def test_class_id_outside_the_model_classes_exits_2_without_a_file(tmp_path, capsys, command,
                                                                     class_id):
    # id 4 is the 4-class model's null token: it used to give an unconditional sample
    model, out = tmp_path / "m.rsbm", tmp_path / "x.pgm"
    store.save_model(build_unet(UNetConfig(), seed=0), str(model))
    argv = [*command, "--model", str(model), "--class-id", class_id, "--out", str(out)]
    assert main(argv) == 2
    assert f"class id must be in [0, 4), got {class_id}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value,command,message", [
    ("lr_base", float("nan"), ["train-base", "--steps", "1"],
     "train.lr_base must be in [0, inf), got nan"),
    ("weight_decay", float("inf"), ["train-base", "--steps", "1"],
     "train.weight_decay must be in [0, inf), got inf"),
    ("adam_beta1", 1.0, ["train-base", "--steps", "1"],
     "train.adam_beta1 must be in [0, 1), got 1.0"),
    ("lr", -1.0, ["train-adapter", "--steps", "2"],
     "train.lr must be in [0, inf), got -1.0"),
])
def test_bad_training_value_exits_2(work, capsys, key, value, command, message):
    doc = dict(TINY_DOC)
    doc["train"] = dict(TINY_DOC["train"], **{key: value})
    bad = work["root"] / f"bad_{key}.json"
    bad.write_text(json.dumps(doc))  # NaN and Infinity as JSON's extension literals
    out = work["root"] / f"bad_{key}.out"
    argv = [command[0], "--config", str(bad), *command[1:], "--out", str(out)]
    if command[0] == "train-adapter":
        argv += ["--model", work["model"]]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,command", [("lr_base", "train-base"), ("lr", "train-adapter")])
def test_a_learning_rate_that_overflows_float32_exits_3_without_a_file(work, capsys, key,
                                                                        command):
    # one step at lr 1e300 leaves parameters past float32's range: the save refuses them
    doc = dict(TINY_DOC)
    doc["train"] = dict(TINY_DOC["train"], **{key: 1e300})
    config = work["root"] / f"overflow_{key}.json"
    config.write_text(json.dumps(doc))
    out = work["root"] / f"overflow_{key}.out"
    argv = [command, "--config", str(config), "--steps", "1", "--out", str(out)]
    if command == "train-adapter":
        argv += ["--model", work["model"]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no raw numpy RuntimeWarning either
        assert main(argv) == 3
    assert f"{out}: " in capsys.readouterr().err
    assert not out.exists()
    assert not [p.name for p in work["root"].iterdir() if p.name.endswith(".tmp")]


# ---------------------------------------------------------------------------
# training commands


def test_train_base_outputs(work, capsys):
    # fixture already ran it; verify artifacts
    model = store.load_model(work["model"])
    assert model.config.base_channels == 4
    trace = (work["root"] / "base.trace").read_text().splitlines()
    assert len(trace) == 12
    assert trace[0].startswith("1 16x16 base ")


def test_train_base_applies_weight_decay(work):
    params = {}
    for decay in (0.0, 0.5):
        doc = dict(TINY_DOC)
        doc["train"] = dict(TINY_DOC["train"], weight_decay=decay)
        cfg = work["root"] / f"decay{decay}.json"
        cfg.write_text(json.dumps(doc))
        out = work["root"] / f"decay{decay}.rsbm"
        assert main(["train-base", "--config", str(cfg), "--out", str(out), "--steps", "2"]) == 0
        params[decay] = store.load_model(str(out)).params
    assert any(not np.array_equal(params[0.0][k].data, params[0.5][k].data) for k in params[0.0])


def test_train_base_that_reshapes_a_parameter_exits_2_without_a_file(work, capsys, monkeypatch):
    def reshaping_train_base(model, *args):  # tensor data stays assignable after the build
        trace = train_base(model, *args)
        model.params["out.conv.bias"].data = np.zeros(3)
        return trace

    monkeypatch.setattr(cli, "train_base", reshaping_train_base)
    out_dir = work["root"] / "reshaped"
    out_dir.mkdir()
    argv = ["train-base", "--config", work["config"], "--out", str(out_dir / "m.rsbm"), "--steps", "1"]
    assert main(argv) == 2
    assert "out.conv.bias: stored shape (3,) != expected (1,)" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []


def test_train_adapter_reports_budget(work, capsys):
    out = work["root"] / "again.rsad"
    code = main(["train-adapter", "--config", work["config"],
                 "--model", work["model"], "--out", str(out), "--steps", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "trainable parameters:" in captured.out
    assert store.load_bundle(str(out)).rank == 2  # the config's train.rank


def test_train_adapter_warns_without_extrapolation(work, capsys):
    doc = dict(TINY_DOC)
    doc["train"] = dict(TINY_DOC["train"], resolutions=[[8, 8], [12, 12]])
    cfg = work["root"] / "interp.json"
    cfg.write_text(json.dumps(doc))
    code = main(["train-adapter", "--config", str(cfg), "--model", work["model"],
                 "--out", str(work["root"] / "interp.rsad"), "--steps", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "no extrapolation bucket" in captured.err


def test_config_checkpoint_mismatch_exits_2(work, capsys):
    # default config describes a different model than the tiny checkpoint
    code = main(["eval", "--model", work["model"]])
    assert code == 2
    assert "different model configuration" in capsys.readouterr().err


def other_config(work):
    """A run config like the tiny one whose model has two resnets per level."""
    path = work["root"] / "other.json"
    path.write_text(json.dumps(dict(TINY_DOC, model=dict(TINY_DOC["model"],
                                                         num_res_blocks_per_level=2))))
    return str(path)


@pytest.mark.parametrize("command", [
    ["sample", "--steps", "2"],
    ["bench-tiled", "--steps", "2", "--repeats", "1", "--target", "16x16", "--tile", "8x8",
     "--overlap", "0"],
])
@pytest.mark.parametrize("with_config", [False, True], ids=["defaults", "other_config"])
def test_sampling_commands_refuse_a_checkpoint_that_is_not_the_config_model(
        work, capsys, command, with_config):
    # both used to sample the tiny checkpoint under whichever schedule the config held
    out = work["root"] / "mismatch.pgm"
    config = ["--config", other_config(work)] if with_config else []
    assert main([*command, *config, "--model", work["model"], "--out", str(out)]) == 2
    assert "different model configuration" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sampling, merging, inspecting


def sample_bytes(work, name, *extra):
    out = work["root"] / name
    code = main(["sample", "--config", work["config"], "--model", work["model"],
                 "--size", "16x16", "--steps", "4", "--seed", "3",
                 "--out", str(out), *extra])
    assert code == 0
    return out.read_bytes()


def test_sample_writes_pgm_header(work, capsys):
    raw = sample_bytes(work, "s1.pgm")
    assert raw.startswith(b"P5\n16 16\n255\n")
    assert len(raw) == len(b"P5\n16 16\n255\n") + 16 * 16


def test_sample_is_byte_identical_across_runs(work, capsys):
    assert sample_bytes(work, "s2.pgm") == sample_bytes(work, "s3.pgm")


def test_sample_alpha_zero_matches_base(work, capsys):
    plain = sample_bytes(work, "s4.pgm")
    neutral = sample_bytes(work, "s5.pgm", "--adapter", work["bundle"],
                           "--alpha", "0.0")
    assert plain == neutral


def test_sample_off_resolution(work, capsys):
    out = work["root"] / "wide.pgm"
    code = main(["sample", "--config", work["config"], "--model", work["model"],
                 "--adapter", work["bundle"], "--size", "8x24", "--steps", "4",
                 "--out", str(out)])
    assert code == 0
    # PGM headers carry width before height
    assert out.read_bytes().startswith(b"P5\n24 8\n255\n")


def test_sample_adapter_on_other_model_exits_2(work, capsys):
    other = work["root"] / "other.rsbm"
    store.save_model(build_unet(UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                                           num_res_blocks_per_level=2, groups=4,
                                           time_embed_dim=8, num_classes=2)), str(other))
    code = main(["sample", "--config", other_config(work), "--model", str(other),
                 "--adapter", work["bundle"], "--steps", "2",
                 "--out", str(work["root"] / "wrong.pgm")])
    assert code == 2
    assert "fingerprint" in capsys.readouterr().err


def test_sampling_commands_write_the_library_sample(work, capsys):
    rc = load_runconfig(work["config"])
    model = store.load_model(work["model"])
    params = effective_param_map(model, store.load_bundle(work["bundle"]))
    cfg, c = SamplerConfig(steps=4, guidance_scale=2.0, eta=0.5, seed=3), np.array([1])
    flags = ["--config", work["config"], "--model", work["model"], "--adapter", work["bundle"],
             "--steps", "4", "--guidance", "2", "--seed", "3", "--class-id", "1"]
    sampled, tiled = work["root"] / "library.pgm", work["root"] / "library-tiled.pgm"
    assert main(["sample", *flags, "--eta", "0.5", "--size", "16x24", "--out", str(sampled)]) == 0
    assert main(["bench-tiled", *flags, "--target", "16x24", "--tile", "8x8", "--overlap", "4",
                 "--repeats", "1", "--out", str(tiled)]) == 0
    x = ddim_sample(model, (1, 1, 16, 24), cfg, c, rc.schedule, params=params)
    assert sampled.read_bytes() == pgm.encode(x.data[0])
    x = tiled_generate(model, rc.schedule, (16, 24), (8, 8), 4, replace(cfg, eta=0.0), c,
                       params=params)  # bench-tiled samples deterministically
    assert tiled.read_bytes() == pgm.encode(x.data[0])


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_sample_non_finite_guidance_exits_2(work, capsys, value):
    code = main(["sample", "--config", work["config"], "--model", work["model"],
                 "--size", "16x16", "--steps", "2", "--guidance", value,
                 "--out", str(work["root"] / "guided.pgm")])
    assert code == 2
    assert f"sampler guidance_scale must be in [0, inf), got {value}" in capsys.readouterr().err
    assert not (work["root"] / "guided.pgm").exists()


def test_merge_then_sample_matches_adapted(work, capsys):
    merged = work["root"] / "merged.rsbm"
    code = main(["merge", "--model", work["model"], "--adapter", work["bundle"],
                 "--out", str(merged)])
    assert code == 0
    adapted = sample_bytes(work, "s6.pgm", "--adapter", work["bundle"])
    direct = work["root"] / "s7.pgm"
    assert main(["sample", "--config", work["config"], "--model", str(merged),
                 "--size", "16x16", "--steps", "4", "--seed", "3",
                 "--out", str(direct)]) == 0
    assert direct.read_bytes() == adapted


def test_inspect_both_kinds(work, capsys):
    assert main(["inspect", work["model"]]) == 0
    assert "RSBM" in capsys.readouterr().out
    assert main(["inspect", work["bundle"]]) == 0
    assert "RSAD" in capsys.readouterr().out


@pytest.mark.parametrize("module", ["resolab", "resolab.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = pathlib.Path(resolab.__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", module,
                          "inspect", str(tmp_path / "missing.rsbm")],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error:") and "Traceback" not in run.stderr


def test_inspect_without_path_exits_2(work, capsys):
    assert main(["inspect"]) == 2
    assert "give a container path" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("alpha_r", 5.0), ("alpha_r", "x"),
                                         ("alpha_r", None), ("rank", "x")])
def test_inspect_bundle_with_bad_numbers_exits_2(work, capsys, field, value):
    magic, version, header, payload = read_parts(pathlib.Path(work["bundle"]))
    header["config"][field] = value
    bad = work["root"] / "bad-numbers.rsad"
    write_parts(bad, magic, version, header, payload)
    assert main(["inspect", str(bad)]) == 2
    assert field in capsys.readouterr().err


def test_inspect_garbage_exits_2(work, capsys):
    junk = work["root"] / "junk.bin"
    junk.write_bytes(b"JUNKJUNKJUNKJUNK")
    assert main(["inspect", str(junk)]) == 2
    assert "bad magic" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluation and benchmarks


def test_eval_table_and_jsonl(work, capsys):
    out = work["root"] / "report.jsonl"
    code = main(["eval", "--config", work["config"], "--model", work["model"],
                 "--adapter", work["bundle"], "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "base+resadapter" in captured.out
    # adapter runs carry the ablation grid: 3 subsets x 3 alphas + base row
    assert "base+resadapter[conv_lora]@alpha=0.5" in captured.out
    lines = out.read_text().splitlines()
    assert "metadata" in lines[0]
    rows = [json.loads(ln) for ln in lines if "metadata" not in ln]
    assert len(rows) == 2 * 2 + 2 * (1 + 9)  # multires rows + ablation rows


def test_eval_without_adapter_skips_ablation(work, capsys):
    code = main(["eval", "--config", work["config"], "--model", work["model"]])
    captured = capsys.readouterr()
    assert code == 0
    assert "alpha=" not in captured.out


def test_eval_with_a_zero_bucket_side_exits_2_without_warnings(work, capsys):
    # the bucket used to reach the model and warn "Mean of empty slice" first
    doc = dict(TINY_DOC, eval=dict(TINY_DOC["eval"], buckets=[[0, 8]]))
    bad = work["root"] / "zero_bucket.json"
    bad.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--config", str(bad), "--model", work["model"]])
    assert code == 2
    assert "eval.buckets[0] must be in [1, inf), got 0" in capsys.readouterr().err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_eval_of_an_overflowing_model_exits_3_without_a_report(work, capsys, monkeypatch):
    # 1e200 fits no float32 checkpoint, so the loaded model is changed in memory
    model = store.load_model(work["model"])
    model.params["out.conv.weight"].data[:] = 1e200
    monkeypatch.setattr(store, "load_model", lambda path: model)
    out = work["root"] / "overflow.jsonl"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's overflow warning
        code = main(["eval", "--config", work["config"], "--model", work["model"], "--out", str(out)])
    assert code == 3
    assert "heldout_simple_loss is inf" in capsys.readouterr().err
    assert not out.exists()


def test_bench_tiled_reports_ratio(work, capsys):
    code = main(["bench-tiled", "--config", work["config"], "--model", work["model"],
                 "--target", "16x16", "--tile", "8x8", "--overlap", "0",
                 "--steps", "2", "--repeats", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "ratio (tiled/direct):" in captured.out


# ---------------------------------------------------------------------------
# gradient audit


def test_gradcheck_passes_and_reports(capsys):
    assert main(["gradcheck", "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out
    assert "FAIL" not in out


def test_gradcheck_zero_tolerance_exits_3(capsys):
    assert main(["gradcheck", "--seeds", "1", "--tolerance", "0"]) == 3
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value,message", [
    ("--step", "0", "grad_check: step must be in (0, inf), got 0.0"),
    ("--step", "nan", "grad_check: step must be in (0, inf), got nan"),
    ("--tolerance", "nan", "--tolerance must be in [0, inf), got nan"),
    ("--tolerance", "-1e-4", "--tolerance must be in [0, inf), got -0.0001"),
    ("--seeds", "0", "--seeds must be in [1, inf), got 0"),
])
def test_gradcheck_bad_argument_exits_2(capsys, flag, value, message):
    assert main(["gradcheck", f"{flag}={value}"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "ok" not in captured.out and "FAIL" not in captured.out


# ---------------------------------------------------------------------------
# seeds


def test_negative_seed_argument_exits_2(work, capsys):
    common = ["--config", work["config"], "--model", work["model"], "--steps", "2", "--seed", "-1"]
    argvs = [
        ["sample", *common, "--out", str(work["root"] / "negative.pgm")],
        ["bench-tiled", *common, "--target", "16x16", "--tile", "8x8", "--overlap", "0",
         "--repeats", "1"],
    ]
    for argv in argvs:
        assert main(argv) == 2, argv[0]
        assert "sampler seed must be in [0, inf), got -1" in capsys.readouterr().err
    assert main(["gradcheck", "--seed", "-1"]) == 2
    assert "gradcheck seed must be in [0, inf), got -1" in capsys.readouterr().err
    assert not (work["root"] / "negative.pgm").exists()


@pytest.mark.parametrize("section,seed,command", [
    ("train", -3, ["train-base", "--steps", "1"]),
    ("eval", -2, ["eval"]),
])
def test_negative_config_seed_exits_2(work, capsys, section, seed, command):
    doc = dict(TINY_DOC)
    doc[section] = dict(TINY_DOC[section], seed=seed)
    bad = work["root"] / f"negative_{section}_seed.json"
    bad.write_text(json.dumps(doc))
    out = work["root"] / "negative.rsbm"
    argv = [command[0], "--config", str(bad), *command[1:]]
    argv += ["--out", str(out)] if command[0] == "train-base" else ["--model", work["model"]]
    assert main(argv) == 2
    assert f"{section}.seed must be in [0, inf), got {seed}" in capsys.readouterr().err
    assert not out.exists()
