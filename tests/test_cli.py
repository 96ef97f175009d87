"""End-to-end command-line flows against a miniature run configuration."""

import json
import pathlib

import pytest

from container_fixtures import read_parts, write_parts
from resolab import store
from resolab.cli import main
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
    code = main(["sample", "--model", work["model"], "--size", "16",
                 "--out", str(work["root"] / "x.pgm")])
    assert code == 2
    assert "size must look like HxW" in capsys.readouterr().err


def test_missing_model_file_exits_2(work, capsys):
    code = main(["sample", "--model", str(work["root"] / "nope.rsbm"),
                 "--out", str(work["root"] / "x.pgm")])
    assert code == 2


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


# ---------------------------------------------------------------------------
# training commands


def test_train_base_outputs(work, capsys):
    # fixture already ran it; verify artifacts
    model = store.load_model(work["model"])
    assert model.config.base_channels == 4
    trace = (work["root"] / "base.trace").read_text().splitlines()
    assert len(trace) == 12
    assert trace[0].startswith("1 16x16 base ")


def test_train_adapter_reports_budget(work, capsys):
    out = work["root"] / "again.rsad"
    code = main(["train-adapter", "--config", work["config"],
                 "--model", work["model"], "--out", str(out), "--steps", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert "trainable parameters:" in captured.out
    assert store.load_bundle(str(out)).loras


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
    code = main(["sample", "--config", work["config"], "--model", str(other),
                 "--adapter", work["bundle"], "--steps", "2",
                 "--out", str(work["root"] / "wrong.pgm")])
    assert code == 2
    assert "fingerprint" in capsys.readouterr().err


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


def test_inspect_accepts_file_flag(work, capsys):
    assert main(["inspect", "--file", work["model"]]) == 0
    assert "RSBM" in capsys.readouterr().out


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
