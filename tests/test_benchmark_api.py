"""The benchmark's hold on the API: perfbench's modules import and trace resolab.

``perfbench/workloads.py`` imports names from resolab, and ``perfbench/tracing.py``
patches module attributes (``trainer.simple_loss``, ``trainer.make_batch``,
``diffusion.cfg_predict``, ``Tape.record``, ...) and calls through them with
fixed signatures. This test imports both files as they are and runs one tiny
taped adapter loss with backward and one guided prediction under the tracer,
so a change in ``src/`` that breaks the benchmark fails here. It also runs each
workload end to end at perfbench's smoke sizes, untraced and traced, so a new
check inside the calls the workloads time (``train_base``, ``train_adapter``,
``multires_eval``, ``cfg_predict``) cannot fail the benchmark's operations
unseen, and a traced run's metric names stay those BENCHMARK.json declares.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from resolab import data, default_runconfig, diffusion, evalbench, ops, store, trainer
from resolab.adapters import attach_resadapter, effective_param_map
from resolab.diffusion import SamplerConfig, ddim_sample
from resolab.tensor import Tape, Tensor
from resolab.trainer import TrainPlan, train_adapter, train_base
from resolab.unet import UNetConfig, build_unet

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402  (workloads imports it as a top-level module)
import workloads  # noqa: E402
from test_perfbench import SMOKE  # noqa: E402


PER_LAYER = [m["name"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]]


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_runs_correctly_at_smoke_sizes(workload, trace, tmp_path):
    result = workloads.run(workload, 3, 0.01, trace, sizes=SMOKE, out_dir=tmp_path)
    assert result["correct"] is True and result["failed"] == 0, result["failures"]
    if trace:  # a traced run reports exactly the per-layer metrics the benchmark declares
        assert sorted(result["metrics"]) == sorted(PER_LAYER)


def test_tracer_sees_a_taped_adapter_loss_and_a_guided_prediction():
    rc = default_runconfig()
    schedule, dataset = rc.schedule.build(), rc.data.build()
    model = build_unet(UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                                  num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                                  num_classes=dataset.num_classes), seed=0)
    bundle = attach_resadapter(model, rank=2, seed=1)
    rng = np.random.default_rng(2)
    patched = (trainer.simple_loss, trainer.make_batch, diffusion.cfg_predict, Tape.record)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        x0, labels = trainer.make_batch(dataset, (8, 8), 2, rng)
        t = rng.integers(1, schedule.timesteps + 1, size=2)
        eps = Tensor(rng.standard_normal(x0.shape))
        with Tape() as tape:
            params = trainer.effective_param_map(model, bundle)
            loss = trainer.simple_loss(model, x0, t, eps, labels, schedule, params=params)
            tape.backward(loss)
        guided = diffusion.cfg_predict(model, x0, 5, labels, 7.5)
    assert (trainer.simple_loss, trainer.make_batch, diffusion.cfg_predict, Tape.record) == patched
    assert np.isfinite(loss.item()) and guided.shape == x0.shape
    assert bundle.tensors["down.0.sampler.conv.weight.lora.A"].grad is not None
    for span in ("trainer.make_batch", "adapters.effective_param_map", "diffusion.simple_loss",
                 "diffusion.cfg_predict", "unet.forward", "ops.conv2d", "ops.conv2d.bwd",
                 "tensor.backward"):
        assert tracer.span_count(span) > 0, span
    assert tracer.span_count("unet.forward") == 2  # one for the loss, one for both guided halves
    assert tracer.counters["tape.records"] > 0


def test_run_config_sections_build_as_the_workloads_call_them():
    # workloads.py calls rc.data.build() and rc.schedule.build(); each section is the object
    rc = default_runconfig()
    assert rc.data.build() is rc.data and rc.schedule.build() is rc.schedule


def _attributes(owners) -> dict:
    return {(owner.__name__, name): value for owner in owners for name, value in vars(owner).items()}


def test_install_traces_both_training_phases_and_a_guided_sample_then_restores_every_patch():
    rc = default_runconfig()
    schedule, dataset = rc.schedule.build(), rc.data.build()
    model = build_unet(UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                                  num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                                  num_classes=dataset.num_classes), seed=0)
    owners = (ops, Tape, trainer, trainer.AdamW, diffusion, evalbench, data.SyntheticDataset)
    before = _attributes(owners)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        train_base(model, TrainPlan(((8, 8),), 8, 1, "base", batch_size=2), dataset, schedule)
        bundle = attach_resadapter(model, rank=2, seed=1)
        # 8x8 against a standard size of 4 is an extrapolation batch: the gate fires
        train_adapter(model, bundle, TrainPlan(((8, 8),), 4, 1, "adapter", batch_size=2),
                      dataset, schedule)
        sample = ddim_sample(model, (1, 1, 8, 8), SamplerConfig(steps=2, guidance_scale=7.5), 1,
                             schedule, params=effective_param_map(model, bundle))
    assert _attributes(owners) == before
    assert np.isfinite(sample.data).all()
    for span in ("ops.conv2d", "unet.forward", "diffusion.cfg_predict", "trainer.adamw_step",
                 "tensor.backward"):
        assert tracer.span_count(span) > 0, span
    assert tracer.span_count("trainer.adamw_step") == 2
    assert tracer.span_count("diffusion.cfg_predict") == 2
    # only the adapter step passes names to AdamW.step; a base step steps all
    assert tracer.counters["gate.adapter_steps"] == 1 and tracer.counters["gate.fired"] == 1


def test_params_digest_reads_built_and_loaded_models(tmp_path):
    # the train-adapter workload digests the frozen base's read-only params map
    rc = default_runconfig()
    schedule, dataset = rc.schedule.build(), rc.data.build()
    built = build_unet(UNetConfig(in_channels=1, base_channels=4, channel_mults=(1, 2),
                                  num_res_blocks_per_level=1, groups=4, time_embed_dim=8,
                                  num_classes=dataset.num_classes), seed=3)
    path = str(tmp_path / "base.rsbm")
    store.save_model(built, path)
    loaded = store.load_model(path)
    quantized = {n: Tensor(t.data.astype("<f4").astype(np.float64)) for n, t in built.params.items()}
    assert workloads._params_digest(built.params) == workloads._params_digest(dict(built.params))
    assert workloads._params_digest(loaded.params) == workloads._params_digest(quantized)
    frozen = workloads._params_digest(loaded.params)
    bundle = attach_resadapter(loaded, rank=2, seed=4)
    rng = np.random.default_rng(5)
    x0, labels = trainer.make_batch(dataset, (8, 8), 2, rng)
    eps = Tensor(rng.standard_normal(x0.shape))
    with Tape() as tape:
        params = trainer.effective_param_map(loaded, bundle)
        tape.backward(trainer.simple_loss(loaded, x0, np.array([3, 7]), eps, labels, schedule,
                                          params=params))
    assert bundle.tensors["down.0.sampler.conv.weight.lora.A"].grad is not None
    assert workloads._params_digest(loaded.params) == frozen
