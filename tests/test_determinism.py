"""Training and sampling give the same bytes whatever the BLAS thread count."""

import os
import pathlib
import subprocess
import sys

import resolab

# 4 base steps, 4 adapter steps, then a guided 10-step 32x32 sample, direct and
# tiled; prints one sha256 over every trained tensor and both samples' bytes.
SCRIPT = """
import hashlib
from resolab.adapters import attach_resadapter, effective_param_map
from resolab.diffusion import SamplerConfig, ddim_sample
from resolab.evalbench import tiled_generate
from resolab.runconfig import default_runconfig
from resolab.trainer import TrainPlan, train_adapter, train_base
from resolab.unet import build_unet

rc = default_runconfig()
t = rc.train
data, sched = rc.data.build(), rc.schedule.build()
s = t.standard_resolution
model = build_unet(rc.model, seed=0)
train_base(model, TrainPlan(((s, s),), s, 4, "base", lr=t.lr_base), data, sched)
bundle = attach_resadapter(model, rank=t.rank, seed=0)
train_adapter(model, bundle, TrainPlan(t.resolutions, s, 4, "adapter", lr=t.lr), data, sched)
params = effective_param_map(model, bundle)
cfg = SamplerConfig(steps=10, guidance_scale=7.5, seed=0)
direct = ddim_sample(model, (1, 1, 32, 32), cfg, 1, sched, params=params)
tiled = tiled_generate(model, sched, (32, 32), (16, 16), 8, cfg, 1, params=params)
digest = hashlib.sha256()
for name, tensor in sorted({**model.params, **bundle.tensors}.items()):
    digest.update(name.encode())
    digest.update(tensor.data.tobytes())
digest.update(direct.data.tobytes())
digest.update(tiled.data.tobytes())
print(digest.hexdigest())
"""


def _digest(threads: int) -> str:
    src = pathlib.Path(resolab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.strip()


def test_one_and_two_blas_threads_give_identical_bytes():
    one, two = _digest(1), _digest(2)
    assert len(one) == 64
    assert one == two
