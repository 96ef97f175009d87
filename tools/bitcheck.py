"""Compare this checkout's numeric outputs with another checkout's, bit for bit.

    python tools/bitcheck.py PARENT_DIR

Runs one fixed script in each checkout (``<checkout>/src`` on PYTHONPATH),
each in its own process under ``OPENBLAS_NUM_THREADS=1``. The script trains
4 base steps at 16x16 and 4 adapter steps over the default buckets, then
draws a guided 10-step 32x32 sample, direct and tiled, and a small
``multires_eval`` report. It prints one sha256 per trained tensor and per
sample and the exact value of each report row. This tool prints, per output,
whether the two checkouts agree; its last line is the combined sha256 over
every trained tensor and both samples. It exits 1 if any output differs,
and 2 if the script fails in either checkout.
"""

import argparse
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Each output line is "<name> <value>"; the names hold no space after the last.
SCRIPT = """
import hashlib
from resolab.adapters import attach_resadapter, effective_param_map
from resolab.diffusion import SamplerConfig, ddim_sample
from resolab.evalbench import multires_eval, tiled_generate
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
    print("tensor", name, hashlib.sha256(tensor.data.tobytes()).hexdigest())
for name, sample in (("direct", direct), ("tiled", tiled)):
    digest.update(sample.data.tobytes())
    print("sample", name, hashlib.sha256(sample.data.tobytes()).hexdigest())
report = multires_eval(model, bundle, sched, data, [(8, 8), (32, 32)], n_batches=1, batch_size=2)
for row in report.rows:
    print("eval", f"{row.bucket[0]}x{row.bucket[1]}", row.variant, row.value.hex())
print("combined", digest.hexdigest())
"""


def outputs(checkout, threads: int = 1) -> dict[str, str]:
    """Run SCRIPT against ``checkout``'s sources at ``threads`` BLAS threads: {output: value}."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(checkout, "src")),
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", SCRIPT],
                         env=env, capture_output=True, text=True, timeout=600)
    if run.returncode:
        raise RuntimeError(f"the script failed in {checkout}:\n{run.stderr}")
    return dict(line.rsplit(" ", 1) for line in run.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root directory of the checkout to compare against")
    args = parser.parse_args(argv)
    try:
        ours, theirs = outputs(ROOT), outputs(args.parent)
    except RuntimeError as exc:
        print(f"bitcheck: {exc}", file=sys.stderr)
        return 2
    differ = 0
    for name in sorted(ours.keys() | theirs.keys(), key=lambda n: (n == "combined", n)):
        same = ours.get(name) == theirs.get(name)
        differ += not same
        line = f"{name}: {'agree' if same else 'DIFFER'}"
        if name == "combined":
            line += f" {ours.get(name)}" + ("" if same else f" (parent {theirs.get(name)})")
        print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
