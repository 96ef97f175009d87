"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 configuration/compatibility/container
error, 3 numeric failure (divergence, gradient-check breach).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import store
from .adapters import (AdapterBundle, attach_resadapter, effective_param_map, merge,
                       trainable_param_count)
from .diffusion import SamplerConfig, ddim_sample
from .errors import ConfigError, NumericError, ResolabError
from .evalbench import ablation_grid, bench_latency, multires_eval, tiled_generate
from .gradcheck import DEFAULT_TOLERANCE, run_suite
from .pgm import write as write_pgm
from .runconfig import RunConfig, load_runconfig
from .trainer import train_adapter, train_base
from .unet import UNetModel, build_unet

__all__ = ["main", "app"]

USAGE_EXIT = 1
CONFIG_EXIT = 2
NUMERIC_EXIT = 3


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1, not argparse's 2; help shows every option's default."""

    def __init__(self, *args, formatter_class=argparse.ArgumentDefaultsHelpFormatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        size = (int(h), int(w))
    except ValueError:
        raise ConfigError(f"size must look like HxW (e.g. 32x32), got {text!r}") from None
    if size[0] < 1 or size[1] < 1:
        raise ConfigError(f"size components must be >= 1, got {text!r}")
    return size


def _inputs(args) -> tuple[RunConfig | None, UNetModel | None, AdapterBundle | None]:
    """A command's run config, ``--model`` checkpoint and ``--adapter`` bundle at ``--alpha``.

    Each is None where the command takes no such option (the run config is the
    defaults without ``--config``). A command that reads both a run config and a
    checkpoint gets the one rule between them: the checkpoint is the run config's model.
    """
    rc = load_runconfig(args.config) if "config" in args else None
    model = store.load_model(args.model) if "model" in args else None
    if rc is not None and model is not None and model.config != rc.model:
        raise ConfigError(
            f"checkpoint {args.model} was built with a different model configuration "
            f"than the run configuration supplies; re-point --config or --model"
        )
    bundle = store.load_bundle(args.adapter) if getattr(args, "adapter", None) else None
    if bundle is not None and args.alpha is not None:
        bundle = bundle.with_alpha(args.alpha)  # adapters checks its fingerprint on use
    return rc, model, bundle


def _sampling(args, model: UNetModel, bundle: AdapterBundle | None):
    """The adapted parameter map, sampler config and class ids of a sampling command."""
    params = effective_param_map(model, bundle) if bundle is not None else None
    cfg = SamplerConfig(steps=args.steps, guidance_scale=args.guidance, eta=args.eta,
                        seed=args.seed)
    return params, cfg, np.array([args.class_id])


def _report_training(args, trace, steps: int, what: str) -> None:
    """Write the ``--trace`` file, pass the trace's notes to stderr, print the final loss."""
    if args.trace:
        trace.write(args.trace)
    for note in trace.notes:
        print(f"note: {note}", file=sys.stderr)
    final = trace.records[-1].loss if trace.records else float("nan")
    print(f"trained {what}: {steps} steps, final loss {final:.6g}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_train_base(args) -> int:
    rc, _, _ = _inputs(args)
    model = build_unet(rc.model, seed=rc.train.seed)
    plan = rc.train.plan("base", args.steps)
    trace = train_base(model, plan, rc.data, rc.schedule)
    store.save_model(model, args.out)
    _report_training(args, trace, plan.steps, "base model")
    print(f"fingerprint: {model.fingerprint}")
    print(f"saved: {args.out}")
    return 0


def _cmd_train_adapter(args) -> int:
    rc, model, _ = _inputs(args)
    bundle = attach_resadapter(model, rank=rc.train.rank, seed=rc.train.seed)
    plan = rc.train.plan("adapter", args.steps)
    trace = train_adapter(model, bundle, plan, rc.data, rc.schedule)
    bundle = bundle.with_alpha(rc.train.alpha_r)
    store.save_bundle(bundle, args.out)
    _report_training(args, trace, plan.steps, "adapter")
    print(f"trainable parameters: {trainable_param_count(bundle)}")
    print(f"bundle alpha_r: {bundle.alpha:g}")
    print(f"saved: {args.out}")
    return 0


def _cmd_sample(args) -> int:
    rc, model, bundle = _inputs(args)
    params, cfg, classes = _sampling(args, model, bundle)
    h, w = _parse_size(args.size)
    shape = (1, model.config.in_channels, h, w)
    x = ddim_sample(model, shape, cfg, classes, rc.schedule, params=params)
    write_pgm(args.out, x.data[0])
    print(f"wrote {args.out} ({h}x{w}, class {args.class_id}, seed {cfg.seed})")
    return 0


def _cmd_merge(args) -> int:
    _, model, bundle = _inputs(args)
    merged = merge(model, bundle)
    store.save_model(merged, args.out)
    n_lora, n_delta = (len(bundle.names(part)) // 2 for part in ("conv_lora", "norm_delta"))
    print(f"merged {n_lora} low-rank pairs and {n_delta} norm deltas at alpha={bundle.alpha:g}")
    print(f"saved: {args.out}")
    return 0


def _cmd_inspect(args) -> int:
    if not args.path:
        raise ConfigError("inspect: give a container path")
    print(store.inspect(args.path))
    return 0


def _cmd_gradcheck(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    # tolerance 0 is allowed: it demands exact agreement and fails (exit 3)
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise ConfigError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    worst_overall = 0.0
    failures = []
    for i in range(args.seeds):
        seed = args.seed + i
        for name, err in run_suite(seed=seed, step=args.step):
            status = "ok" if err <= args.tolerance else "FAIL"
            print(f"seed {seed}  {name:<28s} {err:.3e}  {status}")
            worst_overall = max(worst_overall, err)
            if err > args.tolerance:
                failures.append((seed, name, err))
    print(f"worst relative error: {worst_overall:.3e} (tolerance {args.tolerance:g})")
    if failures:
        raise NumericError(
            f"gradient check failed for {len(failures)} case(s); "
            f"worst {max(f[2] for f in failures):.3e} > {args.tolerance:g}"
        )
    return 0


def _cmd_eval(args) -> int:
    rc, model, bundle = _inputs(args)
    reports = [multires_eval(
        model, bundle, rc.schedule, rc.data, rc.eval.buckets,
        n_batches=rc.eval.n_batches, seed=rc.eval.seed, batch_size=rc.eval.batch_size,
    )]
    if bundle is not None and bundle.kind == "resadapter":
        modes = [{"conv_lora"}, {"norm_delta"}, {"conv_lora", "norm_delta"}]
        reports.append(ablation_grid(
            model, bundle, modes, rc.eval.alphas, rc.schedule, rc.data, rc.eval.buckets,
            n_batches=rc.eval.n_batches, seed=rc.eval.seed, batch_size=rc.eval.batch_size,
        ))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(r.jsonl() for r in reports) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    print("\n\n".join(r.table() for r in reports))
    return 0


def _cmd_bench_tiled(args) -> int:
    rc, model, bundle = _inputs(args)
    params, cfg, classes = _sampling(args, model, bundle)
    target, tile = _parse_size(args.target), _parse_size(args.tile)
    result = bench_latency(model, bundle, target, tile, args.overlap, cfg, classes, rc.schedule,
                           repeats=args.repeats)
    print(f"direct @ {args.target}: {result['direct_ms']:.1f} ms (median of {args.repeats})")
    print(f"tiled  {args.tile} overlap {args.overlap}: {result['tiled_ms']:.1f} ms")
    print(f"ratio (tiled/direct): {result['ratio']:.2f}")
    if args.out:
        x = tiled_generate(model, rc.schedule, target, tile, args.overlap, cfg, classes,
                           params=params)
        write_pgm(args.out, x.data[0])
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="resolab",
                     description="Desk-scale diffusion lab with resolution adapters.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # the options several commands share, each declared once in a parent parser
    config, model, bundle, bundle_required, training, sampler = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    config.add_argument("--config", default=None,
                        help="run configuration JSON (defaults if omitted)")
    model.add_argument("--model", required=True, help="model checkpoint")
    for parent, required in ((bundle, False), (bundle_required, True)):
        parent.add_argument("--adapter", required=required, default=None, help="adapter bundle")
        parent.add_argument("--alpha", type=float, default=None,
                            help="override bundle blend strength")
    training.add_argument("--steps", type=int, default=None,
                          help="override the phase's train.steps_base or steps_adapter")
    training.add_argument("--trace", default=None, help="write per-step loss trace to this path")
    sampler.add_argument("--steps", type=int, default=25, help="sampler steps")
    sampler.add_argument("--guidance", type=float, default=1.0, help="guidance weight")
    sampler.add_argument("--seed", type=int, default=0, help="sampling seed")
    sampler.add_argument("--class-id", type=int, default=0, help="class label to condition on")

    p = sub.add_parser("train-base", parents=[config, training],
                       help="train a base denoiser at the standard resolution")
    p.add_argument("--out", required=True, help="output model checkpoint (.rsbm)")
    p.set_defaults(fn=_cmd_train_base)

    p = sub.add_parser("train-adapter", parents=[config, model, training],
                       help="attach and train resolution adapters on a frozen base model")
    p.add_argument("--out", required=True, help="output adapter bundle (.rsad)")
    p.set_defaults(fn=_cmd_train_adapter)

    p = sub.add_parser("sample", parents=[config, model, bundle, sampler],
                       help="draw one image with the deterministic sampler")
    p.add_argument("--size", default="16x16", help="output size HxW")
    p.add_argument("--eta", type=float, default=0.0, help="stochasticity (0 = deterministic)")
    p.add_argument("--out", required=True, help="output image (.pgm)")
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("merge", parents=[model, bundle_required],
                       help="fold an adapter bundle into a standalone checkpoint")
    p.add_argument("--out", required=True, help="output merged checkpoint")
    p.set_defaults(fn=_cmd_merge)

    p = sub.add_parser("inspect", help="describe a checkpoint or bundle container")
    p.add_argument("path", nargs="?", default=None, help="container file")
    p.set_defaults(fn=_cmd_inspect)

    p = sub.add_parser("gradcheck", help="finite-difference audit of every primitive")
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds to run")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--step", type=float, default=1e-4, help="finite-difference step")
    p.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                   help="max allowed relative error")
    p.set_defaults(fn=_cmd_gradcheck)

    p = sub.add_parser("eval", parents=[config, model, bundle],
                       help="held-out loss per resolution bucket, base vs adapted")
    p.add_argument("--out", default=None, help="also write JSONL report here")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("bench-tiled", parents=[config, model, bundle, sampler],
                       help="compare direct vs tile-and-blend sampling latency")
    p.add_argument("--target", default="32x32", help="full output size HxW")
    p.add_argument("--tile", default="16x16", help="tile size HxW")
    p.add_argument("--overlap", type=int, default=8, help="tile overlap in pixels")
    p.add_argument("--repeats", type=int, default=3, help="timing repeats per variant")
    p.add_argument("--out", default=None, help="optionally write the tiled sample (.pgm)")
    p.set_defaults(fn=_cmd_bench_tiled, eta=0.0)  # timing runs the deterministic sampler

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "fn", None):
        parser.print_help(sys.stderr)
        return USAGE_EXIT
    try:
        return args.fn(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (ResolabError, OSError) as exc:  # OSError: a missing file, a directory for a file, ...
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_EXIT


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
