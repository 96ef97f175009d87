"""Run one resolab benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-base --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with spans around every layer and
prints the per-layer metrics instead. Human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Results and span records are also
written under ``.perfbench/`` in the checkout.

The program under test is imported from ``src/`` of the same checkout; the
run fails with exit code 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def _import_workloads():
    """Import the benchmark against this checkout's src/, or exit with code 2."""
    package = SRC / "resolab" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: {package} not found; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import resolab

    if Path(resolab.__file__).resolve() != package.resolve():
        print(f"perfbench: imported resolab from {resolab.__file__}, not {package}",
              file=sys.stderr)
        raise SystemExit(2)
    import workloads

    return workloads


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    workloads = _import_workloads()
    args = _parse(argv, workloads.WORKLOADS)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = result["env"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + " ".join(f"{k}={_fmt(v)}" for k, v in env.items() if k not in
                            ("workload", "seed")))
    if "bucket_mix" in result:
        print("bucket_mix " + " ".join(f"{k}={v}" for k, v in result["bucket_mix"].items()))
    for name, entry in result.get("named_metrics", {}).items():
        count = f"  (n={entry[2]})" if len(entry) > 2 else ""
        print(f"  {name:<34s} {_fmt(entry[0]):>12s} {entry[1]}{count}")
    if args.trace:
        for name, (value, unit) in result["metrics"].items():
            print(f"  {name:<40s} {_fmt(value):>12s} {unit}")
        print(f"spans: {result['trace_file']}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    # One BLAS thread, set before numpy loads, so timings do not depend on
    # how many cores the machine lends the process.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
