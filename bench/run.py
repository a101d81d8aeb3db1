"""Run the geneigopt benchmark: one workload, or all of them, each in a
fresh child process with BLAS and OpenMP pinned to one thread.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Each workload prints ``# ...`` lines (environment, per-operation times,
failures, every metric with its unit) and, last, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a traced run.  ``--workload all`` runs every workload in turn and ends
with one JSON object whose metric names are prefixed by the workload.

This file imports no numpy: the thread settings must be in the child's
environment before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("robust_7x4_subgrad", "eigfreq_5x3", "pairs_ext")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: A run must end within 180 s; the child gets what is left after start-up.
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    # the CLI lets GENEIG_SEED override the config; the benchmark's inputs
    # come from --seed alone
    env.pop("GENEIG_SEED", None)
    return env


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child; return its parsed result line.

    Raises RuntimeError when the child fails, times out or prints no result.
    """
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{name}: no result within {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{name}: exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        raise RuntimeError(f"{name}: last line is not a JSON result")
    print("\n".join(lines[:-1]), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "geneigopt" / "__init__.py").is_file():
        print(f"no geneigopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} "
              f"fail_frac={res['failed'] / res['attempted']!r}")
        for key, metric in res["metrics"].items():
            print(f"  {key:26s} {metric['value']!r:>24} {metric['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{key}": metric
                    for name, res in results.items()
                    for key, metric in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
