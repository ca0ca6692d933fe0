"""poselift benchmark: one workload per process, one JSON result line.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload train-small --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all --seed 1        # every workload

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
workload with spans around each layer and prints the per-layer metrics and
the tracing overhead. The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
`--workload all` runs each workload in a fresh child process, so every peak
RSS is that workload's own, and prints them all.
"""

import os

# BLAS must be pinned before numpy is first imported; unpinned, one training
# step's time varied tenfold on a 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("train-small", "train-long", "infer")
WORK_DIR = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 170


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"== {name}")
        for line in lines[:-1]:
            print(f"   {line}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:<40} {m['value']:>14.4f} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
        print(f"   correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "poselift" / "__init__.py").is_file():
        print(f"error: no poselift sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import poselift
    if Path(poselift.__file__).resolve().parent != SRC / "poselift":
        print(f"error: imported poselift from {poselift.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    print("env: " + json.dumps(environment()))
    WORK_DIR.mkdir(exist_ok=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               WORK_DIR)
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:     # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
