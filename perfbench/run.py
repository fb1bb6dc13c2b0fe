"""Benchmark entry point: run workloads, each in a fresh interpreter.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Run from the root of a checkout. Without --workload every workload runs in
turn. Each runs in its own process with PYTHONHASHSEED=0 and one BLAS/OpenMP
thread; its result (one JSON object) is relayed to standard output, and the
last line printed is the last workload's result. Exits non-zero, printing no
result, when a workload fails or the checkout holds no src/paragen.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["mine-zipf", "train-copy-v54", "train-v10k", "generate-beam4-v10k"]
PINNED_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default: 0)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long each run repeats its operation (default: 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run (default: 0)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "paragen", "__init__.py")):
        print(f"run.py: no src/paragen under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED_ENV)
    for name in [args.workload] if args.workload else WORKLOADS:
        cmd = [sys.executable, os.path.join(HERE, "harness.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds * 3 + 150)
        if proc.returncode != 0:
            print(f"run.py: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print(proc.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
