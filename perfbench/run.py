"""Benchmark launcher for the optcert pipeline.

    python3 perfbench/run.py --workload quad_desk --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all

Runs each workload in its own process (``workload.py``) with one BLAS
thread: every matrix is at most 64 wide, so more threads only add scheduler
noise, and a process per workload keeps peak RSS and set-up time apart.
The child's output is passed through; its last line is the JSON result.
``--workload all`` runs the two workloads in turn and ends with one
combined line whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("quad_desk", "lasso_locate")
CHILD_TIMEOUT_S = 170


def launch(workload: str, rest: list) -> tuple[int, str]:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, *rest]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1, ""
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=None, help="default: the workload's own seed")
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    rest = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        rest += ["--seed", str(args.seed)]
    if args.workload != "all":
        return launch(args.workload, rest)[0]

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        code, out = launch(workload, rest)
        status = status or code
        if not out.strip():
            return code or 1
        result = json.loads(out.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
