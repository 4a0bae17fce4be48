#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics side by side.

    python3 perfbench/report.py --seed 0 --seconds 40

Each run is a separate ``run.py`` process, one after another.  A per-layer
metric whose layer a workload does not reach is measured on the coverage
request of the traced run (see README.md).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()

    results = {(w, t): _run(w, args.seed, args.seconds, t) for w in WORKLOADS for t in (0, 1)}
    width = max(len(w) for w in WORKLOADS) + 2
    print(f"{'metric':38s} {'unit':6s}" + "".join(f"{w:>{width}s}" for w in WORKLOADS))
    for trace in (0, 1):
        names = results[(WORKLOADS[0], trace)]["metrics"]
        for name, entry in names.items():
            cells = []
            for w in WORKLOADS:
                m = results[(w, trace)]["metrics"][name]
                cells.append(f"{m['value']:.6g}")
            print(f"{name:38s} {entry['unit']:6s}" + "".join(f"{c:>{width}s}" for c in cells))
    for (w, t), res in results.items():
        print(f"# {w} trace={t}: correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
