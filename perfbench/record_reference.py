#!/usr/bin/env python3
"""Write perfbench/reference.json: this checkout's outputs at the default seed.

    python3 perfbench/record_reference.py

The benchmark checks later outputs against this file: exact-step preset
probabilities within 1e-10, split-step sweep probabilities within 1e-3,
oracle argmin sets exactly.  Re-record only when a change of answers is
intended.
"""

import importlib
import json
import sys

import run  # pins BLAS threads before numpy loads
from perfbench import check, workloads


def main() -> int:
    run._import_library()
    harness = importlib.import_module("qutrit_anneal.harness")
    clustering = importlib.import_module("qutrit_anneal.clustering")
    seed = workloads.DEFAULT_SEED
    ref = {"seed": seed}

    presets = workloads.build_cases("presets-exact", seed)
    ref["presets-exact"] = {
        s.name: check.summarize_run(harness.run(s), check.EXACT_PROB_TOL / 100) for s in presets
    }

    ref["sweep-split"] = {
        s.name: check.summarize_run(harness.run(s), check.SPLIT_PROB_TOL / 100)
        for s in workloads.build_cases("sweep-split", seed)
    }

    ref["oracle-certify"] = {}
    for case in workloads.build_cases("oracle-certify", seed):
        dm = clustering.distance_matrix(case.points)
        res = clustering.oracle_min(dm, case.K, fixed=case.fixed)
        ref["oracle-certify"][case.name] = check.summarize_oracle(res)

    path = run.ROOT / "perfbench" / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    for name, section in ref.items():
        if isinstance(section, dict):
            matched = sum(r.get("match", True) for r in section.values())
            print(f"{name}: {len(section)} cases, {matched} match the oracle")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
