"""Record the presets' answers into ``preset_answers.json`` beside this script.

For fig1-fig4 at their own M = 2000, in exact-step and split-step mode, the
file holds each run's partition probabilities keyed by ``Partition.canonical``
(the labels joined by commas), ``invalid_probability``, the final norm, the
top partition's canonical labels and ``match``.  ``json`` writes each float
with ``repr``, so it loads back bit for bit.  ``tests/test_preset_answers.py``
compares every run against the file.

Run from the repository root, and re-record only when answers change on
purpose:

    PYTHONPATH=src python tests/data/record_preset_answers.py
"""

from __future__ import annotations

import json
from pathlib import Path

from qutrit_anneal.anneal import MODES
from qutrit_anneal.harness import run, with_overrides
from qutrit_anneal.presets import PRESET_NAMES, get_preset

PATH = Path(__file__).with_name("preset_answers.json")


def canonical_key(partition) -> str:
    return ",".join(map(str, partition.canonical))


def answers(result) -> dict:
    """The recorded fields of one ``RunResult``."""
    return {
        "partition_probabilities": {
            canonical_key(p): prob
            for p, prob in result.report.partition_probabilities.items()
        },
        "invalid_probability": result.invalid_probability,
        "final_norm": result.final_norm,
        "top_partition": canonical_key(result.top_partition),
        "match": result.match,
    }


def main() -> None:
    runs = {}
    for name in PRESET_NAMES:
        for mode in MODES:
            spec = with_overrides(get_preset(name), mode=mode)
            runs[f"{name}/{mode}"] = answers(run(spec))
    PATH.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
