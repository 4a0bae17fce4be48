"""Record the presets' answers into ``preset_answers.json`` beside this script.

For fig1-fig4 at their own M = 2000, in exact-step and split-step mode, the
file holds each run's partition probabilities keyed by ``Partition.canonical``
(the labels joined by commas), ``invalid_probability``, the final norm, the
top partition's canonical labels and ``match``.  Beside each preset, under
``<name>/dense-eigh``, it holds the partition probabilities of a reference
that shares no stepping code with the program: a float64 stepper that
diagonalizes each step's block H_b(s) by dense ``np.linalg.eigh`` and
applies V exp(-i dt lambda) V^T, from its own S^x and driver ground state,
with only ``build_final_hamiltonian`` and ``decode`` taken from the program.
``json`` writes each float with ``repr``, so it loads back bit for bit.
``tests/test_preset_answers.py`` compares every run against the file.

Run from the repository root, and re-record only when answers change on
purpose:

    PYTHONPATH=src python tests/data/record_preset_answers.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

from qutrit_anneal.anneal import MODES, decode
from qutrit_anneal.harness import build_final_hamiltonian, run, with_overrides
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


def dense_eigh_probabilities(spec) -> dict:
    """Partition probabilities of the schedule stepped by dense eigh, block by block."""
    hf, cfg = build_final_hamiltonian(spec), spec.anneal
    w = round(np.log(hf.shape[1]) / np.log(3))
    sx = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]) / np.sqrt(2.0)
    driver = sum(np.kron(np.kron(np.eye(3**i), sx), np.eye(3 ** (w - i - 1))) for i in range(w))
    # (1, -sqrt 2, 1) / 2 is S^x's eigenvector of eigenvalue -1 on each site
    ground = functools.reduce(np.kron, [np.array([0.5, -np.sqrt(0.5), 0.5])] * w)
    blocks = []
    for row in hf:
        psi = ground.astype(complex)
        for s in np.arange(cfg.M + 1) / cfg.M:
            lam, v = np.linalg.eigh(np.diag(s * row) + (1.0 - s) * cfg.h * driver)
            psi = v @ (np.exp(-1j * cfg.dt * lam) * (v.T @ psi))
        blocks.append(psi)
    amps = functools.reduce(lambda out, b: np.multiply.outer(out, b).reshape(-1), blocks)
    report = decode(amps, spec.encoding)
    return {canonical_key(p): prob for p, prob in report.partition_probabilities.items()}


def main() -> None:
    runs = {}
    for name in PRESET_NAMES:
        for mode in MODES:
            spec = with_overrides(get_preset(name), mode=mode)
            runs[f"{name}/{mode}"] = answers(run(spec))
        runs[f"{name}/dense-eigh"] = {
            "partition_probabilities": dense_eigh_probabilities(get_preset(name))
        }
    PATH.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
