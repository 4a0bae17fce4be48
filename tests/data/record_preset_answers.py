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
For fig3 and fig4, whose blocks are 3 x 3 and 9 x 9, ``<name>/mpmath-30``
holds the same stepper's partition probabilities in 30-digit mpmath
arithmetic (``mpmath.mp.eigsy`` per step and block), which takes most of
the 2 minutes a full recording takes on a 2-CPU host.
mpmath is needed only to record; the tests read the file alone.
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

import mpmath
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


def mpmath_probabilities(spec, dps: int = 30) -> dict:
    """Partition probabilities of the schedule stepped by ``dps``-digit mpmath eigsy, block by block.

    Every float the program is given (the rows of Hf, h and dt) is taken at
    its exact binary value; s = l / M, S^x and the driver ground state are
    computed in ``dps`` digits.  Only the blocks' final amplitudes are
    rounded to float64, before the Kronecker product and ``decode``.
    """
    mp = mpmath.mp.clone()
    mp.dps = dps
    hf, cfg = build_final_hamiltonian(spec), spec.anneal
    w = round(np.log(hf.shape[1]) / np.log(3))
    # S^x on each site has entries 0 or 1/sqrt 2, so the driver's pattern is 0/1
    pattern = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    eye = functools.partial(np.eye, dtype=int)
    sites = sum(np.kron(np.kron(eye(3**i), pattern), eye(3 ** (w - i - 1))) for i in range(w))
    driver = mp.matrix(sites.tolist()) * mp.sqrt(mp.mpf(0.5))
    site = [mp.mpf(0.5), -mp.sqrt(mp.mpf(0.5)), mp.mpf(0.5)]
    ground = functools.reduce(lambda out, _: [a * b for a in out for b in site], range(w), [mp.mpf(1)])
    h, dt = mp.mpf(cfg.h), mp.mpf(cfg.dt)
    blocks = []
    for row in hf:
        diag = [mp.mpf(x) for x in row.tolist()]
        psi = mp.matrix(ground)
        for l in range(cfg.M + 1):
            s = mp.mpf(l) / cfg.M
            H = (1 - s) * h * driver
            for i, x in enumerate(diag):
                H[i, i] += s * x
            lam, v = mp.eigsy(H)
            y = v.T * psi
            for i in range(len(diag)):
                y[i] *= mp.expj(-dt * lam[i])
            psi = v * y
        blocks.append(np.array([complex(z) for z in psi]))
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
        if name in ("fig3", "fig4"):
            runs[f"{name}/mpmath-30"] = {
                "partition_probabilities": mpmath_probabilities(get_preset(name))
            }
    PATH.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
