"""The presets' answers at M = 2000 against those recorded in ``data/``.

``data/record_preset_answers.py`` wrote the file; see its docstring for the
fields.  Exact-step probabilities must agree to 1e-12 (the Chebyshev tail
keeps them within 8.7e-13 and 9.4e-13 of the file's 30-digit mpmath
reference on fig3 and fig4, and within 2.8e-13 and 3.3e-13 of its float64
stepper by dense eigh on fig1 and fig2) and split-step ones to 1e-9; the
top partition and ``match`` must be equal.  Exact-step must also agree to
2e-12 with both references, which share no stepping code with it.
"""

import json
from pathlib import Path

import pytest

from qutrit_anneal.anneal import MODE_EXACT, MODE_SPLIT
from qutrit_anneal.presets import PRESET_NAMES

RECORDED = json.loads((Path(__file__).parent / "data" / "preset_answers.json").read_text())

TOLERANCE = {MODE_EXACT: 1e-12, MODE_SPLIT: 1e-9}


def canonical_key(partition) -> str:
    return ",".join(map(str, partition.canonical))


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_SPLIT])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_answers_match_the_recorded_ones(preset_result, name, mode):
    result = preset_result(name, mode)
    want = RECORDED[f"{name}/{mode}"]
    got = {canonical_key(p): q for p, q in result.report.partition_probabilities.items()}
    assert got.keys() == want["partition_probabilities"].keys()
    tol = TOLERANCE[mode]
    for key, p in want["partition_probabilities"].items():
        assert got[key] == pytest.approx(p, rel=0, abs=tol), key
    assert result.invalid_probability == pytest.approx(want["invalid_probability"], rel=0, abs=tol)
    assert result.final_norm == pytest.approx(want["final_norm"], rel=0, abs=tol)
    assert canonical_key(result.top_partition) == want["top_partition"]
    assert result.match == want["match"]


def gap_to_reference(preset_result, name, reference) -> float:
    """The largest gap between exact-step's partition probabilities and a recorded reference's."""
    got = preset_result(name, MODE_EXACT).report.partition_probabilities
    want = RECORDED[f"{name}/{reference}"]["partition_probabilities"]
    assert {canonical_key(p) for p in got} == want.keys()
    return max(abs(q - want[canonical_key(p)]) for p, q in got.items())


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_exact_step_agrees_with_the_dense_eigh_reference(preset_result, name):
    assert gap_to_reference(preset_result, name, "dense-eigh") <= 2e-12


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_exact_step_agrees_with_the_mpmath_reference(preset_result, name):
    assert gap_to_reference(preset_result, name, "mpmath-30") <= 2e-12
