import copy
import functools
import importlib

import numpy as np
import pytest

from qutrit_anneal.anneal import MODE_EXACT
from qutrit_anneal.harness import run, spec_from_dict, with_overrides
from qutrit_anneal.presets import get_preset
from qutrit_anneal.spin import spin_operator

# four points whose three-cluster optimum must pair the two near the origin
TINY_SPEC = {
    "name": "tiny",
    "points": [[0, 0], [0, 1], [10, 10], [-10, 10]],
    "method": "one-hot-K3-pinned",
    "anneal": {"M": 150, "dt": 0.1, "h": 2.0},
}


def full_diagonal(rows) -> np.ndarray:
    """The register's 3**n diagonal from a final Hamiltonian's (C, 3**w) block rows."""
    return functools.reduce(np.add.outer, rows).reshape(-1)


def ground_states(rows) -> np.ndarray:
    """Basis indices where a final Hamiltonian's diagonal is within 1e-9 (relative) of its minimum."""
    diag = full_diagonal(rows)
    mn = float(diag.min())
    return np.flatnonzero(diag <= mn + 1e-9 * (1.0 + abs(mn)))


def dense_driver(n: int, h: float) -> np.ndarray:
    """The driver h * sum_i S_i^x on n sites as a dense matrix, for small registers."""
    sx = spin_operator("x")
    terms = (np.kron(np.kron(np.eye(3**i), sx), np.eye(3 ** (n - i - 1))) for i in range(n))
    return h * sum(terms)


def forbid_expansion(monkeypatch) -> None:
    """Make any exact-step expansion fail the test, before it can allocate or stall."""

    def refuse(*args):
        raise AssertionError("the run reached an exact-step expansion")

    monkeypatch.setattr(importlib.import_module("qutrit_anneal.anneal"), "expm_multiply_hermitian", refuse)


@pytest.fixture
def tiny_spec_dict():
    return copy.deepcopy(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_result():
    return run(spec_from_dict(TINY_SPEC))


@pytest.fixture(scope="session")
def preset_result():
    """Memoized full-schedule preset runs in either mode, shared across test modules."""
    cache = {}

    def get(name, mode=MODE_EXACT):
        if (name, mode) not in cache:
            cache[name, mode] = run(with_overrides(get_preset(name), mode=mode))
        return cache[name, mode]

    return get
