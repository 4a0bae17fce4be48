import copy
import functools
import importlib

import numpy as np
import pytest

from qutrit_anneal.anneal import MODE_EXACT, _exact_anneal
from qutrit_anneal.harness import run, spec_from_dict, with_overrides
from qutrit_anneal.presets import get_preset

# the tests' own spin-1 matrices in the (|1>, |0>, |-1>) basis, from literals,
# so that a wrong library S^x cannot move a reference built from these
SX = np.sqrt(0.5) * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
SZ = np.diag([1.0, 0.0, -1.0])

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
    terms = (np.kron(np.kron(np.eye(3**i), SX), np.eye(3 ** (n - i - 1))) for i in range(n))
    return h * sum(terms)


def projector(m: int) -> np.ndarray:
    """The single-site projector |m><m| for m in {1, 0, -1}, as a polynomial in S^z."""
    eye = np.eye(3)
    return {1: SZ @ (eye + SZ) / 2.0, 0: eye - SZ @ SZ, -1: -SZ @ (eye - SZ) / 2.0}[m]


def block_state_index(state) -> int:
    """Basis index of a projection tuple: base 3 with digit 1 - m, site 0 most significant."""
    width = len(state)
    return sum((1 - int(m)) * 3 ** (width - 1 - i) for i, m in enumerate(state))


def group_projector_diagonal(state, start: int, n: int) -> np.ndarray:
    """0/1 diagonal of |state><state| on the block of sites from ``start``, identity elsewhere."""
    width = len(state)
    if start < 0 or start + width > n:
        raise ValueError(f"block [{start}, {start + width}) does not fit {n} qutrits")
    values = np.arange(3**n) // 3 ** (n - start - width) % 3**width
    return (values == block_state_index(state)).astype(float)


def step(amplitudes, s, hf, h, dt) -> np.ndarray:
    """exp(-i dt H(s)) on a (C, 3**w) stack of block amplitudes, or C = 1's 3**w, as ``anneal`` steps.

    The rows are centred on their midpoints m_b, the step is a window of one step
    through the module-global ``expm_multiply_hermitian`` that tests patch, and
    block b then takes its phase exp(-i dt s m_b).
    """
    mid = 0.5 * hf.max(axis=1) + 0.5 * hf.min(axis=1)
    amps = np.reshape(amplitudes, (len(hf), -1))
    amps = _exact_anneal(np.array([float(s)]), hf - mid[:, None], h, dt, amps)
    return (np.exp(-1j * dt * float(s) * mid)[:, None] * amps).reshape(np.shape(amplitudes))


def forbid_expansion(monkeypatch) -> None:
    """Make any exact-step expansion fail the test, before it can allocate or stall."""

    def refuse(*args):
        raise AssertionError("the run reached an exact-step expansion")

    monkeypatch.setattr(importlib.import_module("qutrit_anneal.anneal"), "expm_multiply_hermitian", refuse)


def forbid_steps(monkeypatch) -> None:
    """Make any window of anneal steps, in either mode, fail the test."""

    def refuse(*args):
        raise AssertionError("the run took a step")

    module = importlib.import_module("qutrit_anneal.anneal")
    for name in ("_small_propagators", "_split_propagators", "_exact_anneal", "_split_steps"):
        monkeypatch.setattr(module, name, refuse)


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
