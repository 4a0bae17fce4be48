import copy

import numpy as np
import pytest

from qutrit_anneal.harness import run, spec_from_dict
from qutrit_anneal.presets import get_preset

# four points whose three-cluster optimum must pair the two near the origin
TINY_SPEC = {
    "name": "tiny",
    "points": [[0, 0], [0, 1], [10, 10], [-10, 10]],
    "method": "one-hot-K3-pinned",
    "anneal": {"M": 150, "dt": 0.1, "h": 2.0},
}


def ground_states(h) -> np.ndarray:
    """Basis indices where a final Hamiltonian's diagonal is within 1e-9 (relative) of its minimum."""
    diag = h.diag
    mn = float(diag.min())
    return np.flatnonzero(diag <= mn + 1e-9 * (1.0 + abs(mn)))


@pytest.fixture
def tiny_spec_dict():
    return copy.deepcopy(TINY_SPEC)


@pytest.fixture(scope="session")
def tiny_result():
    return run(spec_from_dict(TINY_SPEC))


@pytest.fixture(scope="session")
def preset_result():
    """Memoized full-schedule preset runs, shared across test modules."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run(get_preset(name))
        return cache[name]

    return get
