import itertools
import math

import numpy as np
import pytest

from conftest import SX, SZ, block_state_index, group_projector_diagonal, projector
from qutrit_anneal.anneal import _KS, _KS2, _SITE_GROUND, _SX, driver_factors
from qutrit_anneal.hamiltonians import PROJECTIONS, block_state_list, digit_table


def test_sz_matrix():
    # the tests' S^z holds the projections in the library's basis order
    np.testing.assert_array_equal(SZ, np.diag(np.array(PROJECTIONS, float)))


def test_sx_matrix():
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) * math.sqrt(0.5)
    np.testing.assert_array_equal(_SX, expected)


@pytest.mark.parametrize("kind", ["x", "z"])
def test_spin_operators_hermitian(kind):
    # the library's S^x, and the tests' S^z (the library needs none)
    m = {"x": _SX, "z": SZ}[kind]
    np.testing.assert_array_equal(m, m.conj().T)


def test_sx_eigenvalues():
    np.testing.assert_allclose(np.linalg.eigvalsh(_SX), [-1.0, 0.0, 1.0], atol=1e-14)


def test_one_sqrt_half_builds_every_site_matrix():
    # exact-step's driver, split-step's rotation and the initial state take
    # the same rounding of sqrt(1/2)
    sx = driver_factors(1)[1]
    np.testing.assert_array_equal(sx, SX)
    assert sx[0, 1] == _KS[0, 1] == -_SITE_GROUND[1] == math.sqrt(0.5)
    frame = np.diag([1.0, 1j, -1.0])
    np.testing.assert_array_equal(frame.conj().T @ sx @ frame / 1j, _KS)
    # sqrt(1/2)**2 rounds to 0.5 + eps / 2, so Ks^2's entry -1 is off by eps
    # and S^x's eigenvector by eps / 2: each check allows twice that
    eps = np.finfo(float).eps
    np.testing.assert_allclose(_KS @ _KS, _KS2, rtol=0, atol=2 * eps)
    np.testing.assert_allclose(sx @ _SITE_GROUND, -_SITE_GROUND, rtol=0, atol=eps)


@pytest.mark.parametrize(
    "m,expected",
    [(1, [1, 0, 0]), (0, [0, 1, 0]), (-1, [0, 0, 1])],
)
def test_projector_polynomials_equal_canonical_diagonals(m, expected):
    # the polynomial evaluation must reproduce the diagonals exactly
    np.testing.assert_array_equal(projector(m), np.diag(np.array(expected, float)))


def test_projector_completeness_exact():
    total = projector(1) + projector(0) + projector(-1)
    np.testing.assert_array_equal(total, np.eye(3))


@pytest.mark.parametrize("m1", PROJECTIONS)
@pytest.mark.parametrize("m2", PROJECTIONS)
def test_projector_idempotence_orthogonality(m1, m2):
    prod = projector(m1) @ projector(m2)
    expected = projector(m1) if m1 == m2 else np.zeros((3, 3))
    np.testing.assert_allclose(prod, expected, atol=1e-15)


def test_projector_trace_one():
    for m in PROJECTIONS:
        assert np.trace(projector(m)) == 1.0


@pytest.mark.parametrize(
    "ms,linear",
    [((1, 1), 0), ((-1, -1), 8), ((1, 0, -1), 5), ((0,), 1)],
)
def test_basis_index_examples(ms, linear):
    assert block_state_index(ms) == linear
    assert tuple((1 - digit_table(len(ms))[linear]).tolist()) == ms


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_index_round_trip(n):
    projections = 1 - digit_table(n)
    for linear in range(3**n):
        assert block_state_index(projections[linear]) == linear


def test_digit_projection_maps_are_inverse():
    assert block_state_list(1) == tuple((m,) for m in PROJECTIONS)
    assert [block_state_index(st) for st in block_state_list(1)] == [0, 1, 2]


def test_group_projector_single_site():
    diag = group_projector_diagonal((1,), start=0, n=2)
    np.testing.assert_array_equal(np.flatnonzero(diag), [0, 1, 2])


def test_group_projector_rank_one():
    diag = group_projector_diagonal((1, 0), start=0, n=2)
    np.testing.assert_array_equal(np.flatnonzero(diag), [1])


@pytest.mark.parametrize("width,n,start", [(1, 3, 1), (2, 4, 2), (3, 3, 0)])
def test_group_projector_trace(width, n, start):
    state = (1,) * width
    diag = group_projector_diagonal(state, start=start, n=n)
    assert diag.sum() == 3 ** (n - width)


def test_group_projector_resolution_of_identity():
    n, width, start = 4, 2, 1
    total = np.zeros(3**n)
    for state in itertools.product(PROJECTIONS, repeat=width):
        total += group_projector_diagonal(state, start=start, n=n)
    np.testing.assert_array_equal(total, np.ones(3**n))


def test_group_projector_block_must_fit():
    with pytest.raises(ValueError):
        group_projector_diagonal((1, 1, 1), start=1, n=3)
