import dataclasses
import itertools

import numpy as np
import pytest

from conftest import (
    block_state_index,
    dense_driver,
    full_diagonal,
    ground_states,
    group_projector_diagonal,
)
from qutrit_anneal.anneal import AnnealConfig, driver_factors
from qutrit_anneal.clustering import (
    DistanceMatrix,
    Partition,
    cost,
    distance_matrix,
    oracle_min,
)
from qutrit_anneal.hamiltonians import (
    METHOD_KMEANSPP,
    METHOD_ONEHOT_K2_PENALTY,
    METHOD_ONEHOT_K3,
    METHOD_ONEHOT_K3_PINNED,
    METHOD_ONEHOT_MULTISPIN,
    Encoding,
    EncodingScheme,
    block_state_list,
    spins_per_point,
)
from qutrit_anneal.spin import digit_table

SIX_POINTS = ((4, -2), (-7, 7), (6, -9), (-6, 8), (-2, -6), (-9, 5))


def random_instance(rng, n_points):
    pts = rng.uniform(-10, 10, size=(n_points, 2))
    return distance_matrix([tuple(p) for p in pts])


# ---------------------------------------------------------------- one-hot K3


def test_onehot_k3_two_points():
    dm = distance_matrix([(0, 0), (3, 4)])
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    assert h[0, block_state_index((1, 1))] == 5.0
    assert h[0, block_state_index((1, 0))] == -5.0


@pytest.mark.parametrize("seed", range(5))
def test_onehot_k3_diagonal_identity(seed):
    # every entry equals 2 * cost(partition) - total pair sum
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    dm = random_instance(rng, n)
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    total = cost(dm, Partition([0] * n, 1))
    digits = digit_table(n)
    for idx in range(3**n):
        w = cost(dm, Partition(digits[idx], 3))
        assert abs(h[0, idx] - (2.0 * w - total)) <= 1e-12


def test_onehot_k3_min_matches_oracle():
    dm = distance_matrix(SIX_POINTS)
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    orc = oracle_min(dm, 3)
    expected = 2.0 * orc.min_cost - cost(dm, Partition([0] * 6, 1))
    assert h.min() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3)))[1:])
def test_onehot_k3_label_symmetry(perm):
    # relabeling projections permutes the diagonal but keeps its multiset
    rng = np.random.default_rng(42)
    n = 4
    dm = random_instance(rng, n)
    (diag,) = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    digits = digit_table(n)
    perm = np.asarray(perm)
    permuted_index = (perm[digits] * 3 ** np.arange(n - 1, -1, -1)).sum(axis=1)
    np.testing.assert_array_equal(diag[permuted_index], diag)
    np.testing.assert_array_equal(np.sort(diag[permuted_index]), np.sort(diag))


# --------------------------------------------------------------- pinned form


def test_pinned_is_exact_slice_of_full_diagonal():
    dm = distance_matrix(SIX_POINTS)
    full = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    pinned = Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm)
    assert 3 * pinned.size == full.size
    np.testing.assert_array_equal(pinned[0], full[0, : pinned.size])


def test_pinned_two_points():
    dm = distance_matrix([(0, 0), (3, 4)])
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm)
    np.testing.assert_array_equal(h, [[5.0, -5.0, -5.0]])


def test_pinned_argmin_count_six_points():
    dm = distance_matrix(SIX_POINTS)
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm)
    assert len(ground_states(h)) == 2


def test_pinned_argmin_agrees_with_full_slice():
    rng = np.random.default_rng(5)
    dm = random_instance(rng, 5)
    full = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    pinned = Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm)
    slice_min = full[0, : pinned.size].min()
    assert pinned.min() == slice_min
    np.testing.assert_array_equal(
        np.flatnonzero(pinned[0] == pinned.min()),
        np.flatnonzero(full[0, : pinned.size] == slice_min),
    )


# ---------------------------------------------------------------- K2 penalty


def build_k2_penalty(dm, pinned):
    """The K2 final Hamiltonian, pair sum and distance-scaled penalty."""
    scheme = EncodingScheme(METHOD_ONEHOT_K2_PENALTY, K=2)
    return Encoding(scheme, dm.n_points, pinned=pinned).hamiltonian(dm)


def test_k2_penalty_two_points_unpinned():
    d = 5.0
    dm = distance_matrix([(0, 0), (3, 4)])
    h = build_k2_penalty(dm, pinned=False)
    assert h[0, block_state_index((-1, -1))] == 5.0 * d
    assert h[0, block_state_index((1, 0))] == -d
    assert h[0, block_state_index((1, 1))] == d


def test_k2_penalty_pinned_is_exact_slice():
    dm = distance_matrix(SIX_POINTS)
    unpinned = build_k2_penalty(dm, pinned=False)
    pinned = build_k2_penalty(dm, pinned=True)
    assert 3 * pinned.size == unpinned.size
    np.testing.assert_array_equal(pinned[0], unpinned[0, : pinned.size])


def test_k2_penalty_argmin_decodes_to_k2_oracle():
    pts = ((6, 6), (-6, 5), (-3, 9), (4, -10), (-7, 4), (-5, 1))
    dm = distance_matrix(pts)
    h = build_k2_penalty(dm, pinned=False)
    orc = oracle_min(dm, 2)
    for idx in ground_states(h):
        projections = (1 - digit_table(len(pts))[idx]).tolist()
        assert all(m in (1, 0) for m in projections)
        labels = [0 if m == 1 else 1 for m in projections]
        assert Partition(labels, 2) in set(orc.argmin_partitions)


# ----------------------------------------------------------------- multispin


def test_multispin_k9_examples():
    dm = distance_matrix([(0, 0), (3, 4)])
    h = Encoding(EncodingScheme(METHOD_ONEHOT_MULTISPIN, 9), 2).hamiltonian(dm)
    assert h.shape == (1, 3**4)
    both_psi5 = block_state_index((0, 0, 0, 0))
    assert h[0, both_psi5] == 5.0
    psi1_psi2 = block_state_index((1, 1, 1, 0))
    assert h[0, psi1_psi2] == -5.0


def test_multispin_k3_reduces_to_onehot():
    dm = distance_matrix(SIX_POINTS)
    multispin = Encoding(EncodingScheme(METHOD_ONEHOT_MULTISPIN, 3), dm.n_points)
    onehot = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points)
    np.testing.assert_array_equal(multispin.hamiltonian(dm), onehot.hamiltonian(dm))


def test_multispin_agrees_with_projector_algebra():
    # independent construction from lifted block projector diagonals
    rng = np.random.default_rng(9)
    dm = random_instance(rng, 2)
    K, s = 4, 2
    n = 2 * s
    states = block_state_list(s)[:K]
    expected = np.zeros(3**n)
    for i, j in [(0, 1)]:
        coincide = np.zeros(3**n)
        for st in states:
            coincide += group_projector_diagonal(st, i * s, n) * group_projector_diagonal(st, j * s, n)
        expected += dm.d[i, j] * (2.0 * coincide - 1.0)
    # the pair sum alone: K = 4 leaves forbidden block states, whose penalty
    # the full Hamiltonian adds on top
    encoding = Encoding(EncodingScheme(METHOD_ONEHOT_MULTISPIN, K), 2)
    np.testing.assert_allclose(encoding.pair_sum(dm.d), expected, atol=1e-12)


def test_multispin_rejects_small_k():
    with pytest.raises(ValueError):
        EncodingScheme(METHOD_ONEHOT_MULTISPIN, K=1)


def test_spins_per_point():
    assert [spins_per_point(k) for k in (2, 3, 4, 9, 10, 27)] == [1, 1, 2, 2, 3, 3]


def test_block_state_list_ordering():
    states = block_state_list(2)
    assert states[0] == (1, 1)
    assert states[1] == (1, 0)
    assert states[2] == (1, -1)
    assert states[3] == (0, 1)
    assert states[4] == (0, 0)
    assert states[8] == (-1, -1)
    assert [block_state_index(st) for st in states] == list(range(9))


# ------------------------------------------------------------ one-hot penalty


def test_penalty_onehot_single_point():
    # coincident points: the Hamiltonian is the penalty alone
    scheme = EncodingScheme(METHOD_ONEHOT_MULTISPIN, K=4, penalty_constant=7.0)
    h = Encoding(scheme, 1).hamiltonian(DistanceMatrix(np.zeros((1, 1))))
    psi5 = block_state_index((0, 0))
    psi4 = block_state_index((0, 1))
    assert h[0, psi5] == 7.0
    assert h[0, psi4] == 0.0


def test_penalty_onehot_additive_over_points():
    scheme = EncodingScheme(METHOD_ONEHOT_MULTISPIN, K=4, penalty_constant=3.0)
    h = Encoding(scheme, 2).hamiltonian(DistanceMatrix(np.zeros((2, 2))))
    both_forbidden = block_state_index((0, 0, 0, 0))
    assert h[0, both_forbidden] == 6.0


def test_penalty_onehot_validation():
    with pytest.raises(ValueError):
        EncodingScheme(METHOD_ONEHOT_MULTISPIN, K=4, penalty_constant=0.0)
    with pytest.raises(ValueError):
        # no forbidden states at K = 3
        EncodingScheme(METHOD_ONEHOT_MULTISPIN, K=3, penalty_constant=1.0)


@pytest.mark.parametrize("seed", range(4))
def test_penalty_dominance(seed):
    # with a = 2 max(d), no optimum uses a forbidden block state
    rng = np.random.default_rng(100 + seed)
    dm = random_instance(rng, 2)
    K = 4
    a = 2.0 * dm.max_distance
    scheme = EncodingScheme(METHOD_ONEHOT_MULTISPIN, K, penalty_constant=a)
    h = Encoding(scheme, 2).hamiltonian(dm)
    for idx in ground_states(h):
        projections = (1 - digit_table(4)[idx]).tolist()
        for block in (projections[:2], projections[2:]):
            assert block_state_index(block) < K


# ------------------------------------------------------------------ kmeanspp


def kmeanspp_scheme(K, centroid_states=None):
    return EncodingScheme(method=METHOD_KMEANSPP, K=K, centroid_states=centroid_states)


def build_kmeanspp(d_centroid_point, scheme):
    """kmeanspp pair sum for centroid-to-free distances (K x free points), as one row.

    Centroid c is point c and free point j is point K + j.
    """
    K, n_free = np.shape(d_centroid_point)
    d = np.zeros((K + n_free, K + n_free))
    d[:K, K:] = d_centroid_point
    d[K:, :K] = np.transpose(d_centroid_point)
    encoding = Encoding(scheme, K + n_free, centroids=range(K))
    return encoding.pair_sum(d)[None]


def build_penalty_kmeanspp(n_free_points, scheme, b):
    """Constant penalty b per free point in a block state no centroid uses, as one row.

    Every distance is zero, so the final Hamiltonian is the penalty alone.
    """
    scheme = dataclasses.replace(scheme, penalty_constant=b)
    n_points = scheme.K + n_free_points
    encoding = Encoding(scheme, n_points, centroids=range(scheme.K))
    dm = DistanceMatrix(np.zeros((n_points, n_points)))
    return full_diagonal(encoding.hamiltonian(dm))[None]


def test_kmeanspp_equidistant_point():
    d = 2.5
    scheme = kmeanspp_scheme(3)
    h = build_kmeanspp(np.full((3, 1), d), scheme)
    np.testing.assert_array_equal(h, [[-d, -d, -d]])


def test_kmeanspp_matches_per_point_nearest_centroid():
    rng = np.random.default_rng(3)
    d = rng.uniform(0.5, 20.0, size=(3, 2))
    scheme = kmeanspp_scheme(3)
    h = build_kmeanspp(d, scheme)
    ground = ground_states(h)
    assert len(ground) == 1
    for j, m in enumerate((1 - digit_table(2)[ground[0]]).tolist()):
        chosen = block_state_index((m,))
        assert chosen == int(np.argmin(d[:, j]))


def test_kmeanspp_duplicate_centroid_states_rejected():
    with pytest.raises(ValueError):
        kmeanspp_scheme(3, centroid_states=((1,), (1,), (0,)))


def test_kmeanspp_shape_validation():
    scheme = kmeanspp_scheme(3)
    with pytest.raises(ValueError):
        build_kmeanspp(np.zeros((2, 4)), scheme)
    with pytest.raises(ValueError):
        build_kmeanspp(np.zeros((3, 0)), scheme)


def test_penalty_kmeanspp_examples():
    scheme = kmeanspp_scheme(4)
    b = 11.0
    h = build_penalty_kmeanspp(1, scheme, b)
    assert h[0, block_state_index((0, 0))] == b
    assert h[0, block_state_index((1, -1))] == 0.0
    h3 = build_penalty_kmeanspp(3, scheme, b)
    all_forbidden = block_state_index((0, 0, 0, 0, 0, 0))
    assert h3[0, all_forbidden] == 3 * b


def test_penalty_kmeanspp_validation():
    scheme = kmeanspp_scheme(4)
    with pytest.raises(ValueError):
        build_penalty_kmeanspp(2, scheme, b=-1.0)
    with pytest.raises(ValueError):
        build_penalty_kmeanspp(2, kmeanspp_scheme(3), b=1.0)


# -------------------------------------------------------------------- driver


def kron_sum_apply(v, n):
    """sum_i S_i^x along the last axis of v, as A (x) I + I (x) B on the state's grid."""
    a, b = driver_factors(n)
    grid = v.reshape(*v.shape[:-1], a.shape[0], b.shape[0])
    # B is symmetric, so grid @ B applies I (x) B
    return (a @ grid + grid @ b).reshape(v.shape)


def kron_sum_driver(n, h):
    """The driver as the steppers apply it, the Kronecker sum of driver_factors,
    applied to each basis state."""
    return h * kron_sum_apply(np.eye(3**n), n)


def test_driver_ground_energy():
    assert np.linalg.eigvalsh(kron_sum_driver(3, 1.5))[0] == pytest.approx(-4.5, abs=1e-12)


def test_driver_ground_energy_matches_diagonalization():
    assert np.linalg.eigvalsh(kron_sum_driver(2, 1.5))[0] == pytest.approx(-3.0, abs=1e-12)


def test_driver_single_site_ground_state():
    vals, vecs = np.linalg.eigh(kron_sum_driver(1, 2.0))
    assert vals[0] == pytest.approx(-2.0, abs=1e-14)
    ground = vecs[:, 0]
    expected = np.array([1.0, -np.sqrt(2.0), 1.0]) / 2.0
    overlap = abs(np.dot(ground, expected))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_driver_on_all_zero_projection_state():
    h = 2.0
    psi = np.zeros(9)
    psi[block_state_index((0, 0))] = 1.0
    out = kron_sum_driver(2, h) @ psi
    amp = h / np.sqrt(2.0)
    for ms in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert out[block_state_index(ms)] == pytest.approx(amp, abs=1e-15)
    assert out[block_state_index((0, 0))] == 0.0


def test_driver_apply_matches_dense():
    rng = np.random.default_rng(17)
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    np.testing.assert_allclose(3.7 * kron_sum_apply(v, 3), dense_driver(3, 3.7) @ v, atol=1e-12)


# sum_i S_i^x applied as the Kronecker sum of driver_factors(n), against its
# dense matrix and a per-site reference


@pytest.mark.parametrize("n", range(1, 7))
def test_sum_sx_apply_matches_dense_driver(n):
    rng = np.random.default_rng(30 + n)
    v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    np.testing.assert_allclose(kron_sum_apply(v, n), dense_driver(n, 1.0) @ v, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
def test_sum_sx_apply_works_along_the_last_axis(n):
    # the exact step applies it to stacked (re, im) planes, each on its own
    rng = np.random.default_rng(50 + n)
    dense = dense_driver(n, 1.0)
    # a complex vector is test_sum_sx_apply_matches_dense_driver's case
    planes = rng.normal(size=(2, 3**n))
    batch = rng.normal(size=(3, 3**n)) + 1j * rng.normal(size=(3, 3**n))
    for v in (planes, batch):
        got = kron_sum_apply(v, n)
        assert got.shape == v.shape and got.dtype == v.dtype
        np.testing.assert_allclose(got, v @ dense, rtol=0, atol=1e-13)


def _sum_sx_per_axis(amplitudes, n):
    """Reference: S^x applied site by site on the (3,) * n tensor."""
    psi = amplitudes.reshape((3,) * n)
    out = np.zeros_like(psi)
    c = 1.0 / np.sqrt(2.0)
    for axis in range(n):
        src = np.moveaxis(psi, axis, 0)
        dst = np.moveaxis(out, axis, 0)
        dst[0] += src[1] * c
        dst[1] += (src[0] + src[2]) * c
        dst[2] += src[1] * c
    return out.reshape(-1)


def test_sum_sx_apply_matches_per_axis_formula_at_register_cap():
    n = 7
    rng = np.random.default_rng(37)
    v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    # same terms summed in another order: a few ulps of the largest entry
    np.testing.assert_allclose(kron_sum_apply(v, n), _sum_sx_per_axis(v, n), rtol=0, atol=1e-13)


def test_driver_rejects_nonpositive_field():
    # the driver is the schedule's field h, which AnnealConfig holds
    with pytest.raises(ValueError):
        AnnealConfig(h=0.0)
    with pytest.raises(ValueError):
        AnnealConfig(h=-1.0)


# ------------------------------------------------------------------ records


def test_diagonal_hamiltonian_rows_split_the_diagonal_by_block():
    # block 0 is the leading digit; row 1 is measured from block 0's first
    # state.  Two free kmeanspp points share no pair, so they are two blocks
    diag = np.add.outer([1.0, 2.0, 3.0], [10.0, 20.0, 40.0]).reshape(-1)
    encoding = Encoding(EncodingScheme(METHOD_KMEANSPP, 3), 5, centroids=range(3))
    encoding.pair_sum = lambda d: diag.copy()
    dm = distance_matrix(SIX_POINTS[:5])
    h = encoding.hamiltonian(dm)
    np.testing.assert_array_equal(h, [[11.0, 12.0, 13.0], [0.0, 10.0, 30.0]])
    # a coupled register is one row, its whole diagonal
    coupled = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), 2)
    coupled.pair_sum = lambda d: diag.copy()
    np.testing.assert_array_equal(coupled.hamiltonian(dm), [diag])


def test_diagonal_hamiltonian_is_immutable():
    # both shapes of rows, a coupled register's one row and a split batch of
    # blocks, are read-only, and each call builds its own array
    dm = distance_matrix(SIX_POINTS[:5])
    for encoding in (
        Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points),
        Encoding(EncodingScheme(METHOD_KMEANSPP, 3), dm.n_points, centroids=range(3)),
    ):
        rows = encoding.hamiltonian(dm)
        with pytest.raises(ValueError):
            rows[0, 0] = 0.0
        again = encoding.hamiltonian(dm)
        np.testing.assert_array_equal(again, rows)
        assert not np.shares_memory(again, rows)


def test_every_builder_yields_real_power_of_three_diagonal():
    dm = distance_matrix(SIX_POINTS)
    scheme4 = kmeanspp_scheme(4)
    rect = dm.d[np.ix_([0, 1, 2, 3], [4, 5])]
    outputs = [
        Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm),
        Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm),
        build_k2_penalty(dm, pinned=False),
        build_k2_penalty(dm, pinned=True),
        Encoding(EncodingScheme(METHOD_ONEHOT_MULTISPIN, 4), dm.n_points).hamiltonian(dm),
        Encoding(
            EncodingScheme(METHOD_ONEHOT_MULTISPIN, 4, penalty_constant=5.0), 6
        ).hamiltonian(DistanceMatrix(np.zeros((6, 6)))),
        build_kmeanspp(rect, scheme4),
        build_penalty_kmeanspp(2, scheme4, 5.0),
    ]
    for h in outputs:
        assert h.dtype == np.float64
        assert h.ndim == 2 and 3 ** round(np.log(h.shape[1]) / np.log(3)) == h.shape[1]
        assert np.all(np.isfinite(h))


def test_encoding_scheme_validation():
    with pytest.raises(ValueError):
        EncodingScheme(method="bogus", K=3)
    with pytest.raises(ValueError):
        EncodingScheme(method="one-hot-K3", K=2)
    with pytest.raises(ValueError):
        EncodingScheme(method="one-hot-K2-penalty", K=3)
    with pytest.raises(ValueError):
        EncodingScheme(method="one-hot-K3", K=3, centroid_states=((1,),))
    with pytest.raises(ValueError):
        EncodingScheme(method=METHOD_KMEANSPP, K=3, centroid_states=((1, 1), (1, 0), (0, 1)))
    with pytest.raises(ValueError):
        EncodingScheme(method="one-hot-K3", K=3, penalty_constant=0.0)
    scheme = EncodingScheme(method=METHOD_KMEANSPP, K=4)
    assert scheme.spins_per_point == 2
    assert scheme.centroid_states == ((1, 1), (1, 0), (1, -1), (0, 1))
