import dataclasses
import itertools

import numpy as np
import pytest

from conftest import ground_states
from qutrit_anneal.anneal import InstantaneousHamiltonian
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
    DiagonalHamiltonian,
    DriverHamiltonian,
    Encoding,
    EncodingScheme,
    block_state_index,
    block_state_list,
    spins_per_point,
)
from qutrit_anneal.spin import digit_table, group_projector_diagonal

SIX_POINTS = ((4, -2), (-7, 7), (6, -9), (-6, 8), (-2, -6), (-9, 5))


def random_instance(rng, n_points):
    pts = rng.uniform(-10, 10, size=(n_points, 2))
    return distance_matrix([tuple(p) for p in pts])


# ---------------------------------------------------------------- one-hot K3


def test_onehot_k3_two_points():
    dm = distance_matrix([(0, 0), (3, 4)])
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    assert h.diag[block_state_index((1, 1))] == 5.0
    assert h.diag[block_state_index((1, 0))] == -5.0


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
        assert abs(h.diag[idx] - (2.0 * w - total)) <= 1e-12


def test_onehot_k3_min_matches_oracle():
    dm = distance_matrix(SIX_POINTS)
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    orc = oracle_min(dm, 3)
    expected = 2.0 * orc.min_cost - cost(dm, Partition([0] * 6, 1))
    assert h.diag.min() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(3)))[1:])
def test_onehot_k3_label_symmetry(perm):
    # relabeling projections permutes the diagonal but keeps its multiset
    rng = np.random.default_rng(42)
    n = 4
    dm = random_instance(rng, n)
    diag = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm).diag
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
    assert pinned.n == full.n - 1
    np.testing.assert_array_equal(pinned.diag, full.diag[: 3**pinned.n])


def test_pinned_two_points():
    dm = distance_matrix([(0, 0), (3, 4)])
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm)
    np.testing.assert_array_equal(h.diag, [5.0, -5.0, -5.0])


def test_pinned_argmin_count_six_points():
    dm = distance_matrix(SIX_POINTS)
    h = Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm)
    assert len(ground_states(h)) == 2


def test_pinned_argmin_agrees_with_full_slice():
    rng = np.random.default_rng(5)
    dm = random_instance(rng, 5)
    full = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm)
    pinned = Encoding(EncodingScheme(METHOD_ONEHOT_K3_PINNED, 3), dm.n_points).hamiltonian(dm)
    slice_min = full.diag[: 3**pinned.n].min()
    assert pinned.diag.min() == slice_min
    np.testing.assert_array_equal(
        np.flatnonzero(pinned.diag == pinned.diag.min()),
        np.flatnonzero(full.diag[: 3**pinned.n] == slice_min),
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
    assert h.diag[block_state_index((-1, -1))] == 5.0 * d
    assert h.diag[block_state_index((1, 0))] == -d
    assert h.diag[block_state_index((1, 1))] == d


def test_k2_penalty_pinned_is_exact_slice():
    dm = distance_matrix(SIX_POINTS)
    unpinned = build_k2_penalty(dm, pinned=False)
    pinned = build_k2_penalty(dm, pinned=True)
    assert pinned.n == unpinned.n - 1
    np.testing.assert_array_equal(pinned.diag, unpinned.diag[: 3**pinned.n])


def test_k2_penalty_argmin_decodes_to_k2_oracle():
    pts = ((6, 6), (-6, 5), (-3, 9), (4, -10), (-7, 4), (-5, 1))
    dm = distance_matrix(pts)
    h = build_k2_penalty(dm, pinned=False)
    orc = oracle_min(dm, 2)
    for idx in ground_states(h):
        projections = (1 - digit_table(h.n)[idx]).tolist()
        assert all(m in (1, 0) for m in projections)
        labels = [0 if m == 1 else 1 for m in projections]
        assert Partition(labels, 2) in set(orc.argmin_partitions)


# ----------------------------------------------------------------- multispin


def test_multispin_k9_examples():
    dm = distance_matrix([(0, 0), (3, 4)])
    h = Encoding(EncodingScheme(METHOD_ONEHOT_MULTISPIN, 9), 2).hamiltonian(dm)
    assert h.n == 4
    both_psi5 = block_state_index((0, 0, 0, 0))
    assert h.diag[both_psi5] == 5.0
    psi1_psi2 = block_state_index((1, 1, 1, 0))
    assert h.diag[psi1_psi2] == -5.0


def test_multispin_k3_reduces_to_onehot():
    dm = distance_matrix(SIX_POINTS)
    multispin = Encoding(EncodingScheme(METHOD_ONEHOT_MULTISPIN, 3), dm.n_points)
    np.testing.assert_array_equal(multispin.hamiltonian(dm).diag, Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), dm.n_points).hamiltonian(dm).diag)


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
    assert h.diag[psi5] == 7.0
    assert h.diag[psi4] == 0.0


def test_penalty_onehot_additive_over_points():
    scheme = EncodingScheme(METHOD_ONEHOT_MULTISPIN, K=4, penalty_constant=3.0)
    h = Encoding(scheme, 2).hamiltonian(DistanceMatrix(np.zeros((2, 2))))
    both_forbidden = block_state_index((0, 0, 0, 0))
    assert h.diag[both_forbidden] == 6.0


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
    """kmeanspp pair sum for centroid-to-free distances (K x free points).

    Centroid c is point c and free point j is point K + j.
    """
    K, n_free = np.shape(d_centroid_point)
    d = np.zeros((K + n_free, K + n_free))
    d[:K, K:] = d_centroid_point
    d[K:, :K] = np.transpose(d_centroid_point)
    encoding = Encoding(scheme, K + n_free, centroids=range(K))
    return DiagonalHamiltonian(encoding.n_qutrits, encoding.pair_sum(d))


def build_penalty_kmeanspp(n_free_points, scheme, b):
    """Constant penalty b per free point in a block state no centroid uses."""
    scheme = dataclasses.replace(scheme, penalty_constant=b)
    n_points = scheme.K + n_free_points
    encoding = Encoding(scheme, n_points, centroids=range(scheme.K))
    diag = encoding.penalty_sum(np.full(n_points, float(b)))
    return DiagonalHamiltonian(encoding.n_qutrits, diag)


def test_kmeanspp_equidistant_point():
    d = 2.5
    scheme = kmeanspp_scheme(3)
    h = build_kmeanspp(np.full((3, 1), d), scheme)
    np.testing.assert_array_equal(h.diag, [-d, -d, -d])


def test_kmeanspp_matches_per_point_nearest_centroid():
    rng = np.random.default_rng(3)
    d = rng.uniform(0.5, 20.0, size=(3, 2))
    scheme = kmeanspp_scheme(3)
    h = build_kmeanspp(d, scheme)
    ground = ground_states(h)
    assert len(ground) == 1
    for j, m in enumerate((1 - digit_table(h.n)[ground[0]]).tolist()):
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
    assert h.diag[block_state_index((0, 0))] == b
    assert h.diag[block_state_index((1, -1))] == 0.0
    h3 = build_penalty_kmeanspp(3, scheme, b)
    all_forbidden = block_state_index((0, 0, 0, 0, 0, 0))
    assert h3.diag[all_forbidden] == 3 * b


def test_penalty_kmeanspp_validation():
    scheme = kmeanspp_scheme(4)
    with pytest.raises(ValueError):
        build_penalty_kmeanspp(2, scheme, b=-1.0)
    with pytest.raises(ValueError):
        build_penalty_kmeanspp(2, kmeanspp_scheme(3), b=1.0)


# -------------------------------------------------------------------- driver


def test_driver_ground_energy():
    drv = DriverHamiltonian(3, 1.5)
    assert np.linalg.eigvalsh(drv.dense())[0] == pytest.approx(-4.5, abs=1e-12)


def test_driver_ground_energy_matches_diagonalization():
    drv = DriverHamiltonian(2, 1.5)
    assert np.linalg.eigvalsh(drv.dense())[0] == pytest.approx(-3.0, abs=1e-12)


def test_driver_single_site_ground_state():
    drv = DriverHamiltonian(1, 2.0)
    vals, vecs = np.linalg.eigh(drv.dense())
    assert vals[0] == pytest.approx(-2.0, abs=1e-14)
    ground = vecs[:, 0]
    expected = np.array([1.0, -np.sqrt(2.0), 1.0]) / 2.0
    overlap = abs(np.dot(ground, expected))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_driver_apply_matches_dense():
    rng = np.random.default_rng(17)
    drv = DriverHamiltonian(3, 3.7)
    # at s = 0, H(s) is the driver alone
    op = InstantaneousHamiltonian(0.0, DiagonalHamiltonian(3, np.zeros(27)), drv)
    v = rng.normal(size=27) + 1j * rng.normal(size=27)
    np.testing.assert_allclose(op.matvec(v), drv.dense() @ v, atol=1e-12)


# sum_i S_i^x applied by the matvec at s = 0, against its dense matrix and a
# per-site reference


@pytest.mark.parametrize("n", range(1, 7))
def test_sum_sx_apply_matches_dense_driver(n):
    rng = np.random.default_rng(30 + n)
    v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    drv = DriverHamiltonian(n, 1.0)
    op = InstantaneousHamiltonian(0.0, DiagonalHamiltonian(n, np.zeros(3**n)), drv)
    np.testing.assert_allclose(op.matvec(v), drv.dense() @ v, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", range(1, 7))
def test_sum_sx_apply_works_along_the_last_axis(n):
    rng = np.random.default_rng(50 + n)
    drv = DriverHamiltonian(n, 1.0)
    op = InstantaneousHamiltonian(0.0, DiagonalHamiltonian(n, np.zeros(3**n)), drv)
    dense = drv.dense()
    # a complex vector is test_sum_sx_apply_matches_dense_driver's case
    planes = rng.normal(size=(2, 3**n))
    batch = rng.normal(size=(3, 3**n)) + 1j * rng.normal(size=(3, 3**n))
    for v in (planes, batch):
        got = op.matvec(v)
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
    drv = DriverHamiltonian(n, 1.0)
    op = InstantaneousHamiltonian(0.0, DiagonalHamiltonian(n, np.zeros(3**n)), drv)
    # same terms summed in another order: a few ulps of the largest entry
    np.testing.assert_allclose(op.matvec(v), _sum_sx_per_axis(v, n), rtol=0, atol=1e-13)


def test_driver_on_all_zero_projection_state():
    h = 2.0
    drv = DriverHamiltonian(2, h)
    psi = np.zeros(9)
    psi[block_state_index((0, 0))] = 1.0
    out = drv.dense() @ psi
    amp = h / np.sqrt(2.0)
    for ms in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert out[block_state_index(ms)] == pytest.approx(amp, abs=1e-15)
    assert out[block_state_index((0, 0))] == 0.0


def test_driver_rejects_nonpositive_field():
    with pytest.raises(ValueError):
        DriverHamiltonian(2, 0.0)
    with pytest.raises(ValueError):
        DriverHamiltonian(2, -1.0)


# ------------------------------------------------------------------ records


def test_diagonal_hamiltonian_validation():
    with pytest.raises(ValueError):
        DiagonalHamiltonian(2, np.zeros(8))
    with pytest.raises(ValueError):
        DiagonalHamiltonian(1, np.array([0.0, np.inf, 1.0]))


def test_diagonal_hamiltonian_is_immutable():
    source = np.array([1.0, 2.0, 3.0])
    a = DiagonalHamiltonian(1, source)
    with pytest.raises(ValueError):
        a.diag[0] = 9.0
    source[0] = 9.0  # the diagonal is a copy
    np.testing.assert_array_equal(a.diag, [1.0, 2.0, 3.0])


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
        assert h.diag.dtype == np.float64
        assert h.diag.shape == (3**h.n,)
        assert np.all(np.isfinite(h.diag))


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
