import itertools
import math

import numpy as np
import pytest

from qutrit_anneal.clustering import (
    _CHUNK_ROWS,
    ORACLE_MAX_POINTS,
    DistanceMatrix,
    Partition,
    PointSet,
    cost,
    distance,
    distance_matrix,
    enumerate_assignments,
    oracle_diag_min,
    oracle_min,
    partition_keys,
)
from qutrit_anneal.errors import SizeGuardError, SpecError
from qutrit_anneal.harness import generate_instance

SIX_POINTS = ((4, -2), (-7, 7), (6, -9), (-6, 8), (-2, -6), (-9, 5))


def test_distance_pythagorean_triple():
    assert distance((0, 0), (3, 4)) == 5.0


def test_distance_identical_points():
    assert distance((2.5, -1.0), (2.5, -1.0)) == 0.0


def test_distance_direct_evaluation():
    assert distance((4, -2), (-7, 7)) == pytest.approx(math.sqrt(202), abs=0)


def test_point_set_needs_two_points():
    with pytest.raises(ValueError):
        PointSet(points=((0, 0),))


def test_point_set_rejects_non_finite_coordinates():
    with pytest.raises(SpecError, match="point 1"):
        PointSet(points=((0, 0), (float("nan"), 1), (2, 2)))
    with pytest.raises(SpecError, match="point 0"):
        PointSet(points=((0, float("-inf")), (1, 1)))


def test_point_set_label_length_checked():
    with pytest.raises(ValueError):
        PointSet(points=((0, 0), (1, 1)), labels=("a",))


def test_distance_matrix_identical_points():
    dm = distance_matrix([(1, 1), (1, 1)])
    np.testing.assert_array_equal(dm.d, np.zeros((2, 2)))


def test_distance_matrix_spot_value():
    dm = distance_matrix(SIX_POINTS)
    assert dm.d[0, 2] == pytest.approx(math.sqrt(53), abs=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_distance_matrix_invariants(seed):
    dm = distance_matrix(generate_instance(7, seed))
    d = dm.d
    n = dm.n_points
    np.testing.assert_array_equal(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    assert np.all(d >= 0.0)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_distance_matrix_validation():
    with pytest.raises(ValueError):
        DistanceMatrix(d=np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValueError):
        DistanceMatrix(d=np.array([[1.0]]))


def test_partition_label_permutation_equality():
    a = Partition([0, 1, 1, 2], 3)
    b = Partition([2, 0, 0, 1], 3)
    c = Partition([0, 1, 2, 2], 3)
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_partition_blocks():
    p = Partition([1, 0, 1, 2], 3)
    assert p.blocks() == ((0, 2), (1,), (3,))


def test_partition_label_range_checked():
    with pytest.raises(ValueError):
        Partition([0, 3], 3)


def test_cost_singletons_zero():
    dm = distance_matrix(SIX_POINTS)
    p = Partition(range(6), 6)
    assert cost(dm, p) == 0.0


def test_cost_single_cluster_is_total_pair_sum():
    dm = distance_matrix(SIX_POINTS)
    p = Partition([0] * 6, 1)
    assert cost(dm, p) == pytest.approx(dm.total_pair_sum, abs=0)


@pytest.mark.parametrize("seed", [3, 4])
def test_cost_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    dm = distance_matrix(generate_instance(6, seed))
    labels = rng.integers(0, 3, size=6)
    perm = rng.permutation(3)
    p1 = Partition(labels, 3)
    p2 = Partition(perm[labels], 3)
    assert p1 == p2
    assert cost(dm, p1) == cost(dm, p2)


def test_enumerate_counts_small():
    assert sum(1 for _ in enumerate_assignments(2, 3)) == 9


def test_enumerate_counts_with_fixed_centroids():
    parts = list(enumerate_assignments(9, 3, fixed={0: 0, 1: 1, 2: 2}))
    assert len(parts) == 729
    for p in parts:
        assert p.labels[:3] == (0, 1, 2)


def test_enumerate_all_fixed_single_assignment():
    parts = list(enumerate_assignments(3, 3, fixed={0: 0, 1: 1, 2: 2}))
    assert len(parts) == 1


def test_enumerate_rejects_bad_fixed():
    with pytest.raises(ValueError):
        list(enumerate_assignments(3, 3, fixed={5: 0}))
    with pytest.raises(ValueError):
        list(enumerate_assignments(3, 3, fixed={0: 3}))


def test_enumerate_order_matches_product_across_chunks():
    # 3**9 rows span three label-table chunks; the fixed point sits mid-row
    expected = [
        combo[:4] + (1,) + combo[4:] for combo in itertools.product(range(3), repeat=9)
    ]
    assert len(expected) > _CHUNK_ROWS
    got = [p.labels for p in enumerate_assignments(10, 3, fixed={4: 1})]
    assert got == expected


def test_oracle_six_point_instance():
    dm = distance_matrix(SIX_POINTS)
    res = oracle_min(dm, 3)
    # clusters {1, 3, 5}, {0, 4}, {2} in point indices
    expected = Partition([0, 1, 2, 1, 0, 1], 3)
    assert res.argmin_partitions == (expected,)
    assert res.min_cost == pytest.approx(cost(dm, expected), abs=0)


def test_oracle_nine_points_with_fixed_centroids():
    pts = ((8, -1), (-2, -6), (1, 6), (4, -4), (3, 8), (9, -4), (-5, 8), (-6, -8), (3, -10))
    dm = distance_matrix(pts)
    res = oracle_min(dm, 3, fixed={0: 0, 1: 1, 2: 2})
    expected = Partition([0, 1, 2, 0, 2, 0, 2, 1, 1], 3)
    assert res.argmin_partitions == (expected,)


def test_partition_describe_uses_labels():
    ps = PointSet(points=((0, 0), (1, 1), (2, 2)), labels=("a", "b", "c"))
    p = Partition([0, 0, 1], 2)
    assert p.describe(ps) == "{a, b} | {c}"


def test_oracle_two_points_separated():
    dm = distance_matrix([(0, 0), (5, 5)])
    res = oracle_min(dm, 2)
    assert res.min_cost == 0.0
    assert Partition([0, 1], 2) in res.argmin_partitions


def test_oracle_all_fixed_returns_that_cost():
    dm = distance_matrix(SIX_POINTS)
    fixed = {i: i % 2 for i in range(6)}
    res = oracle_min(dm, 2, fixed=fixed)
    assert res.min_cost == pytest.approx(
        cost(dm, Partition([fixed[i] for i in range(6)], 2)), abs=0
    )
    assert len(res.argmin_partitions) == 1


def test_oracle_min_cost_consistent_with_partitions():
    dm = distance_matrix(generate_instance(6, 11))
    res = oracle_min(dm, 3)
    for p in res.argmin_partitions:
        assert cost(dm, p) == pytest.approx(res.min_cost, rel=1e-12)


def test_oracle_size_guard():
    pts = generate_instance(ORACLE_MAX_POINTS + 1, 0)
    with pytest.raises(SizeGuardError):
        oracle_min(distance_matrix(pts), 3)


def test_oracle_assignment_count_guard():
    pts = generate_instance(12, 1)
    with pytest.raises(SizeGuardError, match="assignments"):
        oracle_min(distance_matrix(pts), 9)


def _reference_oracle(dm, K, fixed=None, rel_tol=1e-9):
    costs = {p: cost(dm, p) for p in enumerate_assignments(dm.n_points, K, fixed)}
    best = min(costs.values())
    limit = best + rel_tol * (1.0 + abs(best))
    return best, {p for p, c in costs.items() if c <= limit}


#: (K, points, fixed labels), with fixed points first, in the middle and last
ORACLE_CASES = [
    (2, 7, {}),
    (3, 8, {}),
    (4, 7, {}),
    (2, 10, {0: 1}),
    (3, 9, {0: 2}),
    (4, 8, {4: 3}),
    (3, 10, {9: 1}),
    (4, 6, {5: 0}),
    (3, 9, {0: 0, 4: 1, 8: 2}),
]


def test_oracle_cases_cover_chunk_boundaries():
    totals = [K ** (n - len(fixed)) for K, n, fixed in ORACLE_CASES]
    assert any(t < _CHUNK_ROWS for t in totals)
    assert _CHUNK_ROWS in totals
    assert any(t > _CHUNK_ROWS and t % _CHUNK_ROWS for t in totals)


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_oracle_matches_reference_loop(case):
    K, n, fixed = ORACLE_CASES[case]
    dm = distance_matrix(generate_instance(n, 100 + case))
    best, argmin = _reference_oracle(dm, K, fixed)
    res = oracle_min(dm, K, fixed=fixed)
    assert res.min_cost == best
    assert set(res.argmin_partitions) == argmin
    assert len(res.argmin_partitions) == len(argmin)


def test_oracle_wide_tolerance_matches_reference_loop():
    # a window far wider than the rounding slack keeps many near-optimal rows
    dm = distance_matrix(generate_instance(7, 7))
    best, argmin = _reference_oracle(dm, 4, rel_tol=0.5)
    res = oracle_min(dm, 4, rel_tol=0.5)
    assert len(argmin) > 1
    assert res.min_cost == best
    assert set(res.argmin_partitions) == argmin


@pytest.mark.parametrize(
    "points, K, expected",
    [
        # corners of a unit square: the two pairings along the sides
        ([(0, 0), (1, 0), (1, 1), (0, 1)], 2, [[0, 0, 1, 1], [0, 1, 1, 0]]),
        # regular hexagon: the two matchings of adjacent vertices, whose
        # side lengths agree only to rounding
        (
            [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)],
            3,
            [[0, 0, 1, 1, 2, 2], [0, 1, 1, 2, 2, 0]],
        ),
    ],
)
def test_oracle_keeps_every_tied_partition(points, K, expected):
    dm = distance_matrix(points)
    best, argmin = _reference_oracle(dm, K)
    res = oracle_min(dm, K)
    assert res.min_cost == best
    assert set(res.argmin_partitions) == argmin == {Partition(l, K) for l in expected}


@pytest.mark.parametrize("fixed", [{6: 0}, {-1: 0}, {0: 3}, {2: -1}])
def test_oracle_rejects_bad_fixed(fixed):
    with pytest.raises(ValueError):
        oracle_min(distance_matrix(SIX_POINTS), 3, fixed=fixed)


def _stirling2(n, k):
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_deduplicated_partition_count_matches_stirling_numbers():
    distinct = {p for p in enumerate_assignments(6, 3)}
    expected = _stirling2(6, 1) + _stirling2(6, 2) + _stirling2(6, 3)
    assert expected == 122
    assert len(distinct) == expected


def test_oracle_coincident_points_keep_every_partition_in_order():
    # every assignment costs 0, so every set partition into at most 3 blocks
    # ties: 3**8 candidate rows for 1,094 partitions
    dm = distance_matrix([(2, 5)] * 8)
    best, argmin = _reference_oracle(dm, 3)
    res = oracle_min(dm, 3)
    assert res.min_cost == best
    assert len(argmin) == _stirling2(8, 1) + _stirling2(8, 2) + _stirling2(8, 3) == 1094
    expected = sorted(argmin, key=lambda p: p.canonical)
    assert [p.labels for p in res.argmin_partitions] == [p.labels for p in expected]


@pytest.mark.parametrize("cols, n_labels", [(1, 1), (6, 3), (12, 4), (30, 27)])
def test_partition_keys_match_canonical_labels(cols, n_labels):
    # 30 columns of 27 labels overflow int64 digits, so keys are re-ranked
    rng = np.random.default_rng(cols)
    labels = rng.integers(0, n_labels, size=(400, cols))
    labels[200:] = labels[:200]  # equal rows
    labels[100:200] = (labels[100:200] + 1) % n_labels  # relabeled equal rows
    keys = partition_keys(labels).tolist()
    canon = [Partition(row, n_labels).canonical for row in labels.tolist()]
    by_key = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    by_canon = sorted(range(len(keys)), key=lambda i: (canon[i], i))
    assert by_key == by_canon
    for i, j in zip(by_key, by_key[1:]):
        assert (keys[i] == keys[j]) == (canon[i] == canon[j])


def test_partition_keys_compare_across_tables():
    # the oracle keys its kept chunks separately; a chunk may lack a label
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(300, 12))
    labels[:100] %= 2
    labels[100:200] = labels[:100] + 2
    whole = partition_keys(labels)
    parts = [partition_keys(labels[a:b]) for a, b in ((0, 100), (100, 200), (200, 300))]
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(parts[0], parts[1])


def test_partition_keys_reject_negative_labels():
    with pytest.raises(ValueError, match="non-negative"):
        partition_keys(np.array([[0, 1], [-1, 0]]))


def test_oracle_diag_min_constant_diagonal():
    res = oracle_diag_min(np.full(27, 4.2))
    assert res.min_cost == 4.2
    assert len(res.argmin_basis_states) == 27


def test_oracle_diag_min_accepts_plain_vector_and_length_check():
    res = oracle_diag_min(np.array([3.0, 1.0, 2.0]))
    assert res.min_cost == 1.0
    assert [b.linear for b in res.argmin_basis_states] == [1]
    with pytest.raises(ValueError):
        oracle_diag_min(np.zeros(10))
