import itertools
import math

import numpy as np
import pytest

from qutrit_anneal import clustering
from qutrit_anneal.clustering import (
    _CHUNK_ROWS,
    ORACLE_MAX_POINTS,
    DistanceMatrix,
    Partition,
    PointSet,
    cost,
    distance,
    _cost_chunks,
    distance_matrix,
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


def test_point_set_accepts_numpy_rows_and_scalars():
    expected = ((0.0, 1.0), (2.5, -3.0))
    assert PointSet(np.array([[0, 1], [2.5, -3]])).points == expected
    assert PointSet([(np.int64(0), np.float32(1)), [2.5, np.float64(-3)]]).points == expected
    assert all(type(c) is float for p in PointSet(np.array([[0, 1], [2, 3]])).points for c in p)


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
    with pytest.raises(ValueError, match="symmetric"):
        # within numpy's default relative tolerance, but not symmetric
        DistanceMatrix(d=np.array([[0.0, 1.0], [1.000001, 0.0]]))
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
    total = math.fsum(dm.d[i, j] for i, j in itertools.combinations(range(6), 2))
    assert cost(dm, p) == total


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


def _label_rows(n_points, K, fixed=None):
    """Every row of the oracle's cost chunks, rebuilt from their flat indices."""
    dm = DistanceMatrix(np.zeros((n_points, n_points)))
    chunks = _cost_chunks(dm, K, fixed or {})
    return np.concatenate([rows(np.arange(costs.size)) for costs, rows in chunks])


def test_enumerate_counts_small():
    assert len(_label_rows(2, 3)) == 9


def test_enumerate_counts_with_fixed_centroids():
    rows = _label_rows(9, 3, fixed={0: 0, 1: 1, 2: 2})
    assert len(rows) == 729
    assert (rows[:, :3] == (0, 1, 2)).all()


def test_enumerate_all_fixed_single_assignment():
    assert len(_label_rows(3, 3, fixed={0: 0, 1: 1, 2: 2})) == 1


def test_enumerate_rejects_bad_fixed():
    with pytest.raises(ValueError):
        _label_rows(3, 3, fixed={5: 0})
    with pytest.raises(ValueError):
        _label_rows(3, 3, fixed={0: 3})


def test_enumerate_order_matches_product_across_chunks():
    # 3**10 rows span three chunks of 3**9; the fixed point sits mid-row
    expected = [
        combo[:4] + (1,) + combo[4:] for combo in itertools.product(range(3), repeat=10)
    ]
    assert len(expected) == 3 * _CHUNK_ROWS
    got = [tuple(row) for row in _label_rows(11, 3, fixed={4: 1}).tolist()]
    assert got == expected


@pytest.mark.parametrize(
    "points, K, fixed, chunk_rows",
    [
        (generate_instance(7, 20), 3, {0: 1}, _CHUNK_ROWS),  # fixed point first
        (generate_instance(7, 21), 4, {3: 2}, _CHUNK_ROWS),  # in the middle
        (generate_instance(8, 22), 2, {7: 0}, _CHUNK_ROWS),  # last
        (generate_instance(7, 23), 3, {2: 0, 5: 2}, 3**3),  # 9 chunks of 27
        ([(0, 0), (3, 4), (0, 0), (3, 4), (0, 0), (6, 8)], 3, {}, _CHUNK_ROWS),  # ties
    ],
)
def test_chunk_costs_lie_within_slack_of_cost(points, K, fixed, chunk_rows, monkeypatch):
    monkeypatch.setattr(clustering, "_CHUNK_ROWS", chunk_rows)
    dm = distance_matrix(points)
    chunks = list(_cost_chunks(dm, K, fixed))
    assert (len(chunks) > 1) == (chunk_rows < _CHUNK_ROWS)
    # the oracle's rounding slack on a row's numpy cost
    slack = 1e-12 * (1.0 + math.fsum(dm.d[np.triu_indices(len(points), 1)]))
    seen = set()
    for costs, rows in chunks:
        for c, row in zip(costs.tolist(), rows(np.arange(costs.size)).tolist()):
            assert abs(c - cost(dm, Partition(row, K))) <= slack
            seen.add(tuple(row))
    assert len(seen) == K ** (len(points) - len(fixed))


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
    """Minimum and argmin over every labeling, by a loop that shares no code
    with the oracle: the first labeling of each partition in product order
    names it."""
    fixed = fixed or {}
    labelings = (
        labels
        for labels in itertools.product(range(K), repeat=dm.n_points)
        if all(labels[p] == l for p, l in fixed.items())
    )
    costs = {p: cost(dm, p) for p in (Partition(labels, K) for labels in labelings)}
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
    (2, 8, {3: 0, 7: 1}),
    (3, 6, {1: 2, 5: 0}),
    (4, 5, {2: 1, 4: 0}),
]

#: A chunk bound under which the cases above also span several chunks: the
#: production bound holds every one of them in a single chunk
SMALL_CHUNK_ROWS = 3**4


def test_oracle_cases_cover_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(clustering, "_CHUNK_ROWS", SMALL_CHUNK_ROWS)
    chunks = {}  # K -> the chunk counts of its cases
    for K, n, fixed in ORACLE_CASES:
        dm = DistanceMatrix(np.zeros((n, n)))
        chunks.setdefault(K, set()).add(len(list(_cost_chunks(dm, K, fixed))))
    assert sorted(chunks) == [2, 3, 4]
    for counts in chunks.values():
        assert 1 in counts and max(counts) > 1


@pytest.mark.parametrize("case", range(len(ORACLE_CASES)))
def test_oracle_matches_reference_loop(case, monkeypatch):
    K, n, fixed = ORACLE_CASES[case]
    dm = distance_matrix(generate_instance(n, 100 + case))
    best, argmin = _reference_oracle(dm, K, fixed)
    for chunk_rows in (_CHUNK_ROWS, SMALL_CHUNK_ROWS):
        monkeypatch.setattr(clustering, "_CHUNK_ROWS", chunk_rows)
        res = oracle_min(dm, K, fixed=fixed)
        assert res.min_cost == best
        assert set(res.argmin_partitions) == argmin
        assert len(res.argmin_partitions) == len(argmin)


def _random_oracle_instance(seed):
    """n 2-8, K 1-4 with at most 4,096 labelings, 0-3 fixed points anywhere;
    every other instance on a 3 x 3 grid, where coincident points tie."""
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 5))
    n = int(rng.integers(2, 9 if K < 3 else {3: 8, 4: 7}[K]))
    if seed % 2:
        points = generate_instance(n, seed)
    else:
        points = rng.integers(0, 3, size=(n, 2)).tolist()
    spots = rng.choice(n, size=int(rng.integers(0, min(3, n) + 1)), replace=False)
    return points, K, {int(p): int(rng.integers(0, K)) for p in spots}


@pytest.mark.parametrize("seed", range(40))
def test_oracle_matches_reference_loop_on_seeded_instances(seed, monkeypatch):
    points, K, fixed = _random_oracle_instance(seed)
    dm = distance_matrix(points)
    assert K**dm.n_points <= 4096
    best, argmin = _reference_oracle(dm, K, fixed)
    # the reference's set holds the first labeling of each partition
    first = {p: p.labels for p in argmin}
    for chunk_rows in (_CHUNK_ROWS, SMALL_CHUNK_ROWS):
        monkeypatch.setattr(clustering, "_CHUNK_ROWS", chunk_rows)
        res = oracle_min(dm, K, fixed=fixed)
        assert res.min_cost == best
        assert set(res.argmin_partitions) == argmin
        assert len(res.argmin_partitions) == len(argmin)
        assert all(p.labels == first[p] for p in res.argmin_partitions)


def test_seeded_instances_reach_both_chunk_paths(monkeypatch):
    # at the small bound the seeds above hold a case whose minimum is first
    # found after the first chunk, so kept rows are cut to a lower window, and
    # one with a chunk whose least cost is far above the minimum, which
    # leaves no kept rows
    monkeypatch.setattr(clustering, "_CHUNK_ROWS", SMALL_CHUNK_ROWS)
    later, far = set(), set()
    for seed in range(40):
        points, K, fixed = _random_oracle_instance(seed)
        lows = [costs.min() for costs, _ in _cost_chunks(distance_matrix(points), K, fixed)]
        least = min(lows)
        if np.argmin(lows) > 0:
            later.add(seed)
        if any(lo > least + 1e-6 * (1.0 + least) for lo in lows):
            far.add(seed)
    assert later and far


def test_oracle_wide_tolerance_matches_reference_loop(monkeypatch):
    # a window far wider than the rounding slack keeps many near-optimal rows,
    # at the small bound also from chunks whose least cost is above the best
    monkeypatch.setattr(clustering, "_ARGMIN_REL_TOL", 0.5)
    dm = distance_matrix(generate_instance(7, 7))
    best, argmin = _reference_oracle(dm, 4, rel_tol=0.5)
    assert len(argmin) > 1
    for chunk_rows in (_CHUNK_ROWS, SMALL_CHUNK_ROWS):
        monkeypatch.setattr(clustering, "_CHUNK_ROWS", chunk_rows)
        res = oracle_min(dm, 4)
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


def test_oracle_window_leaves_out_a_near_tie():
    # {0,2 | 1} costs 1e-7 more than {0,1 | 2}: 5e-8 of (1 + min_cost), past
    # the 1e-9 window (but inside one of 1e-6), so it is no optimum
    eps = 1e-7
    dm = DistanceMatrix([[0.0, 1.0, 1.0 + eps], [1.0, 0.0, 5.0], [1.0 + eps, 5.0, 0.0]])
    res = oracle_min(dm, 2)
    assert res.min_cost == 1.0
    assert res.argmin_partitions == (Partition([0, 0, 1], 2),)


@pytest.mark.parametrize(
    "fixed", [{6: 0}, {-1: 0}, {0: 3}, {2: -1}, {0: 1.5}, {1.0: 0}, {True: 0}]
)
def test_oracle_rejects_bad_fixed(fixed):
    with pytest.raises(ValueError):
        oracle_min(distance_matrix(SIX_POINTS), 3, fixed=fixed)


@pytest.mark.parametrize("K", [0, -1, 2.5, True, "3", 129])
def test_oracle_rejects_bad_k(K):
    # labels are int8, so K above 128 cannot be stored; K is checked before
    # the guards, as fixed is
    with pytest.raises(ValueError, match="K") as err:
        oracle_min(distance_matrix(SIX_POINTS), K)
    assert not isinstance(err.value, SizeGuardError)


@pytest.mark.parametrize("fixed", [None, {0: 127}])
def test_oracle_at_the_largest_k_matches_reference_loop(fixed):
    # the labels' top value 127 is stored and read back
    dm = distance_matrix([(0, 0), (3, 4)])
    best, argmin = _reference_oracle(dm, 128, fixed)
    res = oracle_min(dm, 128, fixed=fixed)
    assert res.min_cost == best
    assert set(res.argmin_partitions) == argmin
    assert len(res.argmin_partitions) == len(argmin)


def test_oracle_checks_fixed_before_the_guards():
    # 13 points fail the point guard, and 5**11 assignments the other; a
    # fractional label is named first, before either guard counts points
    for n, K in ((13, 3), (12, 5)):
        dm = distance_matrix(generate_instance(n, 0))
        with pytest.raises(ValueError, match="fixed") as err:
            oracle_min(dm, K, fixed={0: 1.5})
        assert not isinstance(err.value, SizeGuardError)


def _stirling2(n, k):
    if k == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_deduplicated_partition_count_matches_stirling_numbers():
    distinct = {Partition(labels, 3) for labels in itertools.product(range(3), repeat=6)}
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


def test_oracle_argmin_keys_agree_with_the_partitions_built_on_read():
    # every partition of 8 coincident points into at most 3 blocks ties
    dm = distance_matrix([(2, 5)] * 8)
    res = oracle_min(dm, 3)
    keys = res.argmin_keys
    assert keys.dtype == np.int64
    assert len(keys) == _stirling2(8, 1) + _stirling2(8, 2) + _stirling2(8, 3) == 1094
    assert (np.diff(keys) > 0).all()  # sorted and unique
    np.testing.assert_array_equal(partition_keys(res.argmin_labels), keys)
    assert "argmin_partitions" not in vars(res)  # not built until read
    # the eager build: the first labeling of each partition in product
    # order, in canonical order
    first = {}
    for labels in itertools.product(range(3), repeat=8):
        first.setdefault(Partition(labels, 3), labels)
    eager = sorted(first, key=lambda p: p.canonical)
    lazy = res.argmin_partitions
    assert lazy == tuple(eager)
    assert [p.labels for p in lazy] == [p.labels for p in eager]
    assert {p.n_clusters for p in lazy} == {3}
    assert res.argmin_partitions is lazy  # built once


def assert_point_zero_fixes_nothing(dm, K):
    # cluster labels are interchangeable, so every partition has a labeling
    # that puts point 0 in cluster 0: fixing it keeps the minimum and argmin
    free, pinned = oracle_min(dm, K), oracle_min(dm, K, fixed={0: 0})
    assert pinned.min_cost == free.min_cost
    np.testing.assert_array_equal(pinned.argmin_keys, free.argmin_keys)


@pytest.mark.parametrize("n", range(5, 11))
@pytest.mark.parametrize("K", [2, 3, 4])
def test_oracle_fixing_point_zero_keeps_the_argmin_on_seeded_instances(K, n):
    for seed in range(2):
        assert_point_zero_fixes_nothing(distance_matrix(generate_instance(n, 100 * K + seed)), K)


@pytest.mark.parametrize(
    "points, K",
    [
        ([(0, 0)] * 8, 3),
        ([(0, 0)] * 7, 4),
        ([(0, 0)] * 4 + [(10, 0)] * 4, 2),
        ([(0, 0)] * 4 + [(10, 0)] * 4, 3),
        ([(3, 1)] * 3 + [(-5, 2)] * 4, 4),
    ],
)
def test_oracle_fixing_point_zero_keeps_every_tied_partition(points, K):
    assert_point_zero_fixes_nothing(distance_matrix(points), K)


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

