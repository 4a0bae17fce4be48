"""Clustering instances, the intra-cluster cost, and the exhaustive oracle.

The oracle, ``oracle_min``, enumerates every cluster assignment of an
instance of at most ``ORACLE_MAX_POINTS`` points and is the classical
reference that annealing results are certified against.  It costs the
assignments in numpy chunks (``_cost_chunks``) and re-costs those near the
minimum exactly (``_exact_costs``); its ``OracleResult`` holds the exact
minimum and the optimal partitions as ``partition_keys``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import SizeGuardError, SpecError, is_finite_real, is_int, is_utf8

#: Hard cap for exhaustive enumeration (K**n assignments).
ORACLE_MAX_POINTS = 12

#: Additional cap on the number of enumerated assignments (large K guard).
ORACLE_MAX_ASSIGNMENTS = 5_000_000


@dataclass(frozen=True)
class PointSet:
    """Ordered 2-D points with dense 0-based indices."""

    points: tuple[tuple[float, float], ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not _is_sequence(self.points):
            raise SpecError(f"'points' must be a list of [x, y] pairs, got {self.points!r}")
        for idx, p in enumerate(self.points):
            if not (_is_sequence(p) and len(p) == 2 and all(map(is_finite_real, p))):
                raise SpecError(
                    f"'points': point {idx} must be an [x, y] pair of finite numbers, "
                    f"got {p!r}"
                )
        pts = tuple((float(x), float(y)) for x, y in self.points)
        if len(pts) < 2:
            raise SpecError("'points' must hold at least 2 points")
        # no distance exceeds the span's diagonal, and the pair and K2 penalty
        # sums of a final Hamiltonian's entry stay below 3 n^2 times it
        xs, ys = zip(*pts)
        span = math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        if not math.isfinite(3.0 * len(pts) ** 2 * span):
            raise SpecError(f"'points' span {span!r} too wide for {len(pts)} points")
        object.__setattr__(self, "points", pts)
        labels = self.labels
        if labels is not None:
            if not (
                isinstance(labels, (list, tuple)) and all(map(is_utf8, labels))
            ):
                raise SpecError(
                    f"'labels' must be a list of strings that UTF-8 can encode, got {labels!r}"
                )
            if len(labels) != len(pts):
                raise SpecError(
                    f"'labels' must name each of the {len(pts)} points, got {len(labels)}"
                )
            object.__setattr__(self, "labels", tuple(labels))

    def __len__(self) -> int:
        return len(self.points)


def _is_sequence(value) -> bool:
    """A list, a tuple or a numpy array of at least one dimension: not a string."""
    return isinstance(value, (list, tuple)) or (
        isinstance(value, np.ndarray) and value.ndim > 0
    )


def distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Euclidean distance between two points in the plane."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric matrix of pairwise Euclidean distances."""

    d: np.ndarray

    def __post_init__(self) -> None:
        d = np.array(self.d, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.array_equal(d, d.T):
            raise ValueError("distance matrix must be symmetric")
        if np.any(d < 0.0) or np.any(np.diag(d) != 0.0):
            raise ValueError("distances must be non-negative with a zero diagonal")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @property
    def n_points(self) -> int:
        return self.d.shape[0]

    @property
    def max_distance(self) -> float:
        return float(self.d.max())



def distance_matrix(points: PointSet | Sequence[Sequence[float]]) -> DistanceMatrix:
    """Pairwise distance matrix of a point set."""
    pts = points.points if isinstance(points, PointSet) else tuple(points)
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = distance(pts[i], pts[j])
    return DistanceMatrix(d=d)


class Partition:
    """Cluster assignment of points, compared as a set partition.

    Two partitions are equal exactly when they group the points identically,
    regardless of which labels name the clusters.
    """

    __slots__ = ("labels", "n_clusters", "_canonical")

    def __init__(self, labels: Iterable[int], n_clusters: int):
        labels = tuple(int(l) for l in labels)
        if n_clusters < 1:
            raise ValueError("cluster count must be at least 1")
        if any(l < 0 or l >= n_clusters for l in labels):
            raise ValueError(f"labels must lie in [0, {n_clusters})")
        self.labels = labels
        self.n_clusters = n_clusters
        seen: dict[int, int] = {}
        self._canonical = tuple(seen.setdefault(l, len(seen)) for l in labels)

    @property
    def canonical(self) -> tuple[int, ...]:
        """Labels relabeled by order of first appearance."""
        return self._canonical

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Point indices grouped by cluster, in order of first appearance."""
        groups: dict[int, list[int]] = {}
        for i, l in enumerate(self._canonical):
            groups.setdefault(l, []).append(i)
        return tuple(tuple(groups[l]) for l in sorted(groups))

    def describe(self, points: PointSet) -> str:
        """Human-readable block listing, using display labels when present."""
        def name(i: int) -> str:
            if points.labels is not None:
                return points.labels[i]
            return _fmt_point(points.points[i])

        parts = []
        for block in self.blocks():
            parts.append("{" + ", ".join(name(i) for i in block) + "}")
        return " | ".join(parts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)

    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"Partition({list(self.labels)}, n_clusters={self.n_clusters})"


def _fmt_point(p: tuple[float, float]) -> str:
    def num(v: float) -> str:
        return str(int(v)) if float(v).is_integer() else f"{v:g}"

    return f"({num(p[0])},{num(p[1])})"


def cost(dm: DistanceMatrix, partition: Partition) -> float:
    """Total distance over unordered same-cluster point pairs."""
    labels = partition.labels
    n = dm.n_points
    if len(labels) != n:
        raise ValueError(
            f"partition covers {len(labels)} points, distance matrix has {n}"
        )
    return _exact_costs(dm, np.array([labels]), np.triu_indices(n, 1))[0]


def partition_keys(labels: np.ndarray) -> np.ndarray:
    """One int64 key per row of a non-negative label table.

    Two rows get the same key exactly when they group the points identically
    (equal ``Partition``s), and keys sort as the rows'
    ``Partition.canonical`` tuples.  Rows are relabeled by first appearance
    one column at a time, and each key is the relabeled row read as base-n
    digits for n columns.  Up to 15 columns that depends on the row alone, so
    keys of separate tables with the same columns compare; wider tables,
    whose digits would overflow int64, are ranked within the call.
    """
    labels = np.asarray(labels)
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be non-negative")
    rows, cols = labels.shape
    base = max(1, cols)  # relabeled ids lie in [0, cols)
    first_id = np.full((rows, int(labels.max(initial=0)) + 1), -1, dtype=np.int64)
    n_seen = np.zeros(rows, dtype=np.int64)
    keys = np.zeros(rows, dtype=np.int64)
    limit = np.iinfo(np.int64).max // base
    r = np.arange(rows)
    for j in range(cols):
        col = labels[:, j]
        ids = first_id[r, col]
        new = ids < 0
        ids[new] = n_seen[new]
        first_id[r, col] = ids
        n_seen += new
        if keys.max(initial=0) >= limit:
            # ranks keep the keys' order and equality
            keys = np.unique(keys, return_inverse=True)[1].astype(np.int64)
        keys = keys * base + ids
    return keys


#: Most assignments in one oracle chunk: its memory stays flat at any size.
_CHUNK_ROWS = 3**9


def _exact_costs(
    dm: DistanceMatrix, rows: np.ndarray, pairs: tuple[np.ndarray, np.ndarray]
) -> list[float]:
    """The cost of each label row: its same-cluster pair distances summed by ``math.fsum``.

    ``pairs`` are the point pairs i < j, as ``np.triu_indices`` gives them.
    fsum is correctly rounded, so the order of the terms cannot change a
    cost.  The pair masks are taken ``_CHUNK_ROWS`` rows at a time.
    """
    pi, pj = pairs
    weights = dm.d[pi, pj].tolist()
    exact = []
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        block = rows[start : start + _CHUNK_ROWS]
        same = (block[:, pi] == block[:, pj]).tolist()
        exact += [math.fsum(itertools.compress(weights, row)) for row in same]
    return exact


def _cost_chunks(
    dm: DistanceMatrix, K: int, fixed: Mapping[int, int]
) -> Iterator[tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]]:
    """Check K, ``fixed`` and the guards, then iterate ``(costs, rows)`` chunks.

    The last r free points, K**r at most ``_CHUNK_ROWS``, are the tail; a
    chunk is one assignment of the others, in ``itertools.product`` order,
    and ``costs`` holds the cost of each tail assignment, flat in C order, so
    all run in product order over the free points.  ``rows(idx)`` gives the int8 label
    rows of the flat indices ``idx``.
    """
    n = dm.n_points
    if not (is_int(K) and 1 <= K <= 128):
        raise ValueError(f"K must be an integer in [1, 128] (int8 labels), got {K!r}")
    for p, l in fixed.items():
        if not (is_int(p) and 0 <= p < n and is_int(l) and 0 <= l < K):
            raise ValueError(f"fixed {{{p!r}: {l!r}}} not in range({n}) x range({K})")
    if n > ORACLE_MAX_POINTS:
        raise SizeGuardError(
            f"{n} points exceeds the enumeration guard of {ORACLE_MAX_POINTS}"
        )
    free = [i for i in range(n) if i not in fixed]
    if K ** len(free) > ORACLE_MAX_ASSIGNMENTS:
        raise SizeGuardError(
            f"{K}**{len(free)} assignments exceed the enumeration guard of "
            f"{ORACLE_MAX_ASSIGNMENTS}"
        )
    r = len(free)
    while r > 1 and K**r > _CHUNK_ROWS:
        r -= 1
    head, tail = free[: len(free) - r], free[len(free) - r :]
    known = list(fixed) + head  # labeled before the tail, in every chunk
    d, eye = dm.d, np.eye(K)
    # pairs within the tail, in every chunk, built from the last tail point
    # back: each point's axis leads, added over the long trailing axis of the
    # points after it; same[p, k] sums d_pq over those points q labeled k
    within, same = np.zeros(1), np.zeros((r, K, 1))
    for c in range(r - 1, -1, -1):
        within = (same[c] + within).ravel()
        to_c = d[tail[:c], tail[c], None, None, None] * eye[:, :, None]
        same = (to_c + same[:c, :, None]).reshape(c, K, within.size)
    pairs = np.triu(d[np.ix_(known, known)], 1)
    to_tail = d[np.ix_(tail, known)]
    places = K ** np.arange(r - 1, -1, -1)
    base = np.zeros(n, dtype=np.int8)
    base[list(fixed)] = list(fixed.values())

    def chunk(labels: tuple[int, ...]):
        prefix = base.copy()
        prefix[head] = labels
        a = prefix[known]
        # the labeled points' own pairs, then each tail point's pairs with
        # them, one term per label, from the last tail point back, each a
        # leading axis
        costs = np.array([pairs[a[:, None] == a].sum()])
        for term in (to_tail @ (a[:, None] == np.arange(K)).astype(float))[::-1]:
            costs = (term[:, None] + costs).ravel()
        def rows(idx: np.ndarray) -> np.ndarray:
            out = np.repeat(prefix[None], idx.size, axis=0)
            out[:, tail] = idx[:, None] // places % K
            return out
        return costs + within, rows

    return map(chunk, itertools.product(range(K), repeat=len(head)))


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Exact minimum found by enumeration.

    The argmin, deduplicated up to cluster relabeling, is held as the sorted
    int64 ``argmin_keys`` of ``partition_keys`` and one label row each,
    ``argmin_labels``.  ``argmin_partitions`` builds their ``Partition``s of
    ``n_clusters`` labels on first read, in the keys' (canonical) order.
    """

    min_cost: float
    argmin_keys: np.ndarray
    argmin_labels: np.ndarray
    n_clusters: int

    @functools.cached_property
    def argmin_partitions(self) -> tuple[Partition, ...]:
        return tuple(Partition(row, self.n_clusters) for row in self.argmin_labels.tolist())


#: Relative width of the oracle's argmin window, see ``oracle_min``.
_ARGMIN_REL_TOL = 1e-9


def oracle_min(dm: DistanceMatrix, K: int, fixed: Mapping[int, int] | None = None) -> OracleResult:
    """Exact minimum of the cost over all assignments of K <= 128 labels, by brute force.

    Assignments are costed in numpy chunks; the ones near the minimum become
    label rows, deduplicated by ``partition_keys`` and re-costed by the
    ``math.fsum`` of :func:`cost`, so ``min_cost`` is the exact minimum.
    The argmin is every assignment whose ``cost`` lies within
    ``_ARGMIN_REL_TOL * (1 + |min_cost|)`` of ``min_cost``: one window around
    the final minimum, not around each running minimum.  It holds one sorted
    key per set partition, in canonical order, with the labels of its first
    assignment in enumeration order; no ``Partition`` is built until
    ``argmin_partitions`` is read.  A K outside [1, 128] or a ``fixed`` label
    out of range is a ``ValueError``, and an instance past
    ``ORACLE_MAX_POINTS`` or ``ORACLE_MAX_ASSIGNMENTS`` a ``SizeGuardError``.
    """
    chunks = _cost_chunks(dm, K, dict(fixed or {}))
    pairs = np.triu_indices(dm.n_points, 1)
    w = dm.d[pairs]
    # A row's numpy cost sums at most 66 non-negative terms of w and exact
    # zeros (weights times 0 or 1).  In any order that sum is within
    # 65 * 2**-53 * sum(w) < 1e-14 * sum(w) of the exact value (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., sec. 4.2), and
    # fsum is correctly rounded.  So this slack covers the numpy/fsum gap on
    # both sides of the window 50 times over, and every row the fsum window
    # holds survives the numpy cut.
    slack = 1e-12 * (1.0 + math.fsum(w))

    best = limit = math.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []  # (numpy costs, label rows)
    for costs, chunk_rows in chunks:
        lo = float(costs.min())
        if lo < best:
            best = lo
            limit = best + _ARGMIN_REL_TOL * (1.0 + abs(best)) + slack
            # rows now past the window go, and chunks left with none
            kept = [(c[m], rows[m]) for c, rows in kept if (m := c <= limit).any()]
        if lo <= limit:  # a chunk with no assignment in the window adds nothing
            near = np.flatnonzero(costs <= limit)
            kept.append((costs[near], chunk_rows(near)))

    # one row per distinct partition, its first in enumeration order, in
    # canonical order; the numpy costs are dropped first, and keys and pair
    # masks are taken a chunk at a time, so a mostly tied instance needs
    # little more memory than its kept rows
    kept = [rows for _, rows in kept]
    keys = np.concatenate([partition_keys(rows) for rows in kept])
    rows = np.concatenate(kept)
    del kept
    unique, first = np.unique(keys, return_index=True)
    rows = rows[first]
    exact = _exact_costs(dm, rows, pairs)  # as ``cost`` sums them
    min_cost = min(exact)
    limit = min_cost + _ARGMIN_REL_TOL * (1.0 + abs(min_cost))
    near = np.array(exact) <= limit
    return OracleResult(min_cost, unique[near], rows[near], K)

