"""Clustering instances, the intra-cluster cost, and the exhaustive oracle.

The oracle, ``oracle_min``, enumerates every cluster assignment of a small
instance and is the classical reference that annealing results are
certified against; its ``OracleResult`` holds the exact minimum and the
optimal ``Partition``s.  It enumerates in numpy chunks: each chunk is an
int8 label table of 3**8 assignments, costed in one matrix-vector product
over the pair distances; the rows near the minimum are deduplicated by
their ``partition_keys`` and re-costed exactly, and only the optimal ones
become ``Partition``s.  At its guard (12 points) it takes about 0.1 s for
K = 3 (531,441 assignments) and 0.9 s for K = 4 with one point fixed
(4,194,304); 12 coincident points at K = 3, where all 88,574 partitions
tie, take about 1.4 s.  Ties are every assignment within one relative
window of the exact minimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import SizeGuardError, SpecError, is_finite_real

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
        object.__setattr__(self, "points", pts)
        labels = self.labels
        if labels is not None:
            if not (
                isinstance(labels, (list, tuple)) and all(isinstance(s, str) for s in labels)
            ):
                raise SpecError(f"'labels' must be a list of strings, got {labels!r}")
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
    return math.fsum(
        dm.d[i, j]
        for i in range(n)
        for j in range(i + 1, n)
        if labels[i] == labels[j]
    )


#: Assignments per label-table chunk: the oracle costs this many rows in one
#: numpy product, so its memory stays flat whatever the enumeration size.
_CHUNK_ROWS = 3**8


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


def _label_chunks(
    n_points: int,
    K: int,
    fixed: Mapping[int, int] | None,
) -> Iterator[np.ndarray]:
    """Yield every K-labeling honoring ``fixed`` as int8 label-table chunks.

    Rows run in ``itertools.product`` order over the free points (the first
    free point is the most significant digit), at most ``_CHUNK_ROWS`` rows
    per chunk.
    """
    fixed = dict(fixed or {})
    for p, l in fixed.items():
        if not 0 <= p < n_points:
            raise ValueError(f"fixed point {p} out of range")
        if not 0 <= l < K:
            raise ValueError(f"fixed label {l} out of range [0, {K})")
    free = [i for i in range(n_points) if i not in fixed]
    total = K ** len(free)
    places = K ** np.arange(len(free) - 1, -1, -1)
    for start in range(0, total, _CHUNK_ROWS):
        idx = np.arange(start, min(start + _CHUNK_ROWS, total))
        labels = np.empty((idx.size, n_points), dtype=np.int8)
        for p, l in fixed.items():
            labels[:, p] = l
        labels[:, free] = (idx[:, None] // places) % K
        yield labels


@dataclass(frozen=True)
class OracleResult:
    """Exact minimum found by enumeration.

    ``argmin_partitions`` holds the optimal assignments deduplicated up to
    cluster relabeling.
    """

    min_cost: float
    argmin_partitions: tuple[Partition, ...] = ()


def oracle_min(
    dm: DistanceMatrix,
    K: int,
    fixed: Mapping[int, int] | None = None,
    rel_tol: float = 1e-9,
) -> OracleResult:
    """Exact minimum of the cost over all assignments, by brute force.

    Assignments are costed in numpy label-table chunks; the rows near the
    minimum are deduplicated by partition and their costs recomputed with
    ``math.fsum`` as :func:`cost` does, so ``min_cost`` is the exact minimum.
    The argmin is every assignment whose ``cost`` lies within
    ``rel_tol * (1 + |min_cost|)`` of ``min_cost``: one window around the
    final minimum.  (A running-best scan could also keep an early member of
    a chain of near-ties lying up to two windows above it; this one does
    not.)  It lists one ``Partition`` per set partition, in canonical order,
    with the labels of its first assignment in enumeration order.
    """
    n = dm.n_points
    if n > ORACLE_MAX_POINTS:
        raise SizeGuardError(
            f"{n} points exceeds the enumeration guard of {ORACLE_MAX_POINTS}"
        )
    n_free = n - len(fixed or {})
    if K**n_free > ORACLE_MAX_ASSIGNMENTS:
        raise SizeGuardError(
            f"{K}**{n_free} assignments exceed the enumeration guard of "
            f"{ORACLE_MAX_ASSIGNMENTS}"
        )
    pi, pj = np.triu_indices(n, 1)
    w = dm.d[pi, pj]
    # A row's numpy cost sums at most 66 non-negative terms of w; in any
    # order that sum is within 65 * 2**-53 * sum(w) < 1e-14 * sum(w) of the
    # exact value (Higham, Accuracy and Stability of Numerical Algorithms,
    # 2nd ed., sec. 4.2), and fsum is correctly rounded.  So this slack
    # covers the numpy/fsum gap on both sides of the window 50 times over,
    # and every row the fsum window holds survives the numpy cut.
    slack = 1e-12 * (1.0 + math.fsum(w))

    best = limit = math.inf
    kept: list[tuple[np.ndarray, np.ndarray]] = []  # (numpy costs, label rows)
    for labels in _label_chunks(n, K, fixed):
        # as float64 the product runs in BLAS; a bool operand takes a slow loop
        costs = (labels[:, pi] == labels[:, pj]).astype(float) @ w
        lo = float(costs.min())
        if lo < best:
            best = lo
            limit = best + rel_tol * (1.0 + abs(best)) + slack
            kept = [(c[c <= limit], rows[c <= limit]) for c, rows in kept]
        near = costs <= limit
        kept.append((costs[near], labels[near]))

    # one row per distinct partition, its first in enumeration order, in
    # canonical order; keys and pair masks are taken a chunk at a time, so a
    # mostly tied instance needs no more memory than its kept rows
    keys = np.concatenate([partition_keys(rows) for _, rows in kept])
    rows = np.concatenate([rows for _, rows in kept])
    _, first = np.unique(keys, return_index=True)
    rows = rows[first]
    # fsum is correctly rounded, so summing the row's pair weights in any
    # order gives exactly ``cost``
    weights = w.tolist()
    exact = []
    for start in range(0, rows.shape[0], _CHUNK_ROWS):
        block = rows[start : start + _CHUNK_ROWS]
        same = (block[:, pi] == block[:, pj]).tolist()
        exact += [math.fsum(itertools.compress(weights, row)) for row in same]
    min_cost = min(exact)
    limit = min_cost + rel_tol * (1.0 + abs(min_cost))
    near = np.array(exact) <= limit
    argmin = [Partition(row, K) for row in rows[near].tolist()]
    return OracleResult(min_cost=min_cost, argmin_partitions=tuple(argmin))

