"""The clustering encodings and their final Hamiltonians.

Every final Hamiltonian produced here is diagonal in the computational
basis: each clustering encoding only ever needs projector products that are
diagonal in the z basis.  All of them are one pair sum and one penalty sum
over an ``Encoding``'s per-basis-state label table, and ``METHOD_TRAITS``
holds all that sets the methods apart.  ``Encoding.hamiltonian`` returns the
diagonal as a read-only (C, 3**w) array of block rows: one row for a
coupled register, one row per point where no pair joins two points on the
register.  The driver is its field h alone, which ``anneal`` applies.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import DistanceMatrix
from .errors import SpecError, is_int, is_positive_finite
from .spin import PROJECTIONS, digit_table

METHOD_ONEHOT_K3 = "one-hot-K3"
METHOD_ONEHOT_K3_PINNED = "one-hot-K3-pinned"
METHOD_ONEHOT_K2_PENALTY = "one-hot-K2-penalty"
METHOD_ONEHOT_MULTISPIN = "one-hot-multispin"
METHOD_KMEANSPP = "kmeanspp"

#: State vectors beyond 3**7 entries are refused.
REGISTER_MAX_QUTRITS = 7


@dataclass(frozen=True)
class MethodTraits:
    """What a method name decides about its encoding.

    ``K`` is the cluster count the method fixes (None: the spec gives it).
    ``pinned`` says whether point 0 sits at label 0 off the register: always,
    never, or None for the spec to choose (default yes); ``variant`` is the
    method with the same encoding and the other pinning.  With ``centroids``
    the K centroid points sit at fixed labels off the register and only
    centroid-to-free pairs are coupled; otherwise every pair is.  With
    ``constant_penalty`` a point in a block state no cluster uses pays a
    constant and sits apart from every other point; without it (K2) such
    points share a label and each pays twice its distances to the others.
    """

    K: int | None = None
    pinned: bool | None = False
    variant: str | None = None
    centroids: bool = False
    constant_penalty: bool = False


#: The only place that tells the methods apart.
METHOD_TRAITS = {
    METHOD_ONEHOT_K3: MethodTraits(K=3, variant=METHOD_ONEHOT_K3_PINNED),
    METHOD_ONEHOT_K3_PINNED: MethodTraits(K=3, pinned=True, variant=METHOD_ONEHOT_K3),
    METHOD_ONEHOT_K2_PENALTY: MethodTraits(K=2, pinned=None),
    METHOD_ONEHOT_MULTISPIN: MethodTraits(constant_penalty=True),
    METHOD_KMEANSPP: MethodTraits(centroids=True, constant_penalty=True),
}

METHODS = tuple(METHOD_TRAITS)


def method_traits(method: str) -> MethodTraits:
    """The traits of a method name; an unknown name is a ``SpecError``."""
    if method not in METHODS:  # a tuple, so an unhashable name compares too
        raise SpecError(f"unknown 'method' {method!r}, expected one of {METHODS}")
    return METHOD_TRAITS[method]


def pinned_method(method: str, pinned: bool) -> str:
    """The method with ``method``'s encoding and point 0 pinned or not."""
    traits = method_traits(method)
    if traits.pinned is None or traits.pinned == pinned:
        return method
    if traits.variant is None:
        raise SpecError(
            f"method {method!r} has no pinned variant, so 'pinned' must be false"
        )
    return traits.variant


def spins_per_point(K: int) -> int:
    """Qutrits per point block: 1 for K <= 3, otherwise ceil(log3 K)."""
    if K < 2:
        raise ValueError("cluster count K must be at least 2")
    s = 1
    while 3**s < K:
        s += 1
    return s


def block_state_list(width: int) -> tuple[tuple[int, ...], ...]:
    """All projection tuples of a block of ``width`` qutrits, in base-3 order.

    The ordering starts at |1,1,...,1> and ends at |-1,-1,...,-1>; cluster q
    is numbered by the q-th tuple of this list.
    """
    return tuple(map(tuple, (1 - digit_table(width)).tolist()))


@dataclass(frozen=True)
class EncodingScheme:
    """How points map onto register blocks and how blocks number clusters.

    ``centroid_states`` is only meaningful for the kmeanspp method and
    defaults to the first K block states; ``penalty_constant`` (the spec's
    ``penalty``) overrides the default of twice the largest distance, and is
    accepted only where a constant penalty applies.
    """

    method: str
    K: int
    centroid_states: tuple[tuple[int, ...], ...] | None = None
    penalty_constant: float | None = None

    def __post_init__(self) -> None:
        traits = self.traits
        if not (is_int(self.K) and self.K >= 2):
            raise SpecError(f"'K' must be an integer >= 2, got {self.K!r}")
        if traits.K is not None and self.K != traits.K:
            raise SpecError(f"{self.method} requires 'K' = {traits.K}, got {self.K}")
        states = self.centroid_states
        if traits.centroids:
            # one block must fit the register: this bounds the table of
            # default states below, which a huge K would stall on
            if self.K > 3**REGISTER_MAX_QUTRITS:
                raise SpecError(
                    f"{self.method} 'K' must be at most {3**REGISTER_MAX_QUTRITS}, so "
                    f"that one block fits the {REGISTER_MAX_QUTRITS}-qutrit register, "
                    f"got {self.K}"
                )
            s = self.spins_per_point
            if states is None:
                states = block_state_list(s)[: self.K]
            if not (
                isinstance(states, (list, tuple))
                and all(
                    isinstance(st, (list, tuple))
                    and len(st) == s
                    and all(is_int(m) and m in PROJECTIONS for m in st)
                    for st in states
                )
            ):
                raise SpecError(
                    f"'centroid_states' must be lists of {s} projection(s) "
                    f"(1, 0 or -1) each, got {states!r}"
                )
            states = tuple(tuple(int(m) for m in st) for st in states)
            if len(set(states)) != len(states) or len(states) != self.K:
                raise SpecError(
                    f"'centroid_states' must be K={self.K} distinct block states, "
                    f"got {states}"
                )
            object.__setattr__(self, "centroid_states", states)
        elif states is not None:
            raise SpecError(f"'centroid_states' do not apply to {self.method}")
        if self.penalty_constant is not None:
            if not is_positive_finite(self.penalty_constant):
                raise SpecError(
                    "'penalty' must be a positive finite number, "
                    f"got {self.penalty_constant!r}"
                )
            if not self.has_constant_penalty:
                raise SpecError(
                    f"{self.method} with K={self.K} has no constant penalty, "
                    "so a 'penalty' does not apply"
                )

    @property
    def traits(self) -> MethodTraits:
        return method_traits(self.method)

    @property
    def spins_per_point(self) -> int:
        """Qutrits per point block, which K decides."""
        return spins_per_point(self.K)

    @property
    def has_constant_penalty(self) -> bool:
        """Whether a block can sit in a state no cluster uses, at a constant penalty."""
        return self.traits.constant_penalty and self.K < 3**self.spins_per_point


class Encoding:
    """How one problem's points live on the register, and its final Hamiltonian.

    Every encoding's final Hamiltonian is the sum over the coupled ``pairs``
    of d_ij (2 [l_i = l_j] - 1), plus a per-point penalty for each point
    whose label says it sits in a state no cluster uses.  ``labels[b, p]`` is
    the label of point p in basis state b: a cluster below K, or K and above
    for such a point, which makes the whole row ``invalid``.  ``points`` are
    the points on the register in register order, one block of
    ``scheme.spins_per_point`` qutrits each; a pinned point 0 and the
    centroids sit at fixed labels off it, and ``fixed`` gives the centroids'
    labels to the oracle.  The label table is built on first use, so a
    register past the size guard costs nothing until it is run.  Where no
    pair joins two of ``points``, each term of the final Hamiltonian depends
    on one point's block, and ``hamiltonian`` gives one row per point.
    """

    def __init__(
        self,
        scheme: EncodingScheme,
        n_points: int,
        pinned: bool = False,
        centroids: Sequence[int] | None = None,
    ):
        traits = scheme.traits
        if not isinstance(pinned, bool):
            raise SpecError(f"'pinned' must be a boolean, got {pinned!r}")
        if centroids is not None and not (
            isinstance(centroids, (list, tuple, range)) and all(map(is_int, centroids))
        ):
            raise SpecError(f"'centroids' must be a list of point indices, got {centroids!r}")
        if traits.centroids:
            if not centroids:
                raise SpecError(
                    f"{scheme.method} requires 'centroids', a list of point indices"
                )
            centroids = tuple(int(i) for i in centroids)
            if len(set(centroids)) != len(centroids):
                raise SpecError("'centroids' must be distinct point indices")
            if len(centroids) != scheme.K:
                raise SpecError(f"expected K={scheme.K} 'centroids', got {len(centroids)}")
            if any(not 0 <= c < n_points for c in centroids):
                raise SpecError(f"'centroids' must lie in [0, {n_points})")
            if len(centroids) >= n_points:
                raise SpecError("at least one point must remain free of 'centroids'")
        elif centroids:
            raise SpecError(f"method {scheme.method!r} does not take 'centroids'")
        else:
            centroids = None
        if traits.pinned is not None:
            if pinned and not traits.pinned:
                raise SpecError(
                    f"method {scheme.method!r} does not pin point 0, so 'pinned' must be false"
                )
            pinned = traits.pinned
        a = scheme.penalty_constant
        # with PointSet's bound on the pair sum, this keeps every entry of Hf finite
        if a is not None and not math.isfinite(2.0 * n_points * a):
            raise SpecError(f"'penalty' {a!r} too large for {n_points} points")
        off = set(centroids or ()) | ({0} if pinned else set())
        self.scheme = scheme
        self.K = scheme.K
        self.n_points = n_points
        self.pinned = bool(pinned)
        self.centroids = centroids
        self.points = tuple(p for p in range(n_points) if p not in off)
        self.n_qutrits = len(self.points) * scheme.spins_per_point
        if not self.n_qutrits:
            raise SpecError("register would be empty")
        if centroids:
            self.pairs = tuple((c, j) for c in centroids for j in self.points)
            self.fixed = {p: c for c, p in enumerate(centroids)}
        else:
            self.pairs = tuple(itertools.combinations(range(n_points), 2))
            self.fixed = None

    @functools.cached_property
    def labels(self) -> np.ndarray:
        K, width, n = self.K, self.scheme.spins_per_point, self.n_qutrits
        cluster = np.full(3**width, -1)
        if self.scheme.centroid_states is None:
            cluster[:K] = np.arange(K)
        else:
            digits = 1 - np.array(self.scheme.centroid_states)
            cluster[np.ravel_multi_index(digits.T, (3,) * width)] = np.arange(K)
        dtype = np.min_scalar_type(K + self.n_points)
        labels = np.zeros((3**n, self.n_points), dtype=dtype)  # pinned point 0: 0
        for c, p in enumerate(self.centroids or ()):
            labels[:, p] = c
        blocks = np.unravel_index(np.arange(3**n), (3**width,) * len(self.points))
        for p, block in zip(self.points, blocks):
            col = cluster[block]
            unused = K + p if self.scheme.traits.constant_penalty else K
            labels[:, p] = np.where(col >= 0, col, unused)
        labels.flags.writeable = False
        return labels

    @functools.cached_property
    def invalid(self) -> np.ndarray:
        return (self.labels >= self.K).any(axis=1)

    def pair_sum(self, d: np.ndarray) -> np.ndarray:
        """Sum over the coupled pairs of d[i, j] (2 [l_i = l_j] - 1), per basis state."""
        labels = self.labels
        out = np.zeros(labels.shape[0])
        for i, j in self.pairs:
            out += d[i, j] * np.where(labels[:, i] == labels[:, j], 1.0, -1.0)
        return out

    def hamiltonian(self, dm: DistanceMatrix) -> np.ndarray:
        """The final Hamiltonian's diagonal as read-only block rows, shape (C, 3**w).

        The diagonal is the pair sum, plus a penalty for each point in an
        unused state: a constant, by default twice the largest distance, or
        for K2 twice the point's distances to all the others.  A coupled
        register is the one row C = 1, its whole diagonal.
        Otherwise row b is the diagonal at point b's block states with every
        other block in its first state; rows past the first subtract the
        diagonal at state 0, so the constant stays in row 0, and the rows sum
        to the diagonal as ``functools.reduce(np.add.outer, rows)``.
        """
        diag = self.pair_sum(dm.d)
        if self.invalid.any():
            if self.scheme.traits.constant_penalty:
                a = self.scheme.penalty_constant
                weights = np.full(self.n_points, 2.0 * dm.max_distance if a is None else float(a))
            else:
                weights = 2.0 * dm.d.sum(axis=1)
            penalty = np.zeros(diag.shape)
            for p, w in enumerate(weights):
                penalty += w * (self.labels[:, p] >= self.K)
            diag = diag + penalty
        on = set(self.points)
        if any(i in on and j in on for i, j in self.pairs):
            rows = diag[None]
        else:
            size = 3**self.scheme.spins_per_point
            strides = size ** np.arange(len(self.points) - 1, -1, -1)
            rows = diag[strides[:, None] * np.arange(size)]
            rows[1:] -= diag[0]
        rows.flags.writeable = False
        return rows
