"""Problem Hamiltonians (diagonal in the computational basis) and the driver.

Every final Hamiltonian produced here is stored as a plain real vector of
length 3**n: each clustering encoding only ever needs projector products
that are diagonal in the z basis.  All of them are one pair sum and one
penalty sum over an ``Encoding``'s per-basis-state label table, and
``METHOD_TRAITS`` holds all that sets the methods apart.  The
transverse-field driver is applied
as the Kronecker sum of two small dense factors, one per half of the
register (at most 81 x 81), so no 3**n x 3**n matrix is ever formed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import DistanceMatrix
from .errors import SpecError, is_int, is_positive_finite
from .spin import (
    PROJECTIONS,
    block_values,
    digit_from_projection,
    projection_from_digit,
    spin_operator,
)

METHOD_ONEHOT_K3 = "one-hot-K3"
METHOD_ONEHOT_K3_PINNED = "one-hot-K3-pinned"
METHOD_ONEHOT_K2_PENALTY = "one-hot-K2-penalty"
METHOD_ONEHOT_MULTISPIN = "one-hot-multispin"
METHOD_KMEANSPP = "kmeanspp"


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


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """A Hamiltonian term stored as its computational-basis diagonal."""

    n: int
    diag: np.ndarray

    def __post_init__(self) -> None:
        diag = np.array(self.diag, dtype=float)
        if diag.ndim != 1 or diag.shape[0] != 3**self.n:
            raise ValueError(
                f"diagonal of length {diag.shape} does not match 3**{self.n}"
            )
        if not np.all(np.isfinite(diag)):
            raise ValueError("diagonal entries must be finite")
        diag.flags.writeable = False
        object.__setattr__(self, "diag", diag)

    @property
    def dim(self) -> int:
        return self.diag.shape[0]


@functools.lru_cache(maxsize=None)
def driver_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense sum_i S_i^x on the first n // 2 sites and on the remaining ones.

    The driver on n sites is their Kronecker sum A (x) I + I (x) B; at the
    7-qutrit cap the larger factor is 81 x 81.
    """
    first, rest = (
        DriverHamiltonian(k, 1.0).dense() if k else np.zeros((1, 1))
        for k in (n // 2, n - n // 2)
    )
    first.flags.writeable = rest.flags.writeable = False
    return first, rest


@dataclass(frozen=True)
class DriverHamiltonian:
    """Transverse-field driver h * sum_i S_i^x on an n-qutrit register."""

    n: int
    h: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("register needs at least one qutrit")
        if not self.h > 0:
            raise ValueError("field strength h must be positive")
        object.__setattr__(self, "h", float(self.h))

    @property
    def dim(self) -> int:
        return 3**self.n

    def dense(self) -> np.ndarray:
        """Dense matrix form, intended for small registers and tests."""
        sx = spin_operator("x")
        out = np.zeros((self.dim, self.dim))
        for site in range(self.n):
            term = np.kron(
                np.kron(np.eye(3**site), sx), np.eye(3 ** (self.n - site - 1))
            )
            out += term
        return self.h * out


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
    states = []
    for value in range(3**width):
        digits = [(value // 3 ** (width - 1 - k)) % 3 for k in range(width)]
        states.append(tuple(projection_from_digit(d) for d in digits))
    return tuple(states)


def block_state_index(state: Sequence[int]) -> int:
    """Position of a projection tuple in the base-3 block ordering."""
    value = 0
    for m in state:
        value = value * 3 + digit_from_projection(m)
    return value


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
    register past the size guard costs nothing until it is run.
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
        states = self.scheme.centroid_states or block_state_list(width)[:K]
        cluster[[block_state_index(st) for st in states]] = np.arange(K)
        dtype = np.min_scalar_type(K + self.n_points)
        labels = np.zeros((3**n, self.n_points), dtype=dtype)  # pinned point 0: 0
        for c, p in enumerate(self.centroids or ()):
            labels[:, p] = c
        for k, p in enumerate(self.points):
            col = cluster[block_values(n, k * width, width)]
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

    def penalty_weights(self, dm: DistanceMatrix) -> np.ndarray:
        """Per-point penalty for sitting in a state no cluster uses.

        A constant penalty defaults to twice the largest distance; K2's is
        twice the point's distances to all the others.
        """
        if not self.scheme.traits.constant_penalty:
            return 2.0 * dm.d.sum(axis=1)
        a = self.scheme.penalty_constant
        return np.full(self.n_points, 2.0 * dm.max_distance if a is None else float(a))

    def penalty_sum(self, weights: np.ndarray) -> np.ndarray:
        """Sum of ``weights[p]`` over the points p in an unused state, per basis state."""
        out = np.zeros(self.labels.shape[0])
        for p, w in enumerate(weights):
            out += w * (self.labels[:, p] >= self.K)
        return out

    def hamiltonian(self, dm: DistanceMatrix) -> DiagonalHamiltonian:
        """The final Hamiltonian: the pair sum, plus the penalty sum where states go unused."""
        diag = self.pair_sum(dm.d)
        if self.invalid.any():
            diag = diag + self.penalty_sum(self.penalty_weights(dm))
        return DiagonalHamiltonian(self.n_qutrits, diag)

