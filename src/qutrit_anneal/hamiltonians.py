"""Problem Hamiltonians (diagonal in the computational basis) and the driver.

Every final Hamiltonian produced here is stored as a plain real vector of
length 3**n: each clustering encoding only ever needs projector products
that are diagonal in the z basis.  The transverse-field driver is applied
as the Kronecker sum of two small dense factors, one per half of the
register (at most 81 x 81), so no 3**n x 3**n matrix is ever formed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import DistanceMatrix
from .spin import (
    block_values,
    digit_from_projection,
    digit_table,
    projection_from_digit,
    spin_operator,
)

METHOD_ONEHOT_K3 = "one-hot-K3"
METHOD_ONEHOT_K3_PINNED = "one-hot-K3-pinned"
METHOD_ONEHOT_K2_PENALTY = "one-hot-K2-penalty"
METHOD_ONEHOT_MULTISPIN = "one-hot-multispin"
METHOD_KMEANSPP = "kmeanspp"

METHODS = (
    METHOD_ONEHOT_K3,
    METHOD_ONEHOT_K3_PINNED,
    METHOD_ONEHOT_K2_PENALTY,
    METHOD_ONEHOT_MULTISPIN,
    METHOD_KMEANSPP,
)


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

    def __add__(self, other: "DiagonalHamiltonian") -> "DiagonalHamiltonian":
        if not isinstance(other, DiagonalHamiltonian):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("cannot add diagonals over different registers")
        return DiagonalHamiltonian(self.n, self.diag + other.diag)

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        return self.diag * amplitudes


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


def sum_sx_apply(amplitudes: np.ndarray, n: int) -> np.ndarray:
    """Apply sum_i S_i^x along the last axis of a (..., 3**n) array.

    The driver is the Kronecker sum A (x) I + I (x) B of its halves
    (``driver_factors``).  With the last axis viewed as a row-major grid of
    3**(n // 2) rows, that is A @ grid + grid @ B (B is symmetric): two
    matrix products, batched over the leading axes.
    """
    amplitudes = np.asarray(amplitudes)
    if amplitudes.shape[-1] != 3**n:
        raise ValueError(
            f"state of {amplitudes.shape[-1]} amplitudes does not match 3**{n}"
        )
    a, b = driver_factors(n)
    grid = amplitudes.reshape(*amplitudes.shape[:-1], a.shape[0], b.shape[0])
    return (a @ grid + grid @ b).reshape(amplitudes.shape)


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

    @property
    def ground_energy(self) -> float:
        return -self.n * self.h

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        return self.h * sum_sx_apply(amplitudes, self.n)

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


def build_driver(n: int, h: float) -> DriverHamiltonian:
    """Driver h * sum_i S_i^x; h must be positive so its ground state is unique."""
    return DriverHamiltonian(n=n, h=h)


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
    defaults to the first K block states; ``penalty_constant`` overrides the
    default of twice the largest distance when penalties are needed.
    """

    method: str
    K: int
    spins_per_point: int = 0
    centroid_states: tuple[tuple[int, ...], ...] | None = None
    penalty_constant: float | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}, expected one of {METHODS}"
            )
        if self.method == METHOD_ONEHOT_K3 or self.method == METHOD_ONEHOT_K3_PINNED:
            if self.K != 3:
                raise ValueError(f"{self.method} requires K=3, got {self.K}")
        elif self.method == METHOD_ONEHOT_K2_PENALTY:
            if self.K != 2:
                raise ValueError(f"{self.method} requires K=2, got {self.K}")
        s = spins_per_point(self.K)
        if self.spins_per_point == 0:
            object.__setattr__(self, "spins_per_point", s)
        elif self.spins_per_point != s:
            raise ValueError(
                f"K={self.K} needs {s} qutrits per point, got {self.spins_per_point}"
            )
        if self.method == METHOD_KMEANSPP:
            states = self.centroid_states
            if states is None:
                states = block_state_list(s)[: self.K]
            states = tuple(tuple(int(m) for m in st) for st in states)
            if len(states) != self.K:
                raise ValueError(
                    f"kmeanspp needs exactly K={self.K} centroid states, got {len(states)}"
                )
            for st in states:
                if len(st) != s:
                    raise ValueError(
                        f"centroid state {st} does not span {s} qutrit(s)"
                    )
                for m in st:
                    digit_from_projection(m)
            if len(set(states)) != len(states):
                raise ValueError("centroid states must be distinct")
            object.__setattr__(self, "centroid_states", states)
        elif self.centroid_states is not None:
            raise ValueError(f"{self.method} does not take centroid states")
        if self.penalty_constant is not None and not self.penalty_constant > 0:
            raise ValueError("penalty constant must be positive")


def build_onehot_k3(dm: DistanceMatrix) -> DiagonalHamiltonian:
    """One qutrit per point: equal projections attract, unequal ones repel."""
    n = dm.n_points
    digits = digit_table(n)
    diag = np.zeros(3**n)
    for i in range(n):
        for j in range(i + 1, n):
            sign = np.where(digits[:, i] == digits[:, j], 1.0, -1.0)
            diag += dm.d[i, j] * sign
    return DiagonalHamiltonian(n, diag)


def build_onehot_k3_pinned(dm: DistanceMatrix) -> DiagonalHamiltonian:
    """Three-cluster form with point 0 held at projection 1.

    The register shrinks to N - 1 qutrits (qutrit j - 1 represents point j);
    pairs with the pinned point become single-site field terms.
    """
    npts = dm.n_points
    if npts < 2:
        raise ValueError("pinning needs at least 2 points")
    n = npts - 1
    digits = digit_table(n)
    diag = np.zeros(3**n)
    # field terms first: same accumulation order as the unpinned builder, so
    # this diagonal is bitwise equal to the slice of it where point 0 sits
    # at projection 1 (digit 0 is projection 1)
    for j in range(1, npts):
        diag += dm.d[0, j] * np.where(digits[:, j - 1] == 0, 1.0, -1.0)
    for i in range(1, npts):
        for j in range(i + 1, npts):
            sign = np.where(digits[:, i - 1] == digits[:, j - 1], 1.0, -1.0)
            diag += dm.d[i, j] * sign
    return DiagonalHamiltonian(n, diag)


def build_k2_penalty(dm: DistanceMatrix, pinned: bool = True) -> DiagonalHamiltonian:
    """Two-cluster form: projections 1 and 0 name the clusters, -1 is penalized.

    Each unordered pair contributes the usual coincidence term plus
    2 * d[i][j] for every member sitting at projection -1.  With ``pinned``
    the first point is held at projection 1 and dropped from the register.
    """
    npts = dm.n_points
    n = npts - 1 if pinned else npts
    if n < 1:
        raise ValueError("register would be empty")
    digits = digit_table(n)
    dim = 3**n
    cols = []
    for p in range(npts):
        if pinned and p == 0:
            cols.append(np.zeros(dim, dtype=digits.dtype))
        else:
            cols.append(digits[:, p - 1 if pinned else p])
    diag = np.zeros(dim)
    for i in range(npts):
        for j in range(i + 1, npts):
            sign = np.where(cols[i] == cols[j], 1.0, -1.0)
            penalized = (cols[i] == 2).astype(float) + (cols[j] == 2)
            diag += dm.d[i, j] * (sign + 2.0 * penalized)
    return DiagonalHamiltonian(n, diag)


def build_onehot_multispin(dm: DistanceMatrix, K: int) -> DiagonalHamiltonian:
    """General one-hot form: clusters are numbered by multi-qutrit block states.

    Each point owns a contiguous block of ceil(log3 K) qutrits.  Two points
    attract when their blocks agree on one of the first K block states and
    repel otherwise.
    """
    s = spins_per_point(K)
    npts = dm.n_points
    n = npts * s
    blocks = np.stack([block_values(n, p * s, s) for p in range(npts)], axis=1)
    diag = np.zeros(3**n)
    for i in range(npts):
        for j in range(i + 1, npts):
            same = (blocks[:, i] == blocks[:, j]) & (blocks[:, i] < K)
            diag += dm.d[i, j] * np.where(same, 1.0, -1.0)
    return DiagonalHamiltonian(n, diag)


def build_penalty_onehot(n_points: int, K: int, a: float) -> DiagonalHamiltonian:
    """Constant penalty a per point whose block sits outside the first K states."""
    if not a > 0:
        raise ValueError("penalty constant a must be positive")
    s = spins_per_point(K)
    if not 3 ** (s - 1) < K < 3**s:
        raise ValueError(
            f"K={K} leaves no forbidden block states on {s} qutrit(s) per point"
        )
    n = n_points * s
    diag = np.zeros(3**n)
    for p in range(n_points):
        diag += float(a) * (block_values(n, p * s, s) >= K)
    return DiagonalHamiltonian(n, diag)


def build_kmeanspp(
    d_centroid_point: np.ndarray, scheme: EncodingScheme
) -> DiagonalHamiltonian:
    """Couple free points to fixed centroid block states.

    ``d_centroid_point[c, j]`` is the distance from centroid c to free point
    j; only the free points live on the register, one block each.
    """
    if scheme.method != METHOD_KMEANSPP:
        raise ValueError(f"scheme method is {scheme.method!r}, expected kmeanspp")
    d = np.asarray(d_centroid_point, dtype=float)
    if d.ndim != 2 or d.shape[0] != scheme.K:
        raise ValueError(
            f"need a (K={scheme.K}) x (free points) distance block, got {d.shape}"
        )
    n_free = d.shape[1]
    if n_free < 1:
        raise ValueError("no free points to place on the register")
    s = scheme.spins_per_point
    n = n_free * s
    targets = [block_state_index(st) for st in scheme.centroid_states]
    blocks = np.stack([block_values(n, j * s, s) for j in range(n_free)], axis=1)
    diag = np.zeros(3**n)
    for c, target in enumerate(targets):
        for j in range(n_free):
            match = blocks[:, j] == target
            diag += d[c, j] * np.where(match, 1.0, -1.0)
    return DiagonalHamiltonian(n, diag)


def build_penalty_kmeanspp(
    n_free_points: int, scheme: EncodingScheme, b: float
) -> DiagonalHamiltonian:
    """Constant penalty b per free point in a block state no centroid uses."""
    if not b > 0:
        raise ValueError("penalty constant b must be positive")
    if scheme.method != METHOD_KMEANSPP:
        raise ValueError(f"scheme method is {scheme.method!r}, expected kmeanspp")
    s = scheme.spins_per_point
    if not 3 ** (s - 1) < scheme.K < 3**s:
        raise ValueError(
            f"K={scheme.K} leaves no forbidden block states on {s} qutrit(s) per point"
        )
    allowed = np.array(
        sorted(block_state_index(st) for st in scheme.centroid_states)
    )
    n = n_free_points * s
    diag = np.zeros(3**n)
    for j in range(n_free_points):
        forbidden = ~np.isin(block_values(n, j * s, s), allowed)
        diag += float(b) * forbidden
    return DiagonalHamiltonian(n, diag)
