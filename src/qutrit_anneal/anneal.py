"""State preparation, stepped evolution, and readout of the schedule.

The schedule interpolates H(s) = (1 - s) * H0 + s * Hf for s = l/M,
l = 0 .. M inclusive, applying exp(-i * dt * H(s)) at every step.  The
exact-step mode evaluates each exponential by a Chebyshev expansion
(Tal-Ezer & Kosloff, 1984).  The spectral bounds of H(s) come free from the
extremes of the diagonal and the driver's -h n .. h n, the degree is fixed
a priori where the Bessel coefficients fall below 1e-15, and it needs
numpy alone.  Each step maps H(s) onto [-2, 2] once, folding the scale and
shift into its diagonal and driver factors, so each term is one apply of
the mapped operator and one subtraction.  H(s) is real symmetric, so the
recurrence runs in real arithmetic on the real and imaginary parts of the
state, and each apply takes the driver as a Kronecker sum: two matrix
products on the state viewed as a grid.  The split-step mode is a Strang
splitting of the diagonal and driver factors, sub-stepped so its final
probabilities track exact-step to well under 1e-3; it is not used where
exact-step accuracy is contractual.  Each step builds the driver factor
gate^{(x)n} as two Kronecker powers of the 3x3 site gate, by repeated
squaring, and applies it as two matrix products; the half phases of
neighbouring substeps are applied as one full phase.

``decode`` groups the rows of the encoding's label table by
``partition_keys`` in numpy and builds one ``Partition`` per distinct
partition; the row-to-partition index
it returns is what the CSV emitter reads.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .clustering import Partition, partition_keys
from .errors import SpecError, is_int, is_positive_finite
from .hamiltonians import (
    DiagonalHamiltonian,
    DriverHamiltonian,
    Encoding,
    driver_factors,
)

MODE_EXACT = "exact-step"
MODE_SPLIT = "split-step"
MODES = (MODE_EXACT, MODE_SPLIT)

#: Single-site ground state of h * S^x for h > 0, in the (|1>, |0>, |-1>) basis.
_SITE_GROUND = np.array([0.5, -math.sqrt(0.5), 0.5])

#: Columns are the S^x eigenvectors for eigenvalues +1, 0, -1.
_SX_EIGVECS = np.array(
    [
        [0.5, math.sqrt(0.5), 0.5],
        [math.sqrt(0.5), 0.0, -math.sqrt(0.5)],
        [0.5, -math.sqrt(0.5), 0.5],
    ]
)
_SX_EIGVALS = np.array([1.0, 0.0, -1.0])


@dataclass(frozen=True)
class AnnealConfig:
    """Schedule parameters: M steps of duration dt at driver strength h."""

    h: float
    M: int = 2000
    dt: float = 0.1
    mode: str = MODE_EXACT

    def __post_init__(self) -> None:
        if not is_int(self.M):
            raise SpecError(f"step count M must be an integer, got {self.M!r} (anneal 'M')")
        if self.M < 1:
            raise SpecError(f"step count M must be at least 1, got {self.M!r} (anneal 'M')")
        for name in ("h", "dt"):
            value = getattr(self, name)
            if not is_positive_finite(value):
                kind = "a number, not a bool" if isinstance(value, bool) else "positive and finite"
                raise SpecError(f"{name} must be {kind}, got {value!r} (anneal {name!r})")
            object.__setattr__(self, name, float(value))
        if self.mode not in MODES:
            raise SpecError(f"unknown anneal 'mode' {self.mode!r}, expected one of {MODES}")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes over the 3**n computational basis."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.shape[0] != 3**self.n:
            raise ValueError(
                f"amplitude vector of shape {amps.shape} does not match 3**{self.n}"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def initial_state(n: int, h: float) -> StateVector:
    """Ground state of the driver: a product of single-site S^x ground states."""
    if not h > 0:
        raise ValueError("field strength h must be positive")
    if n < 1:
        raise ValueError("register needs at least one qutrit")
    amps = np.array([1.0])
    for _ in range(n):
        amps = np.kron(amps, _SITE_GROUND)
    return StateVector(n=n, amplitudes=amps.astype(complex))


class InstantaneousHamiltonian:
    """Matrix-free handle for H(s) = (1 - s) * H0 + s * Hf."""

    def __init__(self, s: float, hf: DiagonalHamiltonian, drv: DriverHamiltonian):
        if hf.n != drv.n:
            raise ValueError(
                f"register mismatch: diagonal spans {hf.n} qutrits, driver {drv.n}"
            )
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"schedule parameter s must lie in [0, 1], got {s}")
        self.s = float(s)
        self.n = hf.n
        self._field = (1.0 - s) * drv.h
        # the driver (field A) (x) I + I (x) (field B) acts on the state viewed
        # as a row-major grid of 3**(n // 2) rows, as A @ grid + grid @ B (B is
        # symmetric); the diagonal takes the grid's shape
        a, b = driver_factors(self.n)
        self._factors = (self._field * a, self._field * b)
        self._diag = (s * hf.diag).reshape(a.shape[0], b.shape[0])
        self._grid = (-1, *self._diag.shape)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """H v along the last axis of a (..., 3**n) array, real or complex."""
        grid = v.reshape(self._grid)
        out = self._diag * grid
        if self._field != 0.0:
            a, b = self._factors
            out += a @ grid
            out += grid @ b
        return out.reshape(v.shape)

    def rescaled(self, centre: float, scale: float) -> InstantaneousHamiltonian:
        """Handle for scale * (H - centre), applied to (2, 3**n) arrays only.

        The shift and the scale fold into the diagonal and the driver
        factors.  The diagonal is stored once per row of the input, so its
        product needs no broadcast: the rows are the real and imaginary
        planes that ``expm_multiply_hermitian`` applies H to once per term.
        """
        out = copy.copy(self)
        out._field = scale * self._field
        out._factors = tuple(scale * f for f in self._factors)
        diag = scale * (self._diag - centre)
        out._diag = np.stack([diag, diag])
        out._grid = out._diag.shape
        return out

    def bounds(self) -> tuple[float, float]:
        """Spectral interval [s min Hf - (1 - s) h n, s max Hf + (1 - s) h n].

        The spectrum of a sum lies within the sum of its terms' ranges, and
        each range here is exact (S^x has eigenvalues -1, 0, 1 on every
        site), so the interval is the spectrum's own at s = 0 and s = 1.
        """
        spread = self._field * self.n
        return float(self._diag.min()) - spread, float(self._diag.max()) + spread

    def dense(self) -> np.ndarray:
        """Dense matrix form, for small registers and tests."""
        # row k is H e_k, which is column k as H is symmetric
        return self.matvec(np.eye(3**self.n))


#: Chebyshev terms are kept up to the last one with 2 |J_k(dt r)| >= _TAIL.
#: At 1e-15 the presets' basis probabilities at M = 2000 stay within 2.2e-13
#: of an adaptive Lanczos stepper's (tolerance 1e-12) and the norm drifts by
#: at most 1.1e-13; a tail of 2.5e-13 saves 9% of the terms but drifts
#: 2e-11 and moves the probabilities by 4e-11, too near the 1e-10 checks.
_TAIL = 1e-15

#: Miller's recurrence rescales its values whenever one passes this, so a
#: small argument, whose table spans hundreds of decades, cannot overflow.
_BESSEL_BIG = 1e150

#: (-i)^k is this sign for even k and -i times it for odd k (k mod 4).
_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])

#: The Chebyshev recurrence keeps at most this many T_k, so its memory does
#: not grow with the degree (280 kB at the 7-qutrit cap).  Blocks of 8, 16
#: and 32 ran the presets equally fast, and 8 holds the fewest states.
_ROWS = 8


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x) .. J_N(x) for real |x| >= 1e-100 by Miller's backward recurrence.

    The recurrence starts at N = |x| + 12 |x|^(1/3) + 30; the last term with
    2 |J_k| >= _TAIL lies near |x| + 10.5 |x|^(1/3), and J_N(x) at least five
    decades below _TAIL for 1e-3 <= |x| <= 1e6.  The values are normalized by
    J_0 + 2 sum_k J_2k = 1.
    """
    top = int(abs(x) + 12.0 * abs(x) ** (1.0 / 3.0) + 30.0)
    vals = np.empty(top + 1)
    two_over_x = 2.0 / x
    above, j = 0.0, 1.0  # J_{k+1}, J_k up to a common factor
    for k in range(top, 0, -1):
        vals[k] = j
        above, j = j, k * two_over_x * j - above
        if abs(j) > _BESSEL_BIG:
            vals[k:] /= _BESSEL_BIG
            above /= _BESSEL_BIG
            j /= _BESSEL_BIG
    vals[0] = j
    return vals / (j + 2.0 * vals[2::2].sum())


def expm_multiply_hermitian(
    matvec: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    dt: float,
    *,
    bounds: tuple[float, float],
) -> np.ndarray:
    """Compute exp(-i * dt * H) @ v for real symmetric H by a Chebyshev expansion.

    ``bounds`` = (lo, hi) must contain the spectrum of H.  With H mapped onto
    [-1, 1] as (H - c) / r, c and r the centre and half-width of the bounds,
    exp(-i dt H) = exp(-i dt c) sum_k (2 - [k = 0]) (-i)^k J_k(dt r) T_k
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984).  The degree is fixed
    before the first matvec by the tail of the Bessel coefficients, and each
    term costs one matvec through the three-term recurrence of T_k; for
    bounds (-2, 2) that recurrence is T_{k+1} = H T_k - T_{k-1}, with no
    scale or shift.

    H must be real: the recurrence runs in real arithmetic on the (2, N)
    array of v's real and imaginary parts, and ``matvec`` must map such an
    array row by row to a new real one (the recurrence updates it in
    place); a complex result raises ``TypeError``.
    The T_k are kept in blocks of ``_ROWS`` and each block is summed with
    its coefficients by one matrix product.  The coefficients are real for
    even k and imaginary for odd k, so the terms go to two real sums,
    combined into the complex result at the end.
    """
    lo, hi = bounds
    if not hi >= lo:
        raise ValueError(f"spectral bounds must satisfy lo <= hi, got {bounds}")
    v = np.asarray(v, dtype=complex)
    centre, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    x = dt * radius
    phase = np.exp(-1j * dt * centre)
    if abs(x) < _TAIL or not v.any():
        # below the tail J_0(x) rounds to 1 and no other term is kept: exact
        # for x = 0 (H is centre * I), and no matvec for a zero vector
        return phase * v
    j = _bessel_j(x)
    degree = int(np.flatnonzero(np.abs(j) >= 0.5 * _TAIL)[-1])
    coefs = 2.0 * _SIGNS[np.arange(degree + 1) % 4] * j[: degree + 1]
    coefs[0] = j[0]
    weights = np.zeros((2, degree + 1))  # even k in row 0, odd k in row 1
    weights[0, ::2], weights[1, 1::2] = coefs[::2], coefs[1::2]
    scale, shift = 2.0 / radius, 2.0 * centre / radius
    size = min(degree + 1, _ROWS)
    block = np.empty((size, 2, *v.shape))  # T_k in block[k % size]
    rows = list(block)
    prev = rows[0]
    prev[:] = v.real, v.imag
    if degree:
        cur = matvec(prev)
        if np.iscomplexobj(cur):
            raise TypeError(
                "matvec returned complex values on a real input: H must be real symmetric"
            )
        cur -= centre * prev
        cur = np.divide(cur, radius, out=rows[1])
    sums = np.zeros((2, prev.size))
    summed = 0  # T_0 .. T_{summed - 1} are in sums
    flat = block.reshape(size, -1)
    for k in range(2, degree + 1):
        slot = k % size
        nxt = matvec(cur)
        if scale != 1.0:
            nxt *= scale
        if shift:
            nxt -= shift * cur
        prev, cur = cur, np.subtract(nxt, prev, out=rows[slot])
        if slot == size - 1:  # block holds T_summed .. T_k in order
            sums += weights[:, summed : k + 1] @ flat
            summed = k + 1
    sums += weights[:, summed:] @ flat[: degree + 1 - summed]
    (even_re, even_im), (odd_re, odd_im) = sums.reshape(2, 2, *v.shape)
    return phase * ((even_re + odd_im) + 1j * (even_im - odd_re))


def _exact_step(
    amplitudes: np.ndarray,
    s: float,
    hf: DiagonalHamiltonian,
    drv: DriverHamiltonian,
    dt: float,
) -> np.ndarray:
    """exp(-i dt H(s)) on the amplitudes, expanding H(s) mapped onto [-2, 2].

    With c and r the centre and half-width of ``bounds()``, H(s) = c + (r/2) H~
    for H~ = 2 (H(s) - c) / r, so the step is the phase exp(-i dt c) times
    exp(-i (r dt / 2) H~), and each Chebyshev term is one apply of H~.  A
    zero-width H(s) is c times the identity: H~ is then H(s) - c = 0 and the
    expansion makes no matvec.
    """
    op = InstantaneousHamiltonian(s, hf, drv)
    lo, hi = op.bounds()
    centre, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    mapped = op.rescaled(centre, 2.0 / radius if radius else 1.0)
    amplitudes = expm_multiply_hermitian(
        mapped.matvec, amplitudes, 0.5 * radius * dt, bounds=(-2.0, 2.0)
    )
    return np.exp(-1j * dt * centre) * amplitudes


def step(
    state: StateVector,
    s: float,
    hf: DiagonalHamiltonian,
    drv: DriverHamiltonian,
    dt: float,
) -> StateVector:
    """Advance the state by exp(-i * dt * H(s))."""
    return StateVector(
        n=state.n, amplitudes=_exact_step(state.amplitudes, s, hf, drv, dt)
    )


def _site_rotation(theta: float) -> np.ndarray:
    """exp(-i * theta * S^x) on a single site, via the fixed S^x eigenbasis."""
    phases = np.exp(-1j * theta * _SX_EIGVALS)
    return (_SX_EIGVECS * phases) @ _SX_EIGVECS.T


#: Strang substeps per schedule step.  At dt = 0.1 the largest gap between
#: split-step and exact-step partition probabilities over the presets is
#: 3.1e-4 at M = 100 and 7e-5 at M = 2000 (fig1 both times).
_SPLIT_SUBSTEPS = 8


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two square matrices as one broadcast outer product."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], -1
    )


def _kron_power(gate: np.ndarray, k: int) -> np.ndarray:
    """gate^{(x)k} by repeated squaring: about log2(k) products, not k."""
    if k <= 1:
        return gate if k else np.ones((1, 1))
    half = _kron_power(gate, k // 2)
    out = _kron(half, half)
    return _kron(out, gate) if k % 2 else out


def _split_step(
    amplitudes: np.ndarray,
    s: float,
    hf: DiagonalHamiltonian,
    drv: DriverHamiltonian,
    dt: float,
    substeps: int = _SPLIT_SUBSTEPS,
) -> np.ndarray:
    tau = dt / substeps
    half = np.exp(-0.5j * tau * s * hf.diag)
    # the closing half phase of one substep and the opening one of the next
    # are one full phase
    full = half * half
    gate = _site_rotation(tau * (1.0 - s) * drv.h)
    # the driver factor gate^{(x)n} as left (x) right, applied to the state
    # reshaped with the first n//2 sites as rows
    a = hf.n // 2
    left = _kron_power(gate, a)
    right = left if hf.n == 2 * a else _kron(left, gate)
    shape = (left.shape[0], right.shape[0])
    out = half * amplitudes
    for k in range(substeps):
        out = (left @ out.reshape(shape) @ right.T).reshape(-1)
        out *= full if k + 1 < substeps else half
    return out


def anneal(cfg: AnnealConfig, hf: DiagonalHamiltonian) -> StateVector:
    """Run the full schedule from the driver ground state.

    Applies one step per l = 0 .. M (M + 1 factors; the l = 0 factor only
    rephases the initial state).
    """
    drv = DriverHamiltonian(n=hf.n, h=cfg.h)
    amps = initial_state(hf.n, cfg.h).amplitudes
    for l in range(cfg.M + 1):
        s = l / cfg.M
        if cfg.mode == MODE_SPLIT:
            amps = _split_step(amps, s, hf, drv, cfg.dt)
        else:
            amps = _exact_step(amps, s, hf, drv, cfg.dt)
    return StateVector(n=hf.n, amplitudes=amps)


@dataclass(frozen=True, eq=False)
class ReadoutReport:
    """Probabilities of the decoded set partitions.

    ``invalid_probability`` collects basis states whose blocks sit in states
    no cluster uses (possible under penalty encodings); such states never
    contribute to ``partition_probabilities``.  ``partition_index`` gives,
    per basis state, the position of its partition in
    ``partition_probabilities`` (insertion order), or -1 for invalid states.
    """

    basis_probabilities: np.ndarray
    partition_probabilities: Mapping[Partition, float]
    partition_index: np.ndarray
    top_partition: Partition
    top_probability: float
    invalid_probability: float


def decode(state: StateVector, encoding: Encoding) -> ReadoutReport:
    """Aggregate basis probabilities into set-partition probabilities.

    Each basis state decodes to the partition of its row of the encoding's
    label table; the rows the encoding marks invalid decode to none.
    """
    if state.n != encoding.n_qutrits:
        raise ValueError(
            f"a {state.n}-qutrit state does not fit the encoding's "
            f"{encoding.n_qutrits}-qutrit register"
        )
    probs = state.probabilities()
    labels, invalid = encoding.labels, encoding.invalid
    valid = np.flatnonzero(~invalid)
    if not valid.size:
        raise ValueError("no valid basis states to decode")
    _, first, inverse = np.unique(
        partition_keys(labels[valid]), return_index=True, return_inverse=True
    )
    # number partitions by first appearance in basis order
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    index = np.full(probs.shape[0], -1)
    index[valid] = rank[inverse]
    # bincount adds in basis order, as a running sum over the states would
    sums = np.bincount(index[valid], weights=probs[valid])
    partition_probs = {
        Partition(row, encoding.K): p
        for row, p in zip(labels[valid[first[order]]].tolist(), sums.tolist())
    }
    top_partition, top_probability = max(
        partition_probs.items(), key=lambda kv: (kv[1], kv[0].canonical)
    )
    return ReadoutReport(
        basis_probabilities=probs,
        partition_probabilities=partition_probs,
        partition_index=index,
        top_partition=top_partition,
        top_probability=top_probability,
        invalid_probability=float(probs[invalid].sum()),
    )
