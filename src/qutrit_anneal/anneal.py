"""State preparation, stepped evolution, and readout of the schedule.

The schedule applies exp(-i dt H(s)) for s = l/M, l = 0 .. M, with H(s) =
(1 - s) h sum_i S_i^x + s Hf, Hf the diagonal (C, 3**w) block rows of
``Encoding.hamiltonian``.  Neither Hf nor the driver couples two blocks, so
the state stays a product over them: ``anneal`` evolves a (C, 3**w) stack
and returns its Kronecker product.  Exact-step expands each step in
Chebyshev polynomials (``expm_multiply_hermitian``); split-step is a Strang
splitting (``_split_steps``).  Both loop over windows of steps, so memory
does not grow with M: rows of at most ``_SMALL_BLOCK`` states take a window
as a stack of d x d step matrices (``_small_propagators``,
``_split_propagators``), and wider rows step the state, ``_STEP_WINDOW``
steps a window.  ``decode`` reads the final amplitudes out as partitions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .clustering import Partition, partition_keys
from .errors import SizeGuardError, SpecError, is_int, is_positive_finite
from .hamiltonians import Encoding
from .spin import digit_table, spin_operator

MODE_EXACT = "exact-step"
MODE_SPLIT = "split-step"
MODES = (MODE_EXACT, MODE_SPLIT)

#: Single-site ground state of h * S^x for h > 0, in the (|1>, |0>, |-1>) basis.
_SITE_GROUND = np.array([0.5, -math.sqrt(0.5), 0.5])

#: With F = diag(1, i, -1) on a site, F^dagger S^x F = i Ks for this real
#: antisymmetric Ks, so exp(-i theta S^x) = F exp(theta Ks) F^dagger.
_KS = math.sqrt(0.5) * np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
_KS2 = 0.5 * np.array([[-1.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, -1.0]])


@dataclass(frozen=True)
class AnnealConfig:
    """Schedule: M steps of dt at driver strength h, in ``mode``; a bad field is a ``SpecError``."""

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


def initial_state(n: int) -> np.ndarray:
    """Ground state of the driver h * sum_i S_i^x on n >= 1 sites, the same for every h > 0.

    It is a product of single-site S^x ground states; n < 1 is a ``ValueError``.
    """
    if n < 1:
        raise ValueError("register needs at least one qutrit")
    kron = lambda out, site: np.multiply.outer(out, site).reshape(-1)
    return functools.reduce(kron, [_SITE_GROUND] * n).astype(complex)


#: Chebyshev terms are kept up to the last one with 2 |J_k(dt r)| >= _TAIL.
#: At 1e-15 the presets' partition probabilities at M = 2000 stay within
#: 8.7e-13 (fig3) and 9.4e-13 (fig4) of 30-digit mpmath, and 2.8e-13 (fig1)
#: and 3.3e-13 (fig2) of dense eigh; a tail of 2.5e-13 saves 9% of the
#: terms but moves fig3 by 1.8e-10, past the tests' 1e-10 checks.
_TAIL = 1e-15

#: Miller's recurrence rescales its values whenever one passes this, so a
#: small argument, whose table spans hundreds of decades, cannot overflow.
_BESSEL_BIG = 1e150

#: For k = 1, 2, 3, 4 mod 4, 2 (-i)^k is this factor for even k and -i
#: times it for odd k.
_SIGNS = np.array([2.0, -2.0, -2.0, 2.0])

#: The Chebyshev recurrence keeps at most this many T_k, so its memory does
#: not grow with the degree: 280 kB at the 7-qutrit cap.  The size was chosen
#: by timing (CHANGES.md).
_ROWS = 8

#: ``anneal`` refuses an exact-step schedule whose dt times the half-width
#: of H(s) exceeds this, before it computes any Chebyshev weights: a step's
#: Bessel values then number at most about 10,300 (82 kB), and a step makes
#: at most about 10,300 matvecs.  The presets peak at 31.5 (fig2).
_MAX_DT_RADIUS = 1e4

#: ``anneal`` refuses a schedule of more steps than this, in either mode,
#: before any step.  A step of one 3-state block takes about 2 us, so a run
#: at the guard takes about 20 s there and hours on wider blocks.
_MAX_STEPS = 10**7

#: Blocks of at most this many states (one or two qutrits) take each step
#: as one d x d matrix per block, in both modes; larger ones step the state.
#: A matrix costs d^3 a step, so the bound keeps d small; it was chosen by
#: timing (CHANGES.md).
_SMALL_BLOCK = 9

#: On blocks of at most ``_SMALL_BLOCK`` states a window is as many steps as
#: fit their (steps, C, d, d) matrices in this many entries (32 kB), and at
#: least one: 75 steps of fig3's six 3-state blocks, 16 of fig4's three
#: 9-state ones.  It trades memory against expansions (see CHANGES.md).
_PROPAGATORS = 2**12

#: Wider blocks take this many steps a window.  Split-step refreshes its
#: carried phase by ``np.exp`` at each window's first step: the rounded
#: ratio's modulus is off 1 by up to about 1e-16 at every multiply, so a
#: phase carried through the whole run drifts fig2's norm by 3.5e-10 at
#: M = 2000, and one refreshed every 16 steps by 1.9e-12.
_STEP_WINDOW = 16


def _chebyshev_weights(x: float) -> np.ndarray:
    """The (2, d + 1) Chebyshev weights of exp(-i (x / 2) H) for one real x.

    Row 0 holds the coefficients (2 - [k = 0]) (-i)^k J_k(x) of even k, row 1
    the parts along -i of odd k, up to the degree d, the last k with 2 |J_k(x)|
    >= _TAIL; |x| < _TAIL is degree 0.  The J_k come from Miller's backward
    recurrence on Python floats from N = |x| + 12 |x|^(1/3) + 30, which puts
    J_N at least five decades below _TAIL for 1e-3 <= |x| <= 1e6, rescaled
    past _BESSEL_BIG and normalized by J_0 + 2 sum_k J_2k = 1.
    """
    if not abs(x) >= _TAIL:
        return np.array([[1.0], [0.0]])
    top = int(abs(x) + 12.0 * abs(x) ** (1.0 / 3.0) + 30.0)
    vals = [0.0] * (top + 1)
    two_over_x, above, j = 2.0 / x, 0.0, 1.0  # J_{k+1}, J_k up to a common factor
    for k in range(top, 0, -1):
        vals[k] = j
        above, j = j, k * two_over_x * j - above
        if abs(j) > _BESSEL_BIG:
            vals[k:] = [v / _BESSEL_BIG for v in vals[k:]]
            above /= _BESSEL_BIG
            j /= _BESSEL_BIG
    vals[0] = j
    table = np.array(vals)
    table /= j + 2.0 * float(table[2::2].sum())
    # the last k with 2 |J_k| >= _TAIL, counted from J_N, which lies far below it
    degree = top - int((np.abs(table[::-1]) >= 0.5 * _TAIL).argmax())
    # the coefficients in place, four k a row from k = 1 (the table runs past the degree)
    quads = table[1 : 1 + (degree + 3) // 4 * 4].reshape(-1, 4)
    quads *= _SIGNS
    weights = np.zeros((2, degree + 1))
    weights[0, ::2], weights[1, 1::2] = table[: degree + 1 : 2], table[1 : degree + 1 : 2]
    return weights


def expm_multiply_hermitian(
    matvec: Callable[[np.ndarray], np.ndarray], v: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Compute exp(-i (x / 2) H) @ v for real symmetric H with spectrum in [-2, 2].

    There exp(-i (x / 2) H) = sum_k (2 - [k = 0]) (-i)^k J_k(x) T_k(H / 2)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984), with T_{k+1} = H T_k
    - T_{k-1}: one matvec a term.  ``weights`` come from ``_chebyshev_weights``;
    degree 0 makes no matvec.  The recurrence is real: on a real v's shape, or
    on a complex v's real and imaginary planes on the axis before the last,
    (*v.shape[:-1], 2, v.shape[-1]).  ``matvec`` maps such an array to a real
    one, leaving its input alone, and may return one buffer on every call; a
    complex result raises ``TypeError``.  The T_k sit in a ring of at most
    ``_ROWS``, summed with their coefficients by one matrix product when full.
    """
    v = np.asarray(v)
    degree = weights.shape[1] - 1
    if not degree:  # J_0(x) rounds to 1 and no other term is kept: exact for x = 0
        return v.copy()
    complex_v = np.iscomplexobj(v)
    shape = (*v.shape[:-1], 2, v.shape[-1]) if complex_v else v.shape
    size = min(degree + 1, _ROWS)  # T_k in slots[k % size]
    ring = np.empty((size, *shape))
    slots = list(ring)
    prev = slots[0]
    if complex_v:
        prev[..., 0, :], prev[..., 1, :] = v.real, v.imag
    else:
        prev[...] = v
    cur = matvec(prev)
    if np.iscomplexobj(cur):
        raise TypeError("matvec returned complex values on a real input: H must be real symmetric")
    cur = np.divide(cur, 2.0, out=slots[1])
    flat = ring.reshape(size, -1)
    sums = np.zeros((2, flat.shape[1]))
    summed = 0  # T_0 .. T_{summed - 1} are in sums
    for k in range(2, degree + 1):
        slot = k % size
        prev, cur = cur, np.subtract(matvec(cur), prev, out=slots[slot])
        if slot == size - 1:  # the ring holds T_summed .. T_k in order
            sums += weights[:, summed : k + 1] @ flat
            summed = k + 1
    sums += weights[:, summed:] @ flat[: degree + 1 - summed]
    even, odd = sums.reshape(2, *shape)
    if not complex_v:
        return even - 1j * odd
    return (even[..., 0, :] + odd[..., 1, :]) + 1j * (even[..., 1, :] - odd[..., 0, :])


def _qutrits(size: int) -> int:
    """w for 3**w states."""
    return round(math.log(size, 3))


@functools.lru_cache(maxsize=None)
def driver_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense sum_i S_i^x on the first n // 2 sites and on the remaining ones.

    The driver on n sites is their Kronecker sum A (x) I + I (x) B; at the
    7-qutrit cap the larger factor is 81 x 81, and A on no sites is [[0]].
    """
    sums, sx = [np.zeros((1, 1))], spin_operator("x")
    for k in range(n - n // 2):
        # on k + 1 sites: the sum on the first k, and S^x on the last
        sums.append(_kron(sums[k], np.eye(3)) + _kron(np.eye(3**k), sx))
    first, rest = sums[n // 2], sums[n - n // 2]
    first.flags.writeable = rest.flags.writeable = False
    return first, rest


def _radii(s: np.ndarray, hf: np.ndarray, h: float) -> np.ndarray:
    """The largest half-width r(s) of H(s) over the blocks, at the points ``s``.

    Block b's spectrum lies within (1 - s) h w + s (max row_b - min row_b) / 2
    of s m_b, m_b its row's midpoint, exactly at s = 0 and 1; the driver's term
    is the same for every block, so r is affine in s.  Halving keeps r finite.
    """
    half = float((0.5 * hf.max(axis=1) - 0.5 * hf.min(axis=1)).max())
    with np.errstate(over="ignore"):  # h w past the float range is inf, which the guard refuses
        return (1.0 - s) * h * _qutrits(hf.shape[1]) + s * half


def _mapping(s: np.ndarray, radii: np.ndarray | float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """H~_b = (2/r) (s (row_b - m_b) + (1 - s) h D_w), on [-2, 2], as its two factors.

    They are 2 s / r and 2 (1 - s) h / r, each quotient taken before the
    doubling, so a subnormal r cannot overflow it; a zero r maps by 0.
    """
    radii = np.where(radii > 0.0, radii, np.inf)
    return 2.0 * (s / radii), 2.0 * ((1.0 - s) * h / radii)


def _exact_anneal(
    s: np.ndarray, centred: np.ndarray, h: float, dt: float, amps: np.ndarray
) -> np.ndarray:
    """The exact steps at the points ``s`` of (C, 3**w) block amplitudes, without the phases s m_b.

    With the rows centred, one expansion of x = dt r's weights serves every
    block.  The matvec takes C grids of the ``driver_factors``' sizes, rows x
    cols, with the real and imaginary planes beside the last axis.  It
    multiplies by the mapped diagonal, held once per plane in that layout, and
    adds A times the (C, rows, 2 cols) view and the (C rows 2, cols) view
    times B (B symmetric): five numpy calls into buffers made once a window.
    """
    a, b = driver_factors(_qutrits(centred.shape[1]))
    blocks, rows, cols = len(centred), len(a), len(b)
    mapped = np.empty((blocks, rows, 2, cols))
    out, tmp = np.empty_like(mapped), np.empty_like(mapped)
    by_row, by_col = (blocks, rows, 2 * cols), (-1, cols)
    tmp_rows, tmp_cols = tmp.reshape(by_row), tmp.reshape(by_col)
    centred_grid = centred.reshape(blocks, rows, 1, cols)

    def matvec(x: np.ndarray) -> np.ndarray:
        np.multiply(mapped, x, out=out)
        if field:
            np.matmul(fa, x.reshape(by_row), out=tmp_rows)
            np.add(out, tmp, out=out)
            np.matmul(x.reshape(by_col), fb, out=tmp_cols)
            np.add(out, tmp, out=out)
        return out

    radii = _radii(s, centred, h)
    factors = (f.tolist() for f in _mapping(s, radii, h))
    amps = amps.reshape(blocks, rows, cols)
    for diagonal, field, x in zip(*factors, (dt * radii).tolist()):
        np.multiply(centred_grid, diagonal, out=mapped)
        fa, fb = a * field, b * field
        amps = expm_multiply_hermitian(matvec, amps, _chebyshev_weights(x))
    return amps.reshape(centred.shape)


def _small_propagators(s: np.ndarray, centred: np.ndarray, h: float, dt: float) -> np.ndarray:
    """exp(-i dt (H_b(s) - s m_b)) at the points ``s``, a (len(s), C, d, d) stack.

    One expansion at the window's largest ``_radii``, at its first or last
    point, takes the real identity stack by right products with the dense
    ``_mapping`` H~; each propagator is symmetric, as H~ is.
    """
    d = centred.shape[1]
    a, b = driver_factors(_qutrits(d))
    driver = _kron(a, np.eye(len(b))) + _kron(np.eye(len(a)), b)
    radius = float(_radii(s[[0, -1]], centred, h).max())
    diagonals, fields = _mapping(s, radius, h)
    ham = diagonals[:, None, None, None] * (centred[..., None] * np.eye(d))
    ham += fields[:, None, None, None] * driver
    identity = np.broadcast_to(np.eye(d), ham.shape)
    return expm_multiply_hermitian(lambda x: x @ ham, identity, _chebyshev_weights(dt * radius))


def _apply_in_turn(ops: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """A (C, d) stack of block amplitudes after each (C, d, d) matrix of ``ops`` in turn."""
    grid = amps[..., None]
    for op in ops:
        grid = op @ grid
    return grid[..., 0]


#: The identity the site rotation is built on, allocated once.
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


def _site_rotation(theta: float | np.ndarray) -> np.ndarray:
    """exp(theta * Ks), real and orthogonal: exp(-i theta S^x) in the frame F.

    Ks^3 = -Ks gives I + sin(theta) Ks + 2 sin(theta / 2)^2 Ks^2, which keeps
    1 - cos(theta)'s digits at small theta; an array of angles gives a stack.
    """
    theta = np.asarray(theta, dtype=float)[..., None, None]
    return _EYE3 + np.sin(theta) * _KS + 2.0 * np.sin(0.5 * theta) ** 2 * _KS2


@functools.lru_cache(maxsize=None)
def _frame(n: int) -> np.ndarray:
    """Diagonal of F^{(x)n}: i to the power of each basis state's digit sum.

    It commutes with Hf's phases, so a split run enters the frame only once.
    """
    frame = np.array([1.0, 1j, -1.0, -1j])[digit_table(n).sum(axis=1) % 4]
    frame.flags.writeable = False
    return frame


#: Strang substeps per schedule step.  At dt = 0.1 the largest gap between
#: split-step and exact-step partition probabilities over the presets is
#: 3.1e-4 at M = 100 and 7e-5 at M = 2000 (fig1 both times).
_SPLIT_SUBSTEPS = 8


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker products of square matrices, stacked or not, as one broadcast outer product."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], a.shape[-1] * b.shape[-1], -1)


def _split_step(
    grid: np.ndarray,
    left: list[np.ndarray],
    right: np.ndarray,
    phase: np.ndarray,
    substeps: int,
    products: list[tuple[np.ndarray, np.ndarray]],
    last: np.ndarray,
) -> np.ndarray:
    """The Strang substeps of one schedule step on framed blocks of w >= 3 qutrits.

    Each substep rotates every site of ``grid``, (C, 3**w) in the frame
    F^{(x)w}, by R, then multiplies by ``phase``, exp(-i tau s Hf), in place.
    R^{(x)w} acts on the float view with no transpose: each ``left`` power
    R^{(x)g} takes its group of leading sites from the left, and ``right`` =
    (R^{(x)2} (x) I_2)^T the last two sites, with the real and imaginary
    parts, from the right; ``products`` and ``last`` are from ``_split_views``.
    """
    *lefts, (x, out) = products
    for _ in range(substeps):
        for factor, (source, into) in zip(left, lefts):
            np.matmul(factor, source, out=into)
        np.matmul(x, right, out=out)
        np.multiply(last, phase, out=grid)
    return grid


def _split_views(
    grid: np.ndarray, sizes: list[int], spare: np.ndarray
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """``_split_step``'s (source, destination) float views and its last product's array.

    One pair per left factor of ``sizes`` rows, then one for the right 18 x 18
    product, alternating between ``grid`` and ``spare``, so no substep makes one.
    """
    shapes, outer = [], 1
    for size in sizes:
        shapes.append((len(grid), outer, size, -1))
        outer *= size
    shapes.append((-1, 18))
    buffers = (grid, spare)
    floats = [b.view(float) for b in buffers]
    products = [
        (floats[i % 2].reshape(shape), floats[1 - i % 2].reshape(shape))
        for i, shape in enumerate(shapes)
    ]
    return products, buffers[len(products) % 2]


def _split_propagators(
    s: np.ndarray, hf: np.ndarray, tau: float, h: float, between: np.ndarray
) -> np.ndarray:
    """The split steps at the points ``s`` on framed blocks of d <= ``_SMALL_BLOCK`` states.

    ``_split_steps``' steps as a (len(s), C, d, d) stack: the phases times
    R^{(x)w}, to the k-th power by squaring, with ``between`` after step 0.
    """
    rot = _site_rotation(tau * (1.0 - s) * h)
    power = rot
    for _ in range(1, _qutrits(hf.shape[1])):
        power = _kron(rot, power)
    phases = np.exp(-1j * tau * s[:, None, None] * hf)
    ops = np.linalg.matrix_power(phases[..., None] * power[:, None], _SPLIT_SUBSTEPS)
    ops[int(s[0] == 0) :] *= between[:, None, :]
    return ops


def _split_steps(
    s: np.ndarray,
    hf: np.ndarray,
    tau: float,
    h: float,
    between: np.ndarray,
    ratio: np.ndarray,
    grid: np.ndarray,
) -> np.ndarray:
    """The split steps at the points ``s`` of framed (C, 3**w) block amplitudes, w >= 3.

    Step l is half_l D P_l D ... P_l D half_l: k = ``_SPLIT_SUBSTEPS`` driver
    substeps D = R(tau (1 - s_l) h)^{(x)w} between full phases P_l = exp(-i
    tau s_l Hf), tau = dt / k, half_l = exp(-i tau s_l Hf / 2).  Each substep
    ends with P_l, so the phase left between steps l and l + 1 is half_{l+1}
    conj(half_l) = exp(-i tau Hf / (2 M)), ``between``; half_0 = 1, and
    ``anneal`` closes the run with conj(half_M).  P_l is the last step's
    times ``ratio``, refreshed by ``np.exp`` at each window's first step
    (see ``_STEP_WINDOW``).  The leading w - 2 sites are one group, or w - 4
    and 2 sites from w = 6, so no factor is above 27 x 27.
    """
    w = _qutrits(hf.shape[1])
    groups = (w - 2,) if w <= 5 else (w - 4, 2)
    powers = [None, _site_rotation(tau * (1.0 - s) * h)]
    while len(powers) <= max(groups + (2,)):
        powers.append(_kron(powers[1], powers[-1]))
    right = _kron(powers[2].swapaxes(1, 2), np.eye(2))
    products, last = _split_views(grid, [3**g for g in groups], np.empty_like(grid))
    for i, point in enumerate(s.tolist()):
        if i:
            phase *= ratio
        else:
            phase = np.exp(-1j * tau * point * hf)
        if point:
            grid *= between
        left = [powers[g][i] for g in groups]
        grid = _split_step(grid, left, right[i], phase, _SPLIT_SUBSTEPS, products, last)
    return grid


def anneal(cfg: AnnealConfig, hf: np.ndarray) -> np.ndarray:
    """The final amplitudes of the full schedule from the driver ground state.

    One step per l = 0 .. M; the l = 0 step only rephases the initial state.
    ``hf`` holds C block rows of 3**w entries, annealed as C copies of the
    w-qutrit initial state; the result is the blocks' Kronecker product in
    register order.  Rows that are not a real, finite (C, 3**w) array, w >= 1,
    are a ``ValueError``.  Before any step a ``SizeGuardError`` refuses more
    than ``_MAX_STEPS`` steps, naming M; in exact-step, dt r above
    ``_MAX_DT_RADIUS``, naming the end past it, h or Hf's width; in
    split-step, a substep angle tau h or phase tau max|Hf| past the float
    range, naming which.
    """
    hf = np.asarray(hf)
    shape = hf.shape
    w = _qutrits(shape[1]) if len(shape) == 2 and shape[0] and shape[1] > 1 else 0
    if not w or shape[1] != 3**w:
        raise ValueError(f"final Hamiltonian rows of shape {shape} are not (C, 3**w), C, w >= 1")
    if np.iscomplexobj(hf):
        raise ValueError("final Hamiltonian entries must be real")
    if not np.isfinite(hf).all():
        raise ValueError("final Hamiltonian entries must be finite")
    h, dt, M, small = cfg.h, cfg.dt, cfg.M, shape[1] <= _SMALL_BLOCK
    if M > _MAX_STEPS:
        raise SizeGuardError(f"step count M = {M} is above the {_MAX_STEPS:,} guard; lower 'M'")
    window = max(1, _PROPAGATORS // (hf.size * shape[1])) if small else _STEP_WINDOW
    if cfg.mode == MODE_EXACT:
        # r(s) is affine in s, so its largest value is at an end
        r0, r1 = _radii(np.array([0.0, 1.0]), hf, h).tolist()
        x = dt * max(r0, r1)
        if not x <= _MAX_DT_RADIUS:
            if r0 >= r1:
                cause, advice = f"driver h = {h:g} on {w}-qutrit blocks", "lower 'h'"
            else:
                cause = f"width {2.0 * r1:.3g} of the final Hamiltonian's widest block"
                advice = "lower the 'penalty' or the points' spread"
            raise SizeGuardError(
                f"exact-step needs about dt * r = {x:.3g} Chebyshev terms a step, above "
                f"the {_MAX_DT_RADIUS:g} guard ({cause}, dt = {dt:g}); {advice}"
            )
        # rows centred once; their midpoints' phases, for a sum of s of (M + 1) / 2, come last
        mid = 0.5 * hf.max(axis=1) + 0.5 * hf.min(axis=1)
        centred = hf - mid[:, None]
        before, after = 1.0, np.exp(-0.5j * dt * (M + 1) * mid)[:, None]
        propagators = lambda s: _small_propagators(s, centred, h, dt)
        stepper = lambda s, amps: _exact_anneal(s, centred, h, dt, amps)
    else:
        tau = dt / _SPLIT_SUBSTEPS
        # no substep angle is above tau h, and no phase above tau max|Hf|
        top = float(np.abs(hf).max())
        if not math.isfinite(tau * max(h, top)):
            if math.isfinite(tau * h):
                what, cause, advice = "phase tau * max|Hf|", f"Hf entries up to {top:.3g}", "'dt'"
            else:
                what, cause, advice = "angle tau * h", f"driver h = {h:g}", "'h' or 'dt'"
            raise SizeGuardError(
                f"split-step's substep {what} is past the float range "
                f"({cause}, dt = {dt:g}, tau = dt / {_SPLIT_SUBSTEPS}); lower {advice}"
            )
        between, ratio = np.exp(-0.5j * tau / M * hf), np.exp(-1j * tau / M * hf)
        frame = _frame(w)
        before, after = frame.conj(), frame * np.exp(0.5j * tau * hf)
        propagators = lambda s: _split_propagators(s, hf, tau, h, between)
        stepper = lambda s, amps: _split_steps(s, hf, tau, h, between, ratio, amps)
    amps = before * np.stack([initial_state(w)] * len(hf))
    for start in range(0, M + 1, window):
        s = np.arange(start, min(start + window, M + 1)) / M
        amps = _apply_in_turn(propagators(s), amps) if small else stepper(s, amps)
    amps = after * amps
    return functools.reduce(lambda out, row: np.multiply.outer(out, row).reshape(-1), amps)


@dataclass(frozen=True, eq=False)
class ReadoutReport:
    """Probabilities of the decoded set partitions, most probable first.

    Ties go to the larger ``Partition.canonical``.  ``keys`` holds their int64
    ``partition_keys``, ``probabilities`` their probabilities and ``labels`` one
    label row each; only ``top_partition`` is built as a ``Partition``, and
    ``partition_probabilities`` on first read.  ``partition_index`` gives each
    basis state its partition's rank, or -1 for a state no partition holds
    (under penalty encodings), summed in ``invalid_probability``.
    """

    basis_probabilities: np.ndarray
    keys: np.ndarray
    probabilities: np.ndarray
    labels: np.ndarray
    n_clusters: int
    partition_index: np.ndarray
    top_partition: Partition
    top_probability: float
    invalid_probability: float

    @functools.cached_property
    def partition_probabilities(self) -> Mapping[Partition, float]:
        rows, probs = self.labels.tolist(), self.probabilities.tolist()
        return {Partition(row, self.n_clusters): p for row, p in zip(rows, probs)}


def decode(amplitudes: np.ndarray, encoding: Encoding) -> ReadoutReport:
    """Aggregate basis probabilities into ranked set-partition probabilities.

    Each basis state decodes to the partition of its row of the encoding's
    label table, or to none where the encoding marks it invalid.  Amplitudes
    that do not fit the register, or no valid state, are a ``ValueError``.
    """
    size = 3**encoding.n_qutrits
    if np.shape(amplitudes) != (size,):
        raise ValueError(
            f"amplitudes of shape {np.shape(amplitudes)} do not fit the encoding's "
            f"{encoding.n_qutrits}-qutrit register of {size} states"
        )
    probs = np.abs(amplitudes) ** 2
    labels, invalid = encoding.labels, encoding.invalid
    valid = np.flatnonzero(~invalid)
    if not valid.size:
        raise ValueError("no valid basis states to decode")
    # unique numbers the partitions in canonical order
    keys, first, inverse = np.unique(
        partition_keys(labels[valid]), return_index=True, return_inverse=True
    )
    # bincount adds in basis order, as a running sum over the states would
    sums = np.bincount(inverse, weights=probs[valid])
    # descending probability; a stable sort reversed puts ties larger canonical first
    order = np.argsort(sums, kind="stable")[::-1]
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    index = np.full(size, -1)
    index[valid] = rank[inverse]
    ranked = labels[valid[first[order]]]
    return ReadoutReport(
        basis_probabilities=probs,
        keys=keys[order],
        probabilities=sums[order],
        labels=ranked,
        n_clusters=encoding.K,
        partition_index=index,
        top_partition=Partition(ranked[0], encoding.K),
        top_probability=float(sums[order[0]]),
        invalid_probability=float(probs[invalid].sum()),
    )
