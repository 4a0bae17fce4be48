"""State preparation, stepped evolution, and readout of the schedule.

The schedule interpolates H(s) = (1 - s) * h * sum_i S_i^x + s * Hf for
s = l/M, l = 0 .. M inclusive, applying exp(-i * dt * H(s)) at every step.  Hf
is diagonal, and a run takes it as the read-only (C, 3**w) array of block
rows that ``Encoding.hamiltonian`` returns; the driver is its field h alone,
from ``AnnealConfig``.

``anneal`` holds the one loop over windows of steps, for both modes and
every block size, so memory does not grow with M.  Each window goes to one
of four window bodies: on blocks of at most ``_SMALL_BLOCK`` states it
returns the window's (steps, C, d, d) stack of step matrices, applied to
the state in turn; on wider blocks it steps the state.

The exact-step mode evaluates each exponential by a Chebyshev expansion
(Tal-Ezer & Kosloff, 1984).  A run centres each block row once on its
midpoint, so the row's constant is one phase per block after the last
step, and the half-width r of H(s), from the rows' widths and the driver's
h w, is affine in s (``_radii``).  ``_mapping`` maps H(s) onto [-2, 2] by
one factor of the centred rows and one of the driver, and
``expm_multiply_hermitian`` expands any real symmetric operator on [-2, 2],
each term one apply and one subtraction, to where the Bessel coefficients,
from Miller's recurrence on the expansion's one argument
(``_chebyshev_weights``), fall below 1e-15.  Above ``_SMALL_BLOCK`` states
each step is one expansion of the state (``_exact_anneal``), in real
arithmetic on its real and imaginary planes, which sit beside the last axis
of each block's grid of 3**(w // 2) rows.  Each apply multiplies by the
mapped diagonal, held in that same layout, and takes the driver as a
Kronecker sum of the two ``driver_factors``: one product by the first on
the (C, rows, 2 cols) view of the state and one 2-D product by the second
on its (C rows 2, cols) view, five numpy calls into buffers made once a
window.  On one- and two-qutrit blocks such a matvec is mostly call
overhead, so one expansion of the real identity stack a window, by the
window's stack of dense mapped H(s) at its largest r, gives every step's
propagator (``_small_propagators``).  ``anneal`` refuses a schedule
whose dt r exceeds 1e4 terms a step before it computes any weights, and in
either mode one of more than 1e7 steps.

The split-step mode is a Strang splitting of the diagonal and driver
factors, sub-stepped so its final probabilities track exact-step to well
under 1e-3; it is not used where exact-step accuracy is contractual.  Step
l is half_l D P D ... P D half_l, k driver substeps D = R(theta_l)^{(x)w}
between full phases P = exp(-i tau s_l Hf), with half_l = exp(-i tau s_l
Hf / 2) and tau = dt / k.  half_l P^-1 = conj(half_l), so between steps l
and l + 1 the phase is B = exp(-i tau Hf / (2 M)), the same at every
step; the opening half phase at s = 0 is 1, and conj(half_M) closes the
last step.  In the frame F = diag(1, i, -1) on each site the 3x3 driver
gate is a real rotation R, and F^{(x)n} is diagonal, so it commutes with
the phases of Hf: a run enters the frame before its first step and leaves
it after its last.  On blocks of one or two qutrits each step is one 3 x 3
or 9 x 9 matrix per block, its substeps multiplied by squaring
(``_split_propagators``).  On larger blocks each step is one
``_split_step`` call (``_split_steps``): each substep rotates the state by
real products on its float view, with no transpose, the leading sites in
one or two groups from the left and the last two sites, with the real and
imaginary parts, from the right; no factor is above 27 x 27.  There the
full phases of consecutive steps differ by a fixed factor, so each step's
is the last one's times it, computed afresh by ``np.exp`` every
``_PHASE_REFRESH`` steps.

A final Hamiltonian of C block rows of 3**w entries has no term that
couples two blocks, and the driver acts site by site, so the annealed state
stays a product over the blocks.  Both steppers evolve it as a (C, 3**w)
stack of block amplitudes, each block under its own row of Hf and the
w-site driver; a coupled register is the one block C = 1.
States are plain complex arrays: ``anneal`` starts C copies of the
w-qutrit ``initial_state`` and hands ``decode`` their Kronecker product,
the 3**n basis amplitudes of the register.  ``decode`` groups the rows of
the encoding's label table by ``partition_keys`` in numpy and is the one
place that ranks them: its per-state rank is the CSV's partition id.  It
builds a ``Partition`` for the top partition alone; the report builds the
others on first read of ``partition_probabilities``.
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


def initial_state(n: int) -> np.ndarray:
    """Ground state of the driver h * sum_i S_i^x, the same for every h > 0.

    It is a product of single-site S^x ground states.
    """
    if n < 1:
        raise ValueError("register needs at least one qutrit")
    kron = lambda out, site: np.multiply.outer(out, site).reshape(-1)
    return functools.reduce(kron, [_SITE_GROUND] * n).astype(complex)


#: Chebyshev terms are kept up to the last one with 2 |J_k(dt r)| >= _TAIL.
#: At 1e-15 the presets' partition probabilities at M = 2000 stay within
#: 8.7e-13 (fig3) and 9.4e-13 (fig4) of 30-digit mpmath, and 2.8e-13 (fig1)
#: and 3.3e-13 (fig2) of dense eigh, and the norm drifts by at most 4.7e-13;
#: a tail of 2.5e-13 saves 9% of the terms but drifts up to 9e-11 and moves
#: the probabilities by up to 1.8e-10 (fig3), past the 1e-10 checks.
_TAIL = 1e-15

#: Miller's recurrence rescales its values whenever one passes this, so a
#: small argument, whose table spans hundreds of decades, cannot overflow.
_BESSEL_BIG = 1e150

#: For k = 1, 2, 3, 4 mod 4, 2 (-i)^k is this factor for even k and -i
#: times it for odd k.
_SIGNS = np.array([2.0, -2.0, -2.0, 2.0])

#: The Chebyshev recurrence keeps at most this many T_k, so its memory does
#: not grow with the degree (280 kB at the 7-qutrit cap).  Blocks of 8, 16
#: and 32 ran the presets equally fast, and 8 holds the fewest states.
_ROWS = 8

#: ``anneal`` refuses an exact-step schedule whose dt times the half-width
#: of H(s) exceeds this, before it computes any Chebyshev weights: a step's
#: Bessel values then number at most about 10,300 (82 kB), and a step makes
#: at most about 10,300 matvecs.  The presets peak at 31.5 (fig2).
_MAX_DT_RADIUS = 1e4

#: ``anneal`` refuses a schedule of more steps than this, in either mode,
#: before any step.  A step of the smallest register, one 3-state block,
#: takes about 2 us, so a run at the guard takes about 20 s there and hours
#: on wider blocks; CI's memory runs take 200,000 steps.
_MAX_STEPS = 10**7

#: Blocks of at most this many states (one or two qutrits) take each step
#: as one d x d matrix per block, in both modes; larger ones step the
#: state.  A matrix product costs d^3, so the bound keeps d small: in
#: split-step at 27 states the matrices were slower wherever C > 1, 8.3 ms
#: against 5.3 ms for a run of two 3-qutrit blocks at M = 200, and 13.3 ms
#: against 6.6 ms for four.
_SMALL_BLOCK = 9

#: An exact-step run on blocks of at most ``_SMALL_BLOCK`` states works out
#: its steps' propagators as many steps at a time as fit (steps, C, d, d) in
#: this many entries (32 kB), or one step, whatever M: 75 steps of fig3's
#: six 3-state blocks, 16 of fig4's three 9-state ones.  The benchmark's
#: presets-exact peaked at 35.9 MB at this bound and 38.7 MB at 2**14,
#: against 35.4 MB with one expansion a step, for 1% more speed at 2**14.
_PROPAGATORS = 2**12

#: Split-step runs, and exact-step runs on blocks above ``_SMALL_BLOCK``
#: states, take this many steps a window, so their memory does not grow
#: with M.  Over three passes of the benchmark's sweep (medians, on a shared
#: 2-CPU host), split-step's peak RSS was 37.9, 38.0 and 38.5 MB at 16, 32
#: and 256 steps, and solve_s 0.304, 0.309 and 0.290 s.
_STEP_WINDOW = 32


def _chebyshev_weights(x: float) -> np.ndarray:
    """The Chebyshev weights of exp(-i (x / 2) H) for one real x.

    For x's degree d, the last k with 2 |J_k(x)| >= _TAIL, they are the
    (2, d + 1) coefficients (2 - [k = 0]) (-i)^k J_k(x) of the T_k: real
    for even k, in row 0, and for odd k their parts along -i, in row 1, each
    zero in the other row.  Below the tail, |x| < _TAIL, J_0(x) rounds to 1
    and no other term is kept: degree 0.

    The J_k(x) come from Miller's backward recurrence on Python floats,
    from N = |x| + 12 |x|^(1/3) + 30 down: the last term kept lies near |x|
    + 10.5 |x|^(1/3), and J_N(x) at least five decades below _TAIL for 1e-3
    <= |x| <= 1e6.  The values are rescaled whenever one passes _BESSEL_BIG,
    and normalized by J_0 + 2 sum_k J_2k = 1.
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
    # J_k, then the coefficients in place: four k a row from k = 1, the
    # table running at least three entries past the degree
    quads = table[1 : 1 + (degree + 3) // 4 * 4].reshape(-1, 4)
    quads *= _SIGNS
    weights = np.zeros((2, degree + 1))
    weights[0, ::2], weights[1, 1::2] = table[: degree + 1 : 2], table[1 : degree + 1 : 2]
    return weights


def expm_multiply_hermitian(
    matvec: Callable[[np.ndarray], np.ndarray], v: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Compute exp(-i (x / 2) H) @ v for real symmetric H with spectrum in [-2, 2].

    On [-2, 2], exp(-i (x / 2) H) = sum_k (2 - [k = 0]) (-i)^k J_k(x) T_k(H / 2)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967, 1984), and the three-term
    recurrence of the T_k is T_{k+1} = H T_k - T_{k-1}, with T_1 = H v / 2:
    one matvec and one subtraction a term.  ``weights`` are the series'
    coefficients for x, as ``_chebyshev_weights`` gives them, so the degree
    is fixed before the first matvec; degree 0 makes none.

    H must be real: the recurrence runs in real arithmetic, on a real v's
    own shape, and on a complex v's real and imaginary planes, held on the
    axis before the last one: (*v.shape[:-1], 2, v.shape[-1]).  ``matvec``
    must map such an array, along the planes, to a real one without changing
    its input; a complex result raises ``TypeError``.  It may return the same
    buffer on every call, since the recurrence reads the result before the
    next call.  The T_k are kept in a ring of at most ``_ROWS`` of them: each
    time it is full it is summed with its coefficients by one matrix product.
    The coefficients are real for even k and imaginary for odd k, so the
    terms go to two real sums, combined into the complex result at the end.
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
    """The largest half-width of H(s) over the blocks, at the points ``s``.

    Block b's H_b(s) has its spectrum within r_b(s) = (1 - s) h w + s (max
    row_b - min row_b) / 2 of s m_b, m_b the midpoint of row_b, exactly so
    at s = 0 and s = 1 (S^x has eigenvalues -1, 0, 1 on every site).  The
    driver's term is the same for every block, so the largest r_b(s) is
    affine in s.  Halving before the difference keeps r finite.
    """
    half = float((0.5 * hf.max(axis=1) - 0.5 * hf.min(axis=1)).max())
    with np.errstate(over="ignore"):  # h w past the float range is inf, which the guard refuses
        return (1.0 - s) * h * _qutrits(hf.shape[1]) + s * half


def _mapping(s: np.ndarray, radii: np.ndarray | float, h: float) -> tuple[np.ndarray, np.ndarray]:
    """H~_b = (2/r) (s (row_b - m_b) + (1 - s) h D_w), on [-2, 2], as its two factors.

    They are 2 s / r of the centred rows and 2 (1 - s) h / r of the driver D_w,
    each quotient taken before the doubling: r >= s max|row_b - m_b| and r >=
    (1 - s) h w bound it, so a subnormal r cannot overflow it; a zero r maps by 0.
    """
    radii = np.where(radii > 0.0, radii, np.inf)
    return 2.0 * (s / radii), 2.0 * ((1.0 - s) * h / radii)


def _exact_anneal(
    s: np.ndarray, centred: np.ndarray, h: float, dt: float, amps: np.ndarray
) -> np.ndarray:
    """The exact steps at the points ``s`` of (C, 3**w) block amplitudes, without the phases s m_b.

    The rows are centred on their midpoints m_b, so every block maps onto
    [-2, 2] at r = ``_radii``, and one expansion, with the weights of x = dt
    r computed as the step is taken, serves them all.  Each step fills H~'s
    diagonal and driver factors (a one-qutrit block's first is the 1 x 1
    zero) by one multiply each; where every block has zero width it makes
    no matvec.  The state goes to the expansion as (C, rows, cols) block
    grids, so the matvec takes (C, rows, 2, cols) planes and writes H~
    applied to them into one buffer, allocated with its views once a window.
    """
    a, b = driver_factors(_qutrits(centred.shape[1]))
    blocks, rows, cols = len(centred), len(a), len(b)
    # the mapped diagonal is held once per plane; A acts on the (C, rows,
    # 2 cols) view, and grid @ B, I (x) B (B symmetric), on the (C rows 2, cols) one
    mapped = np.empty((blocks, rows, 2, cols))
    out, tmp = np.empty_like(mapped), np.empty_like(mapped)
    by_row, by_col = (blocks, rows, 2 * cols), (-1, cols)
    tmp_rows, tmp_cols = tmp.reshape(by_row), tmp.reshape(by_col)
    centred_grid = centred.reshape(blocks, rows, 1, cols)

    def matvec(x: np.ndarray) -> np.ndarray:
        # the current step's diagonal and driver factors, into the one buffer
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

    The rows are centred on their midpoints m_b.  The window's r is its
    largest ``_radii``, at its first or last point, so one expansion, of x =
    dt r's weights, takes the real identity stack by right products with the
    stack of dense ``_mapping`` H~.  H~ is real symmetric, so each
    propagator is symmetric too.
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

    Ks^3 = -Ks closes the series as I + sin(theta) Ks + (1 - cos(theta)) Ks^2,
    with 1 - cos(theta) taken as 2 sin(theta / 2)^2 to keep its digits at
    small theta.  An array of angles gives the stack of their rotations.
    """
    theta = np.asarray(theta, dtype=float)[..., None, None]
    return _EYE3 + np.sin(theta) * _KS + 2.0 * np.sin(0.5 * theta) ** 2 * _KS2


@functools.lru_cache(maxsize=None)
def _frame(n: int) -> np.ndarray:
    """Diagonal of F^{(x)n}: i to the power of each basis state's digit sum."""
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
) -> np.ndarray:
    """The Strang substeps of one schedule step on framed blocks of w >= 3 qutrits.

    ``grid`` holds each block's amplitudes in the frame F^{(x)w}, a (C, 3**w)
    stack.  Each substep applies the driver factor, the real rotation R on
    every site, then the step's full phase exp(-i tau s Hf), ``phase``, of
    the grid's shape; the half phases at the ends of the step are the
    caller's (``_split_steps``).  R^{(x)w} is applied to the grid's float
    view, where each amplitude is its real and imaginary parts, with no
    transpose.  The leading w - 2 sites form one or two groups, and each of
    the ``left`` powers R^{(x)g} takes its group of g sites by one real
    product on the left, on the view where the group is the second-to-last
    axis.  The last two sites take ``right`` = (R^{(x)2} (x) I_2)^T, 18 x 18,
    by one real product on the right of the (..., 18) view.  At 7 qutrits the
    groups are 3 and 2 sites, so no factor above 27 x 27 is applied.
    """
    blocks = len(grid)
    for _ in range(substeps):
        x, outer = grid.view(float), 1
        for factor in left:
            x = factor @ x.reshape(blocks, outer, len(factor), -1)
            outer *= len(factor)
        grid = (x.reshape(-1, len(right)) @ right).reshape(blocks, -1).view(complex)
        grid *= phase
    return grid


#: On blocks above ``_SMALL_BLOCK`` states, each split step's full phase
#: exp(-i tau s Hf) is the previous step's times the fixed ratio
#: exp(-i tau Hf / M), and every this many steps it is computed afresh by
#: ``np.exp``.  The rounded ratio's modulus differs from 1 by up to about
#: 1e-16, the same at every multiply, so without the refresh that error adds
#: up with M: fig2's norm then drifts 3.5e-10 at M = 2000, against 1.9e-12
#: with it.
_PHASE_REFRESH = 16


def _split_propagators(
    s: np.ndarray, hf: np.ndarray, tau: float, h: float, between: np.ndarray
) -> np.ndarray:
    """The split steps at the points ``s`` on framed blocks of d <= ``_SMALL_BLOCK`` states.

    A (len(s), C, d, d) stack: each step's phases exp(-i tau s Hf) times its
    rotations R(theta)^{(x)w}, a window by one ``np.exp`` and w - 1 batched
    ``_kron``s, raised to the k-th power by squaring, with the phase B
    between steps, ``between``, folded into every step after step 0.
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

    The window's rotation powers R(theta)^{(x)g} come first, one vectorized
    ``_site_rotation`` and a batched ``_kron`` per power.  Each step is then
    one ``_split_step`` call, after the phase B, ``between``, for every step
    after step 0.  Its full phase P = exp(-i tau s Hf) is the last step's
    times ``ratio`` = exp(-i tau Hf / M), computed afresh by ``np.exp`` at
    the window's first step and every ``_PHASE_REFRESH`` steps after it.
    """
    w = _qutrits(hf.shape[1])
    groups = (w - 2,) if w <= 5 else (w - 4, 2)
    powers = [None, _site_rotation(tau * (1.0 - s) * h)]
    while len(powers) <= max(groups + (2,)):
        powers.append(_kron(powers[1], powers[-1]))
    right = _kron(powers[2].swapaxes(1, 2), np.eye(2))
    for i, point in enumerate(s.tolist()):
        if i % _PHASE_REFRESH:
            phase *= ratio
        else:
            phase = np.exp(-1j * tau * point * hf)
        if point:
            grid *= between
        grid = _split_step(grid, [powers[g][i] for g in groups], right[i], phase, _SPLIT_SUBSTEPS)
    return grid


def anneal(cfg: AnnealConfig, hf: np.ndarray) -> np.ndarray:
    """The final amplitudes of the full schedule from the driver ground state.

    Applies one step per l = 0 .. M (M + 1 factors; the l = 0 factor only
    rephases the initial state).  ``hf`` is the final Hamiltonian as C block
    rows of 3**w entries; it is annealed as C copies of the w-qutrit initial
    state, one per block, and the register's amplitudes are the Kronecker
    product of the blocks in register order.  Rows that are not a finite 2-D
    array of length 3**w, w >= 1, are a ``ValueError``.

    A run of more than ``_MAX_STEPS`` steps is refused first, naming M.
    Each mode sets up once the run's two ends, its run-constant factors and
    its window size.  Exact-step checks the guard on ``_radii`` at s = 0 and
    s = 1, and a refusal names the end past it, h or Hf's width; it centres
    the rows before the loop and applies each block's phase after it.
    Split-step refuses a substep angle tau h or phase tau max|Hf| past the
    float range, naming which; it enters the frame before the loop and
    leaves it, with the closing half phase, after.  The one loop hands each
    window, of ``_PROPAGATORS`` entries for exact-step on small blocks and
    ``_STEP_WINDOW`` steps otherwise, to the mode's window body for the
    rows' width.
    """
    shape = np.shape(hf)
    w = _qutrits(shape[1]) if len(shape) == 2 and shape[0] and shape[1] > 1 else 0
    if not w or shape[1] != 3**w:
        raise ValueError(f"final Hamiltonian rows of shape {shape} are not (C, 3**w), C, w >= 1")
    if not np.isfinite(hf).all():
        raise ValueError("final Hamiltonian entries must be finite")
    h, dt, M, small = cfg.h, cfg.dt, cfg.M, shape[1] <= _SMALL_BLOCK
    if M > _MAX_STEPS:
        raise SizeGuardError(f"step count M = {M} is above the {_MAX_STEPS:,} guard; lower 'M'")
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
        window = max(1, _PROPAGATORS // (hf.size * shape[1])) if small else _STEP_WINDOW
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
        window = _STEP_WINDOW
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

    The partitions are held in rank order: descending probability, exact
    ties to the larger ``Partition.canonical`` tuple.  ``keys`` holds their
    int64 ``partition_keys``, ``probabilities`` their probabilities and
    ``labels`` one label row each, from the encoding's table; only the first,
    ``top_partition``, is built as a ``Partition``.  ``partition_probabilities``
    maps each partition of ``n_clusters`` labels to its probability, in rank
    order, and is built on first read.  ``partition_index`` gives, per basis
    state, the rank of its partition, or -1 for states whose blocks sit in
    states no cluster uses (possible under penalty encodings); those never
    contribute to the partitions' probabilities and are summed in
    ``invalid_probability``.
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
    label table; the rows the encoding marks invalid decode to none.  The
    partitions are grouped and ranked by their ``partition_keys`` in numpy,
    and only the top one becomes a ``Partition`` here.
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
