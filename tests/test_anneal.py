import functools
import importlib
import re

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import jv

from conftest import dense_driver, full_diagonal, ground_states, step
from qutrit_anneal.anneal import (
    MODE_EXACT,
    MODE_SPLIT,
    AnnealConfig,
    _frame,
    _site_rotation,
    anneal,
    decode,
    expm_multiply_hermitian,
    initial_state,
)
from qutrit_anneal.clustering import Partition, distance_matrix
from qutrit_anneal.errors import SizeGuardError
from qutrit_anneal.harness import generate_instance
from qutrit_anneal.hamiltonians import (
    METHOD_KMEANSPP,
    METHOD_ONEHOT_K2_PENALTY,
    METHOD_ONEHOT_K3,
    METHOD_ONEHOT_K3_PINNED,
    METHOD_ONEHOT_MULTISPIN,
    Encoding,
    EncodingScheme,
    block_state_index,
)
from qutrit_anneal.spin import spin_operator

# the package exports the function anneal under its module's name
anneal_module = importlib.import_module("qutrit_anneal.anneal")

SIX_POINTS = ((4, -2), (-7, 7), (6, -9), (-6, 8), (-2, -6), (-9, 5))


def random_diag(rng, n, scale=20.0):
    """A random final Hamiltonian on n coupled qutrits: one row of 3**n entries."""
    return rng.uniform(-scale, scale, (1, 3**n))


def n_qutrits(hf) -> int:
    """The register's qutrit count for final Hamiltonian rows of shape (C, 3**w)."""
    return len(hf) * round(np.log(hf.shape[1]) / np.log(3))


def counting(fn):
    """``fn`` wrapped to count its calls, and the list the calls append to."""
    calls = []

    def counted(*args):
        calls.append(1)
        return fn(*args)

    return counted, calls


def expand(matvec, v, x):
    """exp(-i (x / 2) H) v by the expansion, with the weights a run gives it."""
    return expm_multiply_hermitian(matvec, v, anneal_module._chebyshev_weights(float(x)))


def count_matvecs(monkeypatch) -> list:
    """A list that grows by one per matvec of every exact-step expansion.

    Wraps the module-global ``expm_multiply_hermitian`` that every exact step calls,
    and counts calls of the matvec it receives, as the benchmark's tracer does.
    """
    expm, calls = anneal_module.expm_multiply_hermitian, []

    def counted_expm(matvec, v, *args):
        def counted(x):
            calls.append(1)
            return matvec(x)

        return expm(counted, v, *args)

    monkeypatch.setattr(anneal_module, "expm_multiply_hermitian", counted_expm)
    return calls


def unit_vector(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


# ------------------------------------------------------------------- config


def test_config_defaults():
    cfg = AnnealConfig(h=2.0)
    assert cfg.M == 2000
    assert cfg.dt == 0.1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"h": 2.0, "M": 0},
        {"h": 2.0, "dt": 0.0},
        {"h": 0.0},
        {"h": 2.0, "mode": "magic"},
        {"h": float("inf"), "dt": float("inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        AnnealConfig(**kwargs)


@pytest.mark.parametrize("field", ["h", "dt"])
@pytest.mark.parametrize(
    "value", [float("inf"), float("nan"), pytest.param(10**400, id="huge-int")]
)
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        AnnealConfig(**{"h": 2.0, field: value})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"M": 2.5}, "step count M must be an integer, got 2.5"),
        ({"M": True}, "step count M must be an integer, got True"),
        ({"M": "100"}, "step count M must be an integer, got '100'"),
        ({"h": True}, "h must be a number, not a bool, got True"),
        ({"dt": True}, "dt must be a number, not a bool, got True"),
    ],
)
def test_config_rejects_mistyped_fields(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        AnnealConfig(**{"h": 2.0, **kwargs})


def test_config_accepts_numpy_integer_steps():
    assert AnnealConfig(h=2.0, M=np.int64(5)).M == 5


# ------------------------------------------------------------ initial state


def test_initial_state_single_site():
    psi = initial_state(1)
    np.testing.assert_allclose(
        psi, [0.5, -1.0 / np.sqrt(2.0), 0.5], atol=1e-15
    )


def test_initial_state_is_product_state():
    one = initial_state(1)
    two = initial_state(2)
    np.testing.assert_allclose(two, np.kron(one, one), atol=1e-15)
    assert np.linalg.norm(initial_state(2)) == pytest.approx(1.0, abs=1e-12)


def test_initial_state_is_driver_ground_state():
    # one state for every field h > 0
    n = 3
    psi = initial_state(n)
    for h in (0.1, 1.7, 8.0):
        energy = np.vdot(psi, dense_driver(n, h) @ psi).real
        assert energy == pytest.approx(-n * h, abs=1e-12)


def test_initial_state_rejects_an_empty_register():
    with pytest.raises(ValueError, match="at least one qutrit"):
        initial_state(0)


# ------------------------------------------------ H(s) mapped onto [-2, 2]


def dense_h(s, hf, h):
    """H(s) = (1 - s) h sum_i S_i^x + s Hf as a dense matrix, for small registers."""
    return np.diag(s * full_diagonal(hf)) + (1.0 - s) * dense_driver(n_qutrits(hf), h)


def spectral_bounds(s, hf, h):
    """[s min Hf - (1 - s) h n, s max Hf + (1 - s) h n], worked out here on its own."""
    spread = (1.0 - s) * h * n_qutrits(hf)
    return s * hf.min() - spread, s * hf.max() + spread


def expansion_args(s, hf, h, dt=0.1):
    """The matvec ``step`` hands the expansion, and the weights it passes with it."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            anneal_module,
            "expm_multiply_hermitian",
            lambda m, v, weights: seen.append((m, weights)) or v,
        )
        step(np.ones(hf.size, dtype=complex), s, hf, h, dt)
    (args,) = seen
    return args


def grid_planes(planes, rows):
    """(2, 3**w) real and imaginary planes of one block as a wide step's matvec takes them.

    The block is a grid of ``rows`` rows with each row's (re, im) planes
    beside the last axis: (1, rows, 2, 3**w / rows).
    """
    return np.stack(np.reshape(planes, (2, rows, -1)), axis=1)[None]


def flat_planes(grid):
    """The (2, 3**w) planes of one block's (1, rows, 2, cols) grid, ``grid_planes`` undone."""
    return grid[0].swapaxes(0, 1).reshape(2, -1)


def mapped_operator(s, hf, h, dt=0.1):
    """The dense operator ``step`` expands, and the weights it expands it with."""
    matvec, weights = expansion_args(s, hf, h, dt)
    # column k is the operator on e_k, in the real plane; the imaginary plane
    # is zero.  The matvec may return one buffer on every call
    rows = 3 ** (n_qutrits(hf) // 2)
    probes = np.zeros((hf.size, 2, hf.size))
    probes[np.arange(hf.size), 0, np.arange(hf.size)] = 1.0
    cols = np.array([flat_planes(matvec(grid_planes(p, rows)).copy()) for p in probes])
    assert not cols[:, 1].any()
    return cols[:, 0].T, weights


def test_endpoint_s1_is_diagonal():
    rng = np.random.default_rng(0)
    hf = random_diag(rng, 2)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    got = step(v, 1.0, hf, 3.0, 0.2)
    np.testing.assert_allclose(got, np.exp(-0.2j * hf[0]) * v, atol=1e-12)


def test_endpoint_s0_is_driver():
    rng = np.random.default_rng(1)
    hf = random_diag(rng, 2)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    got = step(v, 0.0, hf, 3.0, 0.2)
    np.testing.assert_allclose(got, expm(-0.2j * dense_driver(2, 3.0)) @ v, atol=1e-12)


def test_midpoint_linearity():
    rng = np.random.default_rng(2)
    hf = random_diag(rng, 2)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    expected = expm(-0.2j * (0.5 * np.diag(hf[0]) + 0.5 * dense_driver(2, 4.0))) @ v
    np.testing.assert_allclose(step(v, 0.5, hf, 4.0, 0.2), expected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bounds_contain_spectrum(n):
    # step expands an operator whose spectrum lies in [-2, 2], and reaches
    # both ends where one term of H(s) is alone
    rng = np.random.default_rng(20 + n)
    for s in [0.0, 1.0, *rng.uniform(0, 1, 3)]:
        hf = random_diag(rng, n, scale=30.0)
        lam = np.linalg.eigvalsh(mapped_operator(s, hf, rng.uniform(0.5, 8.0))[0])
        assert -2.0 - 1e-12 <= lam[0] and lam[-1] <= 2.0 + 1e-12
        if s in (0.0, 1.0):
            np.testing.assert_allclose(lam[[0, -1]], [-2.0, 2.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_is_diagonal_plus_scaled_driver(n, s):
    # undoing the map, c + (r / 2) H~, gives the diagonal plus the scaled driver
    rng = np.random.default_rng(40 + n)
    hf = random_diag(rng, n)
    h, dt = 2.5, 0.1
    mapped, weights = mapped_operator(s, hf, h, dt)
    lo, hi = spectral_bounds(s, hf, h)
    centre, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    # the step expands exp(-i (x / 2) H~) for x = dt r, and hands the
    # expansion the weights of that x
    (x,) = dt * anneal_module._radii(np.array([s]), hf, h)
    assert x == pytest.approx(radius * dt, rel=1e-15)
    np.testing.assert_array_equal(weights, anneal_module._chebyshev_weights(x))
    got = centre * np.eye(3**n) + 0.5 * radius * mapped
    expected = np.diag(s * hf[0]) + (1.0 - s) * h * dense_driver(n, 1.0)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.4, 1.0])
def test_step_maps_h_affinely_onto_minus_two_two(s):
    rng = np.random.default_rng(50)
    hf, h = random_diag(rng, 3), 2.5
    lo, hi = spectral_bounds(s, hf, h)
    centre, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    expected = (2.0 / radius) * (dense_h(s, hf, h) - centre * np.eye(27))
    matvec, _ = expansion_args(s, hf, h)
    # the two planes, beside the last axis of the block's grid of 3 rows,
    # are mapped each on its own, leaving the input as it was
    planes = rng.normal(size=(2, 27))
    grid = grid_planes(planes, 3)
    kept = grid.copy()
    got = flat_planes(matvec(grid))
    np.testing.assert_allclose(got, planes @ expected, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(grid, kept)


def test_steps_evolve_each_block_of_a_stack():
    # two commuting blocks: the Kronecker product of the evolved blocks is
    # the evolved register, for both steppers
    rng = np.random.default_rng(80)
    hf = rng.uniform(-20.0, 20.0, (2, 3))
    h, s, dt = 3.0, 0.4, 0.2
    stack = np.array([unit_vector(rng, 3), unit_vector(rng, 3)])
    register = np.kron(*stack)
    expected = expm(-1j * dt * dense_h(s, hf, h)) @ register
    np.testing.assert_allclose(np.kron(*step(stack, s, hf, h, dt)), expected, rtol=0, atol=1e-12)
    # split-step: a whole run of the stack against the same run of the
    # register, both as one matrix a step, over two windows of steps
    cfg = AnnealConfig(h=h, M=anneal_module._STEP_WINDOW + 1, dt=dt, mode=MODE_SPLIT)
    np.testing.assert_allclose(
        anneal(cfg, hf), anneal(cfg, full_diagonal(hf)[None]), rtol=0, atol=1e-13
    )


@pytest.mark.parametrize("blocks, w", [(1, 3), (3, 2), (6, 1)])
def test_a_constant_on_a_block_row_only_sets_that_blocks_phase(blocks, w):
    # rows of eighths and constants that add to them exactly: each row is
    # centred on its midpoint, so the shifted run expands the same operators
    # and the constants reach the amplitudes only as one phase per block
    rng = np.random.default_rng(90 + w)
    hf = rng.integers(-160, 160, (blocks, 3**w)) / 8.0
    offsets = np.array([64.0, -256.0, 1024.0, 8.0, -32.0, 512.0])[:blocks, None]
    cfg = AnnealConfig(h=3.0, M=200)
    want = np.abs(anneal(cfg, hf)) ** 2
    got = np.abs(anneal(cfg, hf + offsets)) ** 2
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


# -------------------------------------------------------- matrix exponential


def bessel_j(x):
    """J_0(x) .. J_d(x) for one real x, d its degree, from its ``_chebyshev_weights``.

    Weight k is J_k(x) times 1 at k = 0, and otherwise 2 and the sign +, +,
    -, - for k = 0 .. 3 mod 4, so the quotient is exact.
    """
    weights = anneal_module._chebyshev_weights(x)
    k = np.arange(weights.shape[1])
    return weights[k % 2, k] / np.where(k, 2.0, 1.0) / np.array([1.0, 1.0, -1.0, -1.0])[k % 4]


@pytest.mark.parametrize(
    "x", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 5.3, 37.5, 100.0, 500.0, -3.0]
)
def test_bessel_j_matches_scipy(x):
    # x <= 1e-6 fills the recurrence past 1e150 and takes the rescale path;
    # scipy's jv itself is off by up to 5e-15 at x = 500.  The degree is the
    # last k with 2 |J_k(x)| >= 1e-15
    j = bessel_j(x)
    ref = jv(np.arange(j.size + 1), x)
    np.testing.assert_allclose(j, ref[:-1], rtol=0, atol=2e-14)
    np.testing.assert_allclose(j[:3], ref[: min(3, j.size)], rtol=1e-13)
    assert 2.0 * abs(j[-1]) >= 1e-15 > 2.0 * abs(ref[-1])


def miller_reference(x):
    """J_0(x) .. J_N(x) by Miller's backward recurrence on x alone, a scalar loop."""
    top = int(abs(x) + 12.0 * abs(x) ** (1.0 / 3.0) + 30.0)
    vals = np.empty(top + 1)
    above, j = 0.0, 1.0
    for k in range(top, 0, -1):
        vals[k] = j
        above, j = j, k * (2.0 / x) * j - above
        if abs(j) > 1e150:
            vals[k:] /= 1e150
            above /= 1e150
            j /= 1e150
    vals[0] = j
    return vals / (j + 2.0 * vals[2::2].sum())


def numpy_tail_weights(x):
    """The weights of x as a numpy tail once made them from ``miller_reference``'s J_k.

    Degree 0 below 1e-15; otherwise the last k with |J_k| >= 5e-16 by
    ``flatnonzero`` of both one-sided masks, each J_k from k = 1 times 2
    and the sign +, +, -, - gathered by k mod 4, and the result scattered
    into zeros.
    """
    if not abs(x) >= 1e-15:
        return np.array([[1.0], [0.0]])
    table = miller_reference(x)
    degree = np.flatnonzero((table >= 5e-16) | (table <= -5e-16))[-1]
    coefs = table[: degree + 1]
    coefs[1:] *= 2.0 * np.array([1.0, 1.0, -1.0, -1.0])[np.arange(1, degree + 1) % 4]
    weights = np.zeros((2, degree + 1))
    weights[0, ::2], weights[1, 1::2] = coefs[::2], coefs[1::2]
    return weights


def test_chebyshev_weights_are_bitwise_those_of_the_numpy_tail():
    # every scale from below the tail to the guard, the presets' dt r, both
    # sides of the degree-0 cut at 1e-15, and each third of them negated
    rng = np.random.default_rng(30)
    cut = 1e-15
    args = np.concatenate(
        [
            np.geomspace(1e-20, 1e4, 1500),
            rng.uniform(0.0, 40.0, 1000),
            rng.uniform(40.0, 1e4, 40),
            cut * rng.uniform(0.5, 2.0, 300),
            np.nextafter(cut, [0.0, 1.0]),
            [0.0, cut, 1e4],
        ]
    )
    args = np.concatenate([args, -args[::3]])
    assert args.size >= 3000
    for x in args.tolist():
        weights, want = anneal_module._chebyshev_weights(x), numpy_tail_weights(x)
        # as integers, so that -0.0 and 0.0 differ
        np.testing.assert_array_equal(weights.view(np.int64), want.view(np.int64), err_msg=repr(x))


def test_chebyshev_weights_hold_the_scalar_recurrences_bessel_values():
    # the rescale path (1e-9), short and long tables and one just under the
    # guard: bitwise the J_k of Miller's recurrence on x alone, up to the
    # degree, each weight zero in the other row
    for x in (37.5, 1e-9, 0.3, 9999.99, 500.0, -3.0):
        weights, j = anneal_module._chebyshev_weights(x), bessel_j(x)
        np.testing.assert_array_equal(j, miller_reference(x)[: j.size])
        assert not weights[0, 1::2].any() and not weights[1, ::2].any()


@pytest.mark.parametrize("dt", [0.3, 5.0, -2.0])
def test_expm_multiply_matches_dense_on_minus_two_two(dt):
    # a random real symmetric operator whose spectrum spans [-2, 2]
    rng = np.random.default_rng(15)
    q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
    h = (q * np.r_[-2.0, 2.0, rng.uniform(-2.0, 2.0, 18)]) @ q.T
    h = 0.5 * (h + h.T)
    v = unit_vector(rng, 20)
    got = expand(lambda x: x @ h, v, 2.0 * dt)
    np.testing.assert_allclose(got, expm(-1j * dt * h) @ v, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_expm_multiply_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n = 2
    hf = random_diag(rng, n, scale=40.0)
    h = 6.0
    v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    v /= np.linalg.norm(v)
    expected = expm(-1j * 0.1 * dense_h(0.4, hf, h)) @ v
    got = step(v, 0.4, hf, h, 0.1)
    assert np.linalg.norm(got - expected) < 1e-9
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_expm_multiply_matches_dense_wide_spectrum():
    # preset-scale register and diagonal spread
    rng = np.random.default_rng(12)
    n = 5
    hf = random_diag(rng, n, scale=330.0)
    h = 8.0
    v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    v /= np.linalg.norm(v)
    expected = expm(-1j * 0.1 * dense_h(0.5, hf, h)) @ v
    got = step(v, 0.5, hf, h, 0.1)
    assert np.linalg.norm(got - expected) < 1e-9


@pytest.mark.parametrize("dt", [1.0, 10.0])
def test_expm_multiply_long_steps(dt):
    # dt * r reaches about 1,900 at dt = 10: a degree near 2,000
    rng = np.random.default_rng(13)
    n = 5
    hf = random_diag(rng, n, scale=330.0)
    h = 8.0
    v = unit_vector(rng, 3**n)
    got = step(v, 0.5, hf, h, dt)
    assert np.linalg.norm(got - expm(-1j * dt * dense_h(0.5, hf, h)) @ v) < 1e-9
    assert np.linalg.norm(step(got, 0.5, hf, h, -dt) - v) < 1e-9


def test_expm_multiply_dt_zero_is_identity():
    rng = np.random.default_rng(3)
    hf = random_diag(rng, 1)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    got = step(v, 0.5, hf, 1.0, 0.0)
    np.testing.assert_allclose(got, v, atol=1e-14)


def test_expm_multiply_eigenvector_phase():
    hf = np.array([[2.0, 0.5, -1.0]])
    h = 1.5
    lam, vecs = np.linalg.eigh(dense_h(0.6, hf, h))
    dt = 0.3
    for k in range(3):
        v = vecs[:, k].astype(complex)
        expected = np.exp(-1j * dt * lam[k]) * v
        got = step(v, 0.6, hf, h, dt)
        assert np.linalg.norm(got - expected) < 1e-12


def test_expm_multiply_single_qutrit_long_step():
    hf = np.array([[2.0, 0.5, -1.0]])
    h = 1.5
    v = np.array([1.0, 0.3 - 0.2j, -0.5])
    got = step(v, 0.6, hf, h, 2.0)
    np.testing.assert_allclose(got, expm(-2j * dense_h(0.6, hf, h)) @ v, rtol=0, atol=1e-12)


def test_expm_multiply_constant_hamiltonian_needs_no_matvec(monkeypatch):
    # zero-width bounds: H is the centre times the identity
    hf = np.full((1, 9), 1.5)
    calls = count_matvecs(monkeypatch)
    v = unit_vector(np.random.default_rng(8), 9)
    got = step(v, 1.0, hf, 1.0, 0.4)
    assert not calls
    np.testing.assert_allclose(got, np.exp(-0.6j) * v, rtol=0, atol=1e-15)


@pytest.mark.parametrize("rows", [3, 4, 8, 29, 10_000])
def test_expm_multiply_result_does_not_depend_on_block_size(monkeypatch, rows):
    # degree 86: T_0 .. T_86 fill 29 blocks of 3 rows or 3 of 29 exactly,
    # leave a partial last block with 4 or 8 rows, and fit one of 10,000
    rng = np.random.default_rng(14)
    hf = random_diag(rng, 3, scale=100.0)
    h = 8.0
    v = unit_vector(rng, 27)
    calls = count_matvecs(monkeypatch)
    monkeypatch.setattr(anneal_module, "_ROWS", rows)
    got = step(v, 0.5, hf, h, 0.8)
    assert len(calls) == 86
    expected = expm(-0.8j * dense_h(0.5, hf, h)) @ v
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_expm_multiply_runs_a_real_operand_on_its_own_array():
    # a real operand, a stack of matrices as the small-block path expands,
    # needs no imaginary plane: the same result as the operand + 0j, whose
    # matvec gets the (..., 2, 9) planes beside the last axis
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(9, 9)))
    h = (q * rng.uniform(-2.0, 2.0, 9)) @ q.T
    h = 0.5 * (h + h.T)
    v = rng.normal(size=(4, 9, 9))
    shapes = []

    def matvec(x):
        shapes.append(x.shape)
        return x @ h

    got = expand(matvec, v, 3.0)
    assert got.dtype == complex and set(shapes) == {v.shape}
    shapes.clear()
    np.testing.assert_array_equal(got, expand(matvec, v + 0j, 3.0))
    assert set(shapes) == {(4, 9, 2, 9)}
    np.testing.assert_allclose(got, v @ expm(-1.5j * h), rtol=0, atol=1e-13)


def test_small_block_matvec_never_gets_a_plane_axis(monkeypatch):
    # one window of 16 steps of three 9 x 9 blocks, as fig4's: the matvec takes the
    # identity stack's own (steps, C, d, d) shape at every term
    expm, shapes = anneal_module.expm_multiply_hermitian, []

    def recording(matvec, v, *args):
        return expm(lambda x: shapes.append(x.shape) or matvec(x), v, *args)

    monkeypatch.setattr(anneal_module, "expm_multiply_hermitian", recording)
    hf = np.random.default_rng(18).uniform(-20.0, 20.0, (3, 9))
    anneal(AnnealConfig(h=8.0, M=15, dt=0.1), hf)
    assert shapes and set(shapes) == {(16, 3, 9, 9)}


def test_expm_multiply_rejects_complex_hamiltonian():
    # Hermitian but not real: the real-arithmetic recurrence cannot apply it
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    with pytest.raises(TypeError, match="real symmetric"):
        expand(lambda x: x @ h.T, np.ones(2), 0.2)


# --------------------------------------------------------------------- step


def test_step_on_pure_diagonal_applies_exact_phases():
    rng = np.random.default_rng(4)
    hf = random_diag(rng, 2)
    h = 1.0
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    out = step(amps, 1.0, hf, h, dt=0.25)
    expected = np.exp(-1j * 0.25 * hf[0]) * amps
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_step_preserves_norm():
    rng = np.random.default_rng(5)
    hf = random_diag(rng, 3, scale=50.0)
    h = 8.0
    psi = initial_state(3)
    out = step(psi, 0.5, hf, h, dt=0.1)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_single_qutrit_step_matches_analytic_diagonalization():
    hf = np.array([[3.0, -1.0, 0.5]])
    h = 2.0
    psi = initial_state(1)
    s, dt = 0.7, 0.1
    lam, vecs = np.linalg.eigh(dense_h(s, hf, h))
    exact = vecs @ (np.exp(-1j * dt * lam) * (vecs.conj().T @ psi))
    got = step(psi, s, hf, h, dt)
    assert np.linalg.norm(got - exact) < 1e-9


@pytest.mark.parametrize("s", [0.0, 1e-3, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_step_matches_dense_expm(n, s):
    rng = np.random.default_rng(60 + n)
    hf = random_diag(rng, n, scale=60.0)
    h = 6.0
    v = unit_vector(rng, 3**n)
    got = step(v, s, hf, h, 0.1)
    np.testing.assert_allclose(got, expm(-0.1j * dense_h(s, hf, h)) @ v, rtol=0, atol=1e-12)


def test_step_at_the_register_cap_matches_site_gates_and_phases():
    # 7 qutrits: at s = 0 the step is the product of one 3 x 3 gate per
    # site, applied here axis by axis; at s = 1 it is one phase per state
    n, h, dt = 7, 8.0, 0.1
    rng = np.random.default_rng(80)
    hf = random_diag(rng, n, scale=300.0)
    v = unit_vector(rng, 3**n)
    gate = expm(-1j * dt * h * spin_operator("x"))
    expected = v.reshape((3,) * n)
    for axis in range(n):
        expected = np.moveaxis(np.tensordot(gate, expected, axes=(1, axis)), 0, axis)
    np.testing.assert_allclose(step(v, 0.0, hf, h, dt), expected.reshape(-1), rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        step(v, 1.0, hf, h, dt), np.exp(-1j * dt * hf[0]) * v, rtol=0, atol=1e-12
    )


def test_step_of_zero_width_hamiltonian_is_one_phase(monkeypatch):
    # a constant Hf at s = 1: H(s) is 1.5 times the identity
    hf = np.full((1, 9), 1.5)
    calls = count_matvecs(monkeypatch)
    v = unit_vector(np.random.default_rng(9), 9)
    got = step(v, 1.0, hf, 1.0, 0.4)
    assert not calls
    np.testing.assert_array_equal(got, np.exp(-1j * 0.4 * 1.5) * v)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.9, 1.0])
def test_step_makes_the_a_priori_degree_of_matvecs(monkeypatch, s):
    # the degree is the last k with 2 |J_k(dt r)| >= 1e-15, r the half-width
    # of [lo, hi]; that interval holds the spectrum, exactly so at s = 0, 1
    rng = np.random.default_rng(70)
    hf, h, dt = random_diag(rng, 3, scale=80.0), 5.0, 0.1
    lo, hi = spectral_bounds(s, hf, h)
    lam = np.linalg.eigvalsh(dense_h(s, hf, h))
    assert lo - 1e-12 <= lam[0] and lam[-1] <= hi + 1e-12
    if s in (0.0, 1.0):
        np.testing.assert_allclose([lo, hi], lam[[0, -1]], rtol=0, atol=1e-12)
    j = jv(np.arange(200), dt * 0.5 * (hi - lo))
    degree = np.flatnonzero(2.0 * np.abs(j) >= 1e-15)[-1]
    calls = count_matvecs(monkeypatch)
    step(initial_state(3), s, hf, h, dt)
    assert len(calls) == degree > 0


# ------------------------------------------------------------------- anneal


def test_anneal_single_step_unrolls():
    rng = np.random.default_rng(6)
    hf = random_diag(rng, 2)
    cfg = AnnealConfig(h=2.0, M=1, dt=0.05)
    h = 2.0
    expected = step(step(initial_state(2), 0.0, hf, h, 0.05), 1.0, hf, h, 0.05)
    got = anneal(cfg, hf)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_anneal_steps_are_bitwise_those_of_step():
    # anneal and step share one exact-step path
    rng = np.random.default_rng(16)
    hf = random_diag(rng, 4, scale=40.0)
    h = 3.0
    expected = step(step(initial_state(4), 0.0, hf, h, 0.1), 1.0, hf, h, 0.1)
    got = anneal(AnnealConfig(h=3.0, M=1, dt=0.1), hf)
    np.testing.assert_array_equal(got, expected)


def test_anneal_matches_dense_factor_product():
    # M + 1 factors, l = 0 .. M inclusive
    rng = np.random.default_rng(7)
    hf = random_diag(rng, 2)
    M, dt, h = 5, 0.07, 1.3
    psi = initial_state(2)
    for l in range(M + 1):
        H = dense_h(l / M, hf, h)
        psi = expm(-1j * dt * H) @ psi
    got = anneal(AnnealConfig(h=h, M=M, dt=dt), hf)
    assert np.linalg.norm(got - psi) < 1e-9


def test_anneal_with_zero_final_hamiltonian_keeps_ground_state():
    n, h = 2, 3.0
    hf = np.zeros((1, 3**n))
    got = anneal(AnnealConfig(h=h, M=100, dt=0.1), hf)
    psi0 = initial_state(n)
    fidelity = abs(np.vdot(psi0, got)) ** 2
    assert fidelity > 1.0 - 1e-9


def test_anneal_refuses_malformed_final_hamiltonian_rows():
    # rows must be one 2-D array of C >= 1 rows, each 3**w long for a w >= 1
    malformed = [np.zeros(shape) for shape in ((1, 8), (27,), (1, 3, 9), (0, 27), (1, 1))]
    for mode in (MODE_EXACT, MODE_SPLIT):
        cfg = AnnealConfig(h=1.0, M=1, mode=mode)
        for hf in malformed:
            message = f"rows of shape {hf.shape} are not (C, 3**w)"
            with pytest.raises(ValueError, match=re.escape(message)):
                anneal(cfg, hf)
        with pytest.raises(ValueError, match="entries must be finite"):
            anneal(cfg, np.array([[0.0, np.inf, 1.0]]))


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_SPLIT])
def test_anneal_refuses_more_steps_than_the_guard(monkeypatch, mode):
    # an M past the guard validates but would start that many steps: the run
    # is refused before any step, naming M, on small blocks and stepped rows.
    # At a guard lowered to 4, M = 4 runs
    guard = anneal_module._MAX_STEPS
    assert guard == 10**7
    rows = [np.array([[0.0, 1.0, 3.0]] * 2), np.array([np.linspace(-1.0, 1.0, 27)])]
    monkeypatch.setattr(anneal_module, "_MAX_STEPS", 4)
    for hf in rows:
        assert np.linalg.norm(anneal(AnnealConfig(h=2.0, M=4, mode=mode), hf)) > 0.99

    def refuse(*args):
        raise AssertionError("the run took a step")

    for name in ("_small_propagators", "_split_propagators", "_exact_anneal", "_split_steps"):
        monkeypatch.setattr(anneal_module, name, refuse)
    for hf in rows:
        for M, cap in ((5, 4), (guard + 1, guard), (2**63, guard)):
            monkeypatch.setattr(anneal_module, "_MAX_STEPS", cap)
            message = f"step count M = {M} is above the {cap:,} guard; lower 'M'"
            with pytest.raises(SizeGuardError, match=f"^{re.escape(message)}$"):
                anneal(AnnealConfig(h=2.0, M=M, mode=mode), hf)


def preset_matvecs(monkeypatch, name, per_step=False) -> int:
    """Matvecs of a preset's exact-step anneal at M = 100.

    The count guards the a-priori degree (tail 1e-15) and the spectral
    bounds: any change to where the expansion is truncated moves it.  With
    ``per_step`` the 101 steps go to ``_exact_anneal`` as one window, on
    rows centred as ``anneal`` centres them, one expansion a step, as
    ``anneal`` takes rows wider than 9 states.
    """
    from qutrit_anneal.harness import build_final_hamiltonian
    from qutrit_anneal.presets import get_preset

    spec = get_preset(name)
    hf, h, dt = build_final_hamiltonian(spec), spec.anneal.h, spec.anneal.dt
    calls = count_matvecs(monkeypatch)
    if per_step:
        centred = hf - 0.5 * (hf.max(axis=1) + hf.min(axis=1))[:, None]
        anneal_module._exact_anneal(np.arange(101) / 100, centred, h, dt, np.ones(hf.shape, complex))
    else:
        anneal(AnnealConfig(h=h, M=100, dt=dt), hf)
    return len(calls)


def test_fig1_matvec_count_is_pinned(monkeypatch):
    # one block: the bounds of the whole register
    assert preset_matvecs(monkeypatch, "fig1") == 3100


def test_fig3_matvec_count_is_pinned(monkeypatch):
    # six one-qutrit blocks, one expansion a step: each block's own centre,
    # and the largest of their half-widths sets the one degree
    assert preset_matvecs(monkeypatch, "fig3", per_step=True) == 1370


@pytest.mark.parametrize("name, matvecs", [("fig3", 2 * 14), ("fig4", 7 * 16)])
def test_small_block_matvec_counts_are_pinned(monkeypatch, name, matvecs):
    # blocks of at most 9 states: one expansion per window of propagators,
    # 2 windows of fig3's 6 x 3 x 3 stacks and 7 of fig4's 3 x 9 x 9, each
    # of the degree of the window's largest dt r
    assert preset_matvecs(monkeypatch, name) == matvecs


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_step_degree_is_the_scalar_degree_at_every_step(name):
    # each step's degree is the last k with 2 |J_k(dt r)| >= 1e-15, from the
    # scalar recurrence on that step's own bounds: per block, w qutrits
    from qutrit_anneal.harness import build_final_hamiltonian
    from qutrit_anneal.presets import get_preset

    spec = get_preset(name)
    hf, h, dt, M = build_final_hamiltonian(spec), spec.anneal.h, spec.anneal.dt, 2000
    w = round(np.log(hf.shape[1]) / np.log(3))
    expected = []
    for l in range(M + 1):
        s = l / M
        spread = (1.0 - s) * h * w
        r = max(0.5 * ((s * row.max() + spread) - (s * row.min() - spread)) for row in hf)
        expected.append(np.flatnonzero(np.abs(miller_reference(dt * r)) >= 5e-16)[-1])
    xs = dt * anneal_module._radii(np.arange(M + 1) / M, hf, h)
    degrees = [anneal_module._chebyshev_weights(x).shape[1] - 1 for x in xs.tolist()]
    assert degrees == expected


def test_zero_width_steps_make_no_matvec(monkeypatch):
    # Hf of zeros: every block has zero width at s = 1, where H(1) = 0, so
    # that step's degree is 0; every other step is the driver's.  Rows wider
    # than 9 states take one expansion a step; smaller ones one a window,
    # here of one step
    expm, per_step = anneal_module.expm_multiply_hermitian, []

    def counted_expm(matvec, v, *args):
        per_step.append(0)

        def counted(x):
            per_step[-1] += 1
            return matvec(x)

        return expm(counted, v, *args)

    monkeypatch.setattr(anneal_module, "expm_multiply_hermitian", counted_expm)
    for hf in (np.zeros((1, 27)), np.zeros((2, 27))):
        per_step.clear()
        anneal(AnnealConfig(h=2.0, M=4, dt=0.1), hf)
        assert len(per_step) == 5 and per_step[-1] == 0 and all(per_step[:-1])
    monkeypatch.setattr(anneal_module, "_PROPAGATORS", 1)
    for hf in (np.zeros((1, 9)), np.zeros((3, 3))):
        per_step.clear()
        anneal(AnnealConfig(h=2.0, M=4, dt=0.1), hf)
        assert len(per_step) == 5 and per_step[-1] == 0 and all(per_step[:-1])
    # a window that also holds a step of nonzero width makes matvecs for all its steps
    monkeypatch.setattr(anneal_module, "_PROPAGATORS", 3 * 9)
    per_step.clear()
    anneal(AnnealConfig(h=2.0, M=4, dt=0.1), np.zeros((1, 3)))
    assert len(per_step) == 2 and all(per_step)


@pytest.mark.parametrize("side", ["width", "driver", "blocks-width", "blocks-driver"])
def test_anneal_guard_is_dt_times_the_largest_half_width(monkeypatch, side):
    # the half-width r(s) peaks at s = 1 (half Hf's width) or at s = 0 (h w);
    # just under the guard every step runs (its expansion a stub here), just
    # over none does, and no Chebyshev weights are computed.
    # With two blocks it is the wider block's: block 1 spans 2 r and block 0
    # r / 2, while the whole register spans 2.5 r; and h w, not h n.  Rows of
    # 3 and 9 states take their 4 steps as one window, one expansion; rows of
    # 27 one expansion a step
    cap, dt = anneal_module._MAX_DT_RADIUS, 0.1
    steps = []
    monkeypatch.setattr(
        anneal_module, "expm_multiply_hermitian", lambda matvec, v, *args: steps.append(1) or v
    )
    weights, computed = counting(anneal_module._chebyshev_weights)
    monkeypatch.setattr(anneal_module, "_chebyshev_weights", weights)
    # split-step has no degree to bound
    monkeypatch.setattr(anneal_module, "_split_step", lambda amps, *args: amps)
    for w in (2 if side == "driver" else 1, 3):

        def row(*values):
            return np.pad(values, (0, 3**w - len(values)))

        for factor, refused in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
            r = factor * cap / dt
            if side == "width":
                hf, h = np.array([row(-r, 0.0, r)]), 1.0
            elif side == "driver":
                hf, h = np.zeros((1, 3**w)), r / w
            elif side == "blocks-width":
                hf, h = np.array([row(0.0, 0.5 * r, 0.0), row(-r, 0.0, r)]), 1.0
            else:
                hf, h = np.zeros((2, 3**w)), r / w
            steps.clear()
            computed.clear()
            cfg = AnnealConfig(h=h, M=3, dt=dt)
            if refused:
                # the refusal names the end that exceeds the guard
                if side.endswith("driver"):
                    advice = rf"driver h = \S+ on {w}-qutrit blocks, dt = 0.1\); lower 'h'$"
                else:
                    advice = r"widest block, dt = 0.1\); lower the 'penalty' or the points' spread$"
                with pytest.raises(SizeGuardError, match=advice) as refusal:
                    anneal(cfg, hf)
                assert "split-step" not in str(refusal.value)
                assert not steps and not computed
                anneal(AnnealConfig(h=h, M=3, dt=dt, mode=MODE_SPLIT), hf)
            else:
                anneal(cfg, hf)
                assert len(steps) == len(computed) == (4 if w == 3 else 1)


@pytest.mark.parametrize("M, half_width", [(10**6, 1.0), (5, 8e4)])
def test_anneal_runs_bounded_windows_of_steps(monkeypatch, M, half_width):
    # exact-step on rows wider than 9 states: _STEP_WINDOW steps a window,
    # whatever their degree; on rows of at most 9: each window's
    # propagators hold at most _PROPAGATORS entries, or one step.  Either
    # way whatever M, and the windows' points are the schedule's, bitwise,
    # in order
    h, dt = 0.5, 0.1
    wide = np.array([np.pad([-half_width, 0.0, half_width], (0, 24))])
    small = np.array([[-half_width, 0.0, half_width], [0.0, half_width, 0.0]])
    points = []

    def stub(s, centred, h, dt, amps):
        points.append(s)
        return amps

    monkeypatch.setattr(anneal_module, "_exact_anneal", stub)
    monkeypatch.setattr(anneal_module, "_small_propagators", lambda s, *args: points.append(s))
    monkeypatch.setattr(anneal_module, "_apply_in_turn", lambda ops, amps: amps)
    wide_window = anneal_module._STEP_WINDOW
    small_window = anneal_module._PROPAGATORS // small.size // 3
    for hf, window in ((wide, wide_window), (small, small_window)):
        points.clear()
        anneal(AnnealConfig(h=h, M=M, dt=dt), hf)
        assert max(len(s) for s in points) == min(window, M + 1)
        assert len(points) == -(-(M + 1) // window)
        np.testing.assert_array_equal(np.concatenate(points), np.arange(M + 1) / M)
        # a refused run computes no Chebyshev weights and steps no window
        counted, computed = counting(anneal_module._chebyshev_weights)
        monkeypatch.setattr(anneal_module, "_chebyshev_weights", counted)
        points.clear()
        with pytest.raises(SizeGuardError):
            anneal(AnnealConfig(h=h, M=M, dt=dt), 2e5 / dt * hf / half_width)
        assert not points and not computed
    assert wide_window == 32 and small_window == 227
    # split-step takes its steps in the same loop, _STEP_WINDOW a window on
    # rows of 27 states and of at most 9; a run whose tau h or tau max|Hf|
    # overflows is refused, and steps no window
    monkeypatch.setattr(anneal_module, "_split_steps", lambda s, *args: points.append(s) or args[-1])
    monkeypatch.setattr(anneal_module, "_split_propagators", lambda s, *args: points.append(s))
    for hf in (wide, small):
        points.clear()
        anneal(AnnealConfig(h=h, M=M, dt=dt, mode=MODE_SPLIT), hf)
        assert max(len(s) for s in points) == min(wide_window, M + 1)
        assert len(points) == -(-(M + 1) // wide_window)
        np.testing.assert_array_equal(np.concatenate(points), np.arange(M + 1) / M)
        points.clear()
        for h_huge, rows in ((1e300, hf), (h, 1e300 * hf / half_width)):
            with pytest.raises(SizeGuardError, match="split-step's substep"):
                anneal(AnnealConfig(h=h_huge, M=M, dt=1e10, mode=MODE_SPLIT), rows)
        assert not points


@pytest.mark.parametrize("blocks, w", [(2, 3), (1, 5)])
def test_wide_row_amplitudes_do_not_depend_on_the_step_window(monkeypatch, blocks, w):
    # exact-step on rows of 27 and 243 states maps and weights each step at
    # its own half-width, so the window only bounds memory: 71 steps at 1, 7
    # and _STEP_WINDOW steps a window, the last window partial, give bitwise
    # the same amplitudes
    hf = np.random.default_rng(110 + w).uniform(-20.0, 20.0, (blocks, 3**w))
    cfg = AnnealConfig(h=3.0, M=70, dt=0.1)
    assert (cfg.M + 1) % anneal_module._STEP_WINDOW
    want = anneal(cfg, hf)
    for window in (1, 7):
        monkeypatch.setattr(anneal_module, "_STEP_WINDOW", window)
        np.testing.assert_array_equal(anneal(cfg, hf), want)


def dense_expm_run(hf, cfg):
    """The exact-step schedule on (C, 3**w) block rows by one dense scipy ``expm`` per step."""
    blocks, d = hf.shape
    w = round(np.log(d) / np.log(3))
    driver, psi = dense_driver(w, cfg.h), np.array([initial_state(w)] * blocks)
    for l in range(cfg.M + 1):
        s = l / cfg.M
        gates = expm(-1j * cfg.dt * (s * hf[:, :, None] * np.eye(d) + (1.0 - s) * driver))
        psi = np.einsum("bij,bj->bi", gates, psi)
    return functools.reduce(np.kron, psi)


@pytest.mark.parametrize("blocks, w, M", [(4, 1, 358), (3, 2, 52)])
def test_small_block_windows_match_a_dense_expm_stepper(monkeypatch, blocks, w, M):
    # seeded rows with large constants, over 4 windows of propagators, the
    # last one partial (113 and 16 steps a window): the register's
    # amplitudes, phases included, against one dense expm per step and
    # block.  Measured: 1.4e-13 and 1.4e-14
    rng = np.random.default_rng(300 + w)
    hf = rng.uniform(-20.0, 20.0, (blocks, 3**w)) + rng.uniform(-50.0, 50.0, (blocks, 1))
    cfg = AnnealConfig(h=rng.uniform(2.0, 8.0), M=M, dt=0.1)
    window = anneal_module._PROPAGATORS // hf.size // 3**w
    assert -(-(M + 1) // window) == 4 and (M + 1) % window
    got = anneal(cfg, hf)
    np.testing.assert_allclose(got, dense_expm_run(hf, cfg), rtol=0, atol=5e-13)
    # one step a window expands each step at its own half-width: the same
    # steps, to rounding (measured 1.7e-14 and 7.2e-15)
    monkeypatch.setattr(anneal_module, "_PROPAGATORS", 1)
    np.testing.assert_allclose(anneal(cfg, hf), got, rtol=0, atol=1e-13)


def expm_multiply_run(hf, cfg):
    """The exact-step schedule on (C, 3**w) block rows by one scipy ``expm_multiply`` per step and block."""
    blocks, d = hf.shape
    w = round(np.log(d) / np.log(3))
    sx, eye = spin_operator("x"), sparse.identity
    driver = sum(sparse.kron(sparse.kron(eye(3**i), sx), eye(3 ** (w - i - 1))) for i in range(w))
    psi = np.array([initial_state(w)] * blocks)
    for l in range(cfg.M + 1):
        s = l / cfg.M
        for b in range(blocks):
            ham = sparse.diags(s * hf[b]) + (1.0 - s) * cfg.h * driver
            psi[b] = expm_multiply(-1j * cfg.dt * ham.tocsr(), psi[b])
    return functools.reduce(np.kron, psi)


@pytest.mark.parametrize(
    "method, K, n, seed, options, M, reference, atol",
    [
        pytest.param(
            METHOD_ONEHOT_K3, 3, 5, 55, {}, 30, dense_expm_run, 5e-14,
            id="one-hot-K3-one-243-state-block",
        ),
        pytest.param(
            METHOD_ONEHOT_MULTISPIN, 4, 2, 52, {}, 30, dense_expm_run, 5e-14,
            id="multispin-K4-one-81-state-block",
        ),
        pytest.param(
            METHOD_ONEHOT_MULTISPIN, 4, 3, 53, {}, 20, expm_multiply_run, 1e-13,
            id="multispin-K4-one-729-state-block",
        ),
        pytest.param(
            METHOD_KMEANSPP, 10, 12, 62, {"centroids": range(10)}, 30, dense_expm_run, 5e-14,
            id="kmeanspp-K10-two-27-state-blocks",
        ),
        pytest.param(
            METHOD_ONEHOT_K2_PENALTY, 2, 7, 67, {"pinned": True}, 20, expm_multiply_run, 1e-13,
            id="K2-penalty-pinned-one-729-state-block",
        ),
        pytest.param(
            METHOD_ONEHOT_K3, 3, 7, 67, {}, 20, expm_multiply_run, 1e-13,
            id="one-hot-K3-one-2187-state-block",
        ),
        pytest.param(
            METHOD_ONEHOT_K3, 3, 6, 56, {}, 20, expm_multiply_run, 1e-13,
            id="one-hot-K3-one-729-state-block",
        ),
        pytest.param(
            METHOD_ONEHOT_MULTISPIN, 4, 3, 63, {}, 20, expm_multiply_run, 1e-13,
            id="multispin-K4-one-729-state-block-seed-63",
        ),
        pytest.param(
            METHOD_KMEANSPP, 10, 12, 72, {"centroids": range(2, 12)}, 30, dense_expm_run, 5e-14,
            id="kmeanspp-K10-two-27-state-blocks-seed-72",
        ),
        pytest.param(
            METHOD_ONEHOT_K2_PENALTY, 2, 8, 78, {"pinned": True}, 20, expm_multiply_run, 1e-13,
            id="K2-penalty-pinned-one-2187-state-block",
        ),
        pytest.param(
            METHOD_ONEHOT_K3_PINNED, 3, 8, 68, {}, 20, expm_multiply_run, 1e-13,
            id="one-hot-K3-pinned-one-2187-state-block",
        ),
    ],
)
def test_wide_rows_match_a_dense_expm_stepper(method, K, n, seed, options, M, reference, atol):
    # rows above 9 states, whole schedule: the register's amplitudes, each
    # block's phase included, against one dense expm per step and block, or
    # on 6- and 7-qutrit blocks one sparse expm_multiply.  Two seeds of each
    # method that has wide rows, and one of one-hot-K3-pinned.  Measured:
    # 3.3e-15, 1.2e-15, 4.4e-15, 1.1e-14, 3.6e-14, 9.3e-15, 1.6e-14,
    # 3.8e-15, 1.3e-14, 3.6e-14 and 2.0e-14
    points = generate_instance(n, seed=seed)
    encoding = Encoding(EncodingScheme(method=method, K=K), n, **options)
    hf = encoding.hamiltonian(distance_matrix(points))
    assert hf.shape[1] > anneal_module._SMALL_BLOCK and (len(hf) > 1) == ("centroids" in options)
    cfg = AnnealConfig(h=8.0, M=M, dt=0.1)
    np.testing.assert_allclose(anneal(cfg, hf), reference(hf, cfg), rtol=0, atol=atol)


def test_split_mode_tracks_exact_mode():
    dm = distance_matrix([(0, 0), (8, 1), (7, 0)])
    encoding = Encoding(EncodingScheme(method=METHOD_ONEHOT_K3, K=3), 3)
    hf = encoding.hamiltonian(dm)
    exact = anneal(AnnealConfig(h=2.0, M=400, dt=0.1), hf)
    split = anneal(AnnealConfig(h=2.0, M=400, dt=0.1, mode=MODE_SPLIT), hf)
    rep_e = decode(exact, encoding)
    rep_s = decode(split, encoding)
    assert rep_s.top_partition == rep_e.top_partition
    np.testing.assert_allclose(
        rep_s.basis_probabilities, rep_e.basis_probabilities, atol=1e-3
    )


@pytest.mark.parametrize("theta", [-7.0, -2.5, -0.3, 0.0, 1e-9, 0.01, 1.0, 3.0, 7.5])
def test_site_rotation_is_the_real_driver_gate_in_the_frame(theta):
    rot = _site_rotation(theta)
    assert rot.dtype == np.float64
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), rtol=0, atol=1e-15)
    frame = np.diag([1.0, 1j, -1.0])
    np.testing.assert_allclose(
        frame @ rot @ frame.conj().T,
        expm(-1j * theta * spin_operator("x")),
        rtol=0,
        atol=1e-14,
    )
    # the register frame is the site frame's Kronecker power
    register = np.ones(1)
    for n in range(1, 5):
        register = np.kron(register, np.diag(frame))
        np.testing.assert_array_equal(_frame(n), register)


def strang_reference(hf, cfg, substeps):
    """A whole split-step run on the register, one dense 3 x 3 gate per site.

    Each of a step's substeps is a half phase of the register's diagonal,
    exp(-i tau (1 - s) h S^x) on every site by tensordot and moveaxis, and
    another half phase, from the register's initial state.
    """
    diag, n = full_diagonal(hf), n_qutrits(hf)
    tau = cfg.dt / substeps
    amps = initial_state(n)
    for l in range(cfg.M + 1):
        s = l / cfg.M
        half = np.exp(-0.5j * tau * s * diag)
        gate = expm(-1j * tau * (1.0 - s) * cfg.h * spin_operator("x"))
        for _ in range(substeps):
            psi = (half * amps).reshape((3,) * n)
            for axis in range(n):
                psi = np.moveaxis(np.tensordot(gate, psi, axes=(1, axis)), 0, axis)
            amps = half * psi.reshape(-1)
    return amps


#: (blocks, qutrits per block, substeps, steps M).  One and two qutrits take
#: each step as one matrix, three or more step the state; the default count
#: on one block keeps the plain register size as its id.  Two blocks of
#: three qutrits step C > 1 blocks, and M = 70 spans three windows of steps.
SPLIT_CASES = (
    [
        pytest.param(1, n, k, 40, id=str(n) if k == 8 else f"{n}-substeps{k}")
        for k in (8, 1, 2, 3)
        for n in range(1, 8)
    ]
    + [
        pytest.param(c, w, 8, 40, id=f"{c}-blocks-of-{w}")
        for c, w in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3))
    ]
    + [pytest.param(c, w, 8, 70, id=f"{c}-blocks-of-{w}-M70") for c, w in ((2, 2), (2, 3))]
)


@pytest.mark.parametrize("blocks, w, substeps, M", SPLIT_CASES)
def test_split_step_matches_per_axis_product(blocks, w, substeps, M, monkeypatch):
    # M passes _PHASE_REFRESH, so where the state is stepped, steps that
    # compute the full phase afresh and steps that carry it both run
    monkeypatch.setattr(anneal_module, "_SPLIT_SUBSTEPS", substeps)
    rng = np.random.default_rng(10 * blocks + w)
    hf = rng.uniform(-20.0, 20.0, (blocks, 3**w))
    cfg = AnnealConfig(h=3.0, M=M, dt=0.1, mode=MODE_SPLIT)
    assert cfg.M > anneal_module._PHASE_REFRESH
    assert (cfg.M + 1 > 2 * anneal_module._STEP_WINDOW) == (M == 70)
    expected = strang_reference(hf, cfg, substeps)
    np.testing.assert_allclose(anneal(cfg, hf), expected, rtol=0, atol=1e-13)


def test_seven_qutrit_split_step_builds_no_power_above_27(monkeypatch):
    # every step of a 7-qutrit run gets rotation factors that cover its 7
    # sites, the last two with the real and imaginary parts, and none of
    # them is above 27 x 27: never the 81 x 81 gate^{(x)4}
    split_step, sides = anneal_module._split_step, []

    def recording(grid, left, right, *args):
        sides.append([f.shape for f in left] + [right.shape])
        return split_step(grid, left, right, *args)

    monkeypatch.setattr(anneal_module, "_split_step", recording)
    rng = np.random.default_rng(7)
    anneal(AnnealConfig(h=2.0, M=10, mode=MODE_SPLIT), random_diag(rng, 7))
    assert len(sides) == 11
    for shapes in sides:
        assert all(rows == cols <= 27 for rows, cols in shapes)
        assert np.prod([rows for rows, _ in shapes]) == 2 * 3**7


def test_split_phases_track_np_exp_at_every_step(monkeypatch):
    # each step's full phase, carried from the last one by one multiply,
    # against np.exp at that step's s, over a long run of stepped blocks.
    # The rows reach |Hf| = 1e5, the half-width the exact-step guard allows
    # at dt = 0.1; np.exp's own rounding of tau s Hf passes 1e-12 near 2e5
    M, dt = 2000, 0.1
    tau = dt / anneal_module._SPLIT_SUBSTEPS
    hf = np.linspace(-1e5, 1e5, 2 * 27).reshape(2, 27)
    errors = []

    def check(grid, left, right, phase, *args):
        want = np.exp(-1j * tau * (len(errors) / M) * hf)
        errors.append(np.abs(phase - want).max())
        return grid

    monkeypatch.setattr(anneal_module, "_split_step", check)
    anneal(AnnealConfig(h=1.0, M=M, dt=dt, mode=MODE_SPLIT), hf)
    assert len(errors) == M + 1
    assert max(errors) <= 1e-12


@pytest.mark.parametrize(
    "name, bound",
    [
        pytest.param(name, bound, id=name)
        for name, bound in (("fig1", 1e-10), ("fig2", 1e-10), ("fig3", 1e-12), ("fig4", 1e-12))
    ],
)
def test_split_norm_drift_on_presets(name, bound, preset_result):
    # fig1 and fig2 step one block, whose carried phases keep their modulus
    # only because they are refreshed; fig3 and fig4 multiply one matrix a
    # step on one- and two-qutrit blocks, with every phase from np.exp
    assert abs(preset_result(name, MODE_SPLIT).final_norm - 1.0) < bound


@pytest.mark.parametrize(
    "shape, stepped",
    [
        pytest.param((1, 9), False, id="9-states"),
        pytest.param((3, 3), False, id="3-blocks-of-3-states"),
        pytest.param((1, 27), True, id="27-states"),
    ],
)
def test_split_run_calls_the_split_step_seam_once_per_step(shape, stepped, monkeypatch):
    # perfbench's tracer times split-step by wrapping the module global
    # _split_step, so anneal must call it by that name at every step where
    # it steps the state; blocks of at most 9 states are one matrix a step
    hf = np.random.default_rng(9).uniform(-20.0, 20.0, shape)
    split_step, calls = counting(anneal_module._split_step)
    monkeypatch.setattr(anneal_module, "_split_step", split_step)
    anneal(AnnealConfig(h=2.0, M=7, mode=MODE_SPLIT), hf)
    assert len(calls) == (8 if stepped else 0)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_split_mode_agrees_with_exact_on_presets(name, preset_result):
    exact = preset_result(name)
    split = preset_result(name, MODE_SPLIT)
    assert split.top_partition == exact.top_partition
    np.testing.assert_allclose(
        split.report.basis_probabilities,
        exact.report.basis_probabilities,
        atol=1e-3,
    )


#: kmeanspp shapes (K, free points): one-qutrit blocks at K = 3, two-qutrit at K = 4
BLOCK_SHAPES = [(3, 5), (3, 6), (3, 7), (4, 2), (4, 3)]


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_SPLIT])
@pytest.mark.parametrize("K, free", BLOCK_SHAPES)
def test_block_anneal_matches_the_one_register_anneal(K, free, mode):
    # the same diagonal as one row of 3**n entries runs the whole register
    points = generate_instance(K + free, seed=3000 + 10 * K + free)
    encoding = Encoding(EncodingScheme(method=METHOD_KMEANSPP, K=K), K + free, centroids=range(K))
    hf = encoding.hamiltonian(distance_matrix(points))
    assert len(hf) == free
    cfg = AnnealConfig(h=8.0, M=200, dt=0.1, mode=mode)
    blocks = anneal(cfg, hf)
    register = anneal(cfg, full_diagonal(hf)[None])
    assert blocks.shape == register.shape == (3 ** n_qutrits(hf),)
    np.testing.assert_allclose(np.abs(blocks) ** 2, np.abs(register) ** 2, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(blocks) - 1.0) < 1e-9


# ------------------------------------------------------------------- decode


def test_decode_pure_basis_state_pinned():
    state_ms = (1, 1, 0, 0, -1)
    amps = np.zeros(3**5)
    amps[block_state_index(state_ms)] = 1.0
    encoding = Encoding(EncodingScheme(method=METHOD_ONEHOT_K3_PINNED, K=3), 6)
    rep = decode(amps, encoding)
    assert rep.top_probability == pytest.approx(1.0, abs=0)
    assert rep.top_partition == Partition([0, 0, 0, 1, 1, 2], 3)
    assert rep.invalid_probability == 0.0


def test_decode_merges_degenerate_argmin_states():
    dm = distance_matrix(SIX_POINTS)
    encoding = Encoding(EncodingScheme(method=METHOD_ONEHOT_K3_PINNED, K=3), 6)
    h = encoding.hamiltonian(dm)
    ground = ground_states(h)
    assert len(ground) == 2
    amps = np.zeros(h.size, dtype=complex)
    amps[ground] = 1.0 / np.sqrt(2.0)
    rep = decode(amps, encoding)
    # the two degenerate states decode to the same set partition
    assert rep.top_probability == pytest.approx(1.0, abs=1e-12)
    nonzero = [p for p, prob in rep.partition_probabilities.items() if prob > 0.0]
    assert nonzero == [rep.top_partition]


def test_decode_kmeanspp_assigns_blocks_to_matching_centroids():
    scheme = EncodingScheme(method=METHOD_KMEANSPP, K=3)
    amps = np.zeros(27)
    amps[block_state_index((1, 0, -1))] = 1.0
    rep = decode(amps, Encoding(scheme, 6, centroids=(0, 1, 2)))
    # free points 3, 4, 5 follow their matching centroids 0, 1, 2
    assert rep.top_partition == Partition([0, 1, 2, 0, 1, 2], 3)


def test_decode_routes_forbidden_blocks_to_invalid_bucket():
    scheme = EncodingScheme(method=METHOD_ONEHOT_MULTISPIN, K=4)
    amps = np.zeros(81, dtype=complex)
    amps[block_state_index((1, 1, 0, 0))] = 1.0 / np.sqrt(2.0)  # block 2 forbidden
    amps[block_state_index((1, 1, 0, 1))] = 1.0 / np.sqrt(2.0)  # both allowed
    rep = decode(amps, Encoding(scheme, 2))
    assert rep.invalid_probability == pytest.approx(0.5, abs=1e-12)
    assert rep.top_partition == Partition([0, 3], 4)
    total = sum(rep.partition_probabilities.values()) + rep.invalid_probability
    assert total == pytest.approx(1.0, abs=1e-9)


def test_decode_k2_penalty_marks_minus_one_invalid():
    scheme = EncodingScheme(method=METHOD_ONEHOT_K2_PENALTY, K=2)
    amps = np.zeros(9, dtype=complex)
    amps[block_state_index((1, -1))] = 1.0
    rep = decode(amps, Encoding(scheme, 2, pinned=False))
    assert rep.invalid_probability == pytest.approx(1.0, abs=0)
    assert rep.top_probability == 0.0 or rep.top_partition is not None


def _reference_decode(amps, encoding):
    """Partition probabilities as a running sum over the valid basis states,
    ranked by descending probability, exact ties to the larger canonical labels."""
    probs = np.abs(amps) ** 2
    out = {}
    for idx in np.flatnonzero(~encoding.invalid):
        part = Partition(encoding.labels[idx], encoding.K)
        out[part] = out.get(part, 0.0) + float(probs[idx])
    return dict(sorted(out.items(), key=lambda kv: (kv[1], kv[0].canonical), reverse=True))


#: (encoding, register qutrits): every encoding
DECODE_CASES = [
    (Encoding(EncodingScheme(method=METHOD_ONEHOT_K3, K=3), 6), 6),
    (Encoding(EncodingScheme(method=METHOD_ONEHOT_K3_PINNED, K=3), 8), 7),
    (Encoding(EncodingScheme(method=METHOD_ONEHOT_K2_PENALTY, K=2), 7, pinned=True), 6),
    (Encoding(EncodingScheme(method=METHOD_ONEHOT_K2_PENALTY, K=2), 7, pinned=False), 7),
    (Encoding(EncodingScheme(method=METHOD_ONEHOT_MULTISPIN, K=5), 3), 6),
    (Encoding(EncodingScheme(method=METHOD_KMEANSPP, K=3), 10, centroids=(2, 0, 5)), 7),
    (Encoding(EncodingScheme(method=METHOD_KMEANSPP, K=4), 6, centroids=(3, 1, 0, 5)), 4),
]


@pytest.mark.parametrize("case", range(len(DECODE_CASES)))
def test_decode_matches_per_state_loop(case):
    encoding, n = DECODE_CASES[case]
    assert encoding.n_qutrits == n
    rng = np.random.default_rng(case)
    amps = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    amps[rng.random(3**n) < 0.3] = 0.0
    amps /= np.linalg.norm(amps)
    rep = decode(amps, encoding)
    expected = _reference_decode(amps, encoding)
    got = list(rep.partition_probabilities.items())
    # same partitions, labels, rank order and bitwise-equal sums
    assert [(p.labels, v) for p, v in got] == [(p.labels, v) for p, v in expected.items()]
    assert (rep.top_partition, rep.top_probability) == got[0]
    labels, invalid = encoding.labels, encoding.invalid
    assert (rep.partition_index == -1).tolist() == invalid.tolist()
    parts = [p for p, _ in got]
    for idx in np.flatnonzero(~invalid):
        assert parts[rep.partition_index[idx]] == Partition(labels[idx], encoding.K)


def test_decode_argument_validation():
    scheme_k2 = EncodingScheme(method=METHOD_ONEHOT_K2_PENALTY, K=2)
    with pytest.raises(ValueError, match="1-qutrit register"):
        decode(initial_state(2), Encoding(scheme_k2, 2, pinned=True))
    with pytest.raises(ValueError, match="shape"):
        decode(initial_state(2).reshape(3, 3), Encoding(scheme_k2, 3, pinned=True))
    scheme_kpp = EncodingScheme(method=METHOD_KMEANSPP, K=3)
    with pytest.raises(ValueError):
        Encoding(scheme_kpp, 6)  # centroid indices required
    with pytest.raises(ValueError):
        Encoding(scheme_kpp, 6, centroids=(0, 1))
    scheme_k3 = EncodingScheme(method=METHOD_ONEHOT_K3, K=3)
    with pytest.raises(ValueError):
        Encoding(scheme_k3, 3, pinned=True)
    with pytest.raises(ValueError):
        Encoding(scheme_k3, 3, centroids=(0, 1, 2))


def test_decode_basis_probabilities_normalized():
    rng = np.random.default_rng(8)
    hf = random_diag(rng, 2)
    state = anneal(AnnealConfig(h=2.0, M=50), hf)
    rep = decode(state, Encoding(EncodingScheme(method=METHOD_ONEHOT_K3, K=3), 2))
    assert rep.basis_probabilities.sum() == pytest.approx(1.0, abs=1e-9)


def test_partition_probabilities_invariant_under_projection_reversal():
    # global m -> -m relabeling commutes with the driver, so running the
    # relabeled Hamiltonian and decoding with the relabeled centroid states
    # must give identical partition probabilities
    pts = ((8, -1), (-2, -6), (1, 6), (4, -4))
    dm = distance_matrix(pts)
    centroids = (0, 1)
    scheme_a = EncodingScheme(method=METHOD_KMEANSPP, K=2, centroid_states=((1,), (0,)))
    scheme_b = EncodingScheme(method=METHOD_KMEANSPP, K=2, centroid_states=((-1,), (0,)))
    cfg = AnnealConfig(h=8.0, M=150, dt=0.1)
    reps = []
    for scheme in (scheme_a, scheme_b):
        # the penalty defaults to twice the largest distance
        encoding = Encoding(scheme, 4, centroids=centroids)
        state = anneal(cfg, encoding.hamiltonian(dm))
        reps.append(decode(state, encoding))
    probs_a = reps[0].partition_probabilities
    probs_b = reps[1].partition_probabilities
    assert set(probs_a) == set(probs_b)
    for part, pa in probs_a.items():
        assert probs_b[part] == pytest.approx(pa, abs=1e-9)
    assert reps[0].invalid_probability == pytest.approx(
        reps[1].invalid_probability, abs=1e-9
    )
