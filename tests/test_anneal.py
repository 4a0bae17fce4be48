import importlib
import re

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import jv

from conftest import ground_states
from qutrit_anneal.anneal import (
    MODE_SPLIT,
    AnnealConfig,
    InstantaneousHamiltonian,
    _bessel_j,
    _split_step,
    StateVector,
    anneal,
    decode,
    expm_multiply_hermitian,
    initial_state,
    step,
)
from qutrit_anneal.clustering import Partition, distance_matrix
from qutrit_anneal.hamiltonians import (
    METHOD_KMEANSPP,
    METHOD_ONEHOT_K2_PENALTY,
    METHOD_ONEHOT_K3,
    METHOD_ONEHOT_K3_PINNED,
    METHOD_ONEHOT_MULTISPIN,
    DiagonalHamiltonian,
    DriverHamiltonian,
    Encoding,
    EncodingScheme,
    block_state_index,
)
from qutrit_anneal.spin import spin_operator

# the package exports the function anneal under its module's name
anneal_module = importlib.import_module("qutrit_anneal.anneal")

SIX_POINTS = ((4, -2), (-7, 7), (6, -9), (-6, 8), (-2, -6), (-9, 5))


def random_diag(rng, n, scale=20.0):
    return DiagonalHamiltonian(n, rng.uniform(-scale, scale, 3**n))


def counting(fn):
    """``fn`` wrapped to count its calls, and the list the calls append to."""
    calls = []

    def counted(*args):
        calls.append(1)
        return fn(*args)

    return counted, calls


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
    psi = initial_state(1, 2.0)
    np.testing.assert_allclose(
        psi.amplitudes, [0.5, -1.0 / np.sqrt(2.0), 0.5], atol=1e-15
    )


def test_initial_state_is_product_state():
    one = initial_state(1, 1.0).amplitudes
    two = initial_state(2, 1.0).amplitudes
    np.testing.assert_allclose(two, np.kron(one, one), atol=1e-15)
    assert initial_state(2, 1.0).norm() == pytest.approx(1.0, abs=1e-12)


def test_initial_state_is_driver_ground_state():
    n, h = 3, 1.7
    drv = DriverHamiltonian(n, h)
    psi = initial_state(n, h).amplitudes
    energy = np.vdot(psi, drv.dense() @ psi).real
    assert energy == pytest.approx(-n * h, abs=1e-12)


def test_initial_state_rejects_bad_field():
    with pytest.raises(ValueError):
        initial_state(2, 0.0)


# ------------------------------------------------- instantaneous Hamiltonian


def test_endpoint_s1_is_diagonal():
    rng = np.random.default_rng(0)
    hf = random_diag(rng, 2)
    op = InstantaneousHamiltonian(1.0, hf, DriverHamiltonian(2, 3.0))
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    np.testing.assert_allclose(op.matvec(v), hf.diag * v, atol=1e-14)


def test_endpoint_s0_is_driver():
    rng = np.random.default_rng(1)
    hf = random_diag(rng, 2)
    drv = DriverHamiltonian(2, 3.0)
    op = InstantaneousHamiltonian(0.0, hf, drv)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    np.testing.assert_allclose(op.matvec(v), drv.dense() @ v, atol=1e-14)


def test_midpoint_linearity():
    rng = np.random.default_rng(2)
    hf = random_diag(rng, 2)
    drv = DriverHamiltonian(2, 4.0)
    op = InstantaneousHamiltonian(0.5, hf, drv)
    v = rng.normal(size=9) + 1j * rng.normal(size=9)
    expected = 0.5 * hf.diag * v + 0.5 * drv.dense() @ v
    np.testing.assert_allclose(op.matvec(v), expected, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bounds_contain_spectrum(n):
    rng = np.random.default_rng(20 + n)
    for s in [0.0, 1.0, *rng.uniform(0, 1, 3)]:
        op = InstantaneousHamiltonian(
            s, random_diag(rng, n, scale=30.0), DriverHamiltonian(n, rng.uniform(0.5, 8.0))
        )
        lam = np.linalg.eigvalsh(op.dense())
        lo, hi = op.bounds()
        assert lo - 1e-12 <= lam[0] and lam[-1] <= hi + 1e-12
        if s in (0.0, 1.0):
            # one term alone: the bounds are its extreme eigenvalues
            np.testing.assert_allclose([lo, hi], lam[[0, -1]], rtol=0, atol=1e-12)


@pytest.mark.parametrize("s", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_is_diagonal_plus_scaled_driver(n, s):
    rng = np.random.default_rng(40 + n)
    hf = random_diag(rng, n)
    h = 2.5
    got = InstantaneousHamiltonian(s, hf, DriverHamiltonian(n, h)).dense()
    expected = np.diag(s * hf.diag) + (1.0 - s) * h * DriverHamiltonian(n, 1.0).dense()
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("s", [0.0, 0.4, 1.0])
def test_rescaled_is_an_affine_map_of_h(s):
    rng = np.random.default_rng(50)
    op = InstantaneousHamiltonian(s, random_diag(rng, 3), DriverHamiltonian(3, 2.5))
    lo, hi = op.bounds()
    centre, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    mapped = op.rescaled(centre, 2.0 / radius)
    planes = rng.normal(size=(2, 27))
    expected = (2.0 / radius) * (op.matvec(planes) - centre * planes)
    np.testing.assert_allclose(mapped.matvec(planes), expected, rtol=0, atol=1e-13)
    np.testing.assert_allclose(mapped.bounds(), (-2.0, 2.0), rtol=0, atol=1e-14)
    # the handle it was made from is unchanged
    np.testing.assert_allclose(op.bounds(), (lo, hi), rtol=0, atol=0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        InstantaneousHamiltonian(0.5, DiagonalHamiltonian(2, np.zeros(9)), DriverHamiltonian(3, 1.0))
    with pytest.raises(ValueError):
        InstantaneousHamiltonian(1.5, DiagonalHamiltonian(2, np.zeros(9)), DriverHamiltonian(2, 1.0))


# -------------------------------------------------------- matrix exponential


@pytest.mark.parametrize(
    "x", [1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 5.3, 37.5, 100.0, 500.0, -3.0]
)
def test_bessel_j_matches_scipy(x):
    # x <= 1e-6 fills the table past 1e150 and takes the rescale path;
    # scipy's jv itself is off by up to 5e-15 at x = 500
    j = _bessel_j(x)
    ref = jv(np.arange(j.size), x)
    np.testing.assert_allclose(j, ref, rtol=0, atol=2e-14)
    np.testing.assert_allclose(j[:3], ref[:3], rtol=1e-13)
    assert np.abs(j[-5:]).max() < 1e-20


@pytest.mark.parametrize("seed", range(3))
def test_expm_multiply_matches_dense(seed):
    rng = np.random.default_rng(seed)
    n = 2
    hf = random_diag(rng, n, scale=40.0)
    op = InstantaneousHamiltonian(0.4, hf, DriverHamiltonian(n, 6.0))
    v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    v /= np.linalg.norm(v)
    expected = expm(-1j * 0.1 * op.dense()) @ v
    got = expm_multiply_hermitian(op.matvec, v, 0.1, bounds=op.bounds())
    assert np.linalg.norm(got - expected) < 1e-9
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_expm_multiply_matches_dense_wide_spectrum():
    # preset-scale register and diagonal spread
    rng = np.random.default_rng(12)
    n = 5
    hf = random_diag(rng, n, scale=330.0)
    op = InstantaneousHamiltonian(0.5, hf, DriverHamiltonian(n, 8.0))
    v = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    v /= np.linalg.norm(v)
    expected = expm(-1j * 0.1 * op.dense()) @ v
    got = expm_multiply_hermitian(op.matvec, v, 0.1, bounds=op.bounds())
    assert np.linalg.norm(got - expected) < 1e-9


@pytest.mark.parametrize("dt", [1.0, 10.0])
def test_expm_multiply_long_steps(dt):
    # dt * r reaches about 1,900 at dt = 10: a degree near 2,000
    rng = np.random.default_rng(13)
    n = 5
    hf = random_diag(rng, n, scale=330.0)
    op = InstantaneousHamiltonian(0.5, hf, DriverHamiltonian(n, 8.0))
    v = unit_vector(rng, 3**n)
    got = expm_multiply_hermitian(op.matvec, v, dt, bounds=op.bounds())
    assert np.linalg.norm(got - expm(-1j * dt * op.dense()) @ v) < 1e-9
    assert np.linalg.norm(
        expm_multiply_hermitian(op.matvec, got, -dt, bounds=op.bounds()) - v
    ) < 1e-9


def test_expm_multiply_dt_zero_is_identity():
    rng = np.random.default_rng(3)
    hf = random_diag(rng, 1)
    op = InstantaneousHamiltonian(0.5, hf, DriverHamiltonian(1, 1.0))
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    got = expm_multiply_hermitian(op.matvec, v, 0.0, bounds=op.bounds())
    np.testing.assert_allclose(got, v, atol=1e-14)


def test_expm_multiply_eigenvector_phase():
    hf = DiagonalHamiltonian(1, np.array([2.0, 0.5, -1.0]))
    op = InstantaneousHamiltonian(0.6, hf, DriverHamiltonian(1, 1.5))
    lam, vecs = np.linalg.eigh(op.dense())
    dt = 0.3
    for k in range(3):
        v = vecs[:, k].astype(complex)
        expected = np.exp(-1j * dt * lam[k]) * v
        got = expm_multiply_hermitian(op.matvec, v, dt, bounds=op.bounds())
        assert np.linalg.norm(got - expected) < 1e-12


def test_expm_multiply_single_qutrit_long_step():
    hf = DiagonalHamiltonian(1, np.array([2.0, 0.5, -1.0]))
    op = InstantaneousHamiltonian(0.6, hf, DriverHamiltonian(1, 1.5))
    v = np.array([1.0, 0.3 - 0.2j, -0.5])
    got = expm_multiply_hermitian(op.matvec, v, 2.0, bounds=op.bounds())
    np.testing.assert_allclose(got, expm(-2j * op.dense()) @ v, rtol=0, atol=1e-12)


def test_expm_multiply_constant_hamiltonian_needs_no_matvec():
    # zero-width bounds: H is the centre times the identity
    hf = DiagonalHamiltonian(2, np.full(9, 1.5))
    op = InstantaneousHamiltonian(1.0, hf, DriverHamiltonian(2, 1.0))
    matvec, calls = counting(op.matvec)
    v = unit_vector(np.random.default_rng(8), 9)
    got = expm_multiply_hermitian(matvec, v, 0.4, bounds=op.bounds())
    assert not calls
    np.testing.assert_allclose(got, np.exp(-0.6j) * v, rtol=0, atol=1e-15)


def test_expm_multiply_zero_vector_needs_no_matvec():
    matvec, calls = counting(lambda x: x)
    got = expm_multiply_hermitian(matvec, np.zeros(9), 0.1, bounds=(-1.0, 1.0))
    assert not calls
    np.testing.assert_array_equal(got, np.zeros(9, dtype=complex))


@pytest.mark.parametrize("rows", [3, 4, 8, 29, 10_000])
def test_expm_multiply_result_does_not_depend_on_block_size(monkeypatch, rows):
    # degree 86: T_0 .. T_86 fill 29 blocks of 3 rows or 3 of 29 exactly,
    # leave a partial last block with 4 or 8 rows, and fit one of 10,000
    rng = np.random.default_rng(14)
    hf = random_diag(rng, 3, scale=100.0)
    op = InstantaneousHamiltonian(0.5, hf, DriverHamiltonian(3, 8.0))
    v = unit_vector(rng, 27)
    matvec, calls = counting(op.matvec)
    monkeypatch.setattr(anneal_module, "_ROWS", rows)
    got = expm_multiply_hermitian(matvec, v, 0.8, bounds=op.bounds())
    assert len(calls) == 86
    expected = expm(-0.8j * op.dense()) @ v
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_expm_multiply_rejects_inverted_bounds():
    with pytest.raises(ValueError, match="bounds"):
        expm_multiply_hermitian(lambda x: x, np.ones(3), 0.1, bounds=(1.0, -1.0))


def test_expm_multiply_rejects_complex_hamiltonian():
    # Hermitian but not real: the real-arithmetic recurrence cannot apply it
    h = np.array([[0.0, 1j], [-1j, 0.0]])
    with pytest.raises(TypeError, match="real symmetric"):
        expm_multiply_hermitian(lambda x: x @ h.T, np.ones(2), 0.1, bounds=(-1.0, 1.0))


# --------------------------------------------------------------------- step


def test_step_on_pure_diagonal_applies_exact_phases():
    rng = np.random.default_rng(4)
    hf = random_diag(rng, 2)
    drv = DriverHamiltonian(2, 1.0)
    amps = rng.normal(size=9) + 1j * rng.normal(size=9)
    amps /= np.linalg.norm(amps)
    out = step(StateVector(2, amps), 1.0, hf, drv, dt=0.25)
    expected = np.exp(-1j * 0.25 * hf.diag) * amps
    np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_step_preserves_norm():
    rng = np.random.default_rng(5)
    hf = random_diag(rng, 3, scale=50.0)
    drv = DriverHamiltonian(3, 8.0)
    psi = initial_state(3, 8.0)
    out = step(psi, 0.5, hf, drv, dt=0.1)
    assert abs(out.norm() - 1.0) < 1e-12


def test_single_qutrit_step_matches_analytic_diagonalization():
    hf = DiagonalHamiltonian(1, np.array([3.0, -1.0, 0.5]))
    drv = DriverHamiltonian(1, 2.0)
    psi = initial_state(1, 2.0)
    s, dt = 0.7, 0.1
    op = InstantaneousHamiltonian(s, hf, drv)
    lam, vecs = np.linalg.eigh(op.dense())
    exact = vecs @ (np.exp(-1j * dt * lam) * (vecs.conj().T @ psi.amplitudes))
    got = step(psi, s, hf, drv, dt)
    assert np.linalg.norm(got.amplitudes - exact) < 1e-9


@pytest.mark.parametrize("s", [0.0, 1e-3, 0.5, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_step_matches_dense_expm(n, s):
    rng = np.random.default_rng(60 + n)
    hf = random_diag(rng, n, scale=60.0)
    drv = DriverHamiltonian(n, 6.0)
    v = unit_vector(rng, 3**n)
    dense = InstantaneousHamiltonian(s, hf, drv).dense()
    got = step(StateVector(n, v), s, hf, drv, 0.1).amplitudes
    np.testing.assert_allclose(got, expm(-0.1j * dense) @ v, rtol=0, atol=1e-12)


def test_step_of_zero_width_hamiltonian_is_one_phase(monkeypatch):
    # a constant Hf at s = 1: H(s) is 1.5 times the identity
    hf = DiagonalHamiltonian(2, np.full(9, 1.5))
    matvec, calls = counting(InstantaneousHamiltonian.matvec)
    monkeypatch.setattr(InstantaneousHamiltonian, "matvec", matvec)
    v = unit_vector(np.random.default_rng(9), 9)
    got = step(StateVector(2, v), 1.0, hf, DriverHamiltonian(2, 1.0), 0.4)
    assert not calls
    np.testing.assert_array_equal(got.amplitudes, np.exp(-1j * 0.4 * 1.5) * v)


@pytest.mark.parametrize("s", [0.0, 0.25, 0.9, 1.0])
def test_step_makes_the_a_priori_degree_of_matvecs(monkeypatch, s):
    # the degree is the last k with 2 |J_k(dt r)| >= 1e-15, r the half-width
    rng = np.random.default_rng(70)
    hf, drv, dt = random_diag(rng, 3, scale=80.0), DriverHamiltonian(3, 5.0), 0.1
    lo, hi = InstantaneousHamiltonian(s, hf, drv).bounds()
    j = jv(np.arange(200), dt * 0.5 * (hi - lo))
    degree = np.flatnonzero(2.0 * np.abs(j) >= 1e-15)[-1]
    matvec, calls = counting(InstantaneousHamiltonian.matvec)
    monkeypatch.setattr(InstantaneousHamiltonian, "matvec", matvec)
    step(initial_state(3, 5.0), s, hf, drv, dt)
    assert len(calls) == degree > 0


# ------------------------------------------------------------------- anneal


def test_anneal_single_step_unrolls():
    rng = np.random.default_rng(6)
    hf = random_diag(rng, 2)
    cfg = AnnealConfig(h=2.0, M=1, dt=0.05)
    drv = DriverHamiltonian(2, 2.0)
    expected = step(step(initial_state(2, 2.0), 0.0, hf, drv, 0.05), 1.0, hf, drv, 0.05)
    got = anneal(cfg, hf)
    np.testing.assert_allclose(got.amplitudes, expected.amplitudes, atol=1e-12)


def test_anneal_steps_are_bitwise_those_of_step():
    # anneal and step share one exact-step path
    rng = np.random.default_rng(16)
    hf = random_diag(rng, 4, scale=40.0)
    drv = DriverHamiltonian(4, 3.0)
    expected = step(step(initial_state(4, 3.0), 0.0, hf, drv, 0.1), 1.0, hf, drv, 0.1)
    got = anneal(AnnealConfig(h=3.0, M=1, dt=0.1), hf)
    np.testing.assert_array_equal(got.amplitudes, expected.amplitudes)


def test_anneal_matches_dense_factor_product():
    # M + 1 factors, l = 0 .. M inclusive
    rng = np.random.default_rng(7)
    hf = random_diag(rng, 2)
    M, dt, h = 5, 0.07, 1.3
    drv = DriverHamiltonian(2, h)
    psi = initial_state(2, h).amplitudes
    for l in range(M + 1):
        H = InstantaneousHamiltonian(l / M, hf, drv).dense()
        psi = expm(-1j * dt * H) @ psi
    got = anneal(AnnealConfig(h=h, M=M, dt=dt), hf)
    assert np.linalg.norm(got.amplitudes - psi) < 1e-9


def test_anneal_with_zero_final_hamiltonian_keeps_ground_state():
    n, h = 2, 3.0
    hf = DiagonalHamiltonian(n, np.zeros(3**n))
    got = anneal(AnnealConfig(h=h, M=100, dt=0.1), hf)
    psi0 = initial_state(n, h).amplitudes
    fidelity = abs(np.vdot(psi0, got.amplitudes)) ** 2
    assert fidelity > 1.0 - 1e-9


def test_fig3_matvec_count_is_pinned(monkeypatch):
    # guards the a-priori degree (tail 1e-15) and the spectral bounds: any
    # change to where the expansion is truncated moves this count
    from qutrit_anneal.harness import build_final_hamiltonian
    from qutrit_anneal.presets import get_preset

    spec = get_preset("fig3")
    hf = build_final_hamiltonian(spec)
    matvec, calls = counting(InstantaneousHamiltonian.matvec)
    monkeypatch.setattr(InstantaneousHamiltonian, "matvec", matvec)
    anneal(AnnealConfig(h=spec.anneal.h, M=100, dt=spec.anneal.dt), hf)
    assert len(calls) == 2528


def test_split_step_tracks_exact_step():
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


@pytest.mark.parametrize("n", range(1, 8))
def test_split_step_matches_per_axis_product(n):
    # reference: the same Strang substeps with the driver factor applied one
    # site at a time by tensordot and moveaxis
    rng = np.random.default_rng(n)
    hf = random_diag(rng, n)
    drv = DriverHamiltonian(n=n, h=3.0)
    amps = rng.normal(size=3**n) + 1j * rng.normal(size=3**n)
    amps /= np.linalg.norm(amps)
    s, dt, substeps = 0.3, 0.1, 8
    tau = dt / substeps
    half = np.exp(-0.5j * tau * s * hf.diag)
    gate = expm(-1j * tau * (1.0 - s) * drv.h * spin_operator("x"))
    expected = amps
    for _ in range(substeps):
        psi = (half * expected).reshape((3,) * n)
        for axis in range(n):
            psi = np.moveaxis(np.tensordot(gate, psi, axes=(1, axis)), 0, axis)
        expected = half * psi.reshape(-1)
    got = _split_step(amps, s, hf, drv, dt)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "fig4"])
def test_split_mode_agrees_with_exact_on_presets(name, preset_result):
    from qutrit_anneal.harness import run, with_overrides
    from qutrit_anneal.presets import get_preset

    exact = preset_result(name)
    split = run(with_overrides(get_preset(name), mode=MODE_SPLIT))
    assert split.top_partition == exact.top_partition
    np.testing.assert_allclose(
        split.report.basis_probabilities,
        exact.report.basis_probabilities,
        atol=1e-3,
    )


# ------------------------------------------------------------------- decode


def test_decode_pure_basis_state_pinned():
    state_ms = (1, 1, 0, 0, -1)
    amps = np.zeros(3**5)
    amps[block_state_index(state_ms)] = 1.0
    encoding = Encoding(EncodingScheme(method=METHOD_ONEHOT_K3_PINNED, K=3), 6)
    rep = decode(StateVector(5, amps), encoding)
    assert rep.top_probability == pytest.approx(1.0, abs=0)
    assert rep.top_partition == Partition([0, 0, 0, 1, 1, 2], 3)
    assert rep.invalid_probability == 0.0


def test_decode_merges_degenerate_argmin_states():
    dm = distance_matrix(SIX_POINTS)
    encoding = Encoding(EncodingScheme(method=METHOD_ONEHOT_K3_PINNED, K=3), 6)
    h = encoding.hamiltonian(dm)
    ground = ground_states(h)
    assert len(ground) == 2
    amps = np.zeros(h.dim, dtype=complex)
    amps[ground] = 1.0 / np.sqrt(2.0)
    rep = decode(StateVector(h.n, amps), encoding)
    # the two degenerate states decode to the same set partition
    assert rep.top_probability == pytest.approx(1.0, abs=1e-12)
    nonzero = [p for p, prob in rep.partition_probabilities.items() if prob > 0.0]
    assert nonzero == [rep.top_partition]


def test_decode_kmeanspp_assigns_blocks_to_matching_centroids():
    scheme = EncodingScheme(method=METHOD_KMEANSPP, K=3)
    amps = np.zeros(27)
    amps[block_state_index((1, 0, -1))] = 1.0
    rep = decode(StateVector(3, amps), Encoding(scheme, 6, centroids=(0, 1, 2)))
    # free points 3, 4, 5 follow their matching centroids 0, 1, 2
    assert rep.top_partition == Partition([0, 1, 2, 0, 1, 2], 3)


def test_decode_routes_forbidden_blocks_to_invalid_bucket():
    scheme = EncodingScheme(method=METHOD_ONEHOT_MULTISPIN, K=4)
    amps = np.zeros(81, dtype=complex)
    amps[block_state_index((1, 1, 0, 0))] = 1.0 / np.sqrt(2.0)  # block 2 forbidden
    amps[block_state_index((1, 1, 0, 1))] = 1.0 / np.sqrt(2.0)  # both allowed
    rep = decode(StateVector(4, amps), Encoding(scheme, 2))
    assert rep.invalid_probability == pytest.approx(0.5, abs=1e-12)
    assert rep.top_partition == Partition([0, 3], 4)
    total = sum(rep.partition_probabilities.values()) + rep.invalid_probability
    assert total == pytest.approx(1.0, abs=1e-9)


def test_decode_k2_penalty_marks_minus_one_invalid():
    scheme = EncodingScheme(method=METHOD_ONEHOT_K2_PENALTY, K=2)
    amps = np.zeros(9, dtype=complex)
    amps[block_state_index((1, -1))] = 1.0
    rep = decode(StateVector(2, amps), Encoding(scheme, 2, pinned=False))
    assert rep.invalid_probability == pytest.approx(1.0, abs=0)
    assert rep.top_probability == 0.0 or rep.top_partition is not None


def _reference_decode(state, encoding):
    """Partition probabilities as a running sum over the valid basis states."""
    probs = state.probabilities()
    out = {}
    for idx in np.flatnonzero(~encoding.invalid):
        part = Partition(encoding.labels[idx], encoding.K)
        out[part] = out.get(part, 0.0) + float(probs[idx])
    return out


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
    state = StateVector(n, amps / np.linalg.norm(amps))
    rep = decode(state, encoding)
    expected = _reference_decode(state, encoding)
    got = list(rep.partition_probabilities.items())
    # same partitions, labels, insertion order and bitwise-equal sums
    assert [(p.labels, v) for p, v in got] == [(p.labels, v) for p, v in expected.items()]
    labels, invalid = encoding.labels, encoding.invalid
    assert (rep.partition_index == -1).tolist() == invalid.tolist()
    parts = [p for p, _ in got]
    for idx in np.flatnonzero(~invalid):
        assert parts[rep.partition_index[idx]] == Partition(labels[idx], encoding.K)


def test_decode_argument_validation():
    scheme_k2 = EncodingScheme(method=METHOD_ONEHOT_K2_PENALTY, K=2)
    state = initial_state(2, 1.0)
    with pytest.raises(ValueError):
        decode(state, Encoding(scheme_k2, 2, pinned=True))  # a 1-qutrit register
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
