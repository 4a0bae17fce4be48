"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines alongside the pytest verdicts.
"""

import numpy as np

from conftest import block_state_index, dense_driver, ground_states, projector, step
from qutrit_anneal.anneal import initial_state
from qutrit_anneal.clustering import (
    Partition,
    cost,
    distance_matrix,
    oracle_min,
)
from qutrit_anneal.hamiltonians import (
    METHOD_ONEHOT_K3,
    METHOD_ONEHOT_K3_PINNED,
    METHOD_ONEHOT_MULTISPIN,
    Encoding,
    EncodingScheme,
    digit_table,
)
from qutrit_anneal.presets import get_preset


def _criterion(cid: str, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{cid}] {description}: {status}{suffix}")
    assert ok, f"{cid} failed: {description}{suffix}"


def _partition_from_blocks(spec, blocks):
    """Build the expected Partition from coordinate blocks of a preset."""
    coords = {p: i for i, p in enumerate(spec.points.points)}
    labels = [None] * len(spec.points)
    for k, block in enumerate(blocks):
        for pt in block:
            labels[coords[(float(pt[0]), float(pt[1]))]] = k
    assert all(l is not None for l in labels)
    return Partition(labels, len(blocks))


def test_a1_fig1_three_cluster_partition(preset_result):
    result = preset_result("fig1")
    expected = _partition_from_blocks(
        result.spec,
        [
            [(-9, 5), (-7, 7), (-6, 8)],
            [(-2, -6), (4, -2)],
            [(6, -9)],
        ],
    )
    ok = result.top_partition == expected and result.match
    _criterion(
        "A1",
        "preset fig1 yields the expected three clusters and matches the oracle",
        ok,
        f"p={result.top_probability:.4f}, wall={result.wall_time_s:.1f}s",
    )
    _criterion("A1t", "preset fig1 runtime below 5 minutes", result.wall_time_s < 300.0)


def test_a2_fig2_two_cluster_partition(preset_result):
    result = preset_result("fig2")
    dm = distance_matrix(result.spec.points)
    orc = oracle_min(dm, 2)
    ok = result.top_partition in set(orc.argmin_partitions) and result.match
    _criterion(
        "A2",
        "preset fig2 top partition equals the two-cluster oracle optimum",
        ok,
        f"p={result.top_probability:.4f}, wall={result.wall_time_s:.1f}s",
    )
    # informational: the bundled instance's documented grouping; the oracle
    # stays authoritative for the coordinates as listed
    documented = _partition_from_blocks(
        result.spec, [[(-7, 4), (-6, 5), (-5, 1), (-3, 9)], [(4, -10), (6, 6)]]
    )
    agrees = documented == result.top_partition
    print(f"\n[A2i] documented fig2 grouping equals the oracle optimum: {agrees}")
    _criterion("A2t", "preset fig2 runtime below 10 minutes", result.wall_time_s < 600.0)


def test_a3_fig3_centroid_partition(preset_result):
    result = preset_result("fig3")
    expected = _partition_from_blocks(
        result.spec,
        [
            [(-5, 8), (1, 6), (3, 8)],
            [(-6, -8), (-2, -6), (3, -10)],
            [(4, -4), (8, -1), (9, -4)],
        ],
    )
    ok = result.top_partition == expected and result.match
    _criterion(
        "A3",
        "preset fig3 groups nine points into the expected three clusters",
        ok,
        f"p={result.top_probability:.4f}, wall={result.wall_time_s:.1f}s",
    )
    _criterion("A3t", "preset fig3 runtime below 10 minutes", result.wall_time_s < 600.0)


def test_a4_fig4_four_cluster_partition(preset_result):
    result = preset_result("fig4")
    expected = _partition_from_blocks(
        result.spec,
        [
            [(-9, 10)],
            [(-8, -3), (-2, -9)],
            [(1, 9)],
            [(4, -2), (8, -8), (10, -5)],
        ],
    )
    ok = result.top_partition == expected and result.match
    _criterion(
        "A4",
        "preset fig4 groups seven points into the expected four clusters",
        ok,
        f"p={result.top_probability:.4f}, wall={result.wall_time_s:.1f}s",
    )
    _criterion(
        "A4i",
        "fig4 invalid-bucket probability stays below the top probability",
        result.invalid_probability < result.top_probability,
        f"invalid={result.invalid_probability:.3e}",
    )
    _criterion("A4t", "preset fig4 runtime below 10 minutes", result.wall_time_s < 600.0)


def test_a5_diagonal_identity_on_random_instances():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        pts = [tuple(p) for p in rng.integers(-10, 11, size=(n, 2)).astype(float)]
        dm = distance_matrix(pts)
        h = Encoding(EncodingScheme(METHOD_ONEHOT_K3, 3), n).hamiltonian(dm)
        total = cost(dm, Partition([0] * n, 1))
        digits = digit_table(n)
        for idx in range(3**n):
            w = cost(dm, Partition(digits[idx], 3))
            worst = max(worst, abs(h[0, idx] - (2.0 * w - total)))
    _criterion(
        "A5",
        "three-cluster diagonal equals 2*cost - total pair sum on 50 seeded instances",
        worst <= 1e-12,
        f"worst deviation {worst:.2e}",
    )


def test_a6_ground_state_degeneracy_counts():
    dm = distance_matrix(get_preset("fig1").points)
    full, pinned = (
        ground_states(Encoding(EncodingScheme(method, 3), dm.n_points).hamiltonian(dm))
        for method in (METHOD_ONEHOT_K3, METHOD_ONEHOT_K3_PINNED)
    )
    _criterion(
        "A6",
        "six-point instance: 6 degenerate minima unpinned, 2 when pinned",
        len(full) == 6 and len(pinned) == 2,
        f"got {len(full)} and {len(pinned)}",
    )


def test_a7_unitarity_and_step_accuracy(preset_result):
    drifts = {
        name: abs(preset_result(name).final_norm - 1.0)
        for name in ("fig1", "fig2", "fig3", "fig4")
    }
    _criterion(
        "A7",
        "norm drift below 1e-9 after every preset run",
        all(d < 1e-9 for d in drifts.values()),
        ", ".join(f"{k}={v:.1e}" for k, v in drifts.items()),
    )
    hf, h = np.array([[3.0, -1.0, 0.5]]), 2.0
    psi = initial_state(1)
    s, dt = 0.45, 0.1
    lam, vecs = np.linalg.eigh(np.diag(s * hf[0]) + (1.0 - s) * dense_driver(1, h))
    exact = vecs @ (np.exp(-1j * dt * lam) * (vecs.conj().T @ psi))
    got = step(psi, s, hf, h, dt)
    err = float(np.linalg.norm(got - exact))
    _criterion(
        "A7s",
        "single-qutrit step matches the diagonalized exponential to 1e-9",
        err < 1e-9,
        f"err={err:.1e}",
    )


def test_a8_projector_algebra_exact():
    canonical = {
        1: np.diag([1.0, 0.0, 0.0]),
        0: np.diag([0.0, 1.0, 0.0]),
        -1: np.diag([0.0, 0.0, 1.0]),
    }
    polynomials_exact = all(
        np.array_equal(projector(m), canonical[m]) for m in (1, 0, -1)
    )
    completeness = np.array_equal(
        projector(1) + projector(0) + projector(-1), np.eye(3)
    )
    idempotence = all(
        np.array_equal(projector(m) @ projector(m), projector(m)) for m in (1, 0, -1)
    )
    _criterion(
        "A8",
        "projector polynomials, completeness, and idempotence hold exactly",
        polynomials_exact and completeness and idempotence,
    )


def test_a9_penalty_dominance_on_random_instances():
    rng = np.random.default_rng(99)
    K = 4
    clean = True
    for _ in range(20):
        pts = [tuple(p) for p in rng.uniform(-10, 10, size=(2, 2))]
        dm = distance_matrix(pts)
        a = 2.0 * dm.max_distance
        scheme = EncodingScheme(METHOD_ONEHOT_MULTISPIN, K, penalty_constant=a)
        h = Encoding(scheme, 2).hamiltonian(dm)
        for idx in ground_states(h):
            projections = tuple(1 - digit_table(4)[idx])
            for block in (projections[:2], projections[2:]):
                if block_state_index(block) >= K:
                    clean = False
    _criterion(
        "A9",
        "no optimum of 20 seeded four-cluster instances uses a forbidden block",
        clean,
    )
