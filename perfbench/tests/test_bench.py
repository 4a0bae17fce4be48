"""Tests of the benchmark itself: inputs, guards, tracer wiring and the output check.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import check, workloads  # noqa: E402
from perfbench.calibration import REFERENCE_S, HostSpeed, reference_work  # noqa: E402
from perfbench.tracer import BOUNDARIES, Tracer, combine  # noqa: E402
# the package re-exports functions named like its modules, so reach modules directly
emit = importlib.import_module("qutrit_anneal.emit")
harness = importlib.import_module("qutrit_anneal.harness")

SEEDS = (0, 1, 987654321)

TINY = {
    "name": "tiny",
    "points": [[0, 0], [0, 1], [10, 10], [-10, 10]],
    "method": "one-hot-K3-pinned",
    "anneal": {"M": 20, "dt": 0.1, "h": 2.0, "mode": "exact-step"},
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_for_a_seed(workload):
    first = workloads.build_cases(workload, 5)
    assert first == workloads.build_cases(workload, 5)
    assert first != workloads.build_cases(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_move_points_but_keep_every_distance(workload):
    base = workloads.build_cases(workload, workloads.DEFAULT_SEED)
    for seed in SEEDS[1:]:
        for a, b in zip(base, workloads.build_cases(workload, seed)):
            assert a.points != b.points
            da = check.reference_distances(a.points.points)
            db = check.reference_distances(b.points.points)
            assert (da == db).all()


@pytest.mark.parametrize("seed", SEEDS)
def test_every_case_stays_within_the_guards(seed):
    for workload in workloads.WORKLOADS:
        for case in workloads.build_cases(workload, seed):
            points, K, fixed = workloads.oracle_query(case)
            assert len(points) <= 12
            assert K ** (len(points) - len(fixed or {})) <= 5_000_000
            if not isinstance(case, workloads.OracleCase):
                assert case.register_qutrits <= 7


def _wrapped_names():
    names = [(m, a) for m, a, _, _ in BOUNDARIES]
    return names + [("qutrit_anneal.anneal", "expm_multiply_hermitian")]


def test_tracer_restores_every_wrapped_name():
    originals = {
        (m, a): getattr(importlib.import_module(m), a) for m, a in _wrapped_names()
    }
    tracer = Tracer()
    tracer.install()
    try:
        for (m, a), fn in originals.items():
            assert getattr(importlib.import_module(m), a) is not fn, f"{m}.{a}"
    finally:
        tracer.restore()
    for (m, a), fn in originals.items():
        assert getattr(importlib.import_module(m), a) is fn, f"{m}.{a}"


def test_traced_run_fires_every_boundary_it_crosses(tmp_path):
    tracer = Tracer()
    tracer.install()
    try:
        spec = harness.spec_from_dict(dict(TINY, emit=["table", "csv", "svg"]))
        result = harness.run(spec)
        emit.emit(result, spec.emit, tmp_path)
    finally:
        tracer.restore()
    m = tracer.layer_metrics(0, tracer.mark())
    assert m["anneal.steps"] == TINY["anneal"]["M"] + 1
    assert m["hamiltonians.matvecs"] >= m["anneal.steps"]
    assert m["hamiltonians.matvec_bytes"] == m["hamiltonians.matvecs"] * 3**3 * 16
    assert m["clustering.oracle_assignments"] == 3**4
    assert all(v is not None for v in m.values()), m


def test_layers_that_never_ran_are_absent():
    tracer = Tracer()
    with tracer.span("bench.solve"):
        pass
    m = tracer.layer_metrics(0, tracer.mark())
    assert all(v is None for v in m.values()), m


def test_unreached_layers_come_from_the_coverage_request():
    passes = [
        {"clustering.oracle_s": t, "clustering.oracle_assignments": 10, "emit.csv_s": None}
        for t in (0.5, 0.4)
    ]
    coverage = {"clustering.oracle_s": 9.0, "clustering.oracle_assignments": 1, "emit.csv_s": 0.2}
    m = combine(passes, coverage)
    assert m == {
        "clustering.oracle_s": 0.4,
        "clustering.oracle_assignments": 10,
        "emit.csv_s": 0.2,
        "clustering.oracle_assignments_per_s": 25.0,
    }
    assert combine(passes, dict(coverage, **{"emit.csv_s": None}))["emit.csv_s"] is None


def test_coverage_request_crosses_every_boundary(tmp_path):
    spec = workloads.coverage_spec()
    tracer = Tracer()
    tracer.install()
    try:
        emit.emit(harness.run(spec), spec.emit, tmp_path)
    finally:
        tracer.restore()
    m = tracer.layer_metrics(0, tracer.mark())
    assert all(v is not None for k, v in m.items() if k != "harness.validate_s"), m


def test_reference_oracle_agrees_with_the_library():
    clustering = importlib.import_module("qutrit_anneal.clustering")
    for case in workloads.build_cases("oracle-certify", 3)[-2:]:
        res = clustering.oracle_min(clustering.distance_matrix(case.points), case.K, fixed=case.fixed)
        ref = check.reference_oracle(case.points.points, case.K, case.fixed)
        assert check.check_oracle(res, ref) == []


def test_check_rejects_exact_probability_perturbed_by_1e_8():
    result = harness.run(harness.spec_from_dict(TINY))
    oracle_ref = check.reference_oracle(TINY["points"], 3)
    recorded = check.summarize_run(result, 0.0)
    assert check.check_run(result, oracle_ref, recorded) == []
    recorded["probs"][recorded["top"]] += 1e-8
    errors = check.check_run(result, oracle_ref, recorded)
    assert any("probabilities differ" in e for e in errors), errors


def test_host_scale_uses_the_median_reference_time_of_each_pass():
    assert reference_work() == reference_work()
    host = HostSpeed()
    host.sample()
    host.times[:] = [1.0, 2.0, 9.0, 4.0, 4.0, 5.0]
    assert host.pass_scales(3) == [REFERENCE_S / 2.0, REFERENCE_S / 4.0]
    assert host.scale(2) == REFERENCE_S / 4.5
