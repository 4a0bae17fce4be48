"""Seeded workload generation for the benchmark.

Every workload is a fixed set of instances: the bundled presets, or
instances drawn with ``generate_instance`` from ``DEFAULT_SEED``.  The
``--seed`` of a run moves each instance by its own random rotation,
reflection and integer shift.  That leaves every pairwise distance bitwise
identical, so each seed gives different input coordinates but the same
problems: the same work, the same answers, and one recorded reference that
checks them at every seed.  Drawing fresh instances per seed instead made
match_rate swing by 15-20% of its median from seed to seed, because the
kmeanspp shapes miss the oracle on some instances and not on others.

Specs are built through the library's own validating constructors
(``get_preset``, ``spec_from_dict``, ``generate_instance``), looked up on
the modules at call time so a traced run sees them.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass

WORKLOADS = ("presets-exact", "sweep-split", "oracle-certify")

#: Seed that draws the instances, and whose coordinates are left unmoved.
DEFAULT_SEED = 0

#: Schedule length of the preset and sweep workloads.  The bundled presets
#: use M = 2000, which costs ~50 s per pass of the four; M = 100 keeps the
#: same per-step Krylov work (same dt) and gives a run enough passes (~2 s
#: each) for their median to hold against a noisy host.
PRESET_M = 100
SWEEP_M = 200
#: The cheapest preset (fewest matvecs), solved once per traced run by
#: ``coverage_spec``.
COVERAGE_PRESET = "fig3"
SWEEP_H = 8.0

#: Sweep shapes: (method, points, extra spec fields).  Centroids of the
#: kmeanspp shapes are the first K points.
SWEEP_SHAPES = (
    ("one-hot-K3", 7, {}),
    ("one-hot-K3-pinned", 8, {}),
    ("one-hot-K2-penalty", 8, {"pinned": True}),
    ("one-hot-multispin", 3, {"K": 4}),
    ("kmeanspp", 10, {"centroids": [0, 1, 2]}),
    ("kmeanspp", 7, {"centroids": [0, 1, 2, 3]}),
)

#: Instances per sweep shape.
SWEEP_PER_SHAPE = 2

#: Oracle instances, all at the 12-point guard: (points, K, number of fixed
#: points), fixed point i carrying label i mod K.  Free points are capped so no
#: call takes much over a second: the largest enumeration the guards allow,
#: K=3 with none fixed (531,441 assignments), takes 7-10 s a call, and a run
#: fits too few such calls for a steady time.
ORACLE_SHAPES = (
    (12, 3, 2),
    (12, 4, 4),
    (12, 3, 3),
    (12, 4, 5),
    (12, 2, 0),
)


@dataclass(frozen=True)
class OracleCase:
    """One direct ``oracle_min`` query."""

    name: str
    points: object  # qutrit_anneal.PointSet
    K: int
    fixed: dict | None


def _move(points, seed: int, rng: random.Random) -> list:
    """Integer points under a random rotation/reflection by multiples of 90 degrees
    plus an integer shift; unmoved at the default seed.

    On integer coordinates this keeps every pairwise distance bitwise identical.
    """
    pts = [[int(x), int(y)] for x, y in points]
    if seed == DEFAULT_SEED:
        return pts
    swap = rng.random() < 0.5
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    tx, ty = rng.randint(-40, 40), rng.randint(-40, 40)
    if swap:
        pts = [[y, x] for x, y in pts]
    return [[sx * x + tx, sy * y + ty] for x, y in pts]


def _presets(seed: int, emit: tuple = ("table",)) -> list:
    presets = importlib.import_module("qutrit_anneal.presets")
    harness = importlib.import_module("qutrit_anneal.harness")
    rng = random.Random(seed)
    specs = []
    for name in presets.PRESET_NAMES:
        base = presets.get_preset(name)
        data = {
            "name": name,
            "points": _move(base.points.points, seed, rng),
            "method": base.scheme.method,
            "K": base.scheme.K,
            "anneal": {
                "M": PRESET_M,
                "dt": base.anneal.dt,
                "h": base.anneal.h,
                "mode": "exact-step",
            },
            "emit": list(emit),
        }
        if base.centroids is not None:
            data["centroids"] = list(base.centroids)
            data["centroid_states"] = [list(s) for s in base.scheme.centroid_states]
        else:
            data["pinned"] = base.pinned
        specs.append(harness.spec_from_dict(data))
    return specs


def _sweep(seed: int) -> list:
    harness = importlib.import_module("qutrit_anneal.harness")
    draw, rng = random.Random(DEFAULT_SEED), random.Random(seed)
    specs = []
    for _ in range(SWEEP_PER_SHAPE):
        for method, n, extra in SWEEP_SHAPES:
            points = harness.generate_instance(n, draw.randrange(2**31))
            data = {
                "name": f"sweep-{len(specs):02d}-{method}-n{n}",
                "points": _move(points.points, seed, rng),
                "method": method,
                "anneal": {"M": SWEEP_M, "dt": 0.1, "h": SWEEP_H, "mode": "split-step"},
                "emit": ["table", "csv", "svg"],
                **extra,
            }
            specs.append(harness.spec_from_dict(data))
    return specs


def _oracle(seed: int) -> list:
    harness = importlib.import_module("qutrit_anneal.harness")
    clustering = importlib.import_module("qutrit_anneal.clustering")
    draw, rng = random.Random(DEFAULT_SEED), random.Random(seed)
    cases = []
    for n, K, n_fixed in ORACLE_SHAPES:
        drawn = harness.generate_instance(n, draw.randrange(2**31))
        points = clustering.PointSet(points=_move(drawn.points, seed, rng))
        fixed = {i: i % K for i in range(n_fixed)} or None
        name = f"oracle-n{n}-K{K}-f{n_fixed}"
        cases.append(OracleCase(name=name, points=points, K=K, fixed=fixed))
    return cases


def oracle_query(case) -> tuple:
    """``(points, K, fixed labels)`` of the oracle question a case asks."""
    if isinstance(case, OracleCase):
        return case.points.points, case.K, case.fixed
    fixed = None
    if case.centroids is not None:  # run() pins each centroid to its cluster
        fixed = {idx: c for c, idx in enumerate(case.centroids)}
    return case.points.points, case.scheme.K, fixed


def build_cases(workload: str, seed: int) -> list:
    """All cases of one workload: ProblemSpecs, or OracleCases for oracle-certify."""
    builders = {"presets-exact": _presets, "sweep-split": _sweep, "oracle-certify": _oracle}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return builders[workload](seed)


def coverage_spec():
    """The request a traced run solves once to measure the layers its own
    cases never reach: one bundled preset in exact-step mode at ``PRESET_M``,
    emitting every artifact, so it crosses every layer boundary.

    It is a ``presets-exact`` case at the default seed, so the recorded
    reference of that workload checks it.
    """
    specs = _presets(DEFAULT_SEED, emit=("table", "csv", "svg"))
    return next(spec for spec in specs if spec.name == COVERAGE_PRESET)


def probe_specs() -> list:
    """The bundled presets in split mode, for split_prob_err.

    Their exact-step probabilities are recorded in reference.json, so the
    split/exact gap costs one split pass, outside the timed passes.
    """
    harness = importlib.import_module("qutrit_anneal.harness")
    return [
        harness.with_overrides(spec, mode="split-step")
        for spec in _presets(DEFAULT_SEED)
    ]
