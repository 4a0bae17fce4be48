"""Property tests of the final Hamiltonians over every encoding.

The diagonal reference is a plain loop over basis states that decodes each
one by hand and prices it with ``Partition`` and ``cost``; it shares no
code with the library's label tables or pair sums.
"""

import numpy as np
import pytest

from conftest import ground_states
from qutrit_anneal.anneal import StateVector, decode
from qutrit_anneal.clustering import (
    DistanceMatrix,
    Partition,
    cost,
    distance_matrix,
    oracle_min,
)
from qutrit_anneal.harness import build_final_hamiltonian, generate_instance, spec_from_dict
from qutrit_anneal.spin import digit_table

#: (method, points, extra spec fields): every method, with forbidden block
#: states (multispin K = 2, 4; kmeanspp K = 2, 4) and without (K = 3, 9)
DIAGONAL_SHAPES = [
    ("one-hot-K3", 5, {}),
    ("one-hot-K3-pinned", 6, {}),
    ("one-hot-K2-penalty", 6, {"pinned": True}),
    ("one-hot-K2-penalty", 5, {"pinned": False}),
    ("one-hot-multispin", 5, {"K": 2}),
    ("one-hot-multispin", 3, {"K": 4}),
    ("one-hot-multispin", 3, {"K": 4, "penalty": 3.5}),
    ("one-hot-multispin", 2, {"K": 9}),
    ("kmeanspp", 6, {"K": 2, "centroids": [3, 1]}),
    ("kmeanspp", 7, {"centroids": [0, 4, 2], "centroid_states": [[0], [-1], [1]]}),
    ("kmeanspp", 6, {"centroids": [5, 0, 2, 3]}),
    ("kmeanspp", 6, {"centroids": [1, 2, 3, 4], "penalty": 2.0}),
]


def _spec(method, n_points, extra, seed):
    points = generate_instance(n_points, seed).points
    return spec_from_dict(
        {"points": [list(p) for p in points], "method": method, **extra}
    )


def _block_states(width):
    """Projection tuples of a block in base-3 order, |1,1,...> first."""
    states = [()]
    for _ in range(width):
        states = [st + (m,) for st in states for m in (1, 0, -1)]
    return states


def _reference_diagonal(spec, dm):
    """Final diagonal entry of every basis state, one state at a time.

    A pair of points on the same cluster adds d, a pair apart -d.  Points
    in a forbidden state sit apart from every other point and pay the
    penalty, except under K2, where all points at projection -1 share the
    third cluster and each pays twice its distances to the others.
    """
    d = dm.d
    n_points = dm.n_points
    penalty = spec.scheme.penalty_constant or 2.0 * dm.max_distance
    K = spec.scheme.K
    method = spec.scheme.method
    n = spec.register_qutrits
    out = []
    if method == "kmeanspp":
        # only centroid-to-free pairs are coupled
        centroids = list(spec.centroids)
        free = [p for p in range(n_points) if p not in centroids]
        coupled = np.zeros_like(d)
        coupled[np.ix_(centroids, free)] = d[np.ix_(centroids, free)]
        coupled[np.ix_(free, centroids)] = d[np.ix_(free, centroids)]
        dm = DistanceMatrix(coupled)
        d = coupled
    total = sum(d[i, j] for i in range(n_points) for j in range(i + 1, n_points))
    width = n // (n_points - K) if method == "kmeanspp" else n // n_points
    states = _block_states(width)
    projections = (1 - digit_table(n)).tolist()
    for idx in range(3**n):
        ms = tuple(projections[idx])
        if method in ("one-hot-multispin", "kmeanspp"):
            blocks = [states.index(ms[k : k + width]) for k in range(0, n, width)]
            if method == "kmeanspp":
                centroid_states = [
                    states.index(tuple(st)) for st in spec.scheme.centroid_states
                ]
                labels = [None] * n_points
                for c, p in enumerate(centroids):
                    labels[p] = c
                for p, b in zip(free, blocks):
                    labels[p] = centroid_states.index(b) if b in centroid_states else -1
            else:
                labels = [b if b < K else -1 for b in blocks]
            bad = [p for p, l in enumerate(labels) if l < 0]
            for p in bad:
                labels[p] = K + p
            part = Partition(labels, K + n_points)
            out.append(2.0 * cost(dm, part) - total + penalty * len(bad))
        else:
            digits = [1 - m for m in ms]
            labels = [0] + digits if spec.pinned else digits
            extra = 0.0
            if method == "one-hot-K2-penalty":
                extra = sum(2.0 * d[p].sum() for p, l in enumerate(labels) if l == 2)
            out.append(2.0 * cost(dm, Partition(labels, 3)) - total + extra)
    return np.array(out)


@pytest.mark.parametrize("shape", range(len(DIAGONAL_SHAPES)))
@pytest.mark.parametrize("seed", range(3))
def test_final_diagonal_matches_per_state_reference(shape, seed):
    spec = _spec(*DIAGONAL_SHAPES[shape], seed=100 * shape + seed)
    dm = distance_matrix(spec.points)
    diag = build_final_hamiltonian(spec, dm).diag
    expected = _reference_diagonal(spec, dm)
    assert diag.shape == expected.shape
    scale = 1.0 + np.abs(expected).max()
    np.testing.assert_allclose(diag, expected, rtol=0, atol=1e-13 * scale)


def _ground_space_in_argmin(spec):
    """Whether an equal superposition of the ground states of the spec's Hf
    decodes only into valid partitions that the oracle finds optimal."""
    hf = build_final_hamiltonian(spec)
    amps = np.zeros(hf.dim)
    amps[ground_states(hf)] = 1.0
    report = decode(StateVector(hf.n, amps / np.linalg.norm(amps)), spec.encoding)
    fixed = None
    if spec.centroids is not None:
        fixed = {p: c for c, p in enumerate(spec.centroids)}
    dm = distance_matrix(spec.points)
    argmin = set(oracle_min(dm, spec.scheme.K, fixed).argmin_partitions)
    decoded = {p for p, prob in report.partition_probabilities.items() if prob > 0.0}
    return report.invalid_probability == 0.0 and decoded <= argmin


#: (method, points, extra spec fields) of the faithful encodings
FAITHFUL_SHAPES = [
    ("one-hot-K3", 5, {}),
    ("one-hot-K3-pinned", 6, {}),
    ("one-hot-K2-penalty", 6, {"pinned": True}),
    ("one-hot-K2-penalty", 6, {"pinned": False}),
    ("one-hot-multispin", 3, {"K": 4}),
]


@pytest.mark.parametrize("shape", range(len(FAITHFUL_SHAPES)))
def test_ground_space_decodes_into_oracle_argmin(shape):
    for seed in range(200):
        spec = _spec(*FAITHFUL_SHAPES[shape], seed=7000 + 1000 * shape + seed)
        assert _ground_space_in_argmin(spec), f"seed {seed}"


def test_kmeanspp_ground_space_misses_oracle_argmin_on_known_instance():
    # the Hamiltonian couples free points to centroids only, so its ground
    # state is the nearest-centroid assignment, not the pair-cost optimum
    spec = _spec("kmeanspp", 9, {"centroids": [0, 1, 2]}, seed=0)
    assert not _ground_space_in_argmin(spec)
