"""Output checks: an independent oracle and comparisons with reference.json.

Nothing here calls the library's own cost or oracle code, so a wrong
answer from the program cannot agree with its own check.  Every check
returns a list of failure messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

#: A7: the final state norm must stay within this of 1.
NORM_DRIFT_MAX = 1e-9
#: Exact-step partition probabilities must agree with the reference this well.
EXACT_PROB_TOL = 1e-10
#: Split-step probabilities may move this far from the recorded split run.
SPLIT_PROB_TOL = 1e-3
#: Relative tolerance on costs; also the oracle's own tie tolerance.
COST_REL_TOL = 1e-9


def key(labels) -> str:
    """A partition as a string of first-appearance labels, e.g. ``"0 0 1 2"``."""
    seen: dict[int, int] = {}
    return " ".join(str(seen.setdefault(int(l), len(seen))) for l in labels)


def partition_key(partition) -> str:
    return key(partition.labels)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= COST_REL_TOL * (1.0 + abs(b))


def reference_distances(points) -> np.ndarray:
    xy = np.asarray(points, dtype=float)
    diff = xy[:, None, :] - xy[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def reference_oracle(points, K: int, fixed=None, chunk: int = 3**8):
    """Minimum intra-cluster pair cost and its argmin partitions, by numpy enumeration.

    Returns ``(min_cost, argmin_keys)``.  Assignments are enumerated in
    small chunks so the check adds nothing visible to the process's peak
    memory, which the benchmark reports.
    """
    d = reference_distances(points)
    n = d.shape[0]
    fixed = dict(fixed or {})
    free = [i for i in range(n) if i not in fixed]
    total = K ** len(free)
    pi, pj = np.triu_indices(n, 1)
    w = d[pi, pj]
    places = K ** np.arange(len(free) - 1, -1, -1)
    found = []  # (chunk minimum, label rows within tolerance of it, their costs)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        labels = np.empty((idx.size, n), dtype=np.int8)
        for p, l in fixed.items():
            labels[:, p] = l
        labels[:, free] = (idx[:, None] // places) % K
        costs = (labels[:, pi] == labels[:, pj]) @ w
        lo = float(costs.min())
        near = costs <= lo + COST_REL_TOL * (1.0 + abs(lo))
        found.append((lo, labels[near], costs[near]))
    best = min(lo for lo, _, _ in found)
    limit = best + COST_REL_TOL * (1.0 + abs(best))
    argmin = {key(row) for _, rows, costs in found for row, c in zip(rows, costs) if c <= limit}
    return best, argmin


def reference_cost(points, labels) -> float:
    d = reference_distances(points)
    n = len(labels)
    return math.fsum(
        d[i, j] for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j]
    )


def max_prob_diff(a: dict, b: dict) -> float:
    """Largest |a[k] - b[k]| over both key sets, a missing key counting as 0."""
    return max(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in set(a) | set(b))


def run_probs(result) -> dict:
    return {
        partition_key(p): float(v)
        for p, v in result.report.partition_probabilities.items()
    }


def summarize_run(result, min_prob: float) -> dict:
    """Reference record of one run; probabilities below ``min_prob`` are dropped."""
    return {
        "top": partition_key(result.top_partition),
        "match": bool(result.match),
        "oracle_min": result.oracle_min_cost,
        "oracle_argmin": sorted(partition_key(p) for p in result.oracle_partitions),
        "probs": {k: v for k, v in sorted(run_probs(result).items()) if v >= min_prob},
    }


def summarize_oracle(res) -> dict:
    return {
        "oracle_min": res.min_cost,
        "oracle_argmin": sorted(partition_key(p) for p in res.argmin_partitions),
    }


def _check_oracle_answer(min_cost, partitions, oracle_ref, recorded) -> list[str]:
    errors = []
    ref_min, ref_argmin = oracle_ref
    got = {partition_key(p) for p in partitions}
    if not _close(min_cost, ref_min):
        errors.append(f"oracle min {min_cost!r} != independent {ref_min!r}")
    if got != ref_argmin:
        errors.append(f"oracle argmin {sorted(got)} != independent {sorted(ref_argmin)}")
    if recorded is not None:
        if not _close(min_cost, recorded["oracle_min"]):
            errors.append(f"oracle min {min_cost!r} != recorded {recorded['oracle_min']!r}")
        if sorted(got) != recorded["oracle_argmin"]:
            errors.append("oracle argmin differs from the recorded one")
    return errors


def check_oracle(res, oracle_ref, recorded=None) -> list[str]:
    """Check an ``oracle_min`` result against the independent enumeration."""
    return _check_oracle_answer(res.min_cost, res.argmin_partitions, oracle_ref, recorded)


def check_run(result, oracle_ref, recorded=None, prob_tol=EXACT_PROB_TOL) -> list[str]:
    """Check a RunResult: A7 norm drift, the oracle, the match flag, and the reference."""
    errors = _check_oracle_answer(
        result.oracle_min_cost, result.oracle_partitions, oracle_ref, recorded
    )
    drift = abs(result.final_norm - 1.0)
    if not drift < NORM_DRIFT_MAX:
        errors.append(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_MAX:g}")
    top = partition_key(result.top_partition)
    if result.match != (top in oracle_ref[1]):
        errors.append(f"match flag {result.match} disagrees with the independent oracle")
    points = result.spec.points.points
    ref_cost = reference_cost(points, result.top_partition.labels)
    if not _close(result.top_cost, ref_cost):
        errors.append(f"top cost {result.top_cost!r} != independent {ref_cost!r}")
    probs = run_probs(result)
    total = math.fsum(probs.values()) + result.invalid_probability
    if abs(total - result.final_norm**2) > NORM_DRIFT_MAX:
        errors.append(f"probabilities sum to {total!r}, not the squared norm")
    if recorded is not None:
        if top != recorded["top"]:
            errors.append(f"top partition {top} != recorded {recorded['top']}")
        if bool(result.match) != recorded["match"]:
            errors.append("match flag differs from the recorded one")
        diff = max_prob_diff(probs, recorded["probs"])
        if not diff <= prob_tol:
            errors.append(f"partition probabilities differ from the recorded ones by {diff:.3e}")
    return errors


def check_artifacts(result, paths) -> list[str]:
    """Every emitted file exists and is non-empty; a CSV covers the whole basis."""
    errors = []
    for path in paths:
        if not path.is_file() or path.stat().st_size == 0:
            errors.append(f"artifact {path.name} missing or empty")
        elif path.suffix == ".csv":
            rows = path.read_text().splitlines()[1:]
            dim = 3**result.spec.register_qutrits
            total = math.fsum(float(r.rsplit(",", 1)[1]) for r in rows)
            if len(rows) != dim or abs(total - result.final_norm**2) > 1e-9:
                errors.append(f"{path.name}: {len(rows)} rows summing to {total!r}")
    return errors
