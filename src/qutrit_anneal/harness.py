"""Problem specs, instance generation, and the end-to-end certified run.

A run builds the final Hamiltonian for the requested encoding, anneals,
decodes the final state, and compares the most probable partition against
the exhaustive oracle.  Spec files are JSON; see the README for the schema.
"""

from __future__ import annotations

import json
import math
import random
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from .anneal import (
    MODE_EXACT,
    MODES,
    AnnealConfig,
    ReadoutReport,
    anneal,
    decode,
)
from .clustering import (
    ORACLE_MAX_POINTS,
    DistanceMatrix,
    Partition,
    PointSet,
    cost,
    distance_matrix,
    oracle_min,
)
from .errors import SizeGuardError, SpecError
from .hamiltonians import (
    METHOD_TRAITS,
    METHODS,
    DiagonalHamiltonian,
    Encoding,
    EncodingScheme,
    pinned_method,
)

#: State vectors beyond 3**7 entries are refused.
REGISTER_MAX_QUTRITS = 7

#: Artifact formats a run can emit (renderers live in the emit module).
EMIT_FORMATS = ("table", "csv", "svg")

_DEFAULT_H = 8.0


@dataclass(frozen=True)
class ProblemSpec:
    """A complete, validated description of one annealing run.

    ``encoding`` is derived from the points, scheme, pinning and centroids;
    ``pinned`` and ``centroids`` are normalized to the ones it uses.
    """

    points: PointSet
    scheme: EncodingScheme
    anneal: AnnealConfig
    centroids: tuple[int, ...] | None = None
    pinned: bool = False
    seed: int | None = None
    name: str = "spec"
    emit: tuple[str, ...] = ("table",)
    out_dir: str = "."
    encoding: Encoding = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the name becomes the emitted files' names inside out_dir
        name = self.name
        if (
            not isinstance(name, str)
            or name in ("", ".", "..")
            or any(c in name for c in "/\\\0")
        ):
            raise SpecError(
                f"'name' must be a plain file name: not empty, '.' or '..', "
                f"and without '/', '\\' or NUL, got {name!r}"
            )
        emit = tuple(self.emit)
        unknown = [f for f in emit if f not in EMIT_FORMATS]
        if unknown:
            raise SpecError(
                f"unknown emit format(s) {unknown}, expected from {EMIT_FORMATS}"
            )
        object.__setattr__(self, "emit", emit)
        encoding = Encoding(self.scheme, len(self.points), self.pinned, self.centroids)
        object.__setattr__(self, "encoding", encoding)
        object.__setattr__(self, "pinned", encoding.pinned)
        object.__setattr__(self, "centroids", encoding.centroids)
        if (
            self.scheme.penalty_constant is None
            and self.scheme.has_constant_penalty
            and len(set(self.points.points)) == 1
        ):
            raise SpecError(
                "all points coincide, so the default penalty (twice the largest "
                "distance) is zero: give 'penalty' (the scheme's penalty_constant) "
                "or distinct points"
            )

    @property
    def register_qutrits(self) -> int:
        return self.encoding.n_qutrits


@dataclass(frozen=True, eq=False)
class RunResult:
    """Outcome of one annealing run plus its oracle certification."""

    spec: ProblemSpec
    top_partition: Partition
    top_probability: float
    top_cost: float
    oracle_min_cost: float
    oracle_partitions: tuple[Partition, ...]
    match: bool
    invalid_probability: float
    final_norm: float
    wall_time_s: float
    report: ReadoutReport


def generate_instance(n_points: int, seed: int) -> PointSet:
    """Random integer coordinates drawn uniformly from [-10, 10] x [-10, 10].

    Uses the stdlib Mersenne Twister (``random.Random(seed)``), drawing x
    then y per point, so a seed reproduces the same instance everywhere.
    """
    if n_points < 2:
        raise ValueError("an instance needs at least 2 points")
    rng = random.Random(seed)
    pts = tuple(
        (float(rng.randint(-10, 10)), float(rng.randint(-10, 10)))
        for _ in range(n_points)
    )
    return PointSet(points=pts)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SpecError(message)


_SPEC_KEYS = {
    "name",
    "points",
    "labels",
    "method",
    "K",
    "centroids",
    "centroid_states",
    "penalty",
    "pinned",
    "anneal",
    "seed",
    "emit",
    "out",
}
_ANNEAL_KEYS = {"M", "dt", "h", "mode"}


def _is_finite_real(value) -> bool:
    """True for an int or float (not a bool) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real_field(block: dict, key: str, default: float) -> float:
    value = block.get(key, default)
    _require(
        _is_finite_real(value),
        f"anneal {key!r} must be a finite real number, got {value!r}",
    )
    return float(value)


def spec_from_dict(data: dict, default_name: str = "spec") -> ProblemSpec:
    """Validate a parsed spec dictionary into a ProblemSpec."""
    _require(isinstance(data, dict), "spec must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    _require(not unknown, f"unknown spec field(s): {sorted(unknown)}")

    _require("points" in data, "spec is missing the required 'points' field")
    raw_points = data["points"]
    _require(
        isinstance(raw_points, list) and len(raw_points) >= 2,
        "'points' must be a list of at least 2 [x, y] pairs",
    )
    labels = data.get("labels")
    _require(
        labels is None
        or isinstance(labels, list) and all(isinstance(s, str) for s in labels),
        f"'labels' must be a list of strings, got {labels!r}",
    )
    try:
        points = PointSet(
            points=tuple((p[0], p[1]) for p in raw_points),
            labels=tuple(labels) if labels else None,
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise SpecError(f"invalid 'points'/'labels': {exc}") from exc

    _require("method" in data, "spec is missing the required 'method' field")
    method = data["method"]
    _require(method in METHODS, f"unknown method {method!r}, expected one of {METHODS}")
    traits = METHOD_TRAITS[method]

    centroids = data.get("centroids")
    if centroids is not None:
        _require(
            isinstance(centroids, list)
            and all(_is_int(c) for c in centroids),
            f"'centroids' must be a list of point indices, got {centroids!r}",
        )
        centroids = tuple(centroids)

    K = data.get("K")
    if K is None:
        _require(
            traits.K is not None or traits.centroids and bool(centroids),
            f"method {method!r} requires an explicit 'K'",
        )
        K = traits.K or len(centroids)
    _require(isinstance(K, int) and K >= 2, "'K' must be an integer >= 2")

    centroid_states = data.get("centroid_states")
    if centroid_states is not None:
        _require(traits.centroids, f"'centroid_states' do not apply to {method}")
        _require(
            isinstance(centroid_states, list)
            and all(
                isinstance(st, list) and all(_is_int(m) for m in st)
                for st in centroid_states
            ),
            "'centroid_states' must be a list of lists of integer projections, "
            f"got {centroid_states!r}",
        )
        centroid_states = tuple(tuple(st) for st in centroid_states)

    penalty = data.get("penalty")
    if penalty is not None:
        _require(
            _is_finite_real(penalty) and penalty > 0,
            f"'penalty' must be a positive finite number, got {penalty!r}",
        )

    pinned = data.get("pinned")
    if pinned is None:
        # where the spec may choose (K2), point 0 is pinned by default
        pinned = traits.pinned is not False
    _require(isinstance(pinned, bool), "'pinned' must be a boolean")
    _require(
        pinned or not traits.pinned,
        f"method {method!r} pins point 0, which contradicts 'pinned': false",
    )

    anneal_data = data.get("anneal") or {}
    _require(isinstance(anneal_data, dict), "'anneal' must be an object")
    unknown = set(anneal_data) - _ANNEAL_KEYS
    _require(not unknown, f"unknown anneal field(s): {sorted(unknown)}")
    M = anneal_data.get("M", 2000)
    _require(
        _is_int(M),
        f"anneal 'M' must be an integer step count, got {M!r}",
    )
    try:
        cfg = AnnealConfig(
            h=_real_field(anneal_data, "h", _DEFAULT_H),
            M=M,
            dt=_real_field(anneal_data, "dt", 0.1),
            mode=anneal_data.get("mode", MODE_EXACT),
        )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"invalid 'anneal' block: {exc}") from exc

    seed = data.get("seed")
    if seed is not None:
        _require(
            _is_int(seed),
            f"'seed' must be an integer, got {seed!r}",
        )

    emit = data.get("emit", ["table"])
    _require(
        isinstance(emit, list) and all(isinstance(f, str) for f in emit),
        "'emit' must be a list of format names",
    )
    out_dir = data.get("out", ".")
    _require(isinstance(out_dir, str), "'out' must be a directory path string")

    try:
        scheme = EncodingScheme(
            method=pinned_method(method, pinned),
            K=K,
            centroid_states=centroid_states,
            penalty_constant=penalty,
        )
        return ProblemSpec(
            points=points,
            scheme=scheme,
            anneal=cfg,
            centroids=centroids,
            pinned=pinned,
            seed=seed,
            name=str(data.get("name", default_name)),
            emit=tuple(emit),
            out_dir=out_dir,
        )
    except ValueError as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(str(exc)) from exc


def load_spec(path: str | Path) -> ProblemSpec:
    """Read and validate a JSON spec file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return spec_from_dict(data, default_name=path.stem)


def build_final_hamiltonian(
    spec: ProblemSpec, dm: DistanceMatrix | None = None
) -> DiagonalHamiltonian:
    """Final Hamiltonian for the spec, penalties included where they apply."""
    if dm is None:
        dm = distance_matrix(spec.points)
    return spec.encoding.hamiltonian(dm)


def run(spec: ProblemSpec) -> RunResult:
    """Anneal the spec and certify the decoded result against the oracle."""
    t0 = time.perf_counter()
    if spec.register_qutrits > REGISTER_MAX_QUTRITS:
        raise SizeGuardError(
            f"register of {spec.register_qutrits} qutrits exceeds the "
            f"{REGISTER_MAX_QUTRITS}-qutrit guard"
        )
    if len(spec.points) > ORACLE_MAX_POINTS:
        raise SizeGuardError(
            f"{len(spec.points)} points exceeds the oracle enumeration guard "
            f"of {ORACLE_MAX_POINTS}"
        )
    dm = distance_matrix(spec.points)
    hf = build_final_hamiltonian(spec, dm)
    state = anneal(spec.anneal, hf)
    report = decode(state, spec.encoding)
    oracle = oracle_min(dm, spec.scheme.K, fixed=spec.encoding.fixed)
    match = report.top_partition in set(oracle.argmin_partitions)
    return RunResult(
        spec=spec,
        top_partition=report.top_partition,
        top_probability=report.top_probability,
        top_cost=cost(dm, report.top_partition),
        oracle_min_cost=oracle.min_cost,
        oracle_partitions=oracle.argmin_partitions,
        match=match,
        invalid_probability=report.invalid_probability,
        final_norm=state.norm(),
        wall_time_s=time.perf_counter() - t0,
        report=report,
    )


def with_overrides(
    spec: ProblemSpec,
    pinned: bool | None = None,
    mode: str | None = None,
) -> ProblemSpec:
    """Apply command-line overrides to a spec."""
    if pinned is not None:
        method = pinned_method(spec.scheme.method, pinned)
        spec = replace(spec, scheme=replace(spec.scheme, method=method), pinned=pinned)
    if mode is not None:
        if mode not in MODES:
            raise SpecError(f"unknown mode {mode!r}, expected one of {MODES}")
        spec = replace(spec, anneal=replace(spec.anneal, mode=mode))
    return spec
