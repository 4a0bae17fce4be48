"""Problem specs, instance generation, and the end-to-end certified run.

A run builds the final Hamiltonian for the requested encoding, anneals,
decodes the final state, and compares the most probable partition against
the exhaustive oracle.  Spec files are JSON; see the README for the schema.

Each spec rule is checked once, by the constructor that holds the value:
``PointSet`` (points, labels), ``EncodingScheme`` (method, K, centroid
states, penalty), ``Encoding`` (centroids, pinning, the penalty against the
point count), ``AnnealConfig`` (the anneal block) and ``ProblemSpec``
(name, emit, out, seed).  Each raises
``SpecError`` naming the spec field, so a library caller and a spec file
meet the same rules.  ``spec_from_dict`` checks only the JSON shape (known
keys, required fields), fills in the defaults that depend on the method,
and rejects ``"pinned": false`` on a method that pins and a default name,
the spec file's, that UTF-8 cannot encode.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .anneal import AnnealConfig, ReadoutReport, anneal, decode
from .clustering import (
    ORACLE_MAX_POINTS,
    DistanceMatrix,
    OracleResult,
    Partition,
    PointSet,
    cost,
    distance_matrix,
    oracle_min,
)
from .errors import SizeGuardError, SpecError, is_int, is_utf8
from .hamiltonians import (
    REGISTER_MAX_QUTRITS,
    Encoding,
    EncodingScheme,
    method_traits,
    pinned_method,
)

#: Artifact formats a run can emit, each with its file's suffix (renderers live in emit).
EMIT_SUFFIXES = {"table": ".txt", "csv": ".csv", "svg": ".svg"}
EMIT_FORMATS = tuple(EMIT_SUFFIXES)

_DEFAULT_H = 8.0


@dataclass(frozen=True)
class ProblemSpec:
    """A complete, validated description of one annealing run.

    ``encoding`` is derived from the points, scheme, pinning and centroids;
    ``pinned`` and ``centroids`` are normalized to the ones it uses.
    ``artifact_paths`` checks the files that name, emit and out make.
    """

    points: PointSet
    scheme: EncodingScheme
    anneal: AnnealConfig
    centroids: tuple[int, ...] | None = None
    pinned: bool = False
    seed: int | None = None
    name: str = "spec"
    emit: tuple[str, ...] = ("table",)
    out_dir: str | os.PathLike = "."
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
        if not is_utf8(name):
            raise SpecError(f"'name' must be text that UTF-8 can encode, got {name!r}")
        if not isinstance(self.out_dir, (str, os.PathLike)):
            raise SpecError(f"'out' must be a directory path, got {self.out_dir!r}")
        artifact_paths(name, self.emit, self.out_dir)
        object.__setattr__(self, "emit", tuple(self.emit))
        if self.seed is not None and not is_int(self.seed):
            raise SpecError(f"'seed' must be an integer, got {self.seed!r}")
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
    """Outcome of one annealing run plus its oracle certification.

    ``oracle_min_cost`` and ``oracle_partitions`` are read through
    ``oracle``, whose ``Partition``s are built on first read.
    """

    spec: ProblemSpec
    top_partition: Partition
    top_probability: float
    top_cost: float
    oracle: OracleResult
    match: bool
    invalid_probability: float
    final_norm: float
    wall_time_s: float
    report: ReadoutReport

    @property
    def oracle_min_cost(self) -> float:
        return self.oracle.min_cost

    @property
    def oracle_partitions(self) -> tuple[Partition, ...]:
        return self.oracle.argmin_partitions


def artifact_paths(name: str, formats, out_dir: str | os.PathLike) -> list[Path]:
    """The files a run writes, ``out_dir / (name + suffix)``, one per format.

    ``ProblemSpec`` and ``emit`` both apply this rule.  A format outside
    ``EMIT_FORMATS`` is a ``SpecError`` naming 'emit'; a name or an out
    directory that the file-system encoding cannot hold, one naming that field.
    """
    if not (isinstance(formats, (list, tuple)) and all(f in EMIT_FORMATS for f in formats)):
        raise SpecError(f"'emit' must be a list of formats from {EMIT_FORMATS}, got {formats!r}")
    for key, value in (("name", name), ("out", out_dir)):
        try:
            os.fsencode(value)
        except UnicodeEncodeError:
            raise SpecError(
                f"{key!r} must fit the file-system encoding "
                f"{sys.getfilesystemencoding()!r}, got {os.fspath(value)!r}"
            ) from None
    return [Path(out_dir) / (name + EMIT_SUFFIXES[fmt]) for fmt in formats]


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


def spec_from_dict(data: dict, default_name: str = "spec") -> ProblemSpec:
    """Parse a spec dictionary into a ProblemSpec.

    Only the JSON shape is checked here; the constructors check the values.
    A ``default_name`` that UTF-8 cannot encode, as a spec file's name that
    the locale could not decode, is refused with the advice to give 'name'.
    """
    _require(isinstance(data, dict), "spec must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    _require(not unknown, f"unknown spec field(s): {sorted(unknown)}")
    _require(
        "name" in data or is_utf8(default_name),
        f"'name' defaults to {default_name!r}, the spec file's name, which UTF-8 "
        "cannot encode; give the spec a 'name'",
    )
    for key in ("points", "method"):
        _require(key in data, f"spec is missing the required {key!r} field")

    labels = data.get("labels")
    points = PointSet(data["points"], None if labels == [] else labels)

    method = data["method"]
    traits = method_traits(method)
    centroids = data.get("centroids")
    K = data.get("K")
    if K is None and traits.centroids and centroids is not None:
        # the default K counts the centroids
        _require(
            isinstance(centroids, list),
            f"'centroids' must be a list of point indices, got {centroids!r}",
        )
        _require(
            len(centroids) >= 2,
            f"method {method!r} takes 'K' from 'centroids', which needs at least two "
            f"point indices, got {centroids!r}",
        )
        K = len(centroids)
    if K is None:
        K = traits.K
        _require(K, f"method {method!r} requires an explicit 'K'")
    pinned = data.get("pinned")
    if pinned is None:
        # where the spec may choose (K2), point 0 is pinned by default
        pinned = traits.pinned is not False
    _require(
        pinned is not False or not traits.pinned,
        f"method {method!r} pins point 0, which contradicts 'pinned': false",
    )

    anneal_data = {} if data.get("anneal") is None else data["anneal"]
    _require(isinstance(anneal_data, dict), "'anneal' must be an object")
    unknown = set(anneal_data) - _ANNEAL_KEYS
    _require(not unknown, f"unknown anneal field(s): {sorted(unknown)}")

    scheme = EncodingScheme(
        method=pinned_method(method, pinned),
        K=K,
        centroid_states=data.get("centroid_states"),
        penalty_constant=data.get("penalty"),
    )
    return ProblemSpec(
        points=points,
        scheme=scheme,
        anneal=AnnealConfig(**{"h": _DEFAULT_H, **anneal_data}),
        centroids=centroids,
        pinned=pinned,
        seed=data.get("seed"),
        name=data.get("name", default_name),
        emit=data.get("emit", ["table"]),
        out_dir=data.get("out", "."),
    )


def load_spec(path: str | Path) -> ProblemSpec:
    """Read and validate a JSON spec file, UTF-8 whatever the locale."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SpecError(f"{path}: invalid JSON: nested too deeply to parse") from exc
    return spec_from_dict(data, default_name=path.stem)


def build_final_hamiltonian(spec: ProblemSpec, dm: DistanceMatrix | None = None) -> np.ndarray:
    """Final Hamiltonian for the spec as (C, 3**w) block rows, with its penalties."""
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
    amps = anneal(spec.anneal, hf)
    report = decode(amps, spec.encoding)
    oracle = oracle_min(dm, spec.scheme.K, fixed=spec.encoding.fixed)
    # keys of tables of the same width (at most 12 points) compare
    top, argmin = report.keys[0], oracle.argmin_keys
    at = np.searchsorted(argmin, top)
    return RunResult(
        spec=spec,
        top_partition=report.top_partition,
        top_probability=report.top_probability,
        top_cost=cost(dm, report.top_partition),
        oracle=oracle,
        match=bool(at < argmin.size and argmin[at] == top),
        invalid_probability=report.invalid_probability,
        final_norm=float(np.linalg.norm(amps)),
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
        spec = replace(spec, anneal=replace(spec.anneal, mode=mode))
    return spec
