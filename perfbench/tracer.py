"""Spans at the library's layer boundaries, installed from outside the library.

The tracer replaces module attributes with timing wrappers and puts the
originals back on ``restore``.  Names are wrapped where the caller looks
them up: ``harness.run`` calls ``anneal``, ``decode``, ``oracle_min``,
``distance_matrix`` and ``build_final_hamiltonian`` through the harness
module's own globals, so those are wrapped on ``qutrit_anneal.harness``.
Modules are reached with ``importlib.import_module``, because the package
re-exports functions under the same names as its submodules
(``qutrit_anneal.anneal`` is the function there).

``layer_metrics`` gives ``None``, never zero, for a metric whose spans
never fired, so a wrapper that missed its target cannot pass for a fast
layer.  ``combine`` takes such a metric from a request that crosses every
boundary; one missing there too stays ``None`` and fails the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter


def _oracle_work(dm, K, fixed=None, *args, **kwargs) -> int:
    return K ** (dm.n_points - len(fixed or {}))


#: (module, attribute, span name, work counter or None).
BOUNDARIES = (
    ("qutrit_anneal.harness", "spec_from_dict", "harness.validate", None),
    ("qutrit_anneal.harness", "generate_instance", "harness.validate", None),
    ("qutrit_anneal.presets", "get_preset", "harness.validate", None),
    ("qutrit_anneal.harness", "run", "harness.run", None),
    ("qutrit_anneal.harness", "distance_matrix", "clustering.distance", None),
    ("qutrit_anneal.harness", "build_final_hamiltonian", "hamiltonians.build", None),
    ("qutrit_anneal.harness", "anneal", "anneal.anneal", None),
    ("qutrit_anneal.harness", "decode", "anneal.decode", None),
    ("qutrit_anneal.harness", "oracle_min", "clustering.oracle", _oracle_work),
    ("qutrit_anneal.harness", "cost", "clustering.cost", None),
    ("qutrit_anneal.clustering", "distance_matrix", "clustering.distance", None),
    ("qutrit_anneal.clustering", "oracle_min", "clustering.oracle", _oracle_work),
    ("qutrit_anneal.anneal", "_split_step", "anneal.split_step", None),
    ("qutrit_anneal.emit", "render_table", "emit.table", None),
    ("qutrit_anneal.emit", "render_csv", "emit.csv", None),
    ("qutrit_anneal.emit", "render_svg", "emit.svg", None),
)

#: Per-layer metrics and their units, in report order.
LAYER_METRICS = (
    ("anneal.anneal_s", "s"),
    ("anneal.steps", "count"),
    ("hamiltonians.matvecs", "count"),
    ("anneal.krylov_dim_mean", "count"),
    ("anneal.krylov_dim_max", "count"),
    ("hamiltonians.matvec_s", "s"),
    ("hamiltonians.matvec_bytes", "B"),
    ("anneal.lanczos_self_s", "s"),
    ("anneal.decode_s", "s"),
    ("hamiltonians.build_s", "s"),
    ("clustering.distance_s", "s"),
    ("clustering.oracle_s", "s"),
    ("clustering.oracle_assignments", "count"),
    ("clustering.oracle_assignments_per_s", "1/s"),
    ("emit.table_s", "s"),
    ("emit.csv_s", "s"),
    ("emit.svg_s", "s"),
    ("harness.validate_s", "s"),
    ("harness.run_self_s", "s"),
    ("trace.overhead_s", "s"),
)

_NAME, _START, _END, _PARENT, _WORK, _OVERHEAD = range(6)


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, work, overhead]``.

    A span's parent is the span open when it started, so every span of one
    solved spec descends from that spec's ``bench.solve`` span.  A wrapper
    charges its span the time it spent outside the call it times.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []
        self._closed = -1

    @contextmanager
    def span(self, name: str, work: int = 0):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent, work, 0.0])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][_END] = perf_counter()
            self._closed = idx

    def _charge(self, entered: float) -> None:
        """Charge the span just closed with its wrapper's time outside it."""
        span = self.spans[self._closed]
        span[_OVERHEAD] = perf_counter() - entered - (span[_END] - span[_START])

    def _wrap(self, fn, name, work_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = perf_counter()
            work = work_of(*args, **kwargs) if work_of else 0
            try:
                with self.span(name, work):
                    return fn(*args, **kwargs)
            finally:
                self._charge(entered)

        return traced

    def _wrap_expm(self, fn):
        """Span per Lanczos call, plus a span per call of the matvec it was given."""

        @functools.wraps(fn)
        def traced(matvec, v, *args, **kwargs):
            def counted(x):
                entered = perf_counter()
                try:
                    with self.span("hamiltonians.matvec", x.size * x.itemsize):
                        return matvec(x)
                finally:
                    self._charge(entered)

            entered = perf_counter()
            try:
                with self.span("anneal.expm"):
                    return fn(counted, v, *args, **kwargs)
            finally:
                self._charge(entered)

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        targets = [(m, a, self._wrap, (n, w)) for m, a, n, w in BOUNDARIES]
        targets.append(("qutrit_anneal.anneal", "expm_multiply_hermitian", self._wrap_expm, ()))
        for mod_name, attr, make, extra in targets:
            module = importlib.import_module(mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original, *extra))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def mark(self) -> int:
        return len(self.spans)

    def dump(self, path, extra: dict) -> None:
        """Write one JSON line of run facts, then one per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(extra) + "\n")
            keys = ("id", "name", "start", "end", "parent", "work", "overhead")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(zip(keys, (i, *span)))) + "\n")

    def layer_metrics(self, start: int, stop: int) -> dict:
        """Per-layer metrics over spans[start:stop]; ``None`` marks a layer that never ran."""
        spans = self.spans[start:stop]
        dur: dict[str, float] = {}
        count: dict[str, int] = {}
        work: dict[str, int] = {}
        child_time = [0.0] * len(spans)
        krylov = [0] * len(spans)
        for name, s, e, parent, w, _ in spans:
            dur[name] = dur.get(name, 0.0) + (e - s)
            count[name] = count.get(name, 0) + 1
            work[name] = work.get(name, 0) + w
            if parent is not None and parent >= start:
                child_time[parent - start] += e - s
                if name == "hamiltonians.matvec":
                    krylov[parent - start] += 1

        dims = [krylov[i] for i, sp in enumerate(spans) if sp[_NAME] == "anneal.expm"]
        run_self = [
            (sp[_END] - sp[_START]) - child_time[i]
            for i, sp in enumerate(spans)
            if sp[_NAME] == "harness.run"
        ]
        steps = count.get("anneal.expm", 0) + count.get("anneal.split_step", 0)
        return {
            "anneal.anneal_s": dur.get("anneal.anneal"),
            "anneal.steps": steps or None,
            "hamiltonians.matvecs": count.get("hamiltonians.matvec"),
            "anneal.krylov_dim_mean": sum(dims) / len(dims) if dims else None,
            "anneal.krylov_dim_max": max(dims) if dims else None,
            "hamiltonians.matvec_s": dur.get("hamiltonians.matvec"),
            "hamiltonians.matvec_bytes": work.get("hamiltonians.matvec"),
            "anneal.lanczos_self_s": (
                dur.get("anneal.expm") - dur.get("hamiltonians.matvec", 0.0) if dims else None
            ),
            "anneal.decode_s": dur.get("anneal.decode"),
            "hamiltonians.build_s": dur.get("hamiltonians.build"),
            "clustering.distance_s": dur.get("clustering.distance"),
            "clustering.oracle_s": dur.get("clustering.oracle"),
            "clustering.oracle_assignments": work.get("clustering.oracle"),
            "emit.table_s": dur.get("emit.table"),
            "emit.csv_s": dur.get("emit.csv"),
            "emit.svg_s": dur.get("emit.svg"),
            "harness.validate_s": dur.get("harness.validate"),
            "harness.run_self_s": sum(run_self) if run_self else None,
            "trace.overhead_s": sum(sp[_OVERHEAD] for sp in spans) or None,
        }


def combine(passes: list[dict], coverage: dict) -> dict:
    """Per-layer metrics of a run from those of its traced passes.

    Each takes its smallest value over the passes, the one least touched by
    other work on the host; counts repeat exactly, so for them this is the count.
    A metric of a layer the passes never reached is taken from ``coverage``,
    the metrics of one request that crosses every boundary.  Whether a
    workload reaches a layer is fixed by its cases, so each metric of a
    workload always comes from the same source.
    """
    out = {}
    for name in passes[0]:
        values = [p[name] for p in passes]
        out[name] = coverage[name] if None in values else min(values)
    out["clustering.oracle_assignments_per_s"] = (
        out["clustering.oracle_assignments"] / out["clustering.oracle_s"]
    )
    return out
