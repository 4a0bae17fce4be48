#!/usr/bin/env python3
"""Closed-loop benchmark of the qutrit-anneal library: one client, spec after spec.

    python3 perfbench/run.py --workload presets-exact --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.  Every
output is checked (see check.py) before a number is reported.  See
perfbench/README.md for the workloads and metrics.
"""

import os
from time import perf_counter

#: When this process started; ``--seconds`` counts from here.
STARTED = perf_counter()

#: BLAS/OpenMP threads, pinned before numpy loads.  On a 2-CPU machine one
#: thread ran the presets both faster and steadier than two.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import check, workloads  # noqa: E402
from perfbench.calibration import HostSpeed  # noqa: E402
from perfbench.tracer import LAYER_METRICS, Tracer, combine  # noqa: E402

#: Scratch space for emitted artifacts and span dumps (inside the checkout).
OUT = ROOT / ".bench_out"
#: Fresh processes timed per run for setup_s, spread evenly through the
#: run; the median of their scaled times is reported.
SETUP_SAMPLES = 12

END_TO_END = (
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("match_rate", "ratio"),
    ("ok_rate", "ratio"),
    ("split_prob_err", "prob"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="import the library, build the workload's specs and exit (times setup_s)",
    )
    return parser.parse_args(argv)


def _import_library():
    """Import qutrit_anneal from this checkout's src, or exit 2 if it is not there."""
    init = SRC / "qutrit_anneal" / "__init__.py"
    if not init.is_file():
        print(f"error: no library source at {init}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    qa = importlib.import_module("qutrit_anneal")
    importlib.import_module("qutrit_anneal.cli")
    if Path(qa.__file__).resolve() != init.resolve():
        print(f"error: imported {qa.__file__}, not {init}", file=sys.stderr)
        raise SystemExit(2)


class SetupProbe:
    """Times fresh processes from spawn until they have imported the library
    and built the workload's specs, one when each ``interval`` seconds have
    passed.

    Probes run between cases, outside every case's timer, so they are spread
    through the run.  Each is scaled by the host's speed when it ran (see
    calibration.py), and setup_s is their median.  The probe prints the
    system-wide monotonic clock when it is ready, so interpreter teardown and
    the parent's wait granularity stay out.
    """

    def __init__(self, workload: str, seed: int, interval: float):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.interval = interval
        self.times = []
        self.scaled = []
        self.due = perf_counter()

    def maybe(self, scale: float):
        if perf_counter() >= self.due:
            t0 = time.monotonic()
            proc = subprocess.run(self.cmd, check=True, capture_output=True, text=True, timeout=120)
            self.times.append(float(proc.stdout.split()[-1]) - t0)
            self.scaled.append(self.times[-1] * scale)
            self.due += self.interval


class Workload:
    """Cases of one workload, how to solve one, and how to check the answer."""

    def __init__(self, name: str, cases: list, reference: dict):
        self.cases = cases
        self.is_oracle = name == "oracle-certify"
        # Seeds only move the instances by distance-preserving maps, so the
        # recorded outputs hold at every seed.
        self.recorded = [reference[name][c.name] for c in cases]
        self.oracle_refs = [check.reference_oracle(*workloads.oracle_query(c)) for c in cases]
        self.prob_tol = check.SPLIT_PROB_TOL if name == "sweep-split" else check.EXACT_PROB_TOL
        self.harness = importlib.import_module("qutrit_anneal.harness")
        self.emit = importlib.import_module("qutrit_anneal.emit")
        self.clustering = importlib.import_module("qutrit_anneal.clustering")

    def solve(self, case, out_dir):
        """One request, from the library call to its last emitted artifact."""
        if self.is_oracle:
            dm = self.clustering.distance_matrix(case.points)
            return self.clustering.oracle_min(dm, case.K, fixed=case.fixed), []
        result = self.harness.run(case)
        return result, self.emit.emit(result, case.emit, out_dir)

    def errors(self, i: int, output) -> list[str]:
        answer, paths = output
        if self.is_oracle:
            return check.check_oracle(answer, self.oracle_refs[i], self.recorded[i])
        return check.check_run(
            answer, self.oracle_refs[i], self.recorded[i], self.prob_tol
        ) + check.check_artifacts(answer, paths)

    def matched(self, i: int, output) -> bool:
        answer, _ = output
        top = answer.argmin_partitions[0] if self.is_oracle else answer.top_partition
        return check.partition_key(top) in self.oracle_refs[i][1]


def _split_prob_err(reference: dict) -> tuple[float, int, int]:
    """Largest split/exact partition-probability gap over the presets, attempts, failures."""
    harness = importlib.import_module("qutrit_anneal.harness")
    specs = workloads.probe_specs()
    worst, failed = 0.0, 0
    for spec in specs:
        result = harness.run(spec)
        errors = check.check_run(result, check.reference_oracle(*workloads.oracle_query(spec)))
        if errors:
            print(f"FAILED split probe {spec.name}: {'; '.join(errors)}", file=sys.stderr)
            failed += 1
        exact = reference["presets-exact"][spec.name]["probs"]
        worst = max(worst, check.max_prob_diff(check.run_probs(result), exact))
    return worst, len(specs), failed


def _coverage(tracer: Tracer, reference: dict) -> tuple[dict, list]:
    """Layer metrics of one traced request that crosses every layer boundary,
    and its check's failure messages.

    A traced run reports these for the layers its own cases never reach, so
    every per-layer metric is measured on every workload.
    """
    cov = Workload("presets-exact", [workloads.coverage_spec()], reference)
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=OUT, prefix="coverage-"))
    tracer.install()
    mark = tracer.mark()
    try:
        _, errors, _ = _run_pass(cov, out_dir, tracer)
    finally:
        tracer.restore()
        shutil.rmtree(out_dir, ignore_errors=True)
    if errors[0]:
        print(f"FAILED coverage {cov.cases[0].name}: {'; '.join(errors[0])}", file=sys.stderr)
    return tracer.layer_metrics(mark, tracer.mark()), errors


def _run_pass(wl: Workload, out_dir, tracer=None, between=None):
    """Solve every case once, checking each answer after its timer stops,
    and calling ``between`` after each case, also outside its timer.

    Returns, per case, the solve time, the check's failure messages and
    whether the answer is oracle-optimal.  Answers are dropped
    once checked, so peak memory does not grow with the number of cases.
    """
    elapsed, errors, matched = [], [], []
    for i, case in enumerate(wl.cases):
        t0 = perf_counter()
        try:
            with tracer.span("bench.solve") if tracer else nullcontext():
                output = wl.solve(case, out_dir)
        except Exception:  # a failing spec is counted and reported, not fatal
            traceback.print_exc()
            output = None
        elapsed.append(perf_counter() - t0)
        errors.append(["raised"] if output is None else wl.errors(i, output))
        matched.append(output is not None and wl.matched(i, output))
        del output
        if between:
            between()
    return elapsed, errors, matched


def _solve_time(passes: list, scales: list) -> float:
    """Median over the run's passes of each pass's time, scaled by the host's
    speed during that pass (see calibration.py)."""
    return statistics.median(sum(p) * s for p, s in zip(passes, scales))


def _timed_passes(wl: Workload, seconds: float, trace: bool, tracer: Tracer, between=None):
    """Repeat passes until ``seconds`` after the process started, alternating
    untraced and traced ones when tracing.

    Starts no pass that would end past that time, but always runs one
    untraced pass and, when tracing, one traced pass.  Returns the per-case
    times of the untraced and of the traced passes, the layer metrics of the
    traced passes, the failures per case and pass, and the first pass's matches.
    """
    times = {False: [], True: []}
    layers, failures, first_matched = [], [], None
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=OUT, prefix="emit-"))
    try:
        longest = 0.0
        while True:
            traced = trace and len(times[True]) < len(times[False])
            if traced:
                tracer.install()
            mark = tracer.mark()
            t0 = perf_counter()
            try:
                elapsed, errors, matched = _run_pass(
                    wl, out_dir, tracer if traced else None, between
                )
            finally:
                tracer.restore()
            times[traced].append(elapsed)
            if traced:
                layers.append(tracer.layer_metrics(mark, tracer.mark()))
            failures.extend(errors)
            first_matched = first_matched or matched
            longest = max(longest, perf_counter() - t0)
            done = not trace or times[True]
            if done and perf_counter() - STARTED + longest > seconds:
                return times[False], times[True], layers, failures, first_matched
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_library()
    if args.setup_probe:
        workloads.build_cases(args.workload, args.seed)
        print(time.monotonic())
        return 0

    import numpy
    import scipy

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": os.cpu_count(),
        "blas_threads": THREADS,
    }
    print(json.dumps({"env": env}))

    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        cases = workloads.build_cases(args.workload, args.seed)
    finally:
        tracer.restore()
    validate_s = tracer.layer_metrics(0, tracer.mark())["harness.validate_s"]

    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    wl = Workload(args.workload, cases, reference)
    # The split probe runs before any timed pass, so it also warms every code path.
    split_prob_err, attempted, failed = _split_prob_err(reference)
    coverage = None
    if args.trace:
        coverage, errors = _coverage(tracer, reference)
        attempted += len(errors)
        failed += sum(bool(e) for e in errors)
    probe = host = between = None
    if not args.trace:
        # The untraced run's passes are expected to fill what is left of the run.
        probe = SetupProbe(
            args.workload, args.seed, (args.seconds - (perf_counter() - STARTED)) / SETUP_SAMPLES
        )
        host = HostSpeed()

        def between():
            host.sample()
            probe.maybe(host.scale(len(wl.cases)))

    untraced, traced, layers, failures, first_matched = _timed_passes(
        wl, args.seconds, bool(args.trace), tracer, between
    )
    for i, errors in enumerate(failures):
        if errors:
            print(f"FAILED {wl.cases[i % len(wl.cases)].name}: {'; '.join(errors)}", file=sys.stderr)
    attempted += len(failures)
    failed += sum(bool(e) for e in failures)

    if args.trace:
        units = dict(LAYER_METRICS)
        values = combine(layers, coverage)
        values["harness.validate_s"] = validate_s
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", env)
    else:
        units = dict(END_TO_END)
        values = {
            "solve_s": _solve_time(untraced, host.pass_scales(len(wl.cases))),
            "setup_s": statistics.median(probe.scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "match_rate": sum(first_matched) / len(first_matched),
            "ok_rate": (attempted - failed) / attempted,
            "split_prob_err": split_prob_err,
        }

    metrics = {}
    for name, unit in units.items():
        value = values[name]
        if value is None:
            raise RuntimeError(f"no span fed {name}, not even in the coverage request")
        print(f"{name:40s} {value:>14.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    for kind, passes in (("untraced", untraced), ("traced", traced)):
        print(f"# {kind} passes: {[round(sum(p), 3) for p in passes]} s")
    if args.trace:
        overhead = statistics.median(map(sum, traced)) - statistics.median(map(sum, untraced))
        print(f"# traced minus untraced pass time (medians): {overhead:.4g} s")
        unreached = [n for n, v in layers[0].items() if v is None and n != "harness.validate_s"]
        print(f"# measured on the coverage request ({workloads.COVERAGE_PRESET}): {unreached}")
    if probe:
        print(f"# setup probes: {[round(t, 3) for t in probe.times]} s")
        print(f"# unscaled medians: pass {statistics.median(map(sum, untraced)):.4g} s, "
              f"setup {statistics.median(probe.times):.4g} s, "
              f"reference work {statistics.median(host.times):.4g} s")
    print(f"# {len(wl.cases)} cases, {failed} of {attempted} requests failed")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
