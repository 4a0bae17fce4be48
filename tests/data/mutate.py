"""Report which one-line mutations of ``src/`` the tier-1 tests detect.

Each mutation in ``MUTATIONS`` is an exact ``old -> new`` replacement in one
file of ``src/qutrit_anneal``; ``old`` must occur there exactly once.  For
each, the script extracts ``git archive REV`` into a temporary directory,
applies the edit, runs tier-1 with ``-x`` and prints ``killed`` with the
first failing test, or ``survived``.  It first runs the unmutated copy, and
stops if that fails.  Mutations run one at a time, each in its own copy,
so the working tree is never touched.

Run from the repository root, by hand (it is not part of tier-1; each
mutation is one tier-1 run):

    python tests/data/mutate.py                  # every mutation, on HEAD
    python tests/data/mutate.py --rev HEAD~1 tail-1e-13 steps-1e8
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ANNEAL = "anneal.py"

#: (name, file under src/qutrit_anneal, old, new).
MUTATIONS = (
    # module constants and the Chebyshev series
    ("step-window-4096", ANNEAL, "_STEP_WINDOW = 16", "_STEP_WINDOW = 4096"),
    ("tail-1e-13", ANNEAL, "_TAIL = 1e-15", "_TAIL = 1e-13"),
    (
        "miller-start-8",
        ANNEAL,
        "abs(x) ** (1.0 / 3.0) + 30.0)",
        "abs(x) ** (1.0 / 3.0) + 8.0)",
    ),
    (
        "radii-mean-over-blocks",
        ANNEAL,
        "0.5 * hf.min(axis=1)).max())",
        "0.5 * hf.min(axis=1)).mean())",
    ),
    ("split-substeps-9", ANNEAL, "_SPLIT_SUBSTEPS = 8", "_SPLIT_SUBSTEPS = 9"),
    ("steps-1e8", ANNEAL, "_MAX_STEPS = 10**7", "_MAX_STEPS = 10**8"),
    # the schedule
    (
        "between-at-every-window-start",
        ANNEAL,
        "ops[int(s[0] == 0) :] *= between",
        "ops[:] *= between",
    ),
    (
        "split-closing-half-phase-dropped",
        ANNEAL,
        "after * frame * np.exp(0.5j * tau * centred)",
        "after * frame",
    ),
    (
        "closing-phase-M",
        ANNEAL,
        "np.exp(-0.5j * dt * (M + 1) * mid)",
        "np.exp(-0.5j * dt * M * mid)",
    ),
    # the pre-run check
    ("steps-guard-ge", ANNEAL, "if M > _MAX_STEPS:", "if M >= _MAX_STEPS:"),
    (
        "dt-radius-guard-lt",
        ANNEAL,
        "x <= _MAX_DT_RADIUS if exact",
        "x < _MAX_DT_RADIUS if exact",
    ),
    ("cause-tie-to-width", ANNEAL, "if r0 >= r1:", "if r0 > r1:"),
    (
        "split-float-range-unchecked",
        ANNEAL,
        "if exact else math.isfinite(x)):",
        "if exact else True):",
    ),
    (
        "checked-phase-M",
        ANNEAL,
        "math.isfinite(0.5 * dt * (M + 1) * offset)",
        "math.isfinite(0.5 * dt * M * offset)",
    ),
    (
        "split-wide-rows-uncentred",
        ANNEAL,
        "_split_steps(s, centred, tau, h, between, ratio, amps)",
        "_split_steps(s, hf, tau, h, between, ratio, amps)",
    ),
    (
        "split-small-blocks-uncentred",
        ANNEAL,
        "_split_propagators(s, centred, tau, h, between)",
        "_split_propagators(s, hf, tau, h, between)",
    ),
    # readout and the oracle
    (
        "decode-ties-reversed",
        ANNEAL,
        'order = np.argsort(sums, kind="stable")[::-1]',
        'order = np.argsort(-sums, kind="stable")',
    ),
    ("argmin-rel-tol-1e-6", "clustering.py", "_ARGMIN_REL_TOL = 1e-9", "_ARGMIN_REL_TOL = 1e-6"),
)

#: Tier-1, stopping at the first failure, with the failures listed.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider"]


def extract(rev: str, into: Path) -> None:
    """``git archive rev`` unpacked into ``into``."""
    into.mkdir()
    archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def apply(root: Path, file: str, old: str, new: str) -> None:
    """Replace the one ``old`` in ``src/qutrit_anneal/file`` by ``new``."""
    path = root / "src" / "qutrit_anneal" / file
    text = path.read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{file}: {old!r} occurs {count} times, not once")
    path.write_text(text.replace(old, new), encoding="utf-8")


def first_failure(root: Path) -> str | None:
    """The first test tier-1 fails in ``root``, or None when it passes."""
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True, timeout=1800)
    if done.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return failed.group(1) if failed else f"pytest exit {done.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD", help="the tree to mutate (default HEAD)")
    parser.add_argument("names", nargs="*", help="mutations to run (default all)")
    args = parser.parse_args(argv)
    known = {m[0] for m in MUTATIONS}
    unknown = sorted(set(args.names) - known)
    if unknown:
        parser.error(f"unknown mutation(s) {unknown}; known: {sorted(known)}")
    chosen = [m for m in MUTATIONS if not args.names or m[0] in args.names]
    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "unmutated"
        extract(args.rev, base)
        failed = first_failure(base)
        if failed:
            print(f"the unmutated tree fails {failed}; no mutation run")
            return 1
        survivors = 0
        for name, file, old, new in chosen:
            root = Path(tmp) / name
            extract(args.rev, root)
            apply(root, file, old, new)
            failed = first_failure(root)
            shutil.rmtree(root)
            survivors += failed is None
            verdict = "survived" if failed is None else "killed"
            print(f"{verdict:8}  {name}  {failed or ''}", flush=True)
    print(f"{len(chosen) - survivors} of {len(chosen)} killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
