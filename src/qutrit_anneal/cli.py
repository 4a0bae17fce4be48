"""Command-line interface.

Exit codes: 0 run completed and the decoded partition matches the oracle,
1 run completed but mismatched, 2 input or validation error or an output
file that cannot be written, 3 instance exceeds a size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .emit import emit, render_table
from .errors import SizeGuardError, SpecError
from .harness import EMIT_FORMATS, generate_instance, load_spec, run, with_overrides
from .presets import PRESET_NAMES, get_preset

EXIT_MATCH = 0
EXIT_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_SIZE_GUARD = 3


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--emit",
        default=None,
        metavar="FMT[,FMT...]",
        help=f"comma-separated artifact formats to write ({', '.join(EMIT_FORMATS)}); "
        "overrides the spec's 'emit' list (default: table)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for emitted files; overrides the spec's 'out' (default: .)",
    )
    parser.add_argument(
        "--pinned",
        type=_parse_bool,
        default=None,
        metavar="BOOL",
        help="override whether point 0 is held fixed (one-hot methods only)",
    )
    parser.add_argument(
        "--mode",
        choices=("exact", "split"),
        default=None,
        help="per-step evolution algorithm (default: the spec's, normally exact)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qutrit-anneal",
        description="Adiabatic annealing on qutrit registers for 2-D clustering, "
        "certified against a brute-force oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a JSON problem spec")
    run_p.add_argument("spec_path", help="path to a spec file (see README for schema)")
    _add_run_options(run_p)

    preset_p = sub.add_parser("preset", help="run a bundled demo instance")
    preset_p.add_argument("name", choices=PRESET_NAMES)
    _add_run_options(preset_p)

    gen_p = sub.add_parser(
        "generate", help="generate a random instance (integer coordinates in [-10, 10])"
    )
    gen_p.add_argument("--n", type=int, required=True, help="number of points")
    gen_p.add_argument("--seed", type=int, required=True, help="generator seed")
    gen_p.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write the spec skeleton to DIR (default: stdout only)",
    )
    return parser


def _write_failed(exc: OSError) -> int:
    print(f"error: cannot write output: {exc}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _say(text: str) -> None:
    """Write ``text`` to stdout, with what its encoding cannot hold as backslash escapes.

    Under an ASCII locale a non-ASCII label is escaped, so the run goes on
    to write its files.
    """
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    sys.stdout.write(text.encode(encoding, "backslashreplace").decode(encoding))


def _execute(spec, emit_arg: str | None, out_arg: str | None) -> int:
    if emit_arg is not None:
        spec = replace(spec, emit=[f.strip() for f in emit_arg.split(",") if f.strip()])
    if out_arg is not None:
        spec = replace(spec, out_dir=out_arg)
    result = run(spec)
    _say(render_table(result))
    try:
        written = emit(result, spec.emit, spec.out_dir)
    except OSError as exc:
        return _write_failed(exc)
    for path in written:
        _say(f"wrote {path}\n")
    return EXIT_MATCH if result.match else EXIT_MISMATCH


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _command(args)
        sys.stdout.flush()  # a closed stdout fails here, not in the exit's own flush
        return code
    except BrokenPipeError as exc:  # the reader closed stdout: not a mismatch
        return _write_failed(exc)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    except (SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _command(args: argparse.Namespace) -> int:
    if args.command == "generate":
        points = generate_instance(args.n, args.seed)
        skeleton = {
            "name": f"random-n{args.n}-seed{args.seed}",
            "points": [[int(x), int(y)] for x, y in points.points],
            "method": "one-hot-K3-pinned",
            "seed": args.seed,
        }
        text = json.dumps(skeleton, indent=2) + "\n"
        sys.stdout.write(text)
        if args.out is not None:
            path = Path(args.out) / (skeleton["name"] + ".json")
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(text, encoding="utf-8")
            except OSError as exc:
                return _write_failed(exc)
            print(f"wrote {path}", file=sys.stderr)
        return EXIT_MATCH
    if args.command == "preset":
        spec = get_preset(args.name)
    else:
        spec = load_spec(args.spec_path)
    spec = with_overrides(spec, pinned=args.pinned, mode=_mode_name(args.mode))
    return _execute(spec, args.emit, args.out)


def _mode_name(cli_mode: str | None) -> str | None:
    if cli_mode is None:
        return None
    return "exact-step" if cli_mode == "exact" else "split-step"


if __name__ == "__main__":
    sys.exit(main())
