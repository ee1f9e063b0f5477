"""Command-line batch driver.

Runs certification suites over a model file (or a bundled demo name) and
prints either a human-readable text report or the canonical structured
JSON. The exit code is 0 exactly when every certificate lands on its
expected side. Defaults for every flag can be supplied through environment
variables named SYMCONE_<FLAG>; they are parsed like the flag itself, so a
malformed value is a usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .demos import DEMO_NAMES, demo_text, is_demo
from .modelfile import ModelFileError, parse_model_file, parse_model_text
from .runner import (
    SUITES,
    RunConfig,
    render_report_text,
    report_to_json,
    run_model_spec,
)

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2


def _env_default(name: str, fallback):
    value = os.environ.get(f"SYMCONE_{name}")
    return value if value is not None else fallback


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcone",
        description=(
            "Certify Euclidean Jordan algebra systems described in a model "
            "file: algebraic laws, cone geometry, product reconstruction, "
            "measurement models, and composite audits."
        ),
        epilog="Bundled demos: " + ", ".join(DEMO_NAMES),
    )
    parser.add_argument(
        "--input",
        default=_env_default("INPUT", None),
        help="model file path or bundled demo name",
    )
    parser.add_argument(
        "--suites",
        default=_env_default("SUITES", ",".join(SUITES)),
        help=f"comma-separated subset of: {', '.join(SUITES)}",
    )
    parser.add_argument(
        "--tol",
        type=float,
        default=_env_default("TOL", "1e-9"),
        help="certificate tolerance (default 1e-9)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=_env_default("SAMPLES", "200"),
        help="sample count per randomized certificate (default 200)",
    )
    parser.add_argument(
        "--seed",
        type=_nonnegative_int,
        default=_env_default("SEED", "0"),
        help="base random seed (default 0)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default=_env_default("FORMAT", "text"),
        help="report format (default text)",
    )
    parser.add_argument(
        "--list-demos",
        action="store_true",
        help="list bundled demo names and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_demos:
        for name in DEMO_NAMES:
            print(name)
        return EXIT_OK

    if not args.input:
        parser.error("--input is required (a file path or a bundled demo name)")

    suites = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    try:
        cfg = RunConfig(
            suites=suites,
            tol=args.tol,
            samples=args.samples,
            seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))

    try:
        if is_demo(args.input):
            spec = parse_model_text(demo_text(args.input))
            source = f"demo:{args.input}"
        else:
            spec = parse_model_file(args.input)
            source = args.input
    except ModelFileError as exc:
        print(f"symcone: model file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"symcone: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        report = run_model_spec(spec, cfg, source=source)
    # a sampler that runs out of draws raises RuntimeError; numpy's
    # LinAlgError is a ValueError
    except (ValueError, RuntimeError) as exc:
        print(f"symcone: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.format == "structured":
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(render_report_text(report))
    return EXIT_OK if report["summary"]["ok"] else EXIT_FAILURES


if __name__ == "__main__":
    sys.exit(main())
