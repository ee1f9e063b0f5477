"""Command-line batch driver.

Runs certification suites over a model file (or a bundled demo name) and
prints either a human-readable text report or the canonical structured
JSON. The exit code is 0 exactly when every certificate lands on its
expected side. Defaults for every flag can be supplied through environment
variables named SYMCONE_<FLAG>; they are parsed like the flag itself, so a
malformed value is a usage error, and so is a report that cannot be written
(a closed stdout, say).

``console`` is the one entry of the ``symcone`` command and of ``python -m
symcone.cli``: it runs ``main()`` and ends the process at its exit code
without the interpreter's teardown, which the command's own process does
not need. ``main(argv)`` returns its code to library callers and tests.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import NoReturn

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

FORMATS = ("text", "structured")


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


# The variables that size a BLAS thread pool: OpenBLAS's, MKL's, and the
# OpenMP one that both read.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _console_jobs() -> int:
    """Certificate workers for the ``symcone`` command: as many as leave a
    whole BLAS thread pool to each worker on the usable cores.

    A BLAS pool is as large as the largest positive integer, in ASCII
    digits, among the ``_BLAS_THREAD_VARIABLES``, or the usable cores when
    none is set. So an unpinned BLAS runs the certificates in this process:
    workers that each start a pool of every core slow one another down (on
    a 2-core host, the perfbench desk input took 5.2 s with two such
    workers and 1.1 s in one process).
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return 1
    pinned = [
        int(value)
        for value in (os.environ.get(name, "").strip() for name in _BLAS_THREAD_VARIABLES)
        if value.isascii() and value.isdigit() and int(value) > 0
    ]
    return max(1, cores // max(pinned, default=cores))


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
        choices=FORMATS,
        default=_env_default("FORMAT", "text"),
        help="report format (default text)",
    )
    parser.add_argument(
        "--list-demos",
        action="store_true",
        help="list bundled demo names and exit",
    )
    return parser


def _write(text: str, code: int) -> int:
    """Write ``text`` to stdout, flushed, and return ``code``; or, when that
    fails, say why on stderr and return ``EXIT_USAGE``."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        print(f"symcone: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def main(argv: list[str] | None = None) -> int:
    """Run the command line on ``argv``, or on ``sys.argv`` when it is None.

    Only the latter, the ``symcone`` command's own process, may fork
    certificate workers (see ``_console_jobs``): a caller that passes
    ``argv`` runs in a process that is not symcone's alone (a test runner,
    a tracer that wraps functions in this process), so it runs the
    certificates in that process.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse checks choices on the values given, not on a default taken
    # from the environment
    if args.format not in FORMATS:
        parser.error(
            f"argument --format: invalid choice: {args.format!r} "
            f"(choose from {', '.join(map(repr, FORMATS))})"
        )

    if args.list_demos:
        return _write("".join(f"{name}\n" for name in DEMO_NAMES), EXIT_OK)

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

    jobs = _console_jobs() if argv is None else 1
    try:
        report = run_model_spec(spec, cfg, source=source, jobs=jobs)
    # a sampler that runs out of draws, and a certificate worker that ends
    # without reporting, raise RuntimeError; numpy's LinAlgError is a
    # ValueError; a certificate too large for memory (a huge --samples)
    # raises MemoryError, in this process or in a worker
    except (ValueError, RuntimeError, MemoryError) as exc:
        # Python's own MemoryError carries no message
        print(f"symcone: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE

    render = report_to_json if args.format == "structured" else render_report_text
    return _write(render(report), EXIT_OK if report["summary"]["ok"] else EXIT_FAILURES)


def console() -> NoReturn:
    """The ``symcone`` command: ``main()``, then the end of the process at
    its exit code, as the forked certificate workers end.

    ``os._exit`` skips the interpreter's teardown (its last collections
    and the release of numpy's and this package's modules), which took
    32 ms of a 0.37 s run on the perfbench scale input (2 cores, one BLAS
    thread); symcone registers no ``atexit`` work that this would skip. An
    exception or ``SystemExit`` out of ``main()``, such as a usage error,
    takes the ordinary exit.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console()
