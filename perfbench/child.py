"""In-process probes that the benchmark runs as child processes.

    python child.py trace --run-id ID --spans OUT --report OUT -- <symcone args>
        Runs the symcone CLI once with every layer's public functions
        wrapped by the tracer, writes the structured report to --report and
        the spans to --spans, and exits with the CLI's exit code.

    python child.py probe --input SOURCE --family F --size N --pairs P \
            --seconds S --out OUT
        In a fresh process, builds the context of every algebra and
        composite carrier of the input with a first ``symcone.unit(A)``,
        each timed as its own span, then times the public
        ``commutativity_residuals`` on batches of P pairs in the algebra
        (F, N) for about S seconds after one warm-up call.

Both expect ``symcone`` to be importable (the benchmark puts the checkout's
``src`` on PYTHONPATH). The context builds run in their own process because
building every context up front changes how the allocator behaves in the
rest of a run, and the traced run must do what the untraced one does.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from tracer import CONTEXT_BUILD, Tracer, maxrss_kb


def _algebras_of(spec) -> list:
    """Algebras and composite carriers of a parsed model file, in input order.

    The carrier rule copies ``symcone.composites.candidate_composite`` and
    must be kept in step with it: a one-dimensional part leaves the other
    algebra as carrier, otherwise the carrier has the parts' family and the
    product of their sizes. Calling ``candidate_composite`` itself would
    build the carrier's context before it is timed.
    """
    from symcone.algebra import make_algebra

    by_name = {}
    out = []
    for system in spec.systems:
        if system.is_composite:
            a, b = (by_name[p] for p in system.composite_parts)
            if a.dim == 1 or b.dim == 1:
                algebra = b if a.dim == 1 else a
            else:
                algebra = make_algebra(a.family, a.size * b.size)
        else:
            algebra = system.algebra
            by_name[system.name] = algebra
        if algebra not in out:
            out.append(algebra)
    return out


def _load_spec(source: str):
    """Parse a demo name or a model file path, as ``symcone.cli.main`` does."""
    from symcone.demos import demo_text, is_demo
    from symcone.modelfile import parse_model_file, parse_model_text

    if is_demo(source):
        return parse_model_text(demo_text(source))
    return parse_model_file(source)


def trace(args: argparse.Namespace) -> int:
    import symcone.cli

    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    tracer = Tracer()
    tracer.install()
    stdout = sys.stdout
    with open(args.report, "w", encoding="utf-8") as report:
        sys.stdout = report
        try:
            code = symcone.cli.main(cli_args)
        finally:
            sys.stdout = stdout
    with open(args.spans, "w", encoding="utf-8") as out:
        rows = [[*span, args.run_id] for span in tracer.spans]
        json.dump({"run_id": args.run_id, "exit_code": code, "spans": rows}, out)
    return code


def probe(args: argparse.Namespace) -> int:
    from symcone.algebra import commutativity_residuals, make_algebra, unit

    tracer = Tracer()
    algebras = []
    for source in args.input:
        algebras += [a for a in _algebras_of(_load_spec(source)) if a not in algebras]
    for algebra in algebras:
        rss0 = maxrss_kb()
        start = time.perf_counter()
        unit(algebra)
        tracer.record(CONTEXT_BUILD, "setup", start, time.perf_counter(), maxrss_kb() - rss0)

    algebra = make_algebra(args.family, args.size)
    unit(algebra)
    commutativity_residuals(algebra, args.pairs, seed=0)
    rates = []
    begin = time.perf_counter()
    while not rates or time.perf_counter() - begin < args.seconds:
        start = time.perf_counter()
        commutativity_residuals(algebra, args.pairs, seed=len(rates))
        rates.append(args.pairs / (time.perf_counter() - start))
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump({"spans": tracer.spans, "pairs_per_s": rates}, out)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("trace")
    p.add_argument("--run-id", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p.set_defaults(run=trace)
    p = sub.add_parser("probe")
    p.add_argument("--input", action="append", required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=probe)
    args = parser.parse_args()
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
