"""Write the expected-verdict table of every benchmark input.

    python3 perfbench/record_expected.py

Runs each input's CLI invocation at every seed in SEEDS, refuses to write if
the verdicts (exit code, each certificate's status and ok flag, summary)
differ between seeds, and otherwise writes them to expected/<input>.json.
Only rerun it when a change to the program is meant to change verdicts,
and say so in that change.
"""

from __future__ import annotations

import json
import sys

from run import EXPECTED, INVOCATION_TIMEOUT_S, WORKLOADS, cli_argv, invoke, python, verdicts

SEEDS = (0, 7, 123)


def format_table(table: dict) -> str:
    """JSON with one certificate row per line, so diffs stay readable."""
    rows = ",\n".join("    " + json.dumps(row) for row in table["certificates"])
    return (
        "{\n"
        f'  "exit_code": {table["exit_code"]},\n'
        f'  "certificates": [\n{rows}\n  ],\n'
        f'  "summary": {json.dumps(table["summary"], sort_keys=True)}\n'
        "}\n"
    )


def main() -> int:
    EXPECTED.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        for inp in workload.inputs:
            tables = []
            for seed in SEEDS:
                argv = python("-m", "symcone.cli", *cli_argv(inp, seed, inp.extra))
                inv = invoke(f"{inp.name} seed {seed}", argv, INVOCATION_TIMEOUT_S)
                tables.append(verdicts(inv.stdout, inv.exit_code))
            if any(t != tables[0] for t in tables):
                print(f"{inp.name}: verdicts differ between seeds {SEEDS}", file=sys.stderr)
                return 1
            path = EXPECTED / f"{inp.name}.json"
            path.write_text(format_table(tables[0]), encoding="utf-8")
            print(f"{path.name}: exit {tables[0]['exit_code']}, {tables[0]['summary']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
