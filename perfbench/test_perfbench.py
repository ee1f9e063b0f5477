"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench

They run real CLI invocations (about a minute in all) and are not part of
the package's test suite.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import CERTIFICATES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_well_formed():
    names = [*run.END_TO_END, *run.LAYER_METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_metrics_printed():
    spec = _benchmark_json()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"])


def test_every_reported_certificate_has_a_layer_metric():
    for path in run.EXPECTED.glob("*.json"):
        for _, check, _, _ in json.loads(path.read_text(encoding="utf-8"))["certificates"]:
            assert check in CERTIFICATES, (path.name, check)


def _report_from_table(table: dict) -> bytes:
    """A minimal structured report carrying the verdicts of a table."""
    systems: dict[str, list] = {}
    for system, check, status, ok in table["certificates"]:
        systems.setdefault(system, []).append({"check": check, "status": status, "ok": ok})
    report = {
        "systems": [{"name": n, "certificates": c} for n, c in systems.items()],
        "summary": table["summary"],
    }
    return json.dumps(report).encode()


def _invocation(stdout: bytes, exit_code: int) -> run.Invocation:
    return run.Invocation("test", 1.0, 1000, exit_code, stdout, b"", False)


def test_checker_accepts_the_expected_verdicts():
    table = run.load_expected("rebit-pair")
    inv = _invocation(_report_from_table(table), 1)
    assert run.check_invocation(inv, table) is None


@pytest.mark.parametrize("field", ["status", "ok"])
def test_checker_counts_a_mutated_report_as_failed(field):
    table = run.load_expected("rebit-pair")
    mutated = json.loads(json.dumps(table))
    row = mutated["certificates"][0]
    if field == "status":
        row[2] = "fail" if row[2] == "pass" else "pass"
    else:
        row[3] = not row[3]
    tally = run.Tally()
    inv = _invocation(_report_from_table(mutated), 1)
    tally.check_report(inv, run.Input("rebit-pair", "rebit-pair"))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_checker_counts_a_wrong_exit_code_as_failed():
    table = run.load_expected("rebit-pair")
    tally = run.Tally()
    inv = _invocation(_report_from_table(table), 0)
    tally.check_report(inv, run.Input("rebit-pair", "rebit-pair"))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_checker_counts_a_changed_repeat_as_failed():
    table = run.load_expected("rebit-pair")
    inp = run.Input("rebit-pair", "rebit-pair")
    tally = run.Tally()
    first = _report_from_table(table)
    tally.check_report(_invocation(first, 1), inp)
    tally.check_report(_invocation(first + b" ", 1), inp)
    assert (tally.attempted, tally.failed) == (2, 1)


def test_checker_counts_a_crash_and_a_timeout_as_failed():
    table = run.load_expected("rebit-pair")
    assert run.check_invocation(_invocation(b"", 1), table) is not None
    timed_out = run.Invocation("test", 1.0, 1000, -9, b"", b"", True)
    assert run.check_invocation(timed_out, table) is not None


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_one_pass_of_each_workload_is_correct(name):
    workload = run.WORKLOADS[name]
    tally = run.Tally()
    result = run.run_pass(workload, 0, tally, run.Deadline(run.RUN_DEADLINE_S))
    assert (tally.attempted, tally.failed) == (len(workload.inputs), 0)
    assert result.wall_s > 0 and result.peak_rss_mb > 0


def test_traced_run_reports_every_layer_metric():
    tally, metrics = run.measure_traced(run.WORKLOADS["demos"], 0, 0.0)
    assert tally.failed == 0
    assert set(metrics) == set(run.LAYER_METRICS)
    assert metrics["algebra.calls"] > 0 and metrics["algebra.kernel_pairs_per_s"] > 0
    assert metrics["cert.homogeneity_transport.s"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name, ignore=shutil.ignore_patterns(".work"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "demos",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
