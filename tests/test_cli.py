"""Command-line behavior: exit codes, determinism, env overrides."""

import contextlib
import inspect
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symcone.cli as cli
from symcone.cli import EXIT_FAILURES, EXIT_OK, EXIT_USAGE, main
from symcone.demos import DEMO_NAMES, demo_text
from symcone.modelfile import parse_model_text
from symcone.runner import RunConfig, _run_in_workers, run_model_spec


def _run(*argv, env=None):
    cmd = [sys.executable, "-m", "symcone.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)


def test_list_demos():
    proc = _run("--list-demos")
    assert proc.returncode == EXIT_OK
    assert proc.stdout.split() == list(DEMO_NAMES)


def test_qubit_pair_demo_passes(capsys):
    code = main(["--input", "qubit-pair", "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[FAIL]" not in out
    assert "[PASS]" in out
    assert "ok=true" in out


def test_structured_runs_are_byte_identical():
    a = _run("--input", "qubit-pair", "--format", "structured", "--seed", "3")
    b = _run("--input", "qubit-pair", "--format", "structured", "--seed", "3")
    assert a.returncode == EXIT_OK
    assert a.stdout == b.stdout
    assert a.stdout.encode() == b.stdout.encode()


def test_structured_report_schema(capsys):
    code = main(["--input", "spin-vs-qubit", "--format", "structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["schema_version"] == 1
    assert report["input"]["source"] == "demo:spin-vs-qubit"
    assert set(report["summary"]) >= {
        "certificates",
        "passed",
        "failed",
        "unexpected_failures",
        "ok",
    }
    names = [system["name"] for system in report["systems"]]
    assert names == ["ball-system", "matrix-system"]
    for system in report["systems"]:
        for cert in system["certificates"]:
            assert cert["status"] in ("pass", "fail", "skipped")


def test_rebit_demo_fails_on_tomography_only(capsys):
    code = main(["--input", "rebit-pair", "--format", "structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_FAILURES
    assert not report["summary"]["ok"]
    assert report["summary"]["unexpected_failures"] == ["pair:local_tomography"]
    failed = [
        cert["check"]
        for system in report["systems"]
        for cert in system["certificates"]
        if cert["status"] == "fail" and cert.get("expected") == "pass"
    ]
    assert failed == ["local_tomography"]


def test_expect_marks_flip_the_rebit_exit_code(capsys):
    spec = parse_model_text(demo_text("rebit-pair"))
    composite = next(s for s in spec.systems if s.is_composite)
    composite.expect = {"local_tomography": "fail"}
    report = run_model_spec(spec, RunConfig(suites=("composite",)))
    assert report["summary"]["ok"]
    assert report["summary"]["unexpected_failures"] == []
    # and an expected failure that passes instead counts as unexpected
    composite.expect = {"nonsignaling_marginals": "fail"}
    report = run_model_spec(spec, RunConfig(suites=("composite",)))
    assert not report["summary"]["ok"]
    assert "pair:nonsignaling_marginals" in report["summary"]["unexpected_passes"]


def test_expected_failure_renders_in_text(tmp_path, capsys):
    path = _write_marked_demo(tmp_path, "rebit-pair", "pair", {"local_tomography": "fail"})
    code = main(["--input", path, "--suites", "composite", "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "expected" in out


def test_missing_input_is_usage_error():
    # parser.error raises SystemExit, which the command lets exit as usual
    proc = _run()
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "--input" in proc.stderr and "Traceback" not in proc.stderr


def test_unreadable_file_is_usage_error():
    # main returns the code, and the command ends with it after a flush
    proc = _run("--input", "/nonexistent/model.json")
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert "cannot read input" in proc.stderr and "Traceback" not in proc.stderr


def test_model_file_that_is_not_utf8_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'\xff\xfe{"a":1}')
    proc = _run("--input", str(bad))
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert proc.stderr == (
        "symcone: model file error: not UTF-8 text: invalid start byte at byte 0\n"
    )


def test_empty_suites_is_usage_error():
    proc = _run("--input", "qubit-pair", "--suites", ",")
    assert proc.returncode == EXIT_USAGE


def test_unknown_suite_is_usage_error():
    proc = _run("--input", "qubit-pair", "--suites", "algebra,astrology")
    assert proc.returncode == EXIT_USAGE
    assert "astrology" in proc.stderr


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{\n  "schema_version": 1,\n  "systems": [}\n', encoding="utf-8")
    proc = _run("--input", str(bad))
    assert proc.returncode == EXIT_USAGE
    assert "model file error" in proc.stderr
    assert "line 3" in proc.stderr


def test_unknown_family_is_named(tmp_path):
    bad = tmp_path / "family.json"
    bad.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "systems": [
                    {
                        "name": "x",
                        "algebra": {"family": "clifford", "size": 2},
                        "tests": {"mode": "sampled", "count": 1, "seed": 0},
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    proc = _run("--input", str(bad))
    assert proc.returncode == EXIT_USAGE
    assert "clifford" in proc.stderr


@pytest.mark.parametrize(
    "algebra,message",
    [
        ({"family": "complex", "size": 2.5}, "requires an integer size, got 2.5"),
        ({"family": "complex", "size": True}, "requires an integer size, got True"),
        ({"family": "complex", "size": "2"}, "requires an integer size, got '2'"),
        ({"family": "complex", "size": 2, "shape": "square"}, ".algebra.shape: unknown field"),
    ],
    ids=["fractional", "bool", "string", "unknown-key"],
)
def test_loose_algebra_record_is_usage_error(tmp_path, capsys, algebra, message):
    target = tmp_path / "algebra.json"
    target.write_text(
        json.dumps({"schema_version": 1, "systems": [{"name": "x", "algebra": algebra}]}),
        encoding="utf-8",
    )
    code = main(["--input", str(target), "--suites", "algebra"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("symcone: model file error: systems[0].algebra")
    assert message in captured.err


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "1e400"])
@pytest.mark.parametrize("via", ["flag", "env"])
def test_tol_must_be_finite_and_positive(monkeypatch, capsys, via, value):
    argv = ["--input", "quabit-pair"]
    if via == "flag":
        argv.append(f"--tol={value}")
    else:
        monkeypatch.setenv("SYMCONE_TOL", value)
    # at an infinite tol every certificate gated on it would pass, the
    # quabit composite's expected failures included
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert "tol must be a finite positive number" in captured.err


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("seed", -1, "seed must be a nonnegative integer, got -1"),
        ("seed", 1.5, "seed must be a nonnegative integer, got 1.5"),
        ("seed", True, "seed must be a nonnegative integer, got True"),
        ("samples", 2.5, "samples must be an integer, got 2.5"),
        ("samples", True, "samples must be an integer, got True"),
    ],
)
def test_run_config_rejects_what_a_run_cannot_draw_from(field, value, message):
    # the command's parser rejects these first; from the library, each one
    # failed inside numpy in the first sampled certificate, but for the bool
    # seed, which ran and was reported as true
    with pytest.raises(ValueError) as exc:
        RunConfig(**{field: value})
    assert str(exc.value) == message


def test_environment_overrides_match_flags(tmp_path):
    base = _run("--input", "spin-vs-qubit", "--format", "structured", "--seed", "9")
    env = dict(os.environ)
    env.update(
        {
            "SYMCONE_INPUT": "spin-vs-qubit",
            "SYMCONE_FORMAT": "structured",
            "SYMCONE_SEED": "9",
        }
    )
    via_env = _run(env=env)
    assert via_env.returncode == base.returncode
    assert via_env.stdout == base.stdout


def test_suite_subset_runs_fewer_certificates(capsys):
    code = main(["--input", "spin-vs-qubit", "--suites", "algebra", "--format", "structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    suites = {
        cert["suite"] for system in report["systems"] for cert in system["certificates"]
    }
    assert suites == {"algebra"}


def _write_marked_demo(tmp_path, demo, system, expect):
    """Write ``demo`` with the ``expect`` map of ``system`` replaced."""
    record = json.loads(demo_text(demo))
    next(s for s in record["systems"] if s["name"] == system)["expect"] = expect
    target = tmp_path / f"{demo}-marked.json"
    target.write_text(json.dumps(record), encoding="utf-8")
    return str(target)


def test_expected_algebra_failure_that_passes_is_unexpected(tmp_path, capsys):
    path = _write_marked_demo(tmp_path, "qubit-pair", "qubit-a", {"jordan_identity": "fail"})
    code = main(["--input", path, "--suites", "algebra", "--format", "structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_FAILURES
    assert report["summary"]["unexpected_passes"] == ["qubit-a:jordan_identity"]


def test_expect_accepts_skipped_certificate_names(tmp_path, capsys):
    path = _write_marked_demo(
        tmp_path,
        "rebit-pair",
        "pair",
        {"local_tomography": "fail", "tensor_adjoint": "fail", "tensor_lmap": "fail"},
    )
    code = main(["--input", path, "--suites", "composite", "--format", "structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["summary"]["unexpected_passes"] == []


def test_unknown_expect_name_is_usage_error(tmp_path, capsys):
    # a misspelt name, and names that never run on a system of that kind
    for system, name in [
        ("qubit-a", "jordan_identiy"),
        ("pair", "jordan_identity"),
        ("qubit-a", "local_tomography"),
    ]:
        path = _write_marked_demo(tmp_path, "qubit-pair", system, {name: "fail"})
        code = main(["--input", path, "--suites", "algebra"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE, (system, name)
        assert captured.out == ""
        assert name in captured.err and repr(system) in captured.err


@pytest.mark.parametrize("separator", ["\n", "\x1e", "\u2028"])
def test_input_text_in_a_usage_error_stays_on_one_line(tmp_path, capsys, separator):
    # str.splitlines breaks at each of these; the messages quote input keys
    record = json.loads(demo_text("qubit-pair"))
    record[f"a{separator}b"] = 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["--input", str(path)]) == EXIT_USAGE
    marked = _write_marked_demo(tmp_path, "qubit-pair", "qubit-a", {f"c{separator}d": "fail"})
    assert main(["--input", marked]) == EXIT_USAGE
    escaped = repr(separator)[1:-1]
    unknown_field, unknown_name = capsys.readouterr().err.splitlines()
    assert unknown_field == f"symcone: model file error: $.a{escaped}b: unknown field"
    assert unknown_name.startswith("symcone: system 'qubit-a' expects certificates ")
    assert f"c{escaped}d" in unknown_name


def test_malformed_environment_default_is_usage_error():
    # argparse checks the choices of --format on given values only, not on
    # defaults
    for variable, flag, value in (
        ("SYMCONE_TOL", "--tol", "abc"),
        ("SYMCONE_FORMAT", "--format", "bogus"),
    ):
        proc = _run("--input", "qubit-pair", env=dict(os.environ, **{variable: value}))
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert flag in proc.stderr and repr(value) in proc.stderr
        assert "Traceback" not in proc.stderr


def test_blas_thread_count_keeps_verdicts_and_witnesses(tmp_path):
    # Reports are byte-identical only at a fixed BLAS thread count: the Lie
    # basis's SVDs and matmuls round differently on one and on two threads,
    # which moves residuals near 1e-15. The verdicts must not move.
    import os

    target = tmp_path / "kv.json"
    systems = [("real", 8), ("complex", 4), ("spin", 4)]
    target.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "systems": [
                    {"name": f"{family} {size}", "algebra": {"family": family, "size": size}}
                    for family, size in systems
                ],
            }
        ),
        encoding="utf-8",
    )
    outcomes = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = _run("--input", str(target), "--suites", "kv", "--format", "structured", env=env)
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads(proc.stdout)
        outcomes.append(
            [
                (system["name"], cert["check"], cert["status"], cert["ok"], bool(cert["witnesses"]))
                for system in report["systems"]
                for cert in system["certificates"]
            ]
        )
    assert len(outcomes[0]) == 5 * len(systems)
    assert outcomes[0] == outcomes[1]


_REAL2_SYSTEM = """{{"schema_version": 1, "systems": [{{
  "name": "r", "algebra": {{"family": "real", "size": 2}},
  "tests": {{"mode": "explicit", "outcomes": [[[1, 0, 0], [0, 1, {outcome}]]]}},
  "states": [[0.5, 0.5, {state}]]}}]}}"""


# JSON literals that Python's reader accepts but that are no finite double.
NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "1e400": "1e400",
              "10^400": "1" + "0" * 400}


@pytest.mark.parametrize("literal", list(NON_FINITE.values()), ids=list(NON_FINITE))
@pytest.mark.parametrize(
    "field,path",
    [("outcome", "systems[0].tests.outcomes[0][1]"), ("state", "systems[0].states[0]")],
    ids=["outcome", "state"],
)
def test_non_finite_coordinates_are_usage_errors(tmp_path, capsys, literal, field, path):
    values = {"outcome": 0, "state": 0, field: literal}
    target = tmp_path / "non-finite.json"
    target.write_text(_REAL2_SYSTEM.format(**values), encoding="utf-8")
    code = main(["--input", str(target), "--suites", "algebra"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert path in captured.err and "finite" in captured.err


def test_finite_twin_of_the_non_finite_file_runs(tmp_path, capsys):
    target = tmp_path / "finite.json"
    target.write_text(_REAL2_SYSTEM.format(outcome=0, state=0), encoding="utf-8")
    assert main(["--input", str(target), "--suites", "algebra"]) == EXIT_OK


@pytest.mark.parametrize(
    "row,reason",
    [([5, -3, 0], "outside the cone"), ([1, 1, 0], "not normalized")],
    ids=["outside-cone", "unnormalized"],
)
def test_declared_state_that_is_not_a_state_is_usage_error(tmp_path, capsys, row, reason):
    record = json.loads(_REAL2_SYSTEM.format(outcome=0, state=0))
    record["systems"][0]["states"] = [[0.5, 0.5, 0], row]
    target = tmp_path / "bad-state.json"
    target.write_text(json.dumps(record), encoding="utf-8")
    code = main(["--input", str(target), "--suites", "algebra"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "systems[0].states[1]" in captured.err and reason in captured.err


def test_explicit_test_that_misses_the_unit_names_its_system(tmp_path, capsys):
    record = json.loads(_REAL2_SYSTEM.format(outcome=0, state=0))
    second = json.loads(_REAL2_SYSTEM.format(outcome=0, state=0))["systems"][0]
    # the two outcomes sum to diag(1, 0.5): not the order unit of real 2
    second.update(name="short", tests={"mode": "explicit", "outcomes": [[[1, 0, 0], [0, 0.5, 0]]]})
    del second["states"]
    record["systems"].append(second)
    target = tmp_path / "short-test.json"
    target.write_text(json.dumps(record), encoding="utf-8")
    code = main(["--input", str(target), "--suites", "algebra"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    message = "symcone: systems[1].tests.outcomes: test 0 does not resolve the order unit"
    assert message in captured.err


def test_certificate_table_is_the_reported_list():
    # Every certificate the runner can report appears on some bundled demo,
    # in table order within each system; the benchmark tracer restates the
    # list and must not drift from it.
    import importlib.util

    from symcone.runner import CERTIFICATE_NAMES

    order = {name: i for i, name in enumerate(CERTIFICATE_NAMES)}
    seen = set()
    for demo in DEMO_NAMES:
        report = run_model_spec(parse_model_text(demo_text(demo)), RunConfig())
        for system in report["systems"]:
            ranks = [order[cert["check"]] for cert in system["certificates"]]
            assert ranks == sorted(set(ranks)), (demo, system["name"])
            seen.update(cert["check"] for cert in system["certificates"])
    assert seen == set(CERTIFICATE_NAMES)

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.CERTIFICATES == CERTIFICATE_NAMES


def test_cli_runs_without_scipy():
    # The runtime needs numpy only: neither importing the CLI nor running the
    # kv and model suites, which exponentiate Lie generators, loads scipy.
    script = (
        "import contextlib, io, sys\n"
        "import symcone.cli\n"
        "print('scipy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = symcone.cli.main(['--input', 'spin-vs-qubit', '--suites', 'kv,model'])\n"
        "print(code, 'scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", str(EXIT_OK), "False"]


def test_negative_model_file_seed_is_usage_error(tmp_path, capsys):
    target = tmp_path / "negative-seed.json"
    target.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "systems": [
                    {
                        "name": "r",
                        "algebra": {"family": "real", "size": 2},
                        "tests": {"mode": "sampled", "count": 1, "seed": -5},
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    code = main(["--input", str(target), "--suites", "algebra"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "systems[0].tests.seed: expected a nonnegative integer" in captured.err


@pytest.mark.parametrize(
    "argv,env", [(["--seed", "-3"], {}), ([], {"SYMCONE_SEED": "-3"})], ids=["flag", "env"]
)
def test_negative_seed_flag_is_usage_error(monkeypatch, capsys, argv, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        main(["--input", "qubit-pair", "--suites", "algebra", *argv])
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert "argument --seed: expected a nonnegative integer" in captured.err


def test_sampler_error_is_usage_error(monkeypatch, capsys):
    import symcone.spectral

    # with no redraws allowed, the first frame sampler gives up at once
    monkeypatch.setattr(symcone.spectral, "MAX_FRAME_ATTEMPTS", 0)
    code = main(["--input", "qubit-pair", "--suites", "cone"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.startswith("symcone: no cleanly separated spectrum")


def test_boundary_sampler_error_is_usage_error(monkeypatch, capsys):
    import symcone.cone

    # with no rounds of draws allowed, the boundary-margin sampler gives up
    # before it keeps a row: one message line, no traceback
    monkeypatch.setattr(symcone.cone, "MAX_BOUNDARY_ROUNDS", 0)
    code = main(["--input", "qubit-pair", "--suites", "cone"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == "symcone: boundary-margin resampling failed to converge\n"


def test_composite_of_a_composite_is_usage_error(tmp_path):
    target = tmp_path / "nested.json"
    target.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "systems": [
                    {"name": "a", "algebra": {"family": "complex", "size": 2}},
                    {"name": "b", "algebra": {"family": "complex", "size": 2}},
                    {"name": "p", "composite": {"parts": ["a", "b"], "carrier": "candidate"}},
                    {"name": "q", "composite": {"parts": ["p", "a"], "carrier": "candidate"}},
                ],
            }
        ),
        encoding="utf-8",
    )
    proc = _run("--input", str(target))
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == ""
    assert (
        "systems[3].composite.parts: part 'p' must name an earlier non-composite system"
        in proc.stderr
    )
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "families,reason",
    [
        (("complex", "spin"), "no candidate carrier for mixed families (complex 2 and spin 3)"),
        (("spin", "spin"), "family 'spin' has no entrywise matrix composite"),
    ],
    ids=["mixed-families", "spin-pair"],
)
def test_composite_without_a_carrier_names_its_system(tmp_path, capsys, families, reason):
    part_a, part_b = ({"family": family, "size": size} for family, size in zip(families, (2, 3)))
    target = tmp_path / "no-carrier.json"
    target.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "systems": [
                    {"name": "a", "algebra": part_a},
                    {"name": "b", "algebra": part_b},
                    {"name": "p", "composite": {"parts": ["a", "b"], "carrier": "candidate"}},
                ],
            }
        ),
        encoding="utf-8",
    )
    code = main(["--input", str(target)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == f"symcone: systems[2].composite.parts: {reason}\n"


def test_console_jobs_leave_each_worker_a_blas_pool(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for name in cli._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    assert cli._console_jobs() == 1  # an unpinned pool takes every core
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert cli._console_jobs() == 8
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert cli._console_jobs() == 2  # the largest pool counts
    monkeypatch.setenv("MKL_NUM_THREADS", "16")
    assert cli._console_jobs() == 1
    # values that size no pool are not read as pins; "²" is a digit to
    # str.isdigit but not to int()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "two")
    monkeypatch.setenv("MKL_NUM_THREADS", "0")
    assert cli._console_jobs() == 8
    monkeypatch.setenv("MKL_NUM_THREADS", "²")
    assert cli._console_jobs() == 8
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli._console_jobs() == 1


def test_model_suite_run_leaves_numpy_ma_unimported():
    # importing numpy.ma takes about 13 ms, in the run and again in every
    # forked certificate worker
    script = (
        "import sys; from symcone.cli import main; code = main(sys.argv[1:]); "
        "print('numpy.ma' in sys.modules); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "--input", "qubit-pair", "--suites", "model"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_plain_interpreter_start_leaves_importlib_resources_unimported():
    # importing importlib.resources takes about 13 ms in an interpreter
    # without site hooks, and only a demo input reads package data
    import numpy

    import symcone

    path = os.pathsep.join(
        os.path.dirname(os.path.dirname(m.__file__)) for m in (symcone, numpy)
    )
    env = {**os.environ, "PYTHONPATH": path}
    script = "import sys, symcone.cli; print('importlib.resources' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "symcone.cli", "--input", "qubit-pair"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr


# Four plain systems and a composite whose expected failure keeps the exit
# code at 0; albert's certificates take longest, so the workers take the
# systems out of step with one another.
_FORK_MODEL = {
    "schema_version": 1,
    "name": "fork-model",
    "systems": [
        {"name": "albert", "algebra": {"family": "albert", "size": 3},
         "tests": {"mode": "sampled", "count": 2, "seed": 11}},
        {"name": "rebit-a", "algebra": {"family": "real", "size": 2}},
        {"name": "rebit-b", "algebra": {"family": "real", "size": 2}},
        {"name": "spin", "algebra": {"family": "spin", "size": 4}},
        {"name": "pair", "composite": {"parts": ["rebit-a", "rebit-b"], "carrier": "candidate"},
         "expect": {"local_tomography": "fail"}},
    ],
}


@pytest.fixture
def fork_model(tmp_path):
    target = tmp_path / "fork-model.json"
    target.write_text(json.dumps(_FORK_MODEL), encoding="utf-8")
    return str(target)


@pytest.fixture
def no_worker_left():
    yield
    # a reaped worker leaves this process without children
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _within(seconds, call):
    """``call()``, or TimeoutError once ``seconds`` have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        return call()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _console_main(monkeypatch, argv, jobs):
    """``main()`` as the symcone command runs it, with ``jobs`` workers."""
    monkeypatch.setattr(sys, "argv", ["symcone", *argv])
    monkeypatch.setattr(cli, "_console_jobs", lambda: jobs)
    return _within(60, main)


def test_console_prints_what_main_returns(capsys, no_worker_left):
    # The command ends with os._exit, so only the flush before it puts the
    # buffered text report on a pipe.
    argv = ["--input", "rebit-pair", "--format", "text"]
    code = main(argv)
    want = capsys.readouterr().out
    proc = _run(*argv)
    assert code == proc.returncode == EXIT_FAILURES
    assert proc.stdout == want
    assert proc.stderr == ""


def test_console_skips_the_interpreter_teardown(no_worker_left):
    script = (
        "import atexit, sys\n"
        "import symcone.cli\n"
        "atexit.register(print, 'teardown')\n"
        "sys.argv = ['symcone', '--list-demos']\n"
        "symcone.cli.console()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.split() == list(DEMO_NAMES)


def test_installed_command_is_the_console_entry():
    tomllib = pytest.importorskip("tomllib")
    from pathlib import Path

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"symcone": "symcone.cli:console"}


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_closed_stdout_is_usage_error(no_worker_left, fmt):
    # Exit 1 would say that a certificate failed.
    proc = subprocess.Popen(
        [sys.executable, "-m", "symcone.cli", "--input", "qubit-pair", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    proc.stdout.close()  # long before the child, still importing, writes
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    finally:
        proc.stderr.close()
    assert code == EXIT_USAGE
    assert err.startswith("symcone: cannot write the report: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["model-file", "rebit-pair"])
def test_reports_do_not_depend_on_jobs(monkeypatch, capsys, fork_model, no_worker_left, source):
    source = fork_model if source == "model-file" else source
    argv = ["--input", source, "--format", "structured"]
    # in this process: serial, and the console path with three workers
    runs = [(main(argv), capsys.readouterr())]
    runs.append((_console_main(monkeypatch, argv, 3), capsys.readouterr()))
    assert runs[0][0] == (EXIT_OK if source == fork_model else EXIT_FAILURES)
    assert runs[0][1].err == ""
    assert runs[1] == runs[0]
    # the symcone command on one BLAS thread, which forks a worker per
    # usable core, and main(argv) in a process of its own at the same BLAS
    # thread count (reports are byte-identical only at a fixed count)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    serial = subprocess.run(
        [sys.executable, "-c", "import sys; from symcone.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    console = _run(*argv, env=env)
    assert (console.returncode, console.stdout, console.stderr) == (
        serial.returncode, serial.stdout, serial.stderr
    )
    assert console.returncode == runs[0][0]
    report = json.loads(runs[0][1].out)
    if source == fork_model:
        assert len(report["systems"]) == 5
        assert report["summary"]["failed"] == 1 and report["summary"]["ok"]


def test_run_model_spec_forks_to_the_same_report(fork_model, no_worker_left):
    spec = parse_model_text(open(fork_model, encoding="utf-8").read())
    cfg = RunConfig(suites=("algebra", "composite"))
    serial = run_model_spec(spec, cfg)
    for jobs in (2, 9):
        assert _within(60, lambda: run_model_spec(spec, cfg, jobs=jobs)) == serial
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        run_model_spec(spec, cfg, jobs=0)


def test_report_seeds_are_the_system_seeds(no_worker_left):
    # a certificate reports its system's seed, --seed + 1000 x its position,
    # plus its row's offset; a certificate that drew nothing reports it too,
    # and the qubit witness reports --seed
    desk = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "desk.json"
    spec = parse_model_text(desk.read_text(encoding="utf-8"))
    offsets = {"membership_agreement": 1, "homogeneity_transport": 2, "order_unit": 3}
    cfg = RunConfig(seed=7)
    for jobs in (1, 2):
        report = _within(60, lambda: run_model_spec(spec, cfg, jobs=jobs))
        got, want = [], []
        for index, system in enumerate(report["systems"]):
            for cert in system["certificates"]:
                if cert["status"] == "skipped":
                    continue
                got.append((system["name"], cert["check"], cert["seed"]))
                seed = 7 + 1000 * index + offsets.get(cert["check"], 0)
                want.append((system["name"], cert["check"],
                             7 if cert["check"] == "qubit_witness" else seed))
        assert len(got) == report["summary"]["certificates"] == 153
        assert got == want


def test_sampler_error_in_a_worker_is_usage_error(monkeypatch, capsys, no_worker_left):
    import symcone.spectral

    monkeypatch.setattr(symcone.spectral, "MAX_FRAME_ATTEMPTS", 0)
    argv = ["--input", "qubit-pair", "--suites", "cone"]
    outcomes = [(main(argv), capsys.readouterr())]
    outcomes.append((_console_main(monkeypatch, argv, 2), capsys.readouterr()))
    (serial_code, serial), (forked_code, forked) = outcomes
    assert serial_code == forked_code == EXIT_USAGE
    assert forked.out == serial.out == ""
    assert forked.err == serial.err
    assert forked.err.startswith("symcone: no cleanly separated spectrum")


@pytest.mark.parametrize(
    "message,said",
    [("Unable to allocate 17.9 GiB for an array", None), ("", "MemoryError")],
    ids=["numpy", "bare"],
)
def test_memory_error_is_usage_error(monkeypatch, capsys, no_worker_left, message, said):
    # a certificate too large for memory, as a huge --samples makes it;
    # exit 1 would say that a certificate failed
    import symcone.runner

    def exhausted(algebra, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(symcone.runner, "check_self_duality", exhausted)
    argv = ["--input", "qubit-pair", "--suites", "cone"]
    outcomes = [(main(argv), capsys.readouterr())]
    outcomes.append((_console_main(monkeypatch, argv, 2), capsys.readouterr()))
    (serial_code, serial), (forked_code, forked) = outcomes
    assert serial_code == forked_code == EXIT_USAGE
    assert forked.out == serial.out == ""
    assert forked.err == serial.err == f"symcone: {said or message}\n"


def test_worker_that_dies_is_named(monkeypatch, capsys, fork_model, no_worker_left):
    import symcone.runner

    check_self_duality = symcone.runner.check_self_duality

    def dies_on_spin(algebra, **kwargs):
        if algebra.family.value == "spin":
            os._exit(3)
        return check_self_duality(algebra, **kwargs)

    monkeypatch.setattr(symcone.runner, "check_self_duality", dies_on_spin)
    code = _console_main(monkeypatch, ["--input", fork_model, "--suites", "cone"], 2)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err == (
        "symcone: a certificate worker ended (exit code 3) before reporting "
        "system 'spin'\n"
    )


def test_workers_keep_input_order_and_raise_the_first_fault(no_worker_left):
    # many more indices than workers: each worker is handed a new index
    # every time it reports one
    names = [f"s{i}" for i in range(40000)]
    assert _run_in_workers(lambda i: -i, names, 3) == [-i for i in range(40000)]

    def faulty(index):
        if index == 0:
            time.sleep(0.5)  # the other worker meets the fault meanwhile
        if index == 100:
            raise ValueError("bad system")
        if index in (20000, 30000):
            os._exit(4)
        return index

    # raised once systems 0-99 are done, not before, and without waiting
    # for the rest
    with pytest.raises(ValueError, match="^bad system$") as exc:
        _within(60, lambda: _run_in_workers(faulty, names, 2))
    assert "in faulty" in str(exc.value.__cause__)
    # one worker dies on system 20000; whether or not the other one then
    # dies on 30000, 20000 is the first system without a report
    with pytest.raises(RuntimeError, match="exit code 4.* before reporting system 's20000'$"):
        _within(60, lambda: _run_in_workers(
            lambda i: i if i == 100 else faulty(i), names, 2))


def test_worker_that_dies_ends_the_run_once_earlier_systems_are_done(no_worker_left):
    names = [f"s{i}" for i in range(400)]

    def dies_on(*fatal):
        def run(index):
            time.sleep(0.01 + 0.01 * (index % 2))
            if index in fatal:
                os._exit(fatal.index(index) + 3)
            return index

        return run

    # the worker that survives does not run the other 394 systems (about
    # 4 s) before the fault is raised
    start = time.perf_counter()
    with pytest.raises(RuntimeError) as exc:
        _within(60, lambda: _run_in_workers(dies_on(5), names, 2))
    assert time.perf_counter() - start < 1.5
    assert str(exc.value) == (
        "a certificate worker ended (exit code 3) before reporting system 's5'"
    )
    # both workers die, on systems 5 and 6: the message carries the exit
    # status of the worker that held system 5 alone
    with pytest.raises(RuntimeError) as exc:
        _within(60, lambda: _run_in_workers(dies_on(5, 6), names, 2))
    assert str(exc.value) == (
        "a certificate worker ended (exit code 3) before reporting system 's5'"
    )


_ALBERT_AND_QUBIT_PAIR = {
    "schema_version": 1,
    "name": "albert-and-qubit-pair",
    "systems": [
        {"name": "albert", "algebra": {"family": "albert", "size": 3},
         "tests": {"mode": "sampled", "count": 2, "seed": 11}},
        {"name": "qubit-a", "algebra": {"family": "complex", "size": 2},
         "tests": {"mode": "sampled", "count": 2, "seed": 12}},
        {"name": "qubit-b", "algebra": {"family": "complex", "size": 2},
         "tests": {"mode": "sampled", "count": 2, "seed": 13}},
        {"name": "pair",
         "composite": {"parts": ["qubit-a", "qubit-b"], "carrier": "candidate"}},
    ],
}


def test_suites_take_the_batched_spectral_and_transport_paths(monkeypatch):
    # The batched spectral core is the only decomposition route, and
    # tensor_adjoint builds its automorphisms with the batched transport
    # builder, not one element at a time.
    import symcone.cone
    import symcone.spectral

    assert not hasattr(symcone.spectral, "_generic_decompose")
    assert len(inspect.signature(symcone.spectral.spectral_decompose).parameters) == 1
    calls = {"automorphism_to_point": 0}
    transport = symcone.cone.automorphism_to_point

    def counting(*args, **kwargs):
        calls["automorphism_to_point"] += 1
        return transport(*args, **kwargs)

    monkeypatch.setattr(symcone.cone, "automorphism_to_point", counting)
    spec = parse_model_text(json.dumps(_ALBERT_AND_QUBIT_PAIR))
    report = run_model_spec(spec, RunConfig(samples=20))
    assert report["summary"]["ok"]
    checks = {
        (system["name"], cert["check"]): cert["status"]
        for system in report["systems"]
        for cert in system["certificates"]
    }
    assert checks[("albert", "unital_sharp_outcomes")] == "pass"
    assert checks[("albert", "uniform_unital_outcomes_primitive")] == "pass"
    assert checks[("pair", "tensor_adjoint")] == "pass"
    assert calls == {"automorphism_to_point": 0}


def test_qubit_witness_reports_the_computed_rank(capsys):
    desk = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "desk.json"
    code = main(["--input", str(desk), "--suites", "composite", "--format", "structured"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    ranks = [
        (system["dims"]["rank"], cert["details"]["rank"])
        for system in report["systems"]
        for cert in system["certificates"]
        if cert["check"] == "qubit_witness"
    ]
    assert len(ranks) == 7
    assert [declared for declared, _ in ranks] == [computed for _, computed in ranks]


# Replacement values for the malformed-input property: small integers and
# short lists, so that no edit asks for a large algebra or sample count,
# and the words the model-file format gives meaning to.
_WORDS = st.sampled_from(
    ["real", "complex", "quaternion", "spin", "albert", "sum", "sampled", "explicit",
     "candidate", "fail", "pass", "family", "size", "summands", "tests", "expect",
     "states", "composite", "parts", "count", "seed", "mode", "outcomes", "name"]
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.floats(-2, 3), st.text(max_size=6), _WORDS
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.one_of(_WORDS, st.text(max_size=6)), _SCALARS, max_size=2),
)


def _paths(node, path=()):
    """The path of every value below the root of a JSON record."""
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _paths(value, path + (key,))


@st.composite
def _mutated_demos(draw):
    """A bundled demo with one or two edits: a value replaced, a key or
    list item deleted, or a key added."""
    record = json.loads(demo_text(draw(st.sampled_from(DEMO_NAMES))))
    for _ in range(draw(st.integers(1, 2))):
        *head, key = draw(st.sampled_from(list(_paths(record))))
        parent = record
        for step in head:
            parent = parent[step]
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        if edit == "replace":
            parent[key] = draw(_VALUES)
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.one_of(_WORDS, st.text(max_size=6)))] = draw(_VALUES)
        else:
            parent.append(draw(_VALUES))
    return record


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_mutated_demos())
def test_malformed_input_holds_the_exit_contract(tmp_path_factory, record):
    path = tmp_path_factory.mktemp("mutated") / "model.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--input", str(path), "--suites", "algebra,composite"])
    assert code in (EXIT_OK, EXIT_FAILURES, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("symcone: ")
