"""Command-line behavior: exit codes, determinism, env overrides."""

import inspect
import json
import subprocess
import sys

import pytest

from symcone.cli import EXIT_FAILURES, EXIT_OK, EXIT_USAGE, main
from symcone.demos import DEMO_NAMES, demo_text
from symcone.modelfile import parse_model_text, serialize_model_spec
from symcone.runner import RunConfig, run_model_spec


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
    spec = parse_model_text(demo_text("rebit-pair"))
    composite = next(s for s in spec.systems if s.is_composite)
    composite.expect = {"local_tomography": "fail"}
    target = tmp_path / "rebit-marked.json"
    target.write_text(serialize_model_spec(spec), encoding="utf-8")
    code = main(["--input", str(target), "--suites", "composite", "--format", "text"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "expected" in out


def test_missing_input_is_usage_error():
    proc = _run()
    assert proc.returncode == EXIT_USAGE
    assert "--input" in proc.stderr


def test_unreadable_file_is_usage_error():
    proc = _run("--input", "/nonexistent/model.json")
    assert proc.returncode == EXIT_USAGE
    assert "cannot read input" in proc.stderr


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


def test_environment_overrides_match_flags(tmp_path):
    import os

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
    spec = parse_model_text(demo_text(demo))
    next(s for s in spec.systems if s.name == system).expect = expect
    target = tmp_path / f"{demo}-marked.json"
    target.write_text(serialize_model_spec(spec), encoding="utf-8")
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


def test_malformed_environment_default_is_usage_error():
    import os

    env = dict(os.environ, SYMCONE_TOL="abc")
    proc = _run("--input", "qubit-pair", env=env)
    assert proc.returncode == EXIT_USAGE
    assert "--tol" in proc.stderr and "'abc'" in proc.stderr
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
    from pathlib import Path

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
