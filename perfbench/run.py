"""Benchmark of the symcone CLI: cold-process wall time, peak RSS and verdicts.

    python3 perfbench/run.py --workload demos|desk|scale --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs its inputs as
cold ``python -m symcone.cli --input <file> --format structured`` child
processes, one at a time (closed loop, one client), with the checkout's
``src`` on PYTHONPATH and the BLAS thread count pinned. A pass runs every
input of the workload once; passes repeat for ``--seconds``. Every
invocation's exit code and verdicts are compared with the workload's
expected table, and repeated invocations of an input must give
byte-identical reports.

With ``--trace 0`` the last stdout line holds the end-to-end metrics:
``wall_s`` and ``peak_rss_mb`` (medians over passes), ``ok_rate`` and
``setup_s`` (median of several set-ups). With ``--trace 1`` it holds the
per-layer metrics of a traced run (see README.md). Lines before it
describe the machine and the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import CERTIFICATES, summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected"

# BLAS threads per child; two ran the demos about 17 % slower than one.
BLAS_THREADS = 1
SETUP_REPEATS = 3
MIN_PASSES = 2  # a run compares two reports of each input byte for byte
IMPORT_REPEATS = 5
KERNEL_SECONDS = 1.0  # timing of the product kernel in the probe
INVOCATION_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 170.0  # a run must end within 180 s

DEMOS = ("qubit-pair", "rebit-pair", "quabit-pair", "spin-vs-qubit")
WARMUP_ARGS = ("--suites", "algebra", "--samples", "1")


@dataclass(frozen=True)
class Input:
    name: str                        # key of the expected-verdict table
    source: str                      # value passed to --input
    extra: tuple[str, ...] = ()      # further CLI flags


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple[Input, ...]
    kernel: tuple[str, int, int]     # family, size, pairs per call


WORKLOADS = {
    "demos": Workload("demos", tuple(Input(d, d) for d in DEMOS), ("complex", 4, 200)),
    "desk": Workload(
        "desk", (Input("desk", "perfbench/inputs/desk.json"),), ("real", 18, 20)
    ),
    "scale": Workload(
        "scale",
        (Input("scale", "perfbench/inputs/scale.json", ("--suites", "kv,composite")),),
        ("complex", 12, 20),
    ),
}

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "setup_s": "s",
}

LAYER_METRICS = {
    "import.s": "s",
    "import.rss_mb": "MB",
    "cli.self_s": "s",
    "modelfile.s": "s",
    "runner.self_s": "s",
    "algebra.context_build_s": "s",
    "algebra.context_peak_mb": "MB",
    "algebra.kernel_pairs_per_s": "1/s",
    "algebra.self_s": "s",
    "algebra.calls": "count",
    "spectral.self_s": "s",
    "spectral.calls": "count",
    "cone.self_s": "s",
    "reconstruction.lie_basis_s": "s",
    "reconstruction.lie_peak_mb": "MB",
    "reconstruction.self_s": "s",
    "models.self_s": "s",
    "composites.self_s": "s",
    "composites.candidate_s": "s",
    **{f"cert.{name}.s": "s" for name in CERTIFICATES},
    "trace.overhead_s": "s",
}


def program_seed(seed: int) -> int:
    """The CLI takes a nonnegative seed; map any benchmark seed onto one."""
    return seed % 2**31


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SYMCONE_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    threads = str(BLAS_THREADS)
    env.update(
        PYTHONPATH=str(SRC),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def cli_argv(inp: Input, seed: int, extra: tuple[str, ...]) -> list[str]:
    return [
        "--input", inp.source, "--format", "structured",
        "--seed", str(program_seed(seed)), *extra,
    ]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    label: str
    wall_s: float
    maxrss_kb: int
    exit_code: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


def invoke(label: str, argv: list[str], timeout: float) -> Invocation:
    """Run one child to completion and read its own rusage with wait4."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)

        def kill() -> None:
            killed.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        # Wait without reaping, so the timer can never signal a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        label, wall, usage.ru_maxrss, proc.returncode,
        out_path.read_bytes(), err_path.read_bytes(), killed.is_set(),
    )


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# Verdict checking
# ---------------------------------------------------------------------------


def verdicts(stdout: bytes, exit_code: int) -> dict:
    """The part of a structured report that must not change: exit code,
    each certificate's status and ok flag, and the summary."""
    report = json.loads(stdout)
    return {
        "exit_code": exit_code,
        "certificates": [
            [system["name"], cert["check"], cert["status"], cert["ok"]]
            for system in report["systems"]
            for cert in system["certificates"]
        ],
        "summary": report["summary"],
    }


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text(encoding="utf-8"))


def check_invocation(inv: Invocation, expected: dict) -> str | None:
    """Return why the invocation failed, or None if it is correct."""
    if inv.timed_out:
        return "timed out"
    try:
        got = verdicts(inv.stdout, inv.exit_code)
    except (ValueError, KeyError, TypeError) as exc:
        tail = inv.stderr.decode(errors="replace")[-300:]
        return f"exit {inv.exit_code}, no readable report ({exc}): {tail}"
    if got["exit_code"] != expected["exit_code"]:
        return f"exit code {got['exit_code']}, expected {expected['exit_code']}"
    if got["summary"] != expected["summary"]:
        return f"summary {got['summary']} differs from the expected table"
    if got["certificates"] != expected["certificates"]:
        diff = [
            (g, e) for g, e in zip(got["certificates"], expected["certificates"]) if g != e
        ]
        return f"verdicts differ from the expected table: {diff[:3]}"
    return None


@dataclass
class Tally:
    """Invocations attempted and failed in one benchmark run."""

    attempted: int = 0
    failed: int = 0
    references: dict[str, bytes] = field(default_factory=dict)

    def count(self, inv: Invocation, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            print(f"FAILED {inv.label}: {reason}", file=sys.stderr)

    def check_report(self, inv: Invocation, inp: Input) -> None:
        """Count an invocation whose report should match the expected table
        and every earlier report of the same input and seed in this run."""
        reason = check_invocation(inv, load_expected(inp.name))
        reference = self.references.setdefault(inp.name, inv.stdout)
        if reason is None and inv.stdout != reference:
            reason = "structured report not byte-identical to an earlier one"
        self.count(inv, reason)


# ---------------------------------------------------------------------------
# Set-up, passes and the traced run
# ---------------------------------------------------------------------------


class Deadline:
    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def setup_once(workload: Workload, seed: int, tally: Tally, deadline: Deadline) -> float:
    """Set up as after a fresh checkout: drop the package's bytecode, then
    run one short warm-up invocation per input (compiles .pyc and fills the
    file cache; algebra contexts are cached per process only, so none of
    them carries over to the measured children)."""
    for cache in SRC.rglob("__pycache__"):
        shutil.rmtree(cache)
    start = time.perf_counter()
    for inp in workload.inputs:
        argv = python("-m", "symcone.cli", *cli_argv(inp, seed, WARMUP_ARGS))
        inv = invoke(f"warm-up {inp.name}", argv, min(INVOCATION_TIMEOUT_S, deadline.left()))
        reason = None
        if inv.timed_out or inv.exit_code != 0:
            reason = f"warm-up exit {inv.exit_code}: {inv.stderr.decode(errors='replace')[-300:]}"
        tally.count(inv, reason)
    return time.perf_counter() - start


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float


def run_pass(workload: Workload, seed: int, tally: Tally, deadline: Deadline) -> Pass:
    peak_kb = 0
    start = time.perf_counter()
    for inp in workload.inputs:
        argv = python("-m", "symcone.cli", *cli_argv(inp, seed, inp.extra))
        inv = invoke(inp.name, argv, min(INVOCATION_TIMEOUT_S, deadline.left()))
        tally.check_report(inv, inp)
        peak_kb = max(peak_kb, inv.maxrss_kb)
    return Pass(time.perf_counter() - start, peak_kb / 1024.0)


def traced_pass(
    workload: Workload, seed: int, run_id: str, tally: Tally, deadline: Deadline
) -> tuple[float, dict[str, float]]:
    """One pass with every invocation traced; returns its wall time and the
    per-layer totals summed over its inputs (peaks take the maximum)."""
    layers: dict[str, float] = {}
    start = time.perf_counter()
    for index, inp in enumerate(workload.inputs):
        spans_path = WORK / f"spans-{workload.name}-{run_id}-{index}.json"
        report_path = WORK / "traced-report.json"
        spans_path.unlink(missing_ok=True)
        report_path.unlink(missing_ok=True)
        argv = python(
            str(BENCH / "child.py"), "trace", "--run-id", f"{run_id}-{index}",
            "--spans", str(spans_path), "--report", str(report_path),
            "--", *cli_argv(inp, seed, inp.extra),
        )
        inv = invoke(f"traced {inp.name}", argv, min(INVOCATION_TIMEOUT_S, deadline.left()))
        inv.stdout = report_path.read_bytes() if report_path.exists() else b""
        tally.check_report(inv, inp)
        if not spans_path.exists():
            continue
        spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
        for key, value in summarize(spans).items():
            if key.endswith("_mb"):
                layers[key] = max(layers.get(key, 0.0), value)
            else:
                layers[key] = layers.get(key, 0.0) + value
    return time.perf_counter() - start, layers


def import_probe(tally: Tally, deadline: Deadline) -> dict[str, float]:
    walls, rss = [], []
    for i in range(IMPORT_REPEATS):
        inv = invoke(f"import {i}", python("-c", "import symcone"), deadline.left())
        tally.count(inv, None if inv.exit_code == 0 and not inv.timed_out else "import failed")
        walls.append(inv.wall_s)
        rss.append(inv.maxrss_kb / 1024.0)
    return {"import.s": statistics.median(walls), "import.rss_mb": statistics.median(rss)}


def context_and_kernel_probe(
    workload: Workload, tally: Tally, deadline: Deadline
) -> dict[str, float]:
    """Context builds of every algebra and carrier of the workload's inputs,
    and the kernel rate, measured in one fresh child process."""
    family, size, pairs = workload.kernel
    out = WORK / "probe.json"
    out.unlink(missing_ok=True)
    sources = [arg for inp in workload.inputs for arg in ("--input", inp.source)]
    argv = python(
        str(BENCH / "child.py"), "probe", *sources,
        "--family", family, "--size", str(size), "--pairs", str(pairs),
        "--seconds", str(KERNEL_SECONDS), "--out", str(out),
    )
    inv = invoke(f"probe {family} {size}", argv, min(INVOCATION_TIMEOUT_S, deadline.left()))
    ok = inv.exit_code == 0 and out.exists()
    tally.count(inv, None if ok else f"probe failed: {inv.stderr[-300:]!r}")
    if not ok:
        return {}
    result = json.loads(out.read_text(encoding="utf-8"))
    builds = summarize(result["spans"])
    return {
        "algebra.context_build_s": builds["algebra.context_build_s"],
        "algebra.context_peak_mb": builds["algebra.context_peak_mb"],
        "algebra.kernel_pairs_per_s": statistics.median(result["pairs_per_s"]),
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    deadline = Deadline(RUN_DEADLINE_S)
    setups = [setup_once(workload, seed, tally, deadline) for _ in range(SETUP_REPEATS)]
    passes: list[Pass] = []
    start = time.perf_counter()
    # Start a pass while it should end at most half a pass after the window
    # closes (or the minimum is not reached yet): a run lasts about
    # --seconds, and a long pass does not leave the last part of the window
    # unmeasured.
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + passes[-1].wall_s / 2 <= seconds
    ):
        if passes and deadline.left() < 2 * passes[-1].wall_s:
            break
        passes.append(run_pass(workload, seed, tally, deadline))
    ok_rate = (tally.attempted - tally.failed) / tally.attempted
    print(
        f"# {workload.name}: {len(passes)} passes of {len(workload.inputs)} invocations, "
        f"{certificates_per_pass(workload)} certificates per pass, "
        f"pass walls {[round(p.wall_s, 3) for p in passes]}, "
        f"set-ups {[round(s, 3) for s in setups]}"
    )
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "ok_rate": ok_rate,
        "setup_s": statistics.median(setups),
    }
    return tally, metrics


def measure_traced(workload: Workload, seed: int, seconds: float) -> tuple[Tally, dict]:
    tally = Tally()
    deadline = Deadline(RUN_DEADLINE_S)
    start = time.perf_counter()
    setup_once(workload, seed, tally, deadline)
    fixed = {
        **import_probe(tally, deadline),
        **context_and_kernel_probe(workload, tally, deadline),
    }
    rounds: list[dict[str, float]] = []
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        if rounds and deadline.left() < 2 * last:
            break
        begin = time.perf_counter()
        untraced = run_pass(workload, seed, tally, deadline)
        wall, layers = traced_pass(workload, seed, str(len(rounds)), tally, deadline)
        layers["trace.overhead_s"] = wall - untraced.wall_s
        rounds.append(layers)
        last = time.perf_counter() - begin
    print(f"# {workload.name}: {len(rounds)} traced passes")
    metrics = {
        name: statistics.median(r.get(name, 0.0) for r in rounds)
        for name in LAYER_METRICS
        if name not in fixed
    }
    return tally, {**fixed, **metrics}


def certificates_per_pass(workload: Workload) -> int:
    return sum(load_expected(i.name)["summary"]["certificates"] for i in workload.inputs)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def describe_machine() -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        **versions,
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "symcone" / "cli.py").is_file():
        print(f"perfbench: no symcone sources under {SRC}", file=sys.stderr)
        return 2

    print("# machine " + json.dumps(describe_machine(), sort_keys=True))
    workload = WORKLOADS[args.workload]
    if args.trace:
        tally, values = measure_traced(workload, args.seed, args.seconds)
        units = LAYER_METRICS
    else:
        tally, values = measure(workload, args.seed, args.seconds)
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
