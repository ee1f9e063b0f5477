"""Suite execution over parsed model files, with deterministic reports.

The table ``_CHECKS`` is the one list of certificates. Each row names a
check, its suite and the kind of system it runs on, and holds a callable
``(subject, cfg, seed)`` with the check's sample cap, seed offset and
tolerance rule; the subject is the system's ``ProbModel`` or, for a
composite, its ``CompositeSystem``. The suites, ``CERTIFICATE_NAMES`` and
the checks on ``expect`` maps all come from the table.

A run has two phases. First, in input order, every ``expect`` map is
checked and every system is built, with its report header: composites
pick up the already built part models, and a plain system's declared
states must be states of its model. So every input error is raised before
any certificate runs. Then each system runs the rows of its kind that
belong to the selected suites, in table order: plain systems the algebra,
cone, kv (reconstruction) and model suites plus a qubit-witness note in
the composite suite; composite systems only the composite suite, since
their interesting content is the embedding. A system's certificates draw
from a seed fixed by its index (a certificate that drew nothing reports
it too), so the systems are independent: the second phase runs them
either in this process or in forked workers, to which this process hands
the systems in input order as the workers come free, and the results are
put back in input order; a worker that dies is a fault of the system it
held, raised like any other. A certificate whose failure is marked
expected in the input flips its contribution to the exit code. Reports
contain no timestamps, machine identifiers or worker counts, so identical
input and configuration give byte-identical structured output.
"""

from __future__ import annotations

import gc
import json
import math
import os
import pickle
import select
import signal
from collections import Counter
from dataclasses import dataclass
from typing import Any, BinaryIO, Callable, NoReturn

import numpy as np

from . import __version__
from .algebra import (
    Element,
    _context,
    certify_formal_reality,
    commutativity_residuals,
    descriptor_to_record,
    format_descriptor,
    jordan_identity_residuals,
    trace_associativity_residuals,
    unit_law_residuals,
)
from .certificates import ConeCertificate
from .composites import (
    CompositeSystem,
    _power_rank,
    candidate_composite,
    check_unit_factor_products,
    factorization_check,
    local_tomography_audit,
    nonsignaling_check,
    product_tests_check,
    qubit_witness,
    tensor_adjoint_check,
    tensor_lmap_check,
)
from .cone import (
    check_homogeneity,
    check_membership_agreement,
    check_order_unit,
    check_self_duality,
)
from .models import (
    ProbModel,
    _outcome_rows,
    certify_unital_sharp,
    check_cauchy_schwarz,
    check_reversible_stabilizer,
    check_unital_outcomes_primitive,
    make_model,
    model_from_tests,
    state_from_coords,
    uniform_state,
)
from .modelfile import ModelFileSpec, SystemSpec
from .reconstruction import (
    RECONSTRUCTION_TOL,
    check_exp_preserves_cone,
    check_p_bracket,
    check_unit_stabilizer_split,
    p_to_E_isomorphism,
    reconstruct_product,
    structure_lie_basis,
)

__all__ = ["SUITES", "RunConfig", "run_model_spec", "render_report_text"]

REPORT_SCHEMA_VERSION = 1
MODEL, COMPOSITE = "model", "composite"  # the report's system kinds
# the least tolerance of uniform_state_values and nonsignaling_marginals,
# whatever --tol is
MARGINAL_TOL_FLOOR = 1e-10
# uniform_state_values counts a pooled outcome as primitive when its trace
# is within this times the rank of 1
PRIMITIVE_TRACE_SCREEN = 1e-6


@dataclass(frozen=True)
class _Check:
    name: str
    suite: str
    kind: str  # MODEL (a plain system) or COMPOSITE
    run: Callable[[Any, RunConfig, int], ConeCertificate | str | None]


def _law(name: str, residuals: np.ndarray, cfg: RunConfig) -> ConeCertificate:
    """Certificate of an algebra law: the worst of its residuals, one per
    sampled draw, basis element or basis triple."""
    worst = float(np.max(residuals))
    return ConeCertificate(
        check_name=name,
        passed=worst <= cfg.tol,
        samples=len(residuals),
        tol=cfg.tol,
        worst_residual=worst,
    )


def _structure_dims(model: ProbModel, cfg: RunConfig, seed: int) -> ConeCertificate:
    lie = structure_lie_basis(model.algebra)
    iso = p_to_E_isomorphism(lie)
    return ConeCertificate(
        check_name="structure_dims",
        passed=iso.invertible and lie.split_residual == 0.0,
        samples=int(lie.basis.shape[0]),
        tol=cfg.tol,
        worst_residual=lie.split_residual,
        details={**lie.dims, "evaluation_condition": iso.condition_number},
    )


def _product_reconstruction(model: ProbModel, cfg: RunConfig, seed: int) -> ConeCertificate:
    report = reconstruct_product(model.algebra, samples=cfg.samples, seed=seed)
    return ConeCertificate(
        check_name="product_reconstruction",
        passed=report.passed(),
        samples=cfg.samples,
        seed=seed,
        tol=RECONSTRUCTION_TOL,
        worst_residual=report.max_deviation,
        details={**report.residuals, "condition_number": report.condition_number},
    )


def _uniform_state_values(model: ProbModel, cfg: RunConfig, seed: int) -> ConeCertificate:
    """The uniform state u / rank gives each outcome x the probability
    tr(x) / rank, each test a total of 1, and each pooled primitive outcome
    1 / rank. The traces and pairings are row sums of products, term for
    term and in the order ``trace_of`` and ``trace_form`` take them."""
    ctx = _context(model.algebra)
    rank = model.algebra.rank
    weights = uniform_state(model).representer.coords * ctx.gram
    rows, owner = _outcome_rows(model.tests, model.algebra.dim)
    probs = np.sum(rows * weights, axis=1)
    traces = np.sum(rows * ctx.gram * ctx.unit_coords, axis=1)
    sizes = np.bincount(owner)
    # the tests of one size are the rows of one array: a row sum adds in the
    # order a sum of that test alone does (np.add.reduceat would not); the
    # sizes are sorted in Python, since np.unique imports numpy.ma, 13 ms in
    # every process
    totals = [
        probs[sizes[owner] == size].reshape(-1, size).sum(axis=1)
        for size in sorted(set(sizes.tolist()))
    ]
    pooled = np.array([x.coords for x in model.outcomes]).reshape(-1, model.algebra.dim)
    pooled_traces = np.sum(pooled * ctx.gram * ctx.unit_coords, axis=1)
    primitive = pooled[np.abs(pooled_traces - 1.0) <= PRIMITIVE_TRACE_SCREEN * rank]
    gaps = [np.abs(probs - traces / rank)] + [np.abs(total - 1.0) for total in totals]
    gaps.append(np.abs(np.sum(primitive * weights, axis=1) - 1.0 / rank))
    worst = float(max(gap.max(initial=0.0) for gap in gaps))
    tol = max(cfg.tol, MARGINAL_TOL_FLOOR)
    return ConeCertificate(
        check_name="uniform_state_values",
        passed=worst <= tol,
        samples=len(model.tests),
        tol=tol,
        worst_residual=worst,
        details={"pooled_primitive_outcomes": len(primitive)},
    )


def _unital_outcomes_primitive(
    model: ProbModel, cfg: RunConfig, seed: int
) -> ConeCertificate | str:
    try:
        return check_unital_outcomes_primitive(model, tol=cfg.tol)
    except ValueError as exc:
        return str(exc)


def _qubit_witness(model: ProbModel, cfg: RunConfig, seed: int) -> ConeCertificate:
    A = model.algebra
    # a note, not a sampled check: it reports the run's base seed and the
    # rank computed from the products
    return ConeCertificate(
        check_name="qubit_witness",
        passed=True,
        samples=0,
        seed=cfg.seed,
        tol=cfg.tol,
        worst_residual=0.0,
        details={
            "is_qubit": qubit_witness(A),
            "algebra": format_descriptor(A),
            "rank": _power_rank(A),
        },
    )


# The one list of certificates, in report order. A row's callable returns a
# ConeCertificate, a skip reason, or None when the row has nothing to report
# on the subject. Callables look each check up by its module-level name when
# they run, so a wrapper bound over that name sees the call.
_CHECKS = (
    _Check("jordan_identity", "algebra", MODEL, lambda m, cfg, seed: _law(
        "jordan_identity", jordan_identity_residuals(m.algebra, cfg.samples, seed=seed),
        cfg)),
    _Check("commutativity", "algebra", MODEL, lambda m, cfg, seed: _law(
        "commutativity", commutativity_residuals(m.algebra, cfg.samples, seed=seed), cfg)),
    _Check("unit_law", "algebra", MODEL, lambda m, cfg, seed: _law(
        "unit_law", unit_law_residuals(m.algebra), cfg)),
    _Check("trace_associativity", "algebra", MODEL, lambda m, cfg, seed: _law(
        "trace_associativity", trace_associativity_residuals(m.algebra), cfg)),
    _Check("formal_reality", "algebra", MODEL, lambda m, cfg, seed: certify_formal_reality(
        m.algebra, tol=cfg.tol)),
    _Check("self_duality", "cone", MODEL, lambda m, cfg, seed: check_self_duality(
        m.algebra, samples=cfg.samples, seed=seed, tol=cfg.tol)),
    _Check("membership_agreement", "cone", MODEL, lambda m, cfg, seed: (
        check_membership_agreement(
            m.algebra, samples=cfg.samples, seed=seed + 1, tol=cfg.tol))),
    _Check("homogeneity_transport", "cone", MODEL, lambda m, cfg, seed: check_homogeneity(
        m.algebra, samples=min(cfg.samples, 100), seed=seed + 2,
        directions=min(cfg.samples, 100))),
    _Check("order_unit", "cone", MODEL, lambda m, cfg, seed: check_order_unit(
        m.algebra, samples=cfg.samples, seed=seed + 3, tol=cfg.tol)),
    _Check("structure_dims", "kv", MODEL, _structure_dims),
    _Check("unit_stabilizer_split", "kv", MODEL, lambda m, cfg, seed: (
        check_unit_stabilizer_split(structure_lie_basis(m.algebra), tol=cfg.tol))),
    _Check("sym_bracket_in_skew", "kv", MODEL, lambda m, cfg, seed: check_p_bracket(
        structure_lie_basis(m.algebra), samples=min(cfg.samples, 50), seed=seed,
        tol=cfg.tol)),
    _Check("product_reconstruction", "kv", MODEL, _product_reconstruction),
    _Check("exp_preserves_cone", "kv", MODEL, lambda m, cfg, seed: check_exp_preserves_cone(
        m.algebra, samples=min(cfg.samples, 40), seed=seed, tol=cfg.tol)),
    _Check("uniform_state_values", "model", MODEL, _uniform_state_values),
    _Check("unital_sharp_outcomes", "model", MODEL, lambda m, cfg, seed: (
        certify_unital_sharp(m, tol=cfg.tol))),
    _Check("uniform_unital_outcomes_primitive", "model", MODEL, _unital_outcomes_primitive),
    _Check("primitive_pairing_bounds", "model", MODEL, lambda m, cfg, seed: (
        check_cauchy_schwarz(
            m.algebra, samples=max(cfg.samples, 100), seed=seed))),
    _Check("reversible_stabilizer", "model", MODEL, lambda m, cfg, seed: (
        check_reversible_stabilizer(
            m.algebra, samples=min(cfg.samples, 20), seed=seed, tol=cfg.tol))),
    _Check("qubit_witness", "composite", MODEL, _qubit_witness),
    _Check("local_tomography", "composite", COMPOSITE, lambda cs, cfg, seed: (
        local_tomography_audit(cs))),
    _Check("product_tests_resolve_unit", "composite", COMPOSITE, lambda cs, cfg, seed: (
        product_tests_check(cs, tol=cfg.tol))),
    _Check("nonsignaling_marginals", "composite", COMPOSITE, lambda cs, cfg, seed: (
        nonsignaling_check(cs, tol=max(cfg.tol, MARGINAL_TOL_FLOOR)))),
    _Check("pairing_factorization", "composite", COMPOSITE, lambda cs, cfg, seed: (
        factorization_check(cs))),
    _Check("unit_factor_products", "composite", COMPOSITE, lambda cs, cfg, seed: (
        check_unit_factor_products(cs, tol=cfg.tol))),
    # one check, reported under the name that says whether the composite is
    # locally tomographic
    _Check("tensor_lmap", "composite", COMPOSITE, lambda cs, cfg, seed: (
        tensor_lmap_check(cs, tol=cfg.tol) if cs.locally_tomographic else None)),
    _Check("tensor_lmap_embedded", "composite", COMPOSITE, lambda cs, cfg, seed: (
        None if cs.locally_tomographic else tensor_lmap_check(cs, tol=cfg.tol))),
    _Check("tensor_adjoint", "composite", COMPOSITE, lambda cs, cfg, seed: (
        tensor_adjoint_check(cs, samples=min(cfg.samples, 10), seed=seed, tol=cfg.tol)
        if cs.locally_tomographic
        else "composite is not locally tomographic; lifted maps are not defined")),
)

SUITES = tuple(dict.fromkeys(check.suite for check in _CHECKS))
# Every certificate name a suite can report, skipped ones included; these
# are the names a system's ``expect`` map may use.
CERTIFICATE_NAMES = tuple(check.name for check in _CHECKS)


@dataclass
class RunConfig:
    suites: tuple[str, ...] = SUITES
    tol: float = 1e-9
    samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.suites, (tuple, list)) or not all(
            isinstance(s, str) for s in self.suites
        ):
            raise ValueError(f"suites must be a sequence of suite names, got {self.suites!r}")
        self.suites = tuple(self.suites)
        if not self.suites:
            raise ValueError("suite list must not be empty")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ValueError(
                f"unknown suites {unknown}; available: {', '.join(SUITES)}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if isinstance(self.samples, bool) or not isinstance(self.samples, int):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if (
            isinstance(self.tol, bool)
            or not isinstance(self.tol, (int, float))
            or not (math.isfinite(self.tol) and self.tol > 0.0)
        ):
            raise ValueError(f"tol must be a finite positive number, got {self.tol!r}")


def _cert_entry(
    cert: ConeCertificate, suite: str, expect: dict[str, str]
) -> dict:
    expected = expect.get(cert.check_name, "pass")
    entry = cert.to_dict()
    entry["suite"] = suite
    entry["expected"] = expected
    entry["status"] = "pass" if entry["passed"] else "fail"
    entry["ok"] = entry["passed"] == (expected == "pass")
    return entry


def _skip_entry(name: str, suite: str, reason: str) -> dict:
    return {
        "check": name,
        "suite": suite,
        "status": "skipped",
        "reason": reason,
        "ok": True,
    }


def _check_expect(sys_spec: SystemSpec) -> None:
    """Reject ``expect`` names that no row of the system's kind reports."""
    kind = COMPOSITE if sys_spec.is_composite else MODEL
    known = [check.name for check in _CHECKS if check.kind == kind]
    unknown = sorted(set(sys_spec.expect) - set(known))
    if unknown:
        raise ValueError(
            f"system {sys_spec.name!r} expects certificates {', '.join(unknown)} "
            f"that no suite reports on a {kind} system; known: {', '.join(known)}"
        )


def _build_model(spec: SystemSpec, index: int) -> ProbModel:
    if spec.test_mode == "sampled":
        model = make_model(spec.algebra, count=spec.test_count, seed=spec.test_seed)
    else:
        tests = [
            tuple(Element(spec.algebra, np.asarray(row)) for row in test)
            for test in spec.explicit_tests
        ]
        try:
            model = model_from_tests(spec.algebra, tests)
        except ValueError as exc:
            raise ValueError(f"systems[{index}].tests.outcomes: {exc}") from None
    for k, row in enumerate(spec.states):
        try:
            state_from_coords(model, row)
        except ValueError as exc:
            raise ValueError(f"systems[{index}].states[{k}]: {exc}") from None
    return model


@dataclass
class _Worker:
    pid: int  # 0 once reaped
    tasks: BinaryIO  # write end of its task pipe, closed once it has no more
    tasks_read: int  # this process's copy of the task pipe's read end
    results: BinaryIO  # read end of its result pipe
    index: int | None = None  # the system it holds


def _serve(
    run: Callable[[int], Any], tasks: int, results: int, inherited: list[int]
) -> NoReturn:
    """A forked worker's loop: close the ``inherited`` descriptors, which
    belong to the parent and to the workers forked before this one, then
    read system indices from its own ``tasks`` pipe and write the pickled
    ``(result, traceback)`` of each to ``results`` (``traceback`` is None,
    or the text of the exception sent as ``result``), until end of file.
    Never returns into the caller's stack."""
    status = 1
    try:
        for fd in inherited:
            os.close(fd)
        with os.fdopen(results, "wb") as out:
            while raw := os.read(tasks, 4):
                try:
                    message = (run(int.from_bytes(raw, "little")), None)
                except Exception as exc:
                    import traceback

                    message = (exc, traceback.format_exc())
                pickle.dump(message, out)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _run_in_workers(run: Callable[[int], Any], names: list[str], jobs: int) -> list:
    """``[run(i) for i in range(len(names))]``, computed by up to ``jobs``
    forked workers while this process only hands out the indices and
    collects the results.

    Each worker has a task pipe and a result pipe of its own. This process
    hands the next index, in input order, to whichever worker has just
    reported, so a long system does not hold the others up, and it always
    knows which system each worker holds. An exception in a worker is
    raised here with its type and message, and the worker's traceback as
    its cause; a worker that ends while it holds a system is a RuntimeError
    that names the system and the worker's exit status. Of the faults, the
    one at the lowest index is raised, as soon as every index below it is
    done, as the serial loop would raise it. Every worker is reaped before
    this returns or raises.
    """
    todo = iter(range(len(names)))
    done: dict[int, Any] = {}
    faults: dict[int, BaseException] = {}
    workers: dict[int, _Worker] = {}  # by result pipe descriptor

    def hand_out(worker: _Worker) -> None:
        """Send ``worker`` the next index; once none is left, or a fault is
        known, close its task pipe so that it ends."""
        worker.index = None if faults else next(todo, None)
        if worker.index is None:
            worker.tasks.close()
        else:
            # never blocks: the pipe holds at most this one index
            worker.tasks.write(worker.index.to_bytes(4, "little"))

    def settled() -> bool:
        return bool(faults) and all(index in done for index in range(min(faults)))

    # Objects made before the fork stay out of collections while the
    # workers live, so that no collection, in a worker or here, writes to
    # (and so copies) the pages they share.
    gc.freeze()
    try:
        poller = select.poll()
        for _ in range(min(jobs, len(names))):
            # This process keeps each task pipe's read end open, so handing
            # an index to a worker that has just died does not fail for want
            # of a reader; the worker's end of file then reports it.
            tasks_r, tasks_w = os.pipe()
            result_r, result_w = os.pipe()
            pid = os.fork()
            if pid == 0:
                inherited = [tasks_w, result_r, *(
                    fd for w in workers.values()
                    for fd in (w.tasks.fileno(), w.tasks_read, w.results.fileno()))]
                _serve(run, tasks_r, result_w, inherited)
            os.close(result_w)
            workers[result_r] = _Worker(
                pid, os.fdopen(tasks_w, "wb", buffering=0), tasks_r, os.fdopen(result_r, "rb"))
            poller.register(result_r, select.POLLIN)
        # no worker gets a system before all are forked: handing one out
        # during the forks raised that worker's peak RSS on the perfbench
        # scale input from 39.4 to 42.7 MB (2 cores, one BLAS thread)
        for worker in workers.values():
            hand_out(worker)
        while any(worker.pid for worker in workers.values()) and not settled():
            for fd, _ in poller.poll():
                worker = workers[fd]
                try:
                    result, trace = pickle.load(worker.results)
                except (EOFError, pickle.UnpicklingError):
                    # the worker has left: at end of its task pipe, or while
                    # it held a system
                    poller.unregister(fd)
                    code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
                    worker.pid = 0
                    if worker.index is not None:
                        status = f"exit code {code}" if code >= 0 else f"signal {-code}"
                        faults[worker.index] = RuntimeError(
                            f"a certificate worker ended ({status}) "
                            f"before reporting system {names[worker.index]!r}"
                        )
                    continue
                if trace is None:
                    done[worker.index] = result
                else:
                    result.__cause__ = RuntimeError(f"raised in a certificate worker:\n{trace}")
                    faults[worker.index] = result
                hand_out(worker)
        if faults:
            raise faults[min(faults)]
        return [done[index] for index in range(len(names))]
    finally:
        for worker in workers.values():
            if worker.pid:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
            worker.results.close()
            worker.tasks.close()
            os.close(worker.tasks_read)
        gc.unfreeze()


def run_model_spec(
    spec: ModelFileSpec, cfg: RunConfig, source: str = "<memory>", jobs: int = 1
) -> dict:
    """Execute the configured suites and assemble the report dictionary.

    With ``jobs`` 1 the certificates run in this process; with more, up to
    ``jobs`` forked workers run them (see ``_run_in_workers``), which only a
    process that owns its interpreter, such as the command line's, should
    ask for. The report does not depend on ``jobs``.

    Raises ValueError, before running anything, when an ``expect`` map
    names a certificate that no suite reports for that kind of system;
    when the model is built, for a declared state that is not a state; and
    for a composite whose parts have no candidate carrier. The last two
    messages start with the record path of the system at fault.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    for sys_spec in spec.systems:
        _check_expect(sys_spec)
    built: dict[str, ProbModel] = {}
    systems_out: list[dict] = []
    subjects: list[ProbModel | CompositeSystem] = []
    for index, sys_spec in enumerate(spec.systems):
        entry: dict = {"name": sys_spec.name}
        if sys_spec.is_composite:
            part_a, part_b = sys_spec.composite_parts
            try:
                subject = cs = candidate_composite(built[part_a], built[part_b])
            except ValueError as exc:
                raise ValueError(f"systems[{index}].composite.parts: {exc}") from None
            entry["kind"] = COMPOSITE
            entry["parts"] = [part_a, part_b]
            entry["algebra"] = descriptor_to_record(cs.carrier)
            entry["dims"] = {
                "dim_part_a": cs.part_a.algebra.dim,
                "dim_part_b": cs.part_b.algebra.dim,
                "dim_product": cs.part_a.algebra.dim * cs.part_b.algebra.dim,
                "dim_carrier": cs.carrier.dim,
                "rank_carrier": cs.carrier.rank,
                "embed_rank": cs.embed_rank,
                "locally_tomographic": cs.locally_tomographic,
            }
        else:
            subject = model = _build_model(sys_spec, index)
            built[sys_spec.name] = model
            entry["kind"] = MODEL
            entry["algebra"] = descriptor_to_record(model.algebra)
            entry["dims"] = {
                "dim": model.algebra.dim,
                "rank": model.algebra.rank,
                "tests": len(model.tests),
                "outcomes": len(model.outcomes),
            }
        systems_out.append(entry)
        subjects.append(subject)

    def _run_checks(index: int) -> list[dict]:
        """The report entries of system ``index``: the rows of its kind in
        the selected suites, in table order."""
        kind, subject = systems_out[index]["kind"], subjects[index]
        seed = cfg.seed + 1000 * index
        certs: list[dict] = []
        for check in _CHECKS:
            if check.kind != kind or check.suite not in cfg.suites:
                continue
            outcome = check.run(subject, cfg, seed)
            if isinstance(outcome, ConeCertificate):
                if outcome.seed is None:
                    outcome.seed = seed
                certs.append(_cert_entry(outcome, check.suite, spec.systems[index].expect))
            elif outcome is not None:
                certs.append(_skip_entry(check.name, check.suite, outcome))
        return certs

    if jobs == 1:
        all_certs = [_run_checks(index) for index in range(len(subjects))]
    else:
        all_certs = _run_in_workers(_run_checks, [s.name for s in spec.systems], jobs)
    for entry, certs in zip(systems_out, all_certs):
        entry["certificates"] = certs

    named = [(s["name"], c) for s in systems_out for c in s["certificates"]]
    count = Counter(c["status"] for _, c in named)
    wrong = [(c["status"], f"{n}:{c['check']}") for n, c in named if not c["ok"]]
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": {"package": "symcone", "version": __version__},
        "input": {"name": spec.name, "source": source},
        "config": {
            "suites": list(cfg.suites),
            "tol": cfg.tol,
            "samples": cfg.samples,
            "seed": cfg.seed,
        },
        "systems": systems_out,
        "summary": {
            "certificates": count["pass"] + count["fail"],
            "passed": count["pass"],
            "failed": count["fail"],
            "skipped": count["skipped"],
            "unexpected_failures": [w for status, w in wrong if status == "fail"],
            "unexpected_passes": [w for status, w in wrong if status == "pass"],
            "ok": not wrong,
        },
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_report_text(report: dict) -> str:
    lines = []
    inp = report["input"]
    lines.append(
        f"symcone report (schema {report['schema_version']}) for "
        f"{inp['name'] or inp['source']}"
    )
    cfg = report["config"]
    lines.append(
        f"config: suites={','.join(cfg['suites'])} tol={cfg['tol']:g} "
        f"samples={cfg['samples']} seed={cfg['seed']}"
    )
    for system in report["systems"]:
        dims = " ".join(f"{k}={v}" for k, v in system["dims"].items())
        lines.append(f"\nsystem {system['name']} ({system['kind']}): {dims}")
        for cert in system["certificates"]:
            if cert.get("status") == "skipped":
                lines.append(f"  [SKIP] {cert['check']}: {cert['reason']}")
                continue
            mark = "PASS" if cert["status"] == "pass" else "FAIL"
            if not cert["ok"]:
                flag = "  <-- unexpected"
            elif cert["status"] == "fail":
                flag = "  (expected)"
            else:
                flag = ""
            lines.append(
                f"  [{mark}] {cert['suite']}/{cert['check']}: "
                f"worst={cert['worst_residual']:.3e} tol={cert['tol']:g} "
                f"samples={cert['samples']} seed={cert['seed']}{flag}"
            )
    s = report["summary"]
    lines.append(
        f"\nsummary: {s['passed']}/{s['certificates']} passed, "
        f"{s['failed']} failed, {s['skipped']} skipped; "
        f"ok={str(s['ok']).lower()}"
    )
    if s["unexpected_failures"]:
        lines.append("unexpected failures: " + ", ".join(s["unexpected_failures"]))
    if s["unexpected_passes"]:
        lines.append("unexpected passes: " + ", ".join(s["unexpected_passes"]))
    return "\n".join(lines) + "\n"
