"""Suite execution over parsed model files, with deterministic reports.

Each described system is built in input order; composites pick up the
already built part models. Plain systems run the algebra, cone,
reconstruction, and model suites (plus a qubit-witness note in the
composite suite); composite systems run only the composite suite, since
their interesting content is the embedding. A certificate whose failure is
marked expected in the input flips its contribution to the exit code.
Reports contain no timestamps or machine identifiers, so identical input
and configuration give byte-identical structured output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .algebra import (
    Element,
    check_formal_reality,
    commutativity_residuals,
    descriptor_to_record,
    format_descriptor,
    jordan_identity_residuals,
    random_element,
    trace_associativity_residuals,
    trace_form,
    trace_of,
    unit_law_residuals,
)
from .certificates import ConeCertificate
from .composites import (
    CompositeSystem,
    candidate_composite,
    check_unit_factor_products,
    factorization_check,
    local_tomography_audit,
    nonsignaling_check,
    product_tests_check,
    qubit_witness,
    spin_qubit_isomorphism,
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
    certify_unital_sharp,
    check_cauchy_schwarz,
    check_reversible_stabilizer,
    check_unital_outcomes_primitive,
    evaluate,
    make_model,
    model_from_tests,
    uniform_state,
)
from .modelfile import ModelFileSpec, SystemSpec
from .reconstruction import (
    check_exp_preserves_cone,
    check_p_bracket,
    check_unit_stabilizer_split,
    p_to_E_isomorphism,
    reconstruct_product,
    structure_lie_basis,
)

__all__ = ["SUITES", "RunConfig", "run_model_spec", "render_report_text"]

SUITES = ("algebra", "cone", "kv", "model", "composite")
REPORT_SCHEMA_VERSION = 1

# Every certificate name a suite can report, skipped ones included; these
# are the names a system's ``expect`` map may use.
CERTIFICATE_NAMES = (
    "jordan_identity",
    "commutativity",
    "unit_law",
    "trace_associativity",
    "formal_reality",
    "self_duality",
    "membership_agreement",
    "homogeneity_transport",
    "order_unit",
    "structure_dims",
    "unit_stabilizer_split",
    "sym_bracket_in_skew",
    "product_reconstruction",
    "exp_preserves_cone",
    "uniform_state_values",
    "unital_sharp_outcomes",
    "uniform_unital_outcomes_primitive",
    "primitive_pairing_bounds",
    "reversible_stabilizer",
    "qubit_witness",
    "local_tomography",
    "product_tests_resolve_unit",
    "nonsignaling_marginals",
    "pairing_factorization",
    "unit_factor_products",
    "tensor_lmap",
    "tensor_lmap_embedded",
    "tensor_adjoint",
)


@dataclass
class RunConfig:
    suites: tuple[str, ...] = SUITES
    tol: float = 1e-9
    samples: int = 200
    seed: int = 0
    output_format: str = "structured"

    def __post_init__(self):
        self.suites = tuple(self.suites)
        if not self.suites:
            raise ValueError("suite list must not be empty")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ValueError(
                f"unknown suites {unknown}; available: {', '.join(SUITES)}"
            )
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.output_format not in ("text", "structured"):
            raise ValueError("output format must be 'text' or 'structured'")


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


def _algebra_suite(
    model: ProbModel, cfg: RunConfig, seed: int, expect: dict[str, str]
) -> list[dict]:
    A = model.algebra
    n = cfg.samples
    entries = []
    specs = [
        ("jordan_identity", jordan_identity_residuals),
        ("commutativity", commutativity_residuals),
        ("unit_law", unit_law_residuals),
        ("trace_associativity", trace_associativity_residuals),
    ]
    for name, fn in specs:
        res = fn(A, n, seed=seed)
        worst = float(np.max(res))
        cert = ConeCertificate(
            check_name=name,
            passed=worst <= cfg.tol,
            samples=n,
            seed=seed,
            tol=cfg.tol,
            worst_residual=worst,
        )
        entries.append(_cert_entry(cert, "algebra", expect))
    rng = np.random.default_rng(seed)
    violations = 0
    for _ in range(min(n, 100)):
        a = random_element(A, rng)
        b = random_element(A, rng)
        if not check_formal_reality(a, b, tol=cfg.tol):
            violations += 1
    cert = ConeCertificate(
        check_name="formal_reality",
        passed=violations == 0,
        samples=min(n, 100),
        seed=seed,
        tol=cfg.tol,
        worst_residual=float(violations),
    )
    entries.append(_cert_entry(cert, "algebra", expect))
    return entries


def _cone_suite(
    model: ProbModel, cfg: RunConfig, seed: int, expect: dict[str, str]
) -> list[dict]:
    A = model.algebra
    certs = [
        check_self_duality(A, samples=cfg.samples, seed=seed, tol=cfg.tol),
        check_membership_agreement(A, samples=cfg.samples, seed=seed + 1, tol=cfg.tol),
        check_homogeneity(
            A,
            samples=min(cfg.samples, 100),
            seed=seed + 2,
            directions=min(cfg.samples, 100),
        ),
        check_order_unit(A, samples=cfg.samples, seed=seed + 3, tol=cfg.tol),
    ]
    return [_cert_entry(c, "cone", expect) for c in certs]


def _kv_suite(
    model: ProbModel, cfg: RunConfig, seed: int, expect: dict[str, str]
) -> list[dict]:
    A = model.algebra
    lie = structure_lie_basis(A)
    iso = p_to_E_isomorphism(lie)
    entries = []
    dims_cert = ConeCertificate(
        check_name="structure_dims",
        passed=iso.invertible and lie.split_residual == 0.0,
        samples=int(lie.basis.shape[0]),
        seed=seed,
        tol=cfg.tol,
        worst_residual=lie.split_residual,
        details={**lie.dims, "evaluation_condition": iso.condition_number},
    )
    entries.append(_cert_entry(dims_cert, "kv", expect))
    entries.append(
        _cert_entry(check_unit_stabilizer_split(lie, tol=cfg.tol, seed=seed), "kv", expect)
    )
    entries.append(
        _cert_entry(
            check_p_bracket(lie, samples=min(cfg.samples, 50), seed=seed, tol=cfg.tol),
            "kv",
            expect,
        )
    )
    report = reconstruct_product(A, lie, samples=cfg.samples, seed=seed)
    recon_cert = ConeCertificate(
        check_name="product_reconstruction",
        passed=report.passed(1e-6),
        samples=cfg.samples,
        seed=seed,
        tol=1e-6,
        worst_residual=report.max_deviation,
        details={**report.residuals, "condition_number": report.condition_number},
    )
    entries.append(_cert_entry(recon_cert, "kv", expect))
    entries.append(
        _cert_entry(
            check_exp_preserves_cone(
                A, lie, samples=min(cfg.samples, 40), seed=seed, tol=cfg.tol
            ),
            "kv",
            expect,
        )
    )
    return entries


def _model_suite(
    model: ProbModel, cfg: RunConfig, seed: int, expect: dict[str, str]
) -> list[dict]:
    entries = []
    w = uniform_state(model)
    rank = model.algebra.rank
    worst = 0.0
    for test in model.tests:
        probs = evaluate(w, test)
        worst = max(worst, float(abs(probs.sum() - 1.0)))
        for x, p in zip(test, probs):
            worst = max(worst, abs(p - trace_of(x) / rank))
    pooled_primitive = [
        x for x in model.outcomes if abs(trace_of(x) - 1.0) <= 1e-6 * rank
    ]
    for x in pooled_primitive:
        worst = max(worst, abs(trace_form(w.representer, x) - 1.0 / rank))
    uniform_cert = ConeCertificate(
        check_name="uniform_state_values",
        passed=worst <= max(cfg.tol, 1e-10),
        samples=len(model.tests),
        seed=seed,
        tol=max(cfg.tol, 1e-10),
        worst_residual=worst,
        details={"pooled_primitive_outcomes": len(pooled_primitive)},
    )
    entries.append(_cert_entry(uniform_cert, "model", expect))
    entries.append(
        _cert_entry(certify_unital_sharp(model, tol=cfg.tol, seed=seed), "model", expect)
    )
    try:
        entries.append(
            _cert_entry(
                check_unital_outcomes_primitive(model, tol=cfg.tol, seed=seed),
                "model",
                expect,
            )
        )
    except ValueError as exc:
        entries.append(
            _skip_entry("uniform_unital_outcomes_primitive", "model", str(exc))
        )
    entries.append(
        _cert_entry(
            check_cauchy_schwarz(
                model.algebra, samples=max(cfg.samples, 100), seed=seed, tol=1e-10
            ),
            "model",
            expect,
        )
    )
    entries.append(
        _cert_entry(
            check_reversible_stabilizer(
                model.algebra, samples=min(cfg.samples, 20), seed=seed, tol=cfg.tol
            ),
            "model",
            expect,
        )
    )
    return entries


def _witness_suite(model: ProbModel, cfg: RunConfig, expect: dict[str, str]) -> list[dict]:
    A = model.algebra
    is_qubit = qubit_witness(A, tol=cfg.tol)
    details = {"is_qubit": is_qubit, "algebra": format_descriptor(A)}
    residual = 0.0
    if A.family.value == "spin" and A.size == 3:
        _, residual = spin_qubit_isomorphism()
        details["isomorphism_residual"] = residual
    cert = ConeCertificate(
        check_name="qubit_witness",
        passed=True,
        samples=0,
        seed=cfg.seed,
        tol=cfg.tol,
        worst_residual=residual,
        details=details,
    )
    return [_cert_entry(cert, "composite", expect)]


def _composite_suite(
    cs: CompositeSystem, cfg: RunConfig, seed: int, expect: dict[str, str]
) -> list[dict]:
    entries = [
        _cert_entry(local_tomography_audit(cs, seed=seed), "composite", expect),
        _cert_entry(product_tests_check(cs, tol=cfg.tol, seed=seed), "composite", expect),
        _cert_entry(
            nonsignaling_check(cs, tol=max(cfg.tol, 1e-10), seed=seed),
            "composite",
            expect,
        ),
        _cert_entry(
            factorization_check(cs, samples=cfg.samples, seed=seed, tol=1e-10),
            "composite",
            expect,
        ),
        _cert_entry(
            check_unit_factor_products(cs, samples=cfg.samples, seed=seed, tol=cfg.tol),
            "composite",
            expect,
        ),
        _cert_entry(
            tensor_lmap_check(cs, samples=min(cfg.samples, 50), seed=seed, tol=cfg.tol),
            "composite",
            expect,
        ),
    ]
    if cs.locally_tomographic:
        entries.append(
            _cert_entry(
                tensor_adjoint_check(
                    cs, samples=min(cfg.samples, 10), seed=seed, tol=cfg.tol
                ),
                "composite",
                expect,
            )
        )
    else:
        entries.append(
            _skip_entry(
                "tensor_adjoint",
                "composite",
                "composite is not locally tomographic; lifted maps are not defined",
            )
        )
    return entries


def _build_model(spec: SystemSpec, cfg: RunConfig) -> ProbModel:
    if spec.test_mode == "sampled":
        return make_model(spec.algebra, count=spec.test_count, seed=spec.test_seed)
    tests = [
        tuple(Element(spec.algebra, np.asarray(row)) for row in test)
        for test in spec.explicit_tests
    ]
    return model_from_tests(spec.algebra, tests)


def _system_seed(cfg: RunConfig, index: int) -> int:
    return cfg.seed + 1000 * index


def run_model_spec(spec: ModelFileSpec, cfg: RunConfig, source: str = "<memory>") -> dict:
    """Execute the configured suites and assemble the report dictionary.

    Raises ValueError, before running anything, when an ``expect`` map
    names a certificate no suite reports.
    """
    for sys_spec in spec.systems:
        unknown = sorted(set(sys_spec.expect) - set(CERTIFICATE_NAMES))
        if unknown:
            raise ValueError(
                f"system {sys_spec.name!r} expects unknown certificates "
                f"{', '.join(unknown)}; known: {', '.join(CERTIFICATE_NAMES)}"
            )
    built: dict[str, ProbModel] = {}
    systems_out = []
    for index, sys_spec in enumerate(spec.systems):
        seed = _system_seed(cfg, index)
        entry: dict = {"name": sys_spec.name}
        certs: list[dict] = []
        if sys_spec.is_composite:
            part_a, part_b = sys_spec.composite_parts
            cs = candidate_composite(built[part_a], built[part_b])
            entry["kind"] = "composite"
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
            if "composite" in cfg.suites:
                certs.extend(_composite_suite(cs, cfg, seed, sys_spec.expect))
        else:
            model = _build_model(sys_spec, cfg)
            built[sys_spec.name] = model
            entry["kind"] = "model"
            entry["algebra"] = descriptor_to_record(model.algebra)
            entry["dims"] = {
                "dim": model.algebra.dim,
                "rank": model.algebra.rank,
                "tests": len(model.tests),
                "outcomes": len(model.outcomes),
            }
            if "algebra" in cfg.suites:
                certs.extend(_algebra_suite(model, cfg, seed, sys_spec.expect))
            if "cone" in cfg.suites:
                certs.extend(_cone_suite(model, cfg, seed, sys_spec.expect))
            if "kv" in cfg.suites:
                certs.extend(_kv_suite(model, cfg, seed, sys_spec.expect))
            if "model" in cfg.suites:
                certs.extend(_model_suite(model, cfg, seed, sys_spec.expect))
            if "composite" in cfg.suites:
                certs.extend(_witness_suite(model, cfg, sys_spec.expect))
        entry["certificates"] = certs
        systems_out.append(entry)

    named = [(s["name"], c) for s in systems_out for c in s["certificates"]]
    all_certs = [c for _, c in named]
    run = [(n, c) for n, c in named if c.get("status") != "skipped"]
    run_certs = [c for _, c in run]
    failures = [c for c in run_certs if c["status"] == "fail"]
    unexpected_fail = [
        f"{n}:{c['check']}" for n, c in run if not c["ok"] and c["status"] == "fail"
    ]
    unexpected_pass = [
        f"{n}:{c['check']}" for n, c in run if not c["ok"] and c["status"] == "pass"
    ]
    report = {
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
            "certificates": len(run_certs),
            "passed": len(run_certs) - len(failures),
            "failed": len(failures),
            "skipped": len(all_certs) - len(run_certs),
            "unexpected_failures": unexpected_fail,
            "unexpected_passes": unexpected_pass,
            "ok": all(c["ok"] for c in all_certs),
        },
    }
    return report


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
