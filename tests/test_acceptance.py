"""Acceptance suite: one test per required behavior, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they print; under plain pytest the test names carry the same information.
Tolerances and sample counts here are contractual; loosening any of them is
a behavior change, not a test fix.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from oracle import spin_qubit_isomorphism
from symcone import (
    Element,
    jordan_product,
    make_algebra,
    make_model,
    to_matrix,
    trace_form,
    uniform_state,
)
from symcone.algebra import jordan_identity_residuals
from symcone.composites import (
    candidate_composite,
    check_unit_factor_products,
    factorization_check,
    local_tomography_audit,
    maximally_entangled_state,
    nonsignaling_check,
    product_state,
)
from symcone.cone import check_homogeneity, check_membership_agreement
from symcone.models import (
    certify_unital_sharp,
    check_cauchy_schwarz,
    check_unital_outcomes_primitive,
    evaluate,
    pure_state_of,
    random_state,
)
from symcone.reconstruction import (
    check_p_bracket,
    check_unit_stabilizer_split,
    p_to_E_isomorphism,
    reconstruct_product,
    structure_lie_basis,
)

# The full family sweep: every built-in algebra at desk scale.
SWEEP = (
    [make_algebra("real", n) for n in range(1, 6)]
    + [make_algebra("complex", n) for n in range(1, 5)]
    + [make_algebra("quaternion", n) for n in range(1, 4)]
    + [make_algebra("spin", d) for d in range(1, 9)]
    + [make_algebra("albert")]
)

RECONSTRUCTION_TARGETS = [
    make_algebra("real", 2),
    make_algebra("real", 3),
    make_algebra("complex", 2),
    make_algebra("complex", 3),
    make_algebra("quaternion", 2),
    make_algebra("spin", 3),
]

MODEL_FAMILIES = [
    make_algebra("real", 2),
    make_algebra("real", 3),
    make_algebra("complex", 2),
    make_algebra("complex", 3),
    make_algebra("quaternion", 2),
    make_algebra("spin", 3),
    make_algebra("spin", 5),
    make_algebra("albert"),
]


def _verdict(number: int, label: str, passed: bool, detail: str) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {label}: {state} ({detail})")


def test_criterion_01_jordan_identity_residuals():
    start = time.perf_counter()
    worst = 0.0
    for desc in SWEEP:
        res = jordan_identity_residuals(desc, 1000, seed=202)
        worst = max(worst, float(res.max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed <= 30.0
    _verdict(1, "jordan-identity", ok, f"worst {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed <= 30.0


def test_criterion_02_membership_agreement():
    disagreements = 0
    worst_desc = None
    for desc in SWEEP:
        cert = check_membership_agreement(desc, samples=1000, seed=203, tol=1e-9)
        got = cert.details["disagreements"]
        if got and worst_desc is None:
            worst_desc = desc
        disagreements += got
    ok = disagreements == 0
    _verdict(2, "membership-agreement", ok, f"{disagreements} disagreements")
    assert disagreements == 0, worst_desc


def test_criterion_03_homogeneity_transport():
    worst = 0.0
    for desc in SWEEP:
        cert = check_homogeneity(desc, samples=100, seed=204, directions=100)
        assert cert.tol == 1e-8
        assert cert.passed, (desc, cert.details)
        worst = max(worst, cert.worst_residual)
    _verdict(3, "homogeneity", worst <= 1e-8, f"worst transport {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_04_product_reconstruction():
    start = time.perf_counter()
    worst = 0.0
    for desc in RECONSTRUCTION_TARGETS:
        lie = structure_lie_basis(desc)
        assert check_unit_stabilizer_split(lie).passed, desc
        assert check_p_bracket(lie, seed=205).passed, desc
        assert p_to_E_isomorphism(lie).invertible, desc
        report = reconstruct_product(desc, lie=lie, samples=200, seed=205)
        worst = max(worst, report.max_deviation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    _verdict(4, "product-reconstruction", ok, f"worst {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed <= 60.0


def _pair(fam, na, nb, seed):
    a = make_model(make_algebra(fam, na), count=4, seed=seed)
    b = make_model(make_algebra(fam, nb), count=4, seed=seed + 1)
    return candidate_composite(a, b)


def test_criterion_05_tomography_dimension_table():
    table = []
    for fam, want_carrier, want_product, want_pass in (
        ("complex", 16, 16, True),
        ("real", 10, 9, False),
        ("quaternion", 28, 36, False),
    ):
        cert = local_tomography_audit(_pair(fam, 2, 2, 206))
        got = (cert.details["dim_carrier"], cert.details["dim_product"], cert.passed)
        table.append(got)
        assert got == (want_carrier, want_product, want_pass), fam
    detail = "; ".join(f"{c} vs {p}" for c, p, _ in table)
    _verdict(5, "tomography-table", True, detail)


def test_criterion_06_unit_factor_product_identities():
    worst = 0.0
    for fam, na, nb in (("complex", 2, 2), ("complex", 2, 3), ("real", 2, 2)):
        cert = check_unit_factor_products(_pair(fam, na, nb, 207), tol=1e-9)
        assert cert.passed, (fam, na, nb, cert.worst_residual)
        worst = max(worst, cert.worst_residual)
    _verdict(6, "unit-factor-products", worst <= 1e-9, f"worst {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_07_trace_form_factorization():
    worst = 0.0
    for fam, na, nb in (("complex", 2, 2), ("complex", 2, 3), ("real", 2, 2)):
        cert = factorization_check(_pair(fam, na, nb, 208))
        assert cert.tol == 1e-10
        assert cert.passed, (fam, na, nb, cert.worst_residual)
        worst = max(worst, cert.worst_residual)
    _verdict(7, "trace-factorization", worst <= 1e-10, f"worst {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_08_nonsignaling():
    cs = _pair("complex", 2, 2, 209)
    rng = np.random.default_rng(209)
    states = [
        product_state(cs, uniform_state(cs.part_a), uniform_state(cs.part_b)),
        product_state(
            cs,
            pure_state_of(cs.part_a, cs.part_a.tests[1][0]),
            random_state(cs.part_b, rng),
        ),
        product_state(cs, random_state(cs.part_a, rng), random_state(cs.part_b, rng)),
        maximally_entangled_state(cs),
    ]
    cert = nonsignaling_check(cs, states=states, tol=1e-10, seed=209)
    pairs = cert.details["far_test_pairs"]
    ok = cert.passed and pairs >= 10
    _verdict(
        8, "nonsignaling", ok, f"worst {cert.worst_residual:.3e}, {pairs} test pairs"
    )
    assert pairs >= 10
    assert cert.passed, cert.worst_residual


def test_criterion_09_model_properties():
    worst_uniform = 0.0
    worst_pairing = 0.0
    for desc in MODEL_FAMILIES:
        model = make_model(desc, count=6, seed=210)
        state = uniform_state(model)
        for test in model.tests:
            gap = float(np.abs(evaluate(state, test) - 1.0 / desc.rank).max())
            worst_uniform = max(worst_uniform, gap)
        sharp = certify_unital_sharp(model)
        assert sharp.passed, (desc, sharp.details)
        primitive = check_unital_outcomes_primitive(model)
        assert primitive.passed, (desc, primitive.details)
        assert primitive.details["non_unital_outcomes"] == 0
        cs = check_cauchy_schwarz(desc, samples=1000, seed=210)
        assert cs.tol == 1e-10
        assert cs.passed, (desc, cs.details)
        worst_pairing = max(worst_pairing, cs.details["max_pairing"])
    ok = worst_uniform <= 1e-10 and worst_pairing <= 1.0 + 1e-10
    _verdict(
        9,
        "jordan-model-properties",
        ok,
        f"uniform gap {worst_uniform:.3e}, max pairing {worst_pairing:.12f}",
    )
    assert worst_uniform <= 1e-10
    assert worst_pairing <= 1.0 + 1e-10


def test_criterion_10_spin_qubit_isomorphism():
    mat, residual = spin_qubit_isomorphism()
    spin = make_algebra("spin", 3)
    qubit = make_algebra("complex", 2)
    table_worst = 0.0
    for i in range(4):
        for j in range(4):
            a = Element(spin, np.eye(4)[i])
            b = Element(spin, np.eye(4)[j])
            lhs = mat @ jordan_product(a, b).coords
            qa = to_matrix(Element(qubit, mat @ a.coords))
            qb = to_matrix(Element(qubit, mat @ b.coords))
            rhs = Element(qubit, lhs)
            gap = np.abs(to_matrix(rhs) - 0.5 * (qa @ qb + qb @ qa)).max()
            table_worst = max(table_worst, float(gap))
    ok = residual <= 1e-9 and table_worst <= 1e-9
    _verdict(
        10, "spin-qubit-isomorphism", ok, f"residual {residual:.3e}, table {table_worst:.3e}"
    )
    assert residual <= 1e-9
    assert table_worst <= 1e-9


def test_criterion_11_cli_determinism_and_rebit_exit():
    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "symcone.cli", *argv],
            capture_output=True,
            text=True,
            timeout=300,
        )

    first = run("--input", "qubit-pair", "--format", "structured", "--seed", "0")
    second = run("--input", "qubit-pair", "--format", "structured", "--seed", "0")
    identical = first.stdout == second.stdout and first.returncode == 0

    rebit = run("--input", "rebit-pair", "--format", "structured")
    report = json.loads(rebit.stdout)
    sole_failure = report["summary"]["unexpected_failures"] == ["pair:local_tomography"]
    ok = identical and rebit.returncode != 0 and sole_failure
    _verdict(
        11,
        "cli-determinism",
        ok,
        f"identical={identical}, rebit exit {rebit.returncode}, "
        f"unexpected={report['summary']['unexpected_failures']}",
    )
    assert identical
    assert rebit.returncode == 1
    assert sole_failure
