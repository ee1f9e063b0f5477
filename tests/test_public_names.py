"""The public names: every exported name resolves, and removed ones stay gone."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import symcone
from symcone.certificates import ConeCertificate
from symcone.modelfile import ModelFileSpec

MODULES = ["symcone"] + [
    info.name for info in pkgutil.walk_packages(symcone.__path__, "symcone.")
]

# the model-file writer and the descriptor text parser, which no caller
# needed, the algebra-record reader, now the model-file reader's own, the
# hand-built spin 3 to complex 2 map, now a test oracle: the qubit witness
# computes the rank from the products, the canonical regular element,
# whose frame canonical_frame now writes down, and the sampled cores of laws
# now decided on the basis, kept as test oracles
REMOVED = {
    "symcone.algebra": [
        "parse_descriptor",
        "record_to_descriptor",
        "_trace_associativity_core",
        "_formal_reality_core",
    ],
    "symcone.modelfile": ["spec_to_record", "serialize_model_spec"],
    "symcone.composites": ["spin_qubit_isomorphism"],
    "symcone.spectral": ["canonical_regular_element"],
    "symcone": [
        "parse_descriptor",
        "spec_to_record",
        "serialize_model_spec",
        "spin_qubit_isomorphism",
    ],
}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    for gone in REMOVED.get(name, []):
        assert gone not in exported
        assert not hasattr(module, gone)


def test_model_file_spec_keeps_no_schema_version():
    # the reader checks $.schema_version; nothing reads it back
    assert [f.name for f in dataclasses.fields(ModelFileSpec)] == ["systems", "name"]


# Fixed policies are module constants, not parameters: each of these
# functions takes only what some caller varies.
FIXED_POLICY_SIGNATURES = {
    ("reconstruction", "lie_closure"): ["generators"],
    ("reconstruction", "ReconstructionReport.passed"): ["self"],
    ("composites", "qubit_witness"): ["theory"],
    ("algebra", "unit_law_residuals"): ["algebra"],
    ("algebra", "trace_associativity_residuals"): ["algebra"],
    ("models", "model_from_tests"): ["algebra", "tests"],
    ("models", "state_from_coords"): ["model", "coords"],
    ("models", "pure_state_of"): ["model", "e"],
    # every public check that returns a certificate; a check that draws
    # nothing takes no seed
    ("algebra", "certify_formal_reality"): ["algebra", "tol"],
    ("cone", "check_self_duality"): ["algebra", "samples", "seed", "tol", "transform"],
    ("cone", "check_membership_agreement"): ["algebra", "samples", "seed", "tol"],
    ("cone", "check_homogeneity"): ["algebra", "samples", "seed", "directions"],
    ("cone", "check_order_unit"): ["algebra", "samples", "seed", "tol"],
    ("reconstruction", "check_unit_stabilizer_split"): ["lie", "tol"],
    ("reconstruction", "check_p_bracket"): ["lie", "samples", "seed", "tol"],
    ("reconstruction", "check_exp_preserves_cone"): ["algebra", "lie", "samples", "seed", "tol"],
    ("models", "certify_unital_sharp"): ["model", "tol"],
    ("models", "check_unital_outcomes_primitive"): ["model", "tol"],
    ("models", "check_cauchy_schwarz"): ["algebra", "samples", "seed"],
    ("models", "check_reversible_stabilizer"): ["algebra", "samples", "seed", "tol"],
    ("composites", "local_tomography_audit"): ["cs"],
    ("composites", "product_tests_check"): ["cs", "tol"],
    ("composites", "nonsignaling_check"): ["cs", "states", "tol", "seed"],
    ("composites", "factorization_check"): ["cs"],
    ("composites", "tensor_adjoint_check"): ["cs", "samples", "seed", "tol"],
    ("composites", "tensor_lmap_check"): ["cs", "tol"],
    ("composites", "check_unit_factor_products"): ["cs", "tol"],
}


@pytest.mark.parametrize("module,name", FIXED_POLICY_SIGNATURES)
def test_fixed_policies_are_not_parameters(module, name):
    target = importlib.import_module(f"symcone.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    params = list(inspect.signature(target).parameters)
    assert params == FIXED_POLICY_SIGNATURES[module, name]


def test_every_certificate_signature_is_pinned():
    # a new check declares its parameters in the table above
    checks = [
        (module.removeprefix("symcone."), name)
        for module in MODULES
        for name, fn in inspect.getmembers(importlib.import_module(module), inspect.isfunction)
        if fn.__module__ == module
        and not name.startswith("_")
        and inspect.signature(fn).return_annotation in ("ConeCertificate", ConeCertificate)
    ]
    assert len(checks) == 19
    assert [check for check in checks if check not in FIXED_POLICY_SIGNATURES] == []


def test_checks_that_draw_nothing_report_no_seed():
    from symcone.algebra import certify_formal_reality
    from symcone.composites import (
        candidate_composite,
        check_unit_factor_products,
        factorization_check,
        local_tomography_audit,
        product_tests_check,
        tensor_lmap_check,
    )
    from symcone.cone import check_order_unit
    from symcone.models import (
        certify_unital_sharp,
        check_unital_outcomes_primitive,
        make_model,
    )
    from symcone.reconstruction import check_unit_stabilizer_split, structure_lie_basis

    qubit = symcone.make_algebra("complex", 2)
    model = make_model(qubit, count=2, seed=1)
    cs = candidate_composite(model, model)
    certs = [
        certify_formal_reality(qubit),
        check_unit_stabilizer_split(structure_lie_basis(qubit)),
        certify_unital_sharp(model),
        check_unital_outcomes_primitive(model),
        local_tomography_audit(cs),
        product_tests_check(cs),
        factorization_check(cs),
        tensor_lmap_check(cs),
        check_unit_factor_products(cs),
    ]
    for cert in certs:
        assert cert.passed and cert.seed is None, cert.check_name
        assert '"seed": null' in json.dumps(cert.to_dict())
    # a check that draws reports the seed it drew from
    assert check_order_unit(qubit, samples=10, seed=5).seed == 5


def test_readme_library_quick_start_runs(capsys):
    # the library-only names stay public because this snippet documents them
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    assert namespace["report"].max_deviation < 1e-12
    got = symcone.evaluate(namespace["state"], namespace["model"].tests[0])
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-12)
