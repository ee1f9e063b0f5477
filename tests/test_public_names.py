"""The public names: every exported name resolves, and removed ones stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import symcone
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
    ("reconstruction", "check_exp_preserves_cone"): ["algebra", "lie", "samples", "seed", "tol"],
    ("cone", "check_membership_agreement"): ["algebra", "samples", "seed", "tol"],
    ("cone", "check_homogeneity"): ["algebra", "samples", "seed", "directions"],
    ("models", "check_cauchy_schwarz"): ["algebra", "samples", "seed"],
    ("composites", "factorization_check"): ["cs", "seed"],
    ("composites", "qubit_witness"): ["theory"],
    ("composites", "tensor_lmap_check"): ["cs", "seed", "tol"],
    ("composites", "check_unit_factor_products"): ["cs", "seed", "tol"],
    ("algebra", "certify_formal_reality"): ["algebra", "seed", "tol"],
    ("algebra", "unit_law_residuals"): ["algebra"],
    ("algebra", "trace_associativity_residuals"): ["algebra"],
    ("models", "model_from_tests"): ["algebra", "tests"],
    ("models", "state_from_coords"): ["model", "coords"],
    ("models", "pure_state_of"): ["model", "e"],
}


@pytest.mark.parametrize("module,name", FIXED_POLICY_SIGNATURES)
def test_fixed_policies_are_not_parameters(module, name):
    target = importlib.import_module(f"symcone.{module}")
    for part in name.split("."):
        target = getattr(target, part)
    params = list(inspect.signature(target).parameters)
    assert params == FIXED_POLICY_SIGNATURES[module, name]


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
