"""The public names: every exported name resolves, and removed ones stay gone."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import symcone
from symcone.modelfile import ModelFileSpec

MODULES = ["symcone"] + [
    info.name for info in pkgutil.walk_packages(symcone.__path__, "symcone.")
]

# the model-file writer and the descriptor text parser, which no caller
# needed, the algebra-record reader, now the model-file reader's own, the
# hand-built spin 3 to complex 2 map, now a test oracle: the qubit witness
# computes the rank from the products, and the canonical regular element,
# whose frame canonical_frame now writes down
REMOVED = {
    "symcone.algebra": [
        "parse_descriptor",
        "record_to_descriptor",
        "_trace_associativity_core",
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
