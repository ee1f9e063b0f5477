"""The public names: every exported name resolves, and removed ones stay gone."""

import dataclasses
import importlib
import pkgutil

import pytest

import symcone
from symcone.modelfile import ModelFileSpec

MODULES = ["symcone"] + [
    info.name for info in pkgutil.walk_packages(symcone.__path__, "symcone.")
]

# the model-file writer and the descriptor text parser, which no caller
# needed, and the algebra-record reader, now the model-file reader's own
REMOVED = {
    "symcone.algebra": ["parse_descriptor", "record_to_descriptor"],
    "symcone.modelfile": ["spec_to_record", "serialize_model_spec"],
    "symcone": ["parse_descriptor", "spec_to_record", "serialize_model_spec"],
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
