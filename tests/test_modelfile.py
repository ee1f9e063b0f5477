"""Model input files: parsing and validation errors."""

import json

import pytest

from symcone.algebra import descriptor_to_record
from symcone.demos import DEMO_NAMES, demo_text, is_demo
from symcone.modelfile import ModelFileError, parse_model_file, parse_model_text

from test_algebra import ALL_FAMILIES

MINIMAL = """
{
  "schema_version": 1,
  "systems": [
    {"name": "one", "algebra": {"family": "complex", "size": 2},
     "tests": {"mode": "sampled", "count": 2, "seed": 7}}
  ]
}
"""


def test_minimal_file_parses():
    spec = parse_model_text(MINIMAL)
    assert len(spec.systems) == 1
    system = spec.systems[0]
    assert system.name == "one"
    assert system.algebra.dim == 4
    assert system.test_mode == "sampled"
    assert (system.test_count, system.test_seed) == (2, 7)
    assert not system.is_composite


def test_all_demos_parse():
    for name in DEMO_NAMES:
        assert is_demo(name)
        spec = parse_model_text(demo_text(name))
        assert spec.name == name
        assert spec.systems
    assert not is_demo("missing-demo")
    pair = parse_model_text(demo_text("qubit-pair")).systems[2]
    assert pair.is_composite and pair.algebra is None
    assert pair.composite_parts == ("qubit-a", "qubit-b")


def test_json_syntax_error_carries_position():
    with pytest.raises(ModelFileError) as err:
        parse_model_text('{\n  "schema_version": 1,\n  "systems": [}\n}')
    assert err.value.line == 3
    assert err.value.col is not None
    assert "line 3" in str(err.value)


def test_schema_version_is_checked():
    with pytest.raises(ModelFileError, match="schema_version"):
        parse_model_text('{"schema_version": 99, "systems": []}')
    with pytest.raises(ModelFileError, match="schema_version"):
        parse_model_text('{"systems": []}')


def test_unknown_fields_rejected():
    with pytest.raises(ModelFileError, match="unknown field"):
        parse_model_text('{"schema_version": 1, "systems": [], "extra": 1}')
    bad_system = MINIMAL.replace('"seed": 7}', '"seed": 7}, "bogus": true')
    with pytest.raises(ModelFileError, match="bogus"):
        parse_model_text(bad_system)


def test_unknown_family_names_the_tag():
    text = MINIMAL.replace('"complex"', '"sedenion"')
    with pytest.raises(ModelFileError, match="sedenion"):
        parse_model_text(text)


def _with_algebra(record) -> str:
    spec = json.loads(MINIMAL)
    spec["systems"][0]["algebra"] = record
    return json.dumps(spec)


def test_descriptor_record_round_trip():
    for desc in ALL_FAMILIES:
        text = _with_algebra(descriptor_to_record(desc))
        assert parse_model_text(text).systems[0].algebra == desc


def test_unknown_family_tag_is_named_in_error():
    text = _with_algebra({"family": "octonionish", "size": 3})
    with pytest.raises(ModelFileError, match="octonionish"):
        parse_model_text(text)


@pytest.mark.parametrize("size", [2.5, True, "2", 2.0, None], ids=repr)
def test_algebra_size_must_be_an_integer(size):
    spec = json.loads(MINIMAL)
    spec["systems"][0]["algebra"]["size"] = size
    with pytest.raises(ModelFileError, match=r"^systems\[0\]\.algebra: family 'complex'"):
        parse_model_text(json.dumps(spec))


@pytest.mark.parametrize(
    "algebra,path",
    [
        ({"family": "complex", "size": 2, "bogus": 1}, "systems[0].algebra.bogus"),
        ({"family": "spin", "size": 2, "summands": []}, "systems[0].algebra.summands"),
        (
            {"family": "sum", "summands": [{"family": "real", "size": 1}], "size": 2},
            "systems[0].algebra.size",
        ),
        (
            {"family": "sum", "summands": [{"family": "real", "size": 1, "rank": 1}]},
            "systems[0].algebra.summands[0].rank",
        ),
    ],
    ids=["plain", "summands-on-spin", "size-on-sum", "in-summand"],
)
def test_unknown_algebra_field_is_named(algebra, path):
    spec = json.loads(MINIMAL)
    spec["systems"][0]["algebra"] = algebra
    del spec["systems"][0]["tests"]
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(json.dumps(spec))
    assert str(exc.value) == f"{path}: unknown field"


def test_empty_systems_rejected():
    with pytest.raises(ModelFileError, match="systems"):
        parse_model_text('{"schema_version": 1, "systems": []}')


def test_duplicate_names_rejected():
    spec = json.loads(MINIMAL)
    spec["systems"].append(dict(spec["systems"][0]))
    with pytest.raises(ModelFileError, match="duplicate"):
        parse_model_text(json.dumps(spec))


def test_composite_parts_must_be_earlier_systems():
    spec = json.loads(MINIMAL)
    spec["systems"].append(
        {"name": "pair", "composite": {"parts": ["one", "ghost"], "carrier": "candidate"}}
    )
    with pytest.raises(ModelFileError, match="ghost"):
        parse_model_text(json.dumps(spec))


def test_composite_takes_no_algebra():
    for key, value in [
        ("algebra", {"family": "complex", "size": 2}),
        ("tests", {"mode": "sampled"}),
        ("states", [[0.5, 0.0, 0.0, 0.5]]),
    ]:
        spec = json.loads(MINIMAL)
        spec["systems"].append(
            {
                "name": "pair",
                key: value,
                "composite": {"parts": ["one", "one"], "carrier": "candidate"},
            }
        )
        with pytest.raises(ModelFileError, match="no algebra, tests or states"):
            parse_model_text(json.dumps(spec))


def test_explicit_tests_and_states_are_validated():
    desc = {"family": "real", "size": 2}
    good = {
        "schema_version": 1,
        "systems": [
            {
                "name": "bit",
                "algebra": desc,
                "tests": {
                    "mode": "explicit",
                    "outcomes": [[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]],
                },
                "states": [[0.5, 0.0, 0.5]],
            }
        ],
    }
    spec = parse_model_text(json.dumps(good))
    assert spec.systems[0].test_mode == "explicit"
    assert spec.systems[0].explicit_tests == [[[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]]
    assert spec.systems[0].states == [[0.5, 0.0, 0.5]]

    bad = json.loads(json.dumps(good))
    bad["systems"][0]["states"] = [[0.5, 0.0]]
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(json.dumps(bad))
    assert str(exc.value) == (
        "systems[0].states: coordinate length 2 does not match dimension 3"
    )
    short = json.loads(json.dumps(good))
    short["systems"][0]["tests"]["outcomes"] = [[[1.0, 0.0], [0.0, 1.0]]]
    with pytest.raises(ModelFileError) as exc:
        parse_model_text(json.dumps(short))
    assert str(exc.value) == (
        "systems[0].tests.outcomes[0]: coordinate length 2 does not match dimension 3"
    )

    worse = json.loads(json.dumps(good))
    worse["systems"][0]["tests"]["outcomes"][0][0] = [1.0, "x", 0.0]
    with pytest.raises(ModelFileError, match="numbers"):
        parse_model_text(json.dumps(worse))


def test_expect_marks_are_validated():
    spec = json.loads(MINIMAL)
    spec["systems"][0]["expect"] = {"self_duality": "maybe"}
    with pytest.raises(ModelFileError, match="pass.*fail|fail.*pass"):
        parse_model_text(json.dumps(spec))
    spec["systems"][0]["expect"] = {"self_duality": "fail"}
    parsed = parse_model_text(json.dumps(spec))
    assert parsed.systems[0].expect == {"self_duality": "fail"}


def test_unknown_test_mode_rejected():
    text = MINIMAL.replace('"sampled"', '"psychic"')
    with pytest.raises(ModelFileError, match="psychic"):
        parse_model_text(text)


def test_parse_model_file_reads_disk(tmp_path):
    target = tmp_path / "model.json"
    target.write_text(MINIMAL, encoding="utf-8")
    spec = parse_model_file(target)
    assert spec.systems[0].name == "one"
    target.write_bytes(b'\xff\xfe{"a":1}')
    with pytest.raises(ModelFileError) as exc:
        parse_model_file(target)
    assert str(exc.value) == "not UTF-8 text: invalid start byte at byte 0"
