import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homalg

from homalg import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    LinearMap,
    ParseError,
    check_bialgebra_weak,
    check_hom_associative,
    parse_structure,
    parse_structure_file,
    registry,
    serialize_structure,
    solve_antipode,
)

from homalg.structio import parts

from conftest import bialgebra_row, mu1_algebra


REGISTRY_BINDINGS = {
    "algebra-mu1": {"a1": "2", "a2": "1/3"},
    "algebra-mu2": {"a1": "-1", "a2": "4"},
    "bialgebra-1": {"b1": "1", "b2": "2", "b3": "0"},
    "bialgebra-2": {"b1": "1", "b2": "0", "b3": "1"},
    "bialgebra-3": {"b1": "3/2", "b2": "0", "b3": "-5"},
    "hopf-2": {"b1": "1", "b2": "0", "b3": "1"},
}


def test_round_trip_full_registry():
    reg = registry()
    assert set(REGISTRY_BINDINGS) == set(reg)
    for name, bindings in REGISTRY_BINDINGS.items():
        structure = reg[name].build(bindings)
        text = serialize_structure(structure, params=
                                   {k: Fraction(v) for k, v in bindings.items()})
        parsed, params = parse_structure_file(text)
        assert parsed == structure
        assert params == {k: Fraction(v) for k, v in bindings.items()}
        # parse o serialize o parse = parse
        assert parse_structure(serialize_structure(parsed)) == parsed


def test_serialize_parse_identity_on_canonical_text():
    structure = bialgebra_row(2)
    text = serialize_structure(structure, params={"b1": Fraction(1)})
    assert serialize_structure(*parse_structure_file(text)) == text


def test_fraction_string_parses():
    algebra = mu1_algebra(1, 1)
    text = serialize_structure(algebra)
    data = json.loads(text)
    data["mul"][0][0][0] = "1/3"
    parsed = parse_structure(json.dumps(data))
    assert parsed.mul.entry(0, 0, 0) == Fraction(1, 3)


def test_integer_literals_accepted():
    algebra = mu1_algebra(1, 1)
    data = json.loads(serialize_structure(algebra))
    data["alpha"] = [[1, 0], [0, 1]]
    parsed = parse_structure(json.dumps(data))
    assert parsed.alpha == LinearMap.identity(2)


def test_float_rejected_with_field_name():
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    data["alpha"][0][0] = 0.5
    with pytest.raises(ParseError, match=r"alpha\[0\]\[0\]"):
        parse_structure(json.dumps(data))


def test_dimension_mismatch_is_schema_error():
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    data["alpha"] = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    with pytest.raises(ParseError, match="alpha"):
        parse_structure(json.dumps(data))


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "top level must be a JSON object"),
    ('{"kind": "algebra", "dim": 1, "convention": "columns-are-images", '
     '"mul": [[["1"]]], "alpha": [["1"]], "unit": ["1"], "params": 3}', "params: expected an object"),
], ids=["top-level", "params"])
def test_non_object_is_parse_error(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_structure(text)


def test_bialgebra_without_unit_is_parse_error():
    data = json.loads(serialize_structure(bialgebra_row(2)))
    data["unit"] = None
    with pytest.raises(ParseError, match="^bialgebra needs a unit$"):
        parse_structure(json.dumps(data))


def test_bad_json_names_line():
    with pytest.raises(ParseError, match="line"):
        parse_structure("{\n  broken\n}")


def test_unknown_and_missing_fields():
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    data["comul"] = data["mul"]
    with pytest.raises(ParseError, match="unexpected field"):
        parse_structure(json.dumps(data))
    data2 = json.loads(serialize_structure(mu1_algebra(1, 1)))
    del data2["alpha"]
    with pytest.raises(ParseError, match="missing field"):
        parse_structure(json.dumps(data2))


def test_convention_field_required_and_pinned():
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    data["convention"] = "rows-are-images"
    with pytest.raises(ParseError, match="convention"):
        parse_structure(json.dumps(data))
    del data["convention"]
    with pytest.raises(ParseError, match="convention"):
        parse_structure(json.dumps(data))


def test_hopf_antipode_validated_on_parse():
    hopf = registry()["hopf-2"].build({"b1": 1, "b2": 0, "b3": 1})
    data = json.loads(serialize_structure(hopf))
    data["antipode"] = [["0", "0"], ["0", "0"]]
    with pytest.raises(ParseError, match="antipode"):
        parse_structure(json.dumps(data))


def test_kinds_parse_to_expected_types():
    reg = registry()
    built = {
        "algebra-mu1": HomAlgebra,
        "bialgebra-2": HomBialgebra,
        "hopf-2": HomHopf,
    }
    for name, cls in built.items():
        structure = reg[name].build(REGISTRY_BINDINGS[name])
        assert isinstance(parse_structure(serialize_structure(structure)), cls)
    coalg = reg["bialgebra-2"].build(REGISTRY_BINDINGS["bialgebra-2"]).coalgebra
    assert isinstance(parse_structure(serialize_structure(coalg)), HomCoalgebra)


# --- registry ---------------------------------------------------------------

def test_registry_missing_binding_is_usage_error():
    with pytest.raises(ValueError, match="missing parameter"):
        registry()["algebra-mu1"].build({"a1": 1})


def test_registry_unknown_binding_rejected():
    with pytest.raises(ValueError, match="unknown parameter"):
        registry()["algebra-mu1"].build({"a1": 1, "a2": 1, "zz": 3})


def test_registry_mu1_degenerate_twist():
    algebra = registry()["algebra-mu1"].build({"a1": 0, "a2": 0})
    assert algebra.alpha == LinearMap.zero(2)
    assert check_hom_associative(algebra).ok


def test_registry_bialgebra2_weak():
    b = registry()["bialgebra-2"].build({"b1": 1, "b2": 0, "b3": 1})
    assert check_bialgebra_weak(b).ok


def test_registry_hopf2_antipode_identity():
    hopf = registry()["hopf-2"].build({"b1": 1, "b2": 0, "b3": 1})
    result = solve_antipode(hopf.bialgebra)
    assert result.status == "unique"
    assert result.antipode == hopf.antipode == LinearMap.identity(2)


def test_registry_alpha_defaults_to_identity():
    b = registry()["bialgebra-3"].build({"b1": 1, "b2": 0, "b3": 1})
    assert b.algebra.alpha == LinearMap.identity(2)


@pytest.mark.parametrize("kind", [["algebra"], {"algebra": 1}, 3, None])
def test_non_string_kind_is_parse_error(kind):
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    data["kind"] = kind
    with pytest.raises(ParseError, match="kind: expected one of"):
        parse_structure(json.dumps(data))


def test_json_integer_literal_over_digit_limit_is_parse_error():
    digits = sys.get_int_max_str_digits() + 1
    text = serialize_structure(mu1_algebra(1, 1)).replace('"dim": 2', f'"dim": {"1" * digits}')
    with pytest.raises(ParseError, match=r"integer literal .*sys\.get_int_max_str_digits"):
        parse_structure(text)


def test_boolean_dim_is_parse_error():
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    data["dim"] = True
    with pytest.raises(ParseError, match=r"^dim: expected a positive integer, got True$"):
        parse_structure(json.dumps(data))


@pytest.mark.parametrize("field, value, message", [
    ("mul", [], "mul: expected 2 planes"),
    ("mul", [[["1", "0"], ["0", "1"]], "x"], r"mul\[1\]: expected 2 rows"),
    ("mul", [[["1", "0"], ["0", "1"]], [["0", "1"], ["0"]]], r"mul\[1\]\[1\]: expected 2 entries"),
    ("mul", [[["1", "0"], ["0", "1"]], [["0", 1.5], ["0"]]], r"mul\[1\]\[0\]\[1\]: expected an exact"),
    ("alpha", {"0": 1}, "alpha: expected 2 rows"),
    ("alpha", [["1", "0"], ["0", "1", "0"]], r"alpha\[1\]: expected 2 entries"),
    ("unit", ["1"], "unit: expected 2 entries"),
    ("unit", ["1", True], r"unit\[1\]: expected an exact rational string, got True"),
    # only unit may be null on the algebra side
    ("mul", None, "mul: expected 2 planes"),
    ("alpha", None, "alpha: expected 2 rows"),
    # a dim-1 file is told of 1 plane, not 1 planes
    ("dim", 1, "mul: expected 1 plane$"),
])
def test_nested_field_messages_name_the_first_failing_position(field, value, message):
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    data[field] = value
    with pytest.raises(ParseError, match=f"^{message}"):
        parse_structure(json.dumps(data))


@pytest.mark.parametrize("field, message", [
    ("comul", "comul: expected 2 planes"),
    ("beta", "beta: expected 2 rows"),
    ("antipode", "antipode: expected 2 rows"),
])
def test_a_null_comultiplication_twist_or_antipode_is_named(field, message):
    data = json.loads(serialize_structure(
        registry()["hopf-2"].build(REGISTRY_BINDINGS["hopf-2"])))
    data[field] = None
    with pytest.raises(ParseError, match=f"^{message}$"):
        parse_structure(json.dumps(data))


@pytest.mark.parametrize("field, value, message", [
    ("alpha", ["1", "0"], "alpha: expected 1 row$"),
    ("unit", False, "unit: expected 1 entry$"),
])
def test_dim_1_messages_count_in_the_singular(field, value, message):
    data = {"kind": "algebra", "dim": 1, "convention": "columns-are-images",
            "mul": [[["1"]]], "alpha": [["1"]], "unit": ["1"]}
    parse_structure(json.dumps(data))
    data[field] = value
    with pytest.raises(ParseError, match=f"^{message}"):
        parse_structure(json.dumps(data))


def test_parts_names_each_kind_and_its_pieces():
    hopf = registry()["hopf-2"].build(REGISTRY_BINDINGS["hopf-2"])
    bialgebra = hopf.bialgebra
    algebra, coalgebra = bialgebra.algebra, bialgebra.coalgebra
    assert parts(hopf) == ("hopf", algebra, coalgebra, bialgebra, hopf.antipode)
    assert parts(bialgebra) == ("bialgebra", algebra, coalgebra, bialgebra, None)
    assert parts(algebra) == ("algebra", algebra, None, None, None)
    assert parts(coalgebra) == ("coalgebra", None, coalgebra, None, None)
    with pytest.raises(TypeError, match="not a serializable structure"):
        parts(hopf.antipode)


def test_first_missing_field_named_whatever_the_hash_seed():
    # the required fields are checked in file order, so the message does not
    # depend on string hashing
    data = json.loads(serialize_structure(mu1_algebra(1, 1)))
    del data["mul"], data["alpha"]
    script = ("import sys\nfrom homalg import ParseError, parse_structure\n"
              "try:\n    parse_structure(sys.stdin.read())\n"
              "except ParseError as exc:\n    print(exc)\n")
    src = str(Path(homalg.__file__).resolve().parents[1])
    for seed in range(7):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        proc = subprocess.run([sys.executable, "-c", script], input=json.dumps(data),
                              env=env, stdout=subprocess.PIPE, text=True, timeout=60)
        assert proc.stdout == "missing field 'mul' for kind 'algebra'\n", seed


def test_hopf_antipode_shape_error_prefixed_once():
    hopf = registry()["hopf-2"].build({"b1": 1, "b2": 0, "b3": 1})
    data = json.loads(serialize_structure(hopf))
    data["antipode"] = [["1"]]
    with pytest.raises(ParseError) as info:
        parse_structure(json.dumps(data))
    assert str(info.value) == "antipode: expected 2 rows"


def _kind_files() -> dict:
    """One structure file per kind, as JSON data, from the hopf-2 example."""
    hopf = registry()["hopf-2"].build(REGISTRY_BINDINGS["hopf-2"])
    b = hopf.bialgebra
    return {kind: json.loads(serialize_structure(structure)) for kind, structure in
            (("algebra", b.algebra), ("coalgebra", b.coalgebra), ("bialgebra", b),
             ("hopf", hopf))}


@pytest.mark.parametrize("kind, fields, optional, foreign", [
    ("algebra", ("mul", "alpha"), "unit", ("comul", "beta", "counit", "antipode")),
    ("coalgebra", ("comul", "beta"), "counit", ("mul", "alpha", "unit", "antipode")),
    ("bialgebra", ("mul", "alpha", "unit", "comul", "beta", "counit"), None, ("antipode",)),
    ("hopf", ("mul", "alpha", "unit", "comul", "beta", "counit", "antipode"), None, ()),
])
def test_each_kind_requires_its_fields_in_file_order(kind, fields, optional, foreign):
    data = _kind_files()[kind]
    parse_structure(json.dumps(data))
    for i, field in enumerate(fields):
        # with the fields before it gone too, the first of them is named
        lacking = {k: v for k, v in data.items() if k not in fields[:i + 1]}
        with pytest.raises(ParseError, match=f"^missing field '{fields[0]}' for kind '{kind}'$"):
            parse_structure(json.dumps(lacking))
        alone = {k: v for k, v in data.items() if k != field}
        with pytest.raises(ParseError, match=f"^missing field '{field}' for kind '{kind}'$"):
            parse_structure(json.dumps(alone))
    for field in foreign:
        extra = {**data, field: data.get("mul") or data.get("comul")}
        with pytest.raises(ParseError, match=f"^unexpected field '{field}' for kind '{kind}'$"):
            parse_structure(json.dumps(extra))
    if optional:
        # a lone side may leave out its third field
        del data[optional]
        assert getattr(parse_structure(json.dumps(data)), optional) is None
