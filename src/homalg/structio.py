"""Structure kinds (:func:`parts`) and their duals (:func:`dual`), structure
files and the example registry.

Files are JSON with every rational a string, written "p/q" or as a bare
integer and read by ``rat``: "p/q", integers, decimals and exponents such as
"1.5" and "1e3" (read exactly), surrounding spaces, and Unicode decimal
digits, as ``Fraction`` reads them, but no underscores.  Multiplication
constants are nested as ``mul[i][j][k]`` and comultiplication constants as
``comul[k][i][j]``; the mandatory ``convention`` field is pinned to
"columns-are-images" so a file states its own matrix convention.  Round trips
are lossless: parse(serialize(x)) == x.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from functools import partial
from typing import Callable, Mapping, NamedTuple

from .algebra import HomAlgebra
from .bialgebra import HomBialgebra, HomHopf
from .coalgebra import HomCoalgebra, dual_algebra_of_coalgebra, dual_coalgebra_of_algebra
from .rational import ONE, brief, rat, rat_str
from .tensors import ComulTensor, Fields, LinearMap, MulTensor, Vector

CONVENTION = "columns-are-images"

Structure = HomAlgebra | HomCoalgebra | HomBialgebra | HomHopf


class ParseError(ValueError):
    """Malformed structure file: carries a message naming the failing field."""


def _scalar(value, field: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{field}: expected an exact rational string, got {value!r}")
    try:
        return rat(value)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from exc


_LEVELS = {1: ("entry", "entries"), 2: ("row", "rows"), 3: ("plane", "planes")}


def _nested(data, dim: int, depth: int, field: str):
    """``depth`` levels of ``dim``-long lists of exact rationals, checked
    depth first; ``field`` names the failing position (``mul[0][1]``)."""
    if not depth:
        return _scalar(data, field)
    if not isinstance(data, list) or len(data) != dim:
        raise ParseError(f"{field}: expected {dim} {_LEVELS[depth][dim > 1]}")
    return [_nested(v, dim, depth - 1, f"{field}[{i}]") for i, v in enumerate(data)]


# the two sides a file may hold: each structure class with its fields in file order,
# named as in the file, and each field's tensor class, whose ``order`` is the
# field's depth; only the third field of a side (unit, counit) may be null
_SIDES = (
    (HomAlgebra, (("mul", MulTensor), ("alpha", LinearMap), ("unit", Vector))),
    (HomCoalgebra, (("comul", ComulTensor), ("beta", LinearMap), ("counit", Vector))),
)
# each tensor class's public nested view
_VIEWS = {MulTensor: "c", ComulTensor: "d", LinearMap: "entries", Vector: "coords"}


# (required, optional) fields per kind in file order, so that a file lacking several
# is told the first; only a lone side's third field (unit, counit) may be missing
_ALGEBRA, _COALGEBRA = (tuple(name for name, _ in fields) for _, fields in _SIDES)
_KIND_FIELDS = {
    "algebra": (_ALGEBRA[:2], _ALGEBRA[2:]),
    "coalgebra": (_COALGEBRA[:2], _COALGEBRA[2:]),
    "bialgebra": (_ALGEBRA + _COALGEBRA, ()),
    "hopf": (_ALGEBRA + _COALGEBRA + ("antipode",), ()),
}
_COMMON_FIELDS = {"kind", "dim", "convention", "params"}


def parse_structure_file(text: str) -> tuple[Structure, dict[str, Fraction]]:
    """Parse a structure file; returns the structure and its recorded
    parameter bindings (empty when the file carries none)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError as exc:
        # json.loads raises this only for an integer literal that is too long
        raise ParseError("invalid JSON: an integer literal is longer than Python's limit of "
                         f"{sys.get_int_max_str_digits()} digits "
                         "(sys.get_int_max_str_digits())") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")

    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _KIND_FIELDS:
        raise ParseError(f"kind: expected one of {sorted(_KIND_FIELDS)}, got {brief(kind)}")
    dim = data.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"dim: expected a positive integer, got {dim!r}")
    if data.get("convention") != CONVENTION:
        raise ParseError(f'convention: must be "{CONVENTION}"')

    required, optional = _KIND_FIELDS[kind]
    allowed = {*required, *optional, *_COMMON_FIELDS}
    for key in data:
        if key not in allowed:
            raise ParseError(f"unexpected field {key!r} for kind {kind!r}")
    for key in required:
        if key not in data:
            raise ParseError(f"missing field {key!r} for kind {kind!r}")

    params: dict[str, Fraction] = {}
    raw_params = data.get("params", {})
    if not isinstance(raw_params, dict):
        raise ParseError("params: expected an object")
    for name, value in raw_params.items():
        params[name] = _scalar(value, f"params[{name}]")

    sides = [side(**{name: None if i == 2 and data.get(name) is None
                     else cls(_nested(data[name], dim, cls.order, name))
                     for i, (name, cls) in enumerate(fields)})
             for side, fields in _SIDES if fields[0][0] in data]
    if len(sides) == 1:
        return sides[0], params
    try:
        bialgebra = HomBialgebra(*sides)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    if kind == "bialgebra":
        return bialgebra, params
    antipode = LinearMap(_nested(data["antipode"], dim, 2, "antipode"))
    try:
        hopf = HomHopf(bialgebra=bialgebra, antipode=antipode)
    except ValueError as exc:
        raise ParseError(f"antipode: {exc}") from exc
    return hopf, params


def parse_structure(text: str) -> Structure:
    return parse_structure_file(text)[0]


class Parts(NamedTuple):
    """A structure's kind and its pieces; a piece the kind lacks is None."""

    kind: str
    algebra: HomAlgebra | None
    coalgebra: HomCoalgebra | None
    bialgebra: HomBialgebra | None
    antipode: LinearMap | None


def parts(structure: Structure) -> Parts:
    """The one place that tells the four structure kinds apart: a hopf
    structure wraps a bialgebra, which holds an algebra and a coalgebra side."""
    if isinstance(structure, HomHopf):
        b = structure.bialgebra
        return Parts("hopf", b.algebra, b.coalgebra, b, structure.antipode)
    if isinstance(structure, HomBialgebra):
        return Parts("bialgebra", structure.algebra, structure.coalgebra, structure, None)
    if isinstance(structure, HomAlgebra):
        return Parts("algebra", structure, None, None, None)
    if isinstance(structure, HomCoalgebra):
        return Parts("coalgebra", None, structure, None, None)
    raise TypeError(f"not a serializable structure: {type(structure)!r}")


def dual(structure: Structure) -> Structure:
    """The dual of any of the four kinds: each side goes to its dual on the
    other side, and an antipode transposes (the hopf constructor re-verifies
    its equations on the dual)."""
    p = parts(structure)
    if p.kind == "algebra":
        return dual_coalgebra_of_algebra(p.algebra)
    if p.kind == "coalgebra":
        return dual_algebra_of_coalgebra(p.coalgebra)
    bialgebra = HomBialgebra(algebra=dual_algebra_of_coalgebra(p.coalgebra),
                             coalgebra=dual_coalgebra_of_algebra(p.algebra))
    if p.antipode is None:
        return bialgebra
    return HomHopf(bialgebra=bialgebra, antipode=p.antipode.transpose())


def _json(view):
    """A nested-tuple view (``c``, ``d``, ``entries``, ``coords``) as nested
    lists of rational strings."""
    return [_json(v) for v in view] if isinstance(view, tuple) else rat_str(view)


def serialize_structure(structure: Structure, params: Mapping[str, Fraction] | None = None) -> str:
    """Canonical JSON text for a structure (deterministic field order)."""
    p = parts(structure)
    out: dict = {"kind": p.kind, "dim": structure.dim, "convention": CONVENTION}
    for side, (_, fields) in zip((p.algebra, p.coalgebra), _SIDES):
        if side is not None:
            for name, cls in fields:
                tensor = getattr(side, name)
                out[name] = None if tensor is None else _json(getattr(tensor, _VIEWS[cls]))
    if p.antipode is not None:
        out["antipode"] = _json(p.antipode.entries)
    if params:
        out["params"] = {k: rat_str(rat(v)) for k, v in sorted(params.items())}
    return json.dumps(out, indent=2) + "\n"


# ---------------------------------------------------------------------------
# registry of built-in structures


class RegistryEntry(Fields):
    """A named parametric structure; ``build`` instantiates it from bindings."""

    name: str
    kind: str
    required: tuple[str, ...]
    defaults: tuple[tuple[str, Fraction], ...]
    description: str
    builder: Callable[[dict[str, Fraction]], Structure]

    def __init__(self, name, kind, required, defaults, description, builder):
        self._store(name, kind, required, defaults, description, builder)

    def build(self, bindings: Mapping[str, object] | None = None) -> Structure:
        given = {k: rat(v) for k, v in (bindings or {}).items()}
        known = set(self.required) | {k for k, _ in self.defaults}
        for key in given:
            if key not in known:
                raise ValueError(
                    f"{self.name}: unknown parameter {key!r} (takes {sorted(known)})"
                )
        missing = [p for p in self.required if p not in given]
        if missing:
            raise ValueError(f"{self.name}: missing parameter binding(s) {missing}")
        values = dict(self.defaults)
        values.update(given)
        return self.builder(values)


# the two dim-2 unital classes, e1 the unit, each as (multiplication entries,
# twist in a1 and a2, description): mu1, where e2.e2 = e2, and mu2, where
# e2.e2 = 0
_CLASSES = {
    "mu1": ({(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 1): 1},
            lambda a1, a2: [[a1, 0], [a2 - a1, a2]],
            "e2.e2 = e2, twist [[a1,0],[a2-a1,a2]]"),
    "mu2": ({(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1},
            lambda a1, a2: [[a1, 0], [a2, a1]],
            "e2.e2 = 0, twist [[a1,0],[a2,a1]]"),
}

# the three weak Hom-bialgebra rows over mu1, each as (comultiplication,
# counit, twist in b1, b2 and b3, description); every build shares the row's
# tensors.  Twisted coassociativity pins the lower-left entry of each twist to
# 0 (and makes the third printed parameter of the family redundant); the
# remaining entries are exactly the two-parameter solution families.
_ROWS = {
    1: (ComulTensor.from_entries(2, {(0, 0, 0): 1, (1, 1, 1): 1}), Vector([1, 1]),
        lambda b1, b2, b3: [[b1, 0], [0, b2]],
        "grouplike comultiplication over algebra-mu1; beta = diag(b1, b2) "
        "(coassociativity forces the off-diagonal to 0, so b3 is unused)"),
    2: (ComulTensor.from_entries(2, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1,
                                     (1, 1, 1): -2}), Vector([1, 0]),
        lambda b1, b2, b3: [[b1, (b1 - b3) / 2], [0, b3]],
        "Delta(e2) = e1(x)e2 + e2(x)e1 - 2 e2(x)e2 over algebra-mu1; "
        "beta = [[b1,(b1-b3)/2],[0,b3]] (b2 is pinned to 0 by "
        "coassociativity and unused)"),
    3: (ComulTensor.from_entries(2, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1,
                                     (1, 1, 1): -1}), Vector([1, 0]),
        lambda b1, b2, b3: [[b1, b1 - b3], [0, b3]],
        "Delta(e2) = e1(x)e2 + e2(x)e1 - e2(x)e2 over algebra-mu1; "
        "beta = [[b1,b1-b3],[0,b3]] (b2 is pinned to 0 by coassociativity "
        "and unused)"),
}


def _algebra(name: str, v: dict[str, Fraction]) -> HomAlgebra:
    entries, twist, _ = _CLASSES[name]
    return HomAlgebra(mul=MulTensor.from_entries(2, entries),
                      alpha=LinearMap(twist(v["a1"], v["a2"])), unit=Vector.basis(2, 0))


def _bialgebra(row: int, v: dict[str, Fraction]) -> HomBialgebra:
    comul, counit, twist, _ = _ROWS[row]
    beta = LinearMap(twist(v["b1"], v["b2"], v["b3"]))
    return HomBialgebra(algebra=_algebra("mu1", v),
                        coalgebra=HomCoalgebra(comul=comul, beta=beta, counit=counit))


_B_PARAMS = ("b1", "b2", "b3")
_A_DEFAULTS = (("a1", ONE), ("a2", ONE))


def registry() -> dict[str, RegistryEntry]:
    """Named built-in structures, one per row of :data:`_CLASSES` and
    :data:`_ROWS` and the hopf row; parametric entries need bindings."""
    entries = [
        *(RegistryEntry(f"algebra-{name}", "algebra", ("a1", "a2"), (),
                        f"dim-2 unital Hom-associative algebra: {text}",
                        partial(_algebra, name))
          for name, (*_, text) in _CLASSES.items()),
        *(RegistryEntry(f"bialgebra-{row}", "bialgebra", _B_PARAMS, _A_DEFAULTS, text,
                        partial(_bialgebra, row))
          for row, (*_, text) in _ROWS.items()),
        RegistryEntry("hopf-2", "hopf", _B_PARAMS, _A_DEFAULTS,
                      "bialgebra-2 with its antipode, the identity matrix",
                      lambda v: HomHopf(bialgebra=_bialgebra(2, v),
                                        antipode=LinearMap.identity(2))),
    ]
    return {e.name: e for e in entries}
