"""Round trips as properties: parse o serialize and dual o dual are identities
on random algebras, coalgebras and bialgebras, and on hopf-2 at random
bindings."""

from fractions import Fraction
from functools import cache

from hypothesis import given, strategies as st

from homalg import (
    ComulTensor,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    LinearMap,
    MulTensor,
    Vector,
    dual,
    parse_structure_file,
    registry,
    serialize_structure,
)

scalars = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
params = st.dictionaries(st.text("ab12", min_size=1, max_size=3), scalars, max_size=3)


@cache
def nested(dim: int, depth: int):
    grid = scalars
    for _ in range(depth):
        grid = st.lists(grid, min_size=dim, max_size=dim)
    return grid


@st.composite
def random_structures(draw):
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["algebra", "coalgebra", "bialgebra"]))

    # a bialgebra needs both the unit and the counit; elsewhere they are optional
    def optional_vector():
        return Vector(draw(nested(dim, 1))) if kind == "bialgebra" or draw(st.booleans()) \
            else None

    def algebra():
        return HomAlgebra(mul=MulTensor(draw(nested(dim, 3))),
                          alpha=LinearMap(draw(nested(dim, 2))), unit=optional_vector())

    def coalgebra():
        return HomCoalgebra(comul=ComulTensor(draw(nested(dim, 3))),
                            beta=LinearMap(draw(nested(dim, 2))), counit=optional_vector())

    structure = {"algebra": algebra, "coalgebra": coalgebra,
                 "bialgebra": lambda: HomBialgebra(algebra=algebra(), coalgebra=coalgebra())}
    return structure[kind](), draw(params)


@st.composite
def hopf2(draw):
    bindings = {name: draw(scalars) for name in ("b1", "b2", "b3", "a1", "a2")}
    return registry()["hopf-2"].build(bindings), bindings


@given(st.one_of(random_structures(), hopf2()))
def test_serialize_parse_and_double_dual_are_identities(case):
    structure, bindings = case
    assert parse_structure_file(serialize_structure(structure, bindings)) == (structure, bindings)
    assert dual(dual(structure)) == structure
