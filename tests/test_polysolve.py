import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from homalg import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    ComulTensor,
    GroebnerResult,
    LinearMap,
    MulTensor,
    Poly,
    Vector,
    buchberger,
    check_bialgebra_weak,
    enumerate_rational_points,
    rational_roots,
    search_bialgebra_extension,
    verify_certificate,
)
import homalg.polysolve
from homalg.bialgebra import alpha_defects
from homalg.polysolve import (
    EXTENSION_VARIABLES,
    bialgebra_extension_system,
    is_zero_dimensional,
)
from homalg.tensors import contract

from conftest import mu1_algebra, mu2_algebra, standard_systems

X = ("x",)
XY = ("x", "y")


def P(variables, terms):
    return Poly(variables, terms)


# --- polynomial arithmetic -----------------------------------------------------

def test_poly_arithmetic():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert p.substitute({"x": 3}).univariate_coefficients(1) == \
        [Fraction(9), Fraction(0), Fraction(-1)]
    assert p.evaluate({"x": 3, "y": 2}) == 5


def test_poly_orders():
    # grevlex: x*z < y^2 when x > y > z; lex: x*z > y^2
    v = ("x", "y", "z")
    xz = P(v, {(1, 0, 1): 1})
    yy = P(v, {(0, 2, 0): 1})
    both = xz + yy
    assert both.leading_monomial("grevlex") == (0, 2, 0)
    assert both.leading_monomial("lex") == (1, 0, 1)


def test_poly_str_renders():
    v = ("x", "y")
    p = P(v, {(2, 0): Fraction(5, 2), (0, 0): -3})
    assert str(p) == "5/2*x^2 - 3"


def test_poly_checks_monomial_arity_before_dropping_zeros():
    for coeff in (3, 0, Fraction(0)):
        with pytest.raises(ValueError, match="arity"):
            Poly(XY, {(1,): coeff})
    assert Poly(XY, {(1, 0): 0}) == Poly.zero(XY)


def test_substitute_sums_each_monomial_exactly():
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    p = Fraction(1, 6) * x * x * y - Fraction(5, 6) * x * y + y - 7
    # the y terms sum to (x - 2)(x - 3)/6 * y
    assert p.substitute({"x": Fraction(2, 3)}) == Fraction(14, 27) * y - 7
    assert p.substitute({"x": 1}) == Fraction(1, 3) * y - 7
    assert p.substitute({"x": "2"}) == Poly.const(XY, -7)
    assert p.evaluate({"x": Fraction(1, 2), "y": 3}) == Fraction(-41, 8)
    # an integer sum comes back as an int, the rest as reduced Fractions
    half = (2 * x * y - Fraction(1, 2) * y).substitute({"y": Fraction(1, 2)})
    assert half.terms == {(1, 0): 1, (0, 0): Fraction(-1, 4)}
    assert type(half.terms[1, 0]) is int


def test_scaling_keeps_whole_products_of_int_coefficients_as_ints():
    x = Poly.var(X, "x")
    u, v = Poly.var(XY, "x"), Poly.var(XY, "y")
    assert Poly(X, {(1,): 3}).scale(Fraction(4, 2)).terms == {(1,): 6}
    # the monic basis of the ideal (x + 1/2, y)
    monic = buchberger([2 * u * v - 4 * v, 3 * u + Fraction(3, 2)]).basis
    assert monic == (v, u + Fraction(1, 2))
    for p in (3 * x * Fraction(4, 2), Fraction(4, 2) * (3 * x), (6 * x + 3) * Fraction(1, 2),
              Poly(XY, {(1, 0): 4, (0, 0): -2}).scale(Fraction(1, 2), (0, 1)),
              (2 * u) * (Fraction(1, 2) * v), Fraction(1, 2) * x + Fraction(1, 2) * x,
              (Fraction(1, 2) * u * v + v).substitute({"x": 2}), *monic):
        assert all(type(c) is int for c in p.terms.values() if c.denominator == 1), p
    half = (6 * x + 3) * Fraction(1, 2)
    assert half.terms == {(1,): 3, (0,): Fraction(3, 2)} and str(half) == "3*x + 3/2"
    # a Fraction coefficient whose product is whole becomes an int too
    assert type((Fraction(1, 2) * x).scale(2).terms[1,]) is int
    # a contraction that mixes polynomial and rational entries, through its denominator
    value = contract("i,i->", [2 * x, 0], [Fraction(1, 2), Fraction(1, 3)])
    assert value == x and type(value.terms[1,]) is int


def test_constructor_stores_a_whole_fraction_as_an_int():
    built = Poly(XY, {(1, 0): Fraction(2), (0, 1): Fraction(6, 3), (0, 0): "4/2"})
    assert built.terms == {(1, 0): 2, (0, 1): 2, (0, 0): 2}
    assert all(type(c) is int for c in built.terms.values())
    assert built.terms == (built + 0).terms and built == Poly(XY, {(1, 0): 2, (0, 1): 2, (0, 0): 2})


def test_terms_are_read_only_and_equal_polynomials_hash_alike():
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    built = Poly(XY, {(1, 0): 2, (0, 1): Fraction(-1, 3)})
    for p in (built, 2 * x - Fraction(1, 3) * y):
        with pytest.raises(TypeError):
            p.terms[0, 0] = 1
        with pytest.raises(AttributeError):
            p.terms.pop((1, 0))
    # the hash is computed once and agrees with that of an equal polynomial
    assert hash(built) == hash(built) == hash(2 * x - Fraction(1, 3) * y)
    assert len({built, 2 * x - Fraction(1, 3) * y, x}) == 2
    # arithmetic copies the terms, so the operands stay as they were
    total = built + x
    assert built.terms == {(1, 0): 2, (0, 1): Fraction(-1, 3)} and total.terms[1, 0] == 3


@pytest.mark.parametrize("call", [
    lambda: Poly(XY, {(1, 0): 1}).substitute({"q": 1}),
    lambda: Poly(XY, {(1, 0): 1}).evaluate({"q": 1, "x": 1}),
    lambda: Poly.var(XY, "q"),
], ids=["substitute", "evaluate", "var"])
def test_unknown_variable_is_named_with_the_variable_list(call):
    with pytest.raises(ValueError, match=r"^unknown variable 'q'; the variables are \('x', 'y'\)$"):
        call()


# --- buchberger ------------------------------------------------------------------

def test_inconsistent_pair():
    x = Poly.var(X, "x")
    one = Poly.const(X, 1)
    gens = [x - one, x - one - one]
    result = buchberger(gens)
    assert result.status == "ok"
    assert result.inconsistent
    assert result.basis == (Poly.const(X, 1),)
    cert = result.certificate()
    assert cert is not None and verify_certificate(gens, cert)


def test_unit_from_product_relation():
    # {x*y - 1, x}: the span contains 1
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    gens = [x * y - Poly.const(XY, 1), x]
    result = buchberger(gens)
    assert result.inconsistent
    cert = result.certificate()
    assert verify_certificate(gens, cert)


def test_irrational_zero_dimensional():
    # {x^2 - 2}: proper basis, zero-dimensional, but no rational points
    gens = [P(X, {(2,): 1, (0,): -2})]
    result = buchberger(gens, order="lex")
    assert result.status == "ok" and not result.inconsistent
    assert result.basis == (P(X, {(2,): 1, (0,): -2}),)
    assert is_zero_dimensional(result.basis, order="lex")
    assert enumerate_rational_points(result.basis) == []


def test_groebner_reduces_lex_elimination():
    # x + y and x - y: reduced lex basis is {x, y}
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    result = buchberger([x + y, x - y], order="lex")
    assert set(result.basis) == {x, y}


def test_cofactors_reconstruct_basis():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    gens = [x * x - y, x * y - Poly.const(XY, 1)]
    result = buchberger(gens, order="lex")
    assert result.status == "ok"
    for poly, cof in zip(result.basis, result.cofactors):
        acc = Poly.zero(XY)
        for g, c in zip(gens, cof):
            acc = acc + g * c
        assert acc == poly


def test_pair_cap_returns_capped():
    x = Poly.var(XY, "x")
    y = Poly.var(XY, "y")
    gens = [x * x - y, x * y - Poly.const(XY, 1)]
    result = buchberger(gens, pair_cap=1)
    assert result.status == "capped"


def test_degree_cap_returns_capped():
    v = ("x", "y", "z")
    gens = [
        P(v, {(3, 0, 0): 1, (0, 1, 0): -1}),
        P(v, {(0, 3, 0): 1, (0, 0, 1): -1}),
        P(v, {(1, 1, 1): 1, (0, 0, 0): -1}),
    ]
    result = buchberger(gens, degree_cap=2)
    assert result.status == "capped"


def test_variable_cap():
    names = tuple(f"v{i}" for i in range(13))
    with pytest.raises(ValueError):
        buchberger([Poly.var(names, "v0")])


# --- rational roots ----------------------------------------------------------------

def test_rational_roots_simple():
    # (2x - 1)(x + 3) = 2x^2 + 5x - 3
    assert rational_roots([Fraction(-3), Fraction(5), Fraction(2)]) == \
        [Fraction(-3), Fraction(1, 2)]


def test_rational_roots_with_zero_root():
    # x^2 (x - 4)
    assert rational_roots([0, 0, Fraction(-4), Fraction(1)]) == \
        [Fraction(0), Fraction(4)]


def test_rational_roots_none():
    assert rational_roots([Fraction(2), Fraction(0), Fraction(1)]) == []


# --- the extension search -----------------------------------------------------------

ROW1_POINT = {"x11": Fraction(0), "x12": Fraction(0), "x21": Fraction(0),
              "x22": Fraction(1), "y": Fraction(1)}
ROW2_POINT = {"x11": Fraction(0), "x12": Fraction(1), "x21": Fraction(1),
              "x22": Fraction(-2), "y": Fraction(0)}
ROW3_POINT = {"x11": Fraction(0), "x12": Fraction(1), "x21": Fraction(1),
              "x22": Fraction(-1), "y": Fraction(0)}


def test_mu2_has_no_extension():
    verdict = search_bialgebra_extension(mu2_algebra(1, 2))
    assert verdict.status == "inconsistent"
    assert verdict.certificate is not None
    assert verify_certificate(verdict.generators, verdict.certificate)


def test_certificate_failing_its_check_gives_inconclusive(monkeypatch):
    import homalg.polysolve

    monkeypatch.setattr(homalg.polysolve, "verify_certificate", lambda gens, cert: False)
    verdict = search_bialgebra_extension(mu2_algebra(1, 2))
    assert verdict.status == "inconclusive"
    assert verdict.certificate is None
    assert "certificate does not recombine" in verdict.reason


@pytest.mark.parametrize("build", [mu2_algebra, mu1_algebra], ids=["mu2", "mu1"])
def test_a_presolved_strict_certificate_is_still_checked(monkeypatch, build):
    """The affine generators decide both strict systems at a generic twist,
    with no pair selected; their certificate goes through the same check."""
    decided = search_bialgebra_extension(build(2, 3), strict_alpha=True)
    assert decided.status == "inconsistent" and decided.pairs_processed == 0
    monkeypatch.setattr(homalg.polysolve, "verify_certificate", lambda gens, cert: False)
    verdict = search_bialgebra_extension(build(2, 3), strict_alpha=True)
    assert verdict.status == "inconclusive" and verdict.certificate is None
    assert "certificate does not recombine" in verdict.reason


def test_mu2_strict_reading_also_inconsistent():
    verdict = search_bialgebra_extension(mu2_algebra(2, 3), strict_alpha=True)
    assert verdict.status == "inconsistent"
    assert verify_certificate(verdict.generators, verdict.certificate)


def test_mu1_solutions_contain_table_rows():
    verdict = search_bialgebra_extension(mu1_algebra(1, 2))
    assert verdict.status == "solutions"
    assert not verdict.positive_dimensional
    assert ROW1_POINT in verdict.points
    assert ROW2_POINT in verdict.points
    assert ROW3_POINT in verdict.points
    assert len(verdict.points) == 4  # plus row 2 rewritten in basis (e1, e1-e2)


def test_mu1_points_satisfy_generators():
    verdict = search_bialgebra_extension(mu1_algebra(1, 1))
    for pt in verdict.points:
        for g in verdict.generators:
            assert g.evaluate(pt) == 0


def test_mu1_points_assemble_to_weak_bialgebras():
    verdict = search_bialgebra_extension(mu1_algebra(1, 1))
    algebra = mu1_algebra(1, 1)
    for pt in verdict.points:
        comul = ComulTensor.from_entries(2, {
            (0, 0, 0): 1,
            (1, 0, 0): pt["x11"], (1, 0, 1): pt["x12"],
            (1, 1, 0): pt["x21"], (1, 1, 1): pt["x22"],
        })
        b = HomBialgebra(
            algebra=algebra,
            coalgebra=HomCoalgebra(
                comul=comul, beta=LinearMap.identity(2),
                counit=Vector([1, pt["y"]]),
            ),
        )
        assert check_bialgebra_weak(b).ok


def test_fourth_point_is_row2_in_rotated_basis():
    # the extra solution is row 2 written in the basis (e1, e1 - e2)
    verdict = search_bialgebra_extension(mu1_algebra(1, 1))
    extra = {"x11": Fraction(1), "x12": Fraction(-1), "x21": Fraction(-1),
             "x22": Fraction(2), "y": Fraction(1)}
    assert extra in verdict.points


def test_capped_propagates_to_inconclusive():
    verdict = search_bialgebra_extension(mu1_algebra(1, 1), pair_cap=1)
    assert verdict.status == "inconclusive"
    assert "capped" in verdict.reason


def test_extension_requires_dim2_and_unit_e1():
    from homalg import MulTensor

    big = HomAlgebra(mul=MulTensor.zero(3), alpha=LinearMap.identity(3),
                     unit=Vector.basis(3, 0))
    with pytest.raises(ValueError):
        search_bialgebra_extension(big)
    unitless = HomAlgebra(mul=mu1_algebra().mul, alpha=LinearMap.identity(2))
    with pytest.raises(ValueError):
        search_bialgebra_extension(unitless)


def test_extension_variable_order_is_canonical():
    assert EXTENSION_VARIABLES == ("x11", "x12", "x21", "x22", "y")


def test_poly_scalar_product_and_truthiness():
    x = Poly.var(XY, "x")
    assert 3 * x == x * 3 == x.scale(3)
    assert Fraction(1, 2) * x == x * Fraction(1, 2) == x.scale(Fraction(1, 2))
    assert 0 * x == Poly.zero(XY)
    assert x and Poly.const(XY, 2)
    assert not Poly.zero(XY) and not (x - x)
    # a rational operand of + and - acts as a constant polynomial
    one = Poly.const(XY, 1)
    assert x + 1 == 1 + x == x + one
    assert 1 - x == one - x and x - Fraction(1) == x - one


# --- solver parity pins, caps and counters ------------------------------------------

# Pairs processed and reduced lex bases of the extension systems at a1=2, a2=3.
# The pair counts pin the selection order (lowest lcm degree, newest first),
# the Gebauer-Moller criteria, which left 5/14/7/14 of the 45/190/66/190
# pairs selected without them, and the stop at the first nonzero constant,
# which leaves 5/1/4/1 (the three inconsistent systems reach 1 at pairs
# 1, 4 and 1); a new strategy, pair criterion or stopping rule must re-pin
# them on purpose.  The search decides the strict systems by their affine
# generators alone, before Buchberger, so it selects no pair there.
EXTENSION_PINS = {
    ("mu1", False): (5, ["y^2 - y", "x22^2 - 6*x22*y + 3*x22 + 2", "x22*y + x21 - 1",
                         "x22*y + x12 - 1", "-x22*y + x11 + y"]),
    ("mu1", True): (1, ["1"]),
    ("mu2", False): (4, ["1"]),
    ("mu2", True): (1, ["1"]),
}


@pytest.mark.parametrize("name,strict", sorted(EXTENSION_PINS))
def test_extension_system_basis_and_pair_count_pinned(name, strict):
    algebra = (mu1_algebra if name == "mu1" else mu2_algebra)(2, 3)
    gens = bialgebra_extension_system(algebra, strict_alpha=strict)
    result = buchberger(gens, order="lex")
    pairs, basis = EXTENSION_PINS[name, strict]
    assert result.status == "ok" and result.cap is None
    assert result.pairs_processed == pairs
    assert [str(p) for p in result.basis] == basis
    verdict = search_bialgebra_extension(algebra, strict_alpha=strict)
    assert verdict.pairs_processed == (0 if strict else pairs)
    capped = buchberger(gens, order="lex", pair_cap=1)
    if pairs == 1:
        # the first pair gives the unit, so pair_cap=1 is enough
        assert capped.status == "ok" and capped.inconsistent and capped == result
    else:
        # pair_cap=1 stops at the second selected pair
        assert capped.status == "capped" and capped.pairs_processed == 2
        assert capped.cap == ("pair_cap", 2)


@pytest.mark.parametrize("build", [mu1_algebra, mu2_algebra])
def test_selecting_a_pair_reads_the_chain_criterion_once_per_later_entry(build, monkeypatch):
    """The chain criterion is read when a pair is selected, once against
    each entry that joined after the pair's later partner: the strict
    systems at a1=2, a2=3 select one pair, so the run reads it at most once
    per generator."""
    calls = []
    chained = homalg.polysolve._chained

    def counted(h, a, b):
        calls.append((h, a, b))
        return chained(h, a, b)

    monkeypatch.setattr(homalg.polysolve, "_chained", counted)
    gens = bialgebra_extension_system(build(2, 3), strict_alpha=True)
    result = buchberger(gens, order="lex")
    assert result.pairs_processed == 1 and len(gens) == 19
    assert len(calls) <= len(gens)


@pytest.mark.parametrize("build", [mu1_algebra, mu2_algebra])
def test_selecting_a_pair_reads_the_other_criteria_not_joining_an_entry(build, monkeypatch):
    """The product criterion, M and F are read when a pair is selected, not
    as each entry joins: the strict systems at a1=2, a2=3 join 19
    generators to select one pair, so the run tests coprimality fewer times
    than it has generators."""
    calls = []
    coprime = homalg.polysolve._mono_coprime

    def counted(a, b):
        calls.append((a, b))
        return coprime(a, b)

    monkeypatch.setattr(homalg.polysolve, "_mono_coprime", counted)
    gens = bialgebra_extension_system(build(2, 3), strict_alpha=True)
    result = buchberger(gens, order="lex")
    assert result.pairs_processed == 1 and len(gens) == 19
    assert len(calls) < len(gens)


def test_a_constant_generator_ends_the_run_before_any_pair():
    x = Poly.var(X, "x")
    two, zero = Poly.const(X, 2), Poly.zero(X)
    # the certificate is the first constant's: 1 = (1/2) * 2
    result = buchberger([x * x - 1, two, x - 1])
    assert result.status == "ok" and result.pairs_processed == 0
    assert result.basis == (Poly.const(X, 1),)
    assert result.cofactors == ((zero, Poly.const(X, Fraction(1, 2)), zero),)
    # x - 1 leaves the pair (x^2 - 1, x - 1) queued before the constant
    # joins; the constant ends the run before it is selected
    result = buchberger([x * x - 1, x - 1, two])
    assert result.status == "ok" and result.pairs_processed == 0
    assert result.cofactors == ((zero, zero, Poly.const(X, Fraction(1, 2))),)


def test_capped_reason_names_the_tripped_cap():
    verdict = search_bialgebra_extension(mu1_algebra(2, 3), pair_cap=1)
    assert verdict.status == "inconclusive" and verdict.pairs_processed == 2
    assert verdict.reason == "solver capped: pair_cap=1 reached after 2 pairs"
    verdict = search_bialgebra_extension(mu1_algebra(2, 3), degree_cap=1)
    assert verdict.status == "inconclusive"
    assert verdict.reason.startswith("solver capped: degree_cap=1 exceeded by a degree-2 ")
    assert verdict.reason.endswith(f"after {verdict.pairs_processed} pairs")


def test_groebner_result_positional_constructor_defaults_cap():
    result = GroebnerResult("ok", (), (), "lex", 0)
    assert result.cap is None


def test_a_pair_reads_the_lcm_stored_when_it_formed(monkeypatch):
    """Each pair's lcm is computed once, as its later entry joins, and read
    from there when the pair is selected: from a pop of the queue to the
    next division only the chain criterion computes an lcm.  The weak mu1
    system at a1=2, a2=3 selects 5 pairs in lex with 77 lcm calls, where
    recomputing the lcm of each partner for every popped pair takes 179."""
    polysolve = homalg.polysolve
    mono_lcm, chained = polysolve._mono_lcm, polysolve._chained
    heappop, divide = polysolve.heappop, polysolve._reduce
    state = {"selecting": False, "chained": 0}
    calls, selecting = [], []

    def counted(a, b):
        calls.append((a, b))
        if state["selecting"] and not state["chained"]:
            selecting.append((a, b))
        return mono_lcm(a, b)

    def in_chain(h, a, b):
        state["chained"] += 1
        try:
            return chained(h, a, b)
        finally:
            state["chained"] -= 1

    def popped(queue):
        state["selecting"] = True
        return heappop(queue)

    def dividing(*args):
        state["selecting"] = False
        return divide(*args)

    for name, value in (("_mono_lcm", counted), ("_chained", in_chain),
                        ("heappop", popped), ("_reduce", dividing)):
        monkeypatch.setattr(polysolve, name, value)
    result = buchberger(bialgebra_extension_system(mu1_algebra(2, 3)), order="lex")
    assert result.pairs_processed == 5
    assert selecting == [] and len(calls) < 179


# --- the affine generators decide first ----------------------------------------------

# the 196 twist bindings of tests/solver_records.json
EXTENSION_VALUES = [sign * Fraction(v) for v in ("1/3", "1/2", "2/3", 1, "3/2", 2, 3)
                    for sign in (1, -1)]


def _extension_cases() -> list:
    """(algebra, strict) for the 784 dim-2 extension systems: mu1 and mu2 at
    each binding, weak and strict."""
    return [(build(a1, a2), strict) for build in (mu1_algebra, mu2_algebra)
            for a1 in EXTENSION_VALUES for a2 in EXTENSION_VALUES for strict in (False, True)]


def test_the_integer_alpha_part_equals_alpha_defects_witnesses():
    """The strict generators built on integers are the witnesses of
    ``alpha_defects`` on the bialgebra with polynomial entries, in order."""
    for algebra, strict in _extension_cases():
        weak = homalg.polysolve._weak_generators(algebra.mul, algebra.unit)
        want = weak
        if strict:
            defects = alpha_defects(homalg.polysolve._extension_bialgebra(algebra))
            want = tuple(dict.fromkeys(weak + tuple(w.value for w in defects.witnesses)))
        gens = bialgebra_extension_system(algebra, strict_alpha=strict)
        assert gens == want and [str(g) for g in gens] == [str(g) for g in want]


def test_the_search_keeps_every_status_and_point():
    """Through the search, with its affine presolve, each of the 784 systems
    gets the status and points of its lex solve alone: Buchberger, then
    back-substitution."""
    solved = {}
    for algebra, strict in _extension_cases():
        gens = bialgebra_extension_system(algebra, strict_alpha=strict)
        if gens not in solved:
            result = buchberger(gens, order="lex")
            if result.inconsistent:
                solved[gens] = ("inconsistent", False, set())
            elif not is_zero_dimensional(result.basis):
                solved[gens] = ("solutions", True, set())
            else:
                points = enumerate_rational_points(result.basis)
                solved[gens] = ("solutions", False, {tuple(pt.items()) for pt in points})
        verdict = search_bialgebra_extension(algebra, strict_alpha=strict)
        points = {tuple(pt.items()) for pt in verdict.points}
        assert (verdict.status, verdict.positive_dimensional, points) == solved[gens]


def test_presolved_certificates_are_constant_and_checked():
    """Every strict system but mu1's at (a1, a2) = (1, 1), (1, -1) and
    (-1, 1), which have points, is decided by its affine generators, and no
    weak one is: the certificate is constant, on affine generators only, and
    recombines to 1; with one cofactor's sign flipped it does not."""
    presolved = []
    for algebra, strict in _extension_cases():
        verdict = search_bialgebra_extension(algebra, strict_alpha=strict)
        if verdict.status != "inconsistent" or verdict.pairs_processed:
            continue
        presolved.append(strict)
        gens, cert = verdict.generators, verdict.certificate
        assert all(c.is_constant() for c in cert)
        assert all(g.total_degree() <= 1 for g, c in zip(gens, cert) if c)
        assert verify_certificate(gens, cert)
        for i, c in enumerate(cert):
            if c:
                assert not verify_certificate(gens, cert[:i] + (-c,) + cert[i + 1:])
    assert presolved == [True] * (392 - 3)


def test_mu1_at_minus_one_one_keeps_its_strict_point():
    """mu1's strict system at a1=-1, a2=1 has consistent affine generators,
    so the lex solve decides it and lists its one point."""
    verdict = search_bialgebra_extension(mu1_algebra(-1, 1), strict_alpha=True)
    assert verdict.status == "solutions" and not verdict.positive_dimensional
    assert verdict.points == ({"x11": 1, "x12": -1, "x21": -1, "x22": 2, "y": 1},)
    assert verdict.pairs_processed > 0


def test_the_row_check_agrees_with_evaluation_at_every_listed_point():
    """The search checks its points on each generator's integer terms
    (``_zeroes``).  At every point the 784 systems list, and at each of them
    with one coordinate moved by 1 either way or by 1/2 (the listed points
    are integral), the check agrees with ``Poly.evaluate`` generator by
    generator, and on the whole system."""
    zeroes = homalg.polysolve._zeroes
    listed, verdicts = 0, Counter()
    for algebra, strict in _extension_cases():
        gens = rows = bialgebra_extension_system(algebra, strict_alpha=strict)
        assert len(rows) == len(gens)
        for point in search_bialgebra_extension(algebra, strict_alpha=strict).points:
            listed += 1
            moved = [{**point, v: point[v] + d} for v in EXTENSION_VARIABLES
                     for d in (1, -1, Fraction(1, 2))]
            for pt in [point] + moved:
                values = [pt[v] for v in EXTENSION_VARIABLES]
                want = [g.evaluate(pt) == 0 for g in gens]
                assert [zeroes([row], values) for row in rows] == want
                assert zeroes(rows, values) is all(want)
                assert all(want) or pt is not point
                verdicts.update(want)
    # the 196 weak mu1 systems list four points each; the strict ones at (1, 1)
    # four, at (1, -1) and (-1, 1) one each
    assert listed == 196 * 4 + 4 + 1 + 1
    assert verdicts[True] > listed * len(EXTENSION_VARIABLES) and verdicts[False] > listed


def test_every_weak_generator_has_degree_two():
    """For every input the search accepts (dim 2, e1 a two-sided unit, so
    e2 * e2 = a e1 + b e2) the weak system has 9 generators, each of total
    degree exactly 2.  With Delta(e1) = e1 (x) e1 and eps(e1) = 1 forced,
    every weak defect at a basis pair holding e1 is 0, and so are
    unit-grouplike and counit-on-unit.  The comul-mult components at
    (e2, e2) hold -x11^2 or -2 x11 x_kl, which no product through e2 * e2
    reaches; counit-mult holds -y^2; each counit-law component holds x_i2 y
    or x_2j y.  So the affine generators of a system are its alpha part.

    Correctness does not rest on this: a missed affine generator only sends
    a system on to the lex solve, whose certificate is checked.  But that
    the search finds the same certificates as a presolve that collected the
    affine generators from the whole system does rest on it."""
    grid = [Fraction(v) for v in (0, 1, -1, "1/2", "-2/3", "3/4", 3)]
    cases = {(algebra.mul, algebra.unit) for algebra, _ in _extension_cases()}
    cases |= {(MulTensor([[[1, 0], [0, 1]], [[0, 1], [a, b]]]), Vector([1, 0]))
              for a in grid for b in grid}
    for mul, unit in cases:
        weak = homalg.polysolve._weak_generators(mul, unit)
        assert [g.total_degree() for g in weak] == [2] * 9, mul


def test_points_with_fractional_coordinates():
    """e2 * e2 = 3/4 e1 + e2 with the identity twist: the weak and the strict
    search each list four points with fractional coordinates, and every
    generator vanishes at each.  At each point, and at each with one
    coordinate moved by 1 either way or by 1/2, ``_zeroes`` agrees with
    ``Poly.evaluate`` generator by generator."""
    mul = MulTensor([[[1, 0], [0, 1]], [[0, 1], [Fraction(3, 4), 1]]])
    algebra = HomAlgebra(mul, LinearMap.identity(2), Vector([1, 0]))
    want = tuple(dict(zip(EXTENSION_VARIABLES, map(Fraction, point))) for point in (
        ("-3/8", "1/4", "1/4", "1/2", "3/2"),
        ("1/4", "1/2", "1/2", "-1", "-1/2"),
        ("3/8", "3/4", "3/4", "-1/2", "-1/2"),
        ("3/4", "-1/2", "-1/2", "1", "3/2"),
    ))
    verdicts = Counter()
    for strict in (False, True):
        verdict = search_bialgebra_extension(algebra, strict_alpha=strict)
        assert verdict.status == "solutions" and verdict.points == want
        gens = verdict.generators
        for point in verdict.points:
            assert all(g.evaluate(point) == 0 for g in gens)
            moved = [{**point, v: point[v] + d} for v in EXTENSION_VARIABLES
                     for d in (1, -1, Fraction(1, 2))]
            for pt in [point] + moved:
                values = [pt[v] for v in EXTENSION_VARIABLES]
                want_zero = [g.evaluate(pt) == 0 for g in gens]
                assert [homalg.polysolve._zeroes([g], values) for g in gens] == want_zero
                verdicts.update(want_zero)
    assert verdicts[True] and verdicts[False]


# --- buchberger properties on random systems -----------------------------------------

def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _remainder(f, basis, order):
    """Plain multivariate division by the basis, on Poly arithmetic."""
    rem = Poly.zero(f.variables)
    while f:
        lm = f.leading_monomial(order)
        for g in basis:
            glm = g.leading_monomial(order)
            if _divides(glm, lm):
                shift = tuple(x - y for x, y in zip(lm, glm))
                f = f - g.scale(Fraction(f.terms[lm], g.terms[glm]), shift)
                break
        else:
            head = Poly(f.variables, {lm: f.terms[lm]})
            rem, f = rem + head, f - head
    return rem


def _s_polynomial(f, g, order):
    fl, gl = f.leading_monomial(order), g.leading_monomial(order)
    lcm = tuple(max(x, y) for x, y in zip(fl, gl))
    return (f.scale(Fraction(1, f.terms[fl]), tuple(x - y for x, y in zip(lcm, fl)))
            - g.scale(Fraction(1, g.terms[gl]), tuple(x - y for x, y in zip(lcm, gl))))


def _random_system(rng):
    variables = ("x", "y", "z")[:rng.choice((2, 3))]
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {tuple(rng.randint(0, 2) for _ in variables):
                 Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                 for _ in range(rng.randint(1, 4))}
        gens.append(Poly(variables, terms))
    return gens


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_buchberger_returns_reduced_groebner_basis_with_cofactors(order):
    rng = random.Random(20261018)
    solved = 0
    for _ in range(40):
        gens = _random_system(rng)
        if all(g.is_zero() for g in gens):
            continue
        result = buchberger(gens, order=order, degree_cap=5, pair_cap=300)
        if result.status == "capped":
            continue
        solved += 1
        basis = result.basis
        lms = [p.leading_monomial(order) for p in basis]
        for k, p in enumerate(basis):
            assert p.leading_coefficient(order) == 1
            # reduced: no term of p lies in the leading ideal of the others
            assert not any(_divides(lms[i], m) for m in p.terms
                           for i in range(len(basis)) if i != k)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert _remainder(_s_polynomial(basis[i], basis[j], order), basis, order) \
                    .is_zero()
        # the basis spans the generators, and the cofactors recombine to it
        for g in gens:
            assert _remainder(g, basis, order).is_zero()
        for p, row in zip(basis, result.cofactors):
            acc = Poly.zero(p.variables)
            for g, c in zip(gens, row):
                acc = acc + g * c
            assert acc == p
    assert solved >= 30


# --- buchberger against a criterion-free textbook Buchberger -------------------------

def _reference_basis(gens, order):
    """The reduced Groebner basis by textbook Buchberger: every pair of the
    growing basis is reduced, with no criterion, lowest lcm degree first, on
    plain Poly arithmetic.  The systems below stay within 220 pairs and
    degree 8; the budget keeps a wrong answer from the solver under test
    from sending the reference on a search that the solver's caps stop."""
    basis = [Poly(g.variables, {m: Fraction(c) for m, c in g.terms.items()})
             for g in gens if g]
    lms = [p.leading_monomial(order) for p in basis]
    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    for _ in range(1000):
        if not pairs:
            break
        i, j = min(pairs, key=lambda p: sum(map(max, lms[p[0]], lms[p[1]])))
        pairs.remove((i, j))
        rem = _remainder(_s_polynomial(basis[i], basis[j], order), basis, order)
        if rem:
            assert rem.total_degree() <= 12, "the reference Buchberger passed degree 12"
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append(rem)
            lms.append(rem.leading_monomial(order))
    assert not pairs, "the reference Buchberger ran past 1,000 pairs"
    minimal = [p for i, p in enumerate(basis)
               if not any(_divides(lms[k], lms[i]) and (lms[k] != lms[i] or k < i)
                          for k in range(len(basis)) if k != i)]
    reduced = [_remainder(p, minimal[:i] + minimal[i + 1:], order)
               for i, p in enumerate(minimal)]
    return {p.scale(Fraction(1, p.leading_coefficient(order))) for p in reduced}


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_buchberger_matches_reference_on_random_systems(order):
    rng = random.Random(20261018)
    solved = 0
    for _ in range(40):
        gens = _random_system(rng)
        if all(g.is_zero() for g in gens):
            continue
        result = buchberger(gens, order=order, degree_cap=5, pair_cap=300)
        if result.status == "capped":
            continue
        solved += 1
        expected = _reference_basis(gens, order)
        assert set(result.basis) == expected, [str(g) for g in gens]
        reverse = buchberger(gens[::-1], order=order, degree_cap=5, pair_cap=300)
        assert reverse.status == "capped" or set(reverse.basis) == expected
        if result.inconsistent:
            assert verify_certificate(gens, result.certificate())
    assert solved >= 30


EXTENSION_BINDINGS = [(Fraction(a), Fraction(b)) for a, b in [
    (1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (-1, 1), (1, -1), (-1, -1), (-2, 3), (3, -2),
    ("1/2", 2), (2, "1/2"), ("1/3", "2/3"), ("-3/2", 1), (1, "-3/2"), ("2/3", "2/3"),
    ("-1/2", "-1/3"), (3, 3), ("-2/3", 2), ("3/2", "-1/2"),
]]


@pytest.mark.parametrize("name", ["mu1", "mu2"])
@pytest.mark.parametrize("strict", [False, True])
def test_extension_bases_match_reference_and_certificates_verify(name, strict):
    build = mu1_algebra if name == "mu1" else mu2_algebra
    for a1, a2 in EXTENSION_BINDINGS:
        algebra = build(a1, a2)
        gens = bialgebra_extension_system(algebra, strict_alpha=strict)
        result = buchberger(gens, order="lex")
        assert result.status == "ok"
        assert set(result.basis) == _reference_basis(gens, "lex"), (a1, a2)
        verdict = search_bialgebra_extension(algebra, strict_alpha=strict)
        assert verdict.status == ("inconsistent" if result.inconsistent else "solutions")
        if verdict.status == "inconsistent":
            assert verify_certificate(gens, verdict.certificate)


# --- the integer kernel: fraction-free division over one denominator ----------------

@pytest.mark.parametrize("name", ["cyclic-4", "katsura-3"])
@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_standard_systems_match_reference_and_cofactors_recombine(name, order):
    gens = standard_systems()[name]
    # both lex bases reach degree 8
    result = buchberger(gens, order=order, degree_cap=8)
    assert result.status == "ok"
    assert set(result.basis) == _reference_basis(gens, order)
    for p, row in zip(result.basis, result.cofactors):
        acc = Poly.zero(p.variables)
        for g, c in zip(gens, row):
            acc = acc + g * c
        assert acc == p


@pytest.fixture
def kernel(monkeypatch):
    """Records every ``_reduce`` call, as (terms, basis, result), and every
    basis entry that ``buchberger`` builds while the fixture is active."""
    calls, entries = [], []
    reduce = homalg.polysolve._reduce

    def recording_reduce(terms, basis, key):
        result = reduce(terms, basis, key)
        calls.append((dict(terms), list(basis), result))
        return result

    class Recording(homalg.polysolve._Tracked):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            entries.append(self)

    monkeypatch.setattr(homalg.polysolve, "_reduce", recording_reduce)
    monkeypatch.setattr(homalg.polysolve, "_Tracked", Recording)
    return calls, entries


def _assert_kernel_invariants(gens, order, calls, entries):
    """Division: remainder = s * terms + sum_k q_k * basis_k with an integer
    s > 0.  Entries: primitive integer polynomials with a positive leading
    coefficient, and den * poly = sum_i cof_i * g_i over the generators
    themselves, with gcd(den, cofactor coefficients) = 1."""
    assert calls and entries
    variables = gens[0].variables
    for terms, basis, (rem, quotients, s) in calls:
        assert type(s) is int and s > 0
        assert all(type(c) is int for q in (rem, *quotients.values()) for c in q.values())
        acc = Poly(variables, terms).scale(s)
        for k, q in quotients.items():
            acc = acc + Poly(variables, q) * basis[k].poly
        assert acc == Poly(variables, rem)
    for t in entries:
        coeffs = list(t.poly.terms.values())
        assert all(type(c) is int for c in coeffs) and gcd(*coeffs) == 1
        assert t.lm == t.poly.leading_monomial(order) and t.lc == t.poly.terms[t.lm] > 0
        assert type(t.den) is int and t.den > 0
        assert gcd(t.den, *(c for row in t.cofactors.values() for c in row.terms.values())) == 1
        acc = Poly.zero(variables)
        for i, row in t.cofactors.items():
            assert row and all(type(c) is int for c in row.terms.values())
            acc = acc + row * gens[i]
        assert acc == t.poly.scale(t.den)
    calls.clear()
    entries.clear()


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_kernel_invariants_on_random_systems(order, kernel):
    rng = random.Random(20261018)
    checked = 0
    for _ in range(40):
        gens = _random_system(rng)
        if all(g.is_zero() for g in gens):
            continue
        buchberger(gens, order=order, degree_cap=5, pair_cap=300)
        _assert_kernel_invariants(gens, order, *kernel)
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("name", ["mu1", "mu2"])
@pytest.mark.parametrize("strict", [False, True])
def test_kernel_invariants_on_extension_systems(name, strict, kernel):
    build = mu1_algebra if name == "mu1" else mu2_algebra
    for a1, a2 in EXTENSION_BINDINGS:
        gens = bialgebra_extension_system(build(a1, a2), strict_alpha=strict)
        buchberger(gens, order="lex")
        _assert_kernel_invariants(gens, "lex", *kernel)


@pytest.mark.parametrize("name", ["cyclic-4", "katsura-3"])
def test_kernel_invariants_on_standard_systems(name, kernel):
    gens = standard_systems()[name]
    for order in ("lex", "grevlex"):
        buchberger(gens, order=order, degree_cap=8)
        _assert_kernel_invariants(gens, order, *kernel)


def test_no_pair_is_reduced_after_the_first_unit(kernel):
    """Once a nonzero constant is in the basis, no S-pair is divided: every
    division runs by a basis without one (the unit, interreduced, divides by
    nothing), an "ok" run divides each selected pair and then each reduced
    entry once, and no entry is built after the unit but the generators
    that follow it."""
    calls, entries = kernel
    systems = [("extension", bialgebra_extension_system(build(a1, a2), strict_alpha=strict),
                "lex", {})
               for build in (mu1_algebra, mu2_algebra) for strict in (False, True)
               for a1, a2 in EXTENSION_BINDINGS]
    for order in ("lex", "grevlex"):
        rng = random.Random(20261018)
        systems += [("random", gens, order, {"degree_cap": 5, "pair_cap": 300})
                    for gens in (_random_system(rng) for _ in range(40)) if any(gens)]
    inconsistent = {"extension": 0, "random": 0}
    for kind, gens, order, caps in systems:
        result = buchberger(gens, order=order, **caps)
        assert not any(t.poly.is_constant() for _, basis, _ in calls for t in basis)
        if result.status == "ok":
            assert len(calls) == result.pairs_processed + len(result.basis)
        if result.inconsistent:
            inconsistent[kind] += 1
            first = next(k for k, t in enumerate(entries) if t.poly.is_constant())
            assert len(entries) == max(first + 1, sum(1 for g in gens if g))
        calls.clear()
        entries.clear()
    assert len(systems) == 160 and inconsistent == {"extension": 57, "random": 7}


@pytest.mark.parametrize("system", ["mu1-strict", "mu2-strict", "constant-generator"])
def test_no_leading_monomial_is_compared_once_a_constant_exists(system, kernel, monkeypatch):
    """A reduced basis holding a nonzero constant is {1}, so the run returns
    it where the constant entry is built: no ``_mono_divides`` call follows,
    in division, pair selection or minimalization."""
    if system == "constant-generator":
        x = Poly.var(X, "x")
        gens, order = [x * x - 1, x - 1, Poly.const(X, 2)], "grevlex"
    else:
        build = mu1_algebra if system == "mu1-strict" else mu2_algebra
        gens, order = bialgebra_extension_system(build(2, 3), strict_alpha=True), "lex"
    _, entries = kernel
    after = []
    divides = homalg.polysolve._mono_divides

    def counted(a, b):
        if any(not any(t.lm) for t in entries):
            after.append((a, b))
        return divides(a, b)

    monkeypatch.setattr(homalg.polysolve, "_mono_divides", counted)
    result = buchberger(gens, order=order)
    assert result.inconsistent and any(not any(t.lm) for t in entries)
    assert len(after) == 0


# --- rational roots against divisor enumeration ---------------------------------------

def _divisor_roots(coeffs):
    """Every +-p/q with p | trailing and q | leading coefficient, tested
    exactly (small integer coefficients only)."""
    cs = [Fraction(c) for c in coeffs]
    while cs[-1] == 0:
        cs.pop()
    roots = set()
    if cs[0] == 0:
        roots.add(Fraction(0))
        while cs[0] == 0:
            cs.pop(0)
    if len(cs) == 1:
        return sorted(roots)
    scale = 1
    for c in cs:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ints = [int(c * scale) for c in cs]

    def divisors(n):
        return [d for d in range(1, abs(n) + 1) if n % d == 0]

    for p in divisors(ints[0]):
        for q in divisors(ints[-1]):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * cand ** i for i, c in enumerate(cs)) == 0:
                    roots.add(cand)
    return sorted(roots)


def test_rational_roots_matches_divisor_enumeration():
    rng = random.Random(4)
    for trial in range(300):
        if trial % 2:
            coeffs = [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3)))
                      for _ in range(rng.randint(2, 6))]
            if not any(coeffs[1:]):
                continue
        else:
            # products of rational linear factors, repeats and zero roots included
            coeffs = [Fraction(rng.choice((1, 2, 3, -2)))]
            for _ in range(rng.randint(1, 4)):
                p, q = rng.randint(-4, 4), rng.randint(1, 3)
                coeffs = [Fraction(0)] + coeffs    # times q*x
                coeffs = [q * a - p * b for a, b in zip(coeffs, coeffs[1:] + [0])]
        assert rational_roots(coeffs) == _divisor_roots(coeffs), coeffs


def test_rational_roots_with_huge_coefficients():
    big = 10 ** 30
    # x^2 - 10^30 and (10^30 x - 1)(x + 7): divisor enumeration would need
    # about 10^15 trial divisions
    assert rational_roots([-big, 0, 1]) == [Fraction(-10 ** 15), Fraction(10 ** 15)]
    assert rational_roots([-7, 7 * big - 1, big]) == [Fraction(-7), Fraction(1, big)]
    assert rational_roots([big + 1, 0, 1]) == []


def test_rational_roots_multiple_roots():
    # (x - 1)^3 (x - 2) and (x + 6)^2 (x^2 + x - 1): Sturm counts on the
    # polynomial itself rather than its square-free part go wrong at the
    # multiple root
    assert rational_roots([2, -7, 9, -5, 1]) == [Fraction(1), Fraction(2)]
    assert rational_roots([-36, 24, 47, 13, 1]) == [Fraction(-6)]


# --- rational points level by level ---------------------------------------------------

def test_points_of_three_point_ideal_level_by_level():
    # the points (0,0), (1,0), (0,1); at y = 1 the x level has two
    # constraints, x*y -> x and x^2 - x, and only their common root 0 counts
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    gens = [x * x - x, x * y, y * y - y]
    basis = buchberger(gens, order="lex").basis
    assert [str(p) for p in basis] == ["y^2 - y", "x*y", "x^2 - x"]
    points = [{"x": Fraction(0), "y": Fraction(0)}, {"x": Fraction(1), "y": Fraction(0)},
              {"x": Fraction(0), "y": Fraction(1)}]
    assert enumerate_rational_points(basis) == points
    # the generators are the same basis in another order: at y = 1 the first
    # x constraint is x^2 - x, whose root 1 fails x
    assert enumerate_rational_points(gens) == points


def test_positive_dimensional_basis_is_not_zero_dimensional():
    x, y = Poly.var(XY, "x"), Poly.var(XY, "y")
    assert not is_zero_dimensional((x - y,), order="lex")
    with pytest.raises(ValueError, match="no univariate constraint for y"):
        enumerate_rational_points((x - y,))


@pytest.mark.parametrize("call, message", [
    # the reduced basis of the zero ideal is empty
    (lambda: is_zero_dimensional(buchberger([Poly.zero(X)]).basis), "empty basis"),
    (lambda: enumerate_rational_points(()), "empty basis"),
    (lambda: verify_certificate([], []), "no generators"),
], ids=["is_zero_dimensional", "enumerate_rational_points", "verify_certificate"])
def test_empty_input_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: Poly.var(XY, "x") + Poly.var(X, "x"), "polynomials over different variable lists"),
    (lambda: Poly.zero(XY).leading_monomial(), "zero polynomial has no leading monomial"),
    (lambda: Poly.var(XY, "y").evaluate({"x": 1}), r"point does not bind variables \['y'\]"),
    (lambda: (Poly.var(XY, "x") * Poly.var(XY, "y")).univariate_coefficients(0),
     "polynomial is not univariate in that variable"),
    # a negative index would read the last variable's exponents
    (lambda: Poly.const(XY, 5).univariate_coefficients(-1),
     r"index -1 out of range for the variables \('x', 'y'\)"),
    (lambda: Poly.const(XY, 5).univariate_coefficients(2),
     r"index 2 out of range for the variables \('x', 'y'\)"),
    (lambda: buchberger([Poly.var(X, "x")], order="deglex"), "unknown monomial order 'deglex'"),
    (lambda: buchberger([]), "no generators"),
    (lambda: buchberger([Poly.var(X, "x"), Poly.var(XY, "x")]),
     "generators over different variable lists"),
    (lambda: rational_roots([0, 0]), "zero polynomial"),
    # zip would stop at the shorter list, and both read as recombining to 1
    (lambda: verify_certificate([Poly.const(X, 1)], [Poly.const(X, 1), Poly.var(X, "x")]),
     "certificate has 2 cofactors for 1 generators"),
    (lambda: verify_certificate([Poly.const(X, 1), Poly.var(X, "x")], [Poly.const(X, 1)]),
     "certificate has 1 cofactors for 2 generators"),
    (lambda: verify_certificate([Poly.var(X, "x")], [Poly.var(XY, "x")]),
     "polynomials over different variable lists"),
], ids=["add", "leading-monomial", "evaluate", "univariate", "univariate-index-negative",
        "univariate-index-high", "order", "no-generators", "variable-lists", "roots", "certificate-long", "certificate-short",
        "certificate-variable-lists"])
def test_malformed_input_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_zero_polynomial_inconsistent_basis_and_consistent_certificate():
    assert str(Poly.zero(XY)) == "0"
    # the basis (1) has an empty variety, which counts as zero-dimensional
    assert is_zero_dimensional((Poly.const(XY, 1),))
    consistent = buchberger([Poly.var(XY, "x") - 1, Poly.var(XY, "y")])
    assert consistent.status == "ok" and not consistent.inconsistent
    assert consistent.certificate() is None


@pytest.fixture
def positive_dimensional(monkeypatch):
    """Every consistent extension system reads as positive-dimensional.  The
    lex-solve memo is emptied around the test, so no stubbed answer stays."""
    monkeypatch.setattr(homalg.polysolve, "is_zero_dimensional", lambda basis, order: False)
    homalg.polysolve._lex_solve.cache_clear()
    yield
    homalg.polysolve._lex_solve.cache_clear()


@pytest.mark.parametrize("strict", [False, True])
def test_positive_dimensional_extension_is_reported(positive_dimensional, strict):
    # no unital dim-2 algebra is known to leave a curve of solutions, so the
    # consistent mu1 system at a1 = a2 = 1 stands in for one
    verdict = search_bialgebra_extension(mu1_algebra(1, 1), strict_alpha=strict)
    assert verdict.status == "solutions" and verdict.positive_dimensional
    assert verdict.points == () and verdict.certificate is None and verdict.reason is None
    assert verdict.generators


@pytest.mark.parametrize("strict", [False, True])
def test_extension_search_requires_a_unital_algebra(strict):
    # e1 . e1 = e1 is the only product, so e1 is no unit for e2: the search
    # names the unital premise instead of solving a system that leaves a
    # curve of solutions
    algebra = HomAlgebra(MulTensor.from_entries(2, {(0, 0, 0): 1}), LinearMap.identity(2),
                         Vector.basis(2, 0))
    with pytest.raises(ValueError, match="^extension search requires a unital algebra: "
                                         "the unit e1 is not two-sided$"):
        search_bialgebra_extension(algebra, strict_alpha=strict)


def test_inconsistent_basis_has_no_points():
    assert enumerate_rational_points((Poly.const(XY, 1),)) == []


# --- integer coefficients stay ints ---------------------------------------------------

@pytest.mark.parametrize("system", [
    [{(1, 0): 2, (0, 0): -1}, {(1, 1): 3, (0, 0): -1}],
    # interreducing 3*y^2 - x by 2*x - 1 divides the int -1 by the int 2
    [{(1, 0): 2, (0, 0): -1}, {(0, 2): 3, (1, 0): -1}],
])
@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_int_coefficients_reduce_exactly(system, order):
    ints = [P(XY, terms) for terms in system]
    sevenths = [P(XY, {m: Fraction(c, 7) for m, c in terms.items()}) for terms in system]
    assert all(type(c) is int for g in ints for c in g.terms.values())
    assert all(type(c) is Fraction for g in sevenths for c in g.terms.values())
    result, expected = buchberger(ints, order=order), buchberger(sevenths, order=order)
    assert result.basis == expected.basis
    assert result.pairs_processed == expected.pairs_processed
    # each generator is a seventh of its int counterpart, so each cofactor is seven times
    assert expected.cofactors == tuple(tuple(7 * c for c in cofs) for cofs in result.cofactors)
    polys = [*result.basis, *(c for cofs in result.cofactors for c in cofs)]
    assert all(type(c) in (int, Fraction) for p in polys for c in p.terms.values())
    assert any(c.denominator > 1 for p in polys for c in p.terms.values())
