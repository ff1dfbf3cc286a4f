from fractions import Fraction

import pytest

from homalg import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    ComulTensor,
    LinearMap,
    Poly,
    Vector,
    buchberger,
    check_bialgebra_weak,
    enumerate_rational_points,
    rational_roots,
    search_bialgebra_extension,
    verify_certificate,
)
from homalg.polysolve import EXTENSION_VARIABLES, is_zero_dimensional

from conftest import mu1_algebra, mu2_algebra

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
