import random
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
    Poly,
    Vector,
    buchberger,
    check_bialgebra_weak,
    enumerate_rational_points,
    rational_roots,
    search_bialgebra_extension,
    verify_certificate,
)
from homalg.polysolve import (
    EXTENSION_VARIABLES,
    bialgebra_extension_system,
    is_zero_dimensional,
)

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


def test_certificate_failing_its_check_gives_inconclusive(monkeypatch):
    import homalg.polysolve

    monkeypatch.setattr(homalg.polysolve, "verify_certificate", lambda gens, cert: False)
    verdict = search_bialgebra_extension(mu2_algebra(1, 2))
    assert verdict.status == "inconclusive"
    assert verdict.certificate is None
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
# The pair counts pin the selection order (lowest lcm degree, newest first);
# a new strategy or pair criterion must re-pin them on purpose.
EXTENSION_PINS = {
    ("mu1", False): (45, ["y^2 - y", "x22^2 - 6*x22*y + 3*x22 + 2", "x22*y + x21 - 1",
                          "x22*y + x12 - 1", "-x22*y + x11 + y"]),
    ("mu1", True): (190, ["1"]),
    ("mu2", False): (66, ["1"]),
    ("mu2", True): (190, ["1"]),
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
    assert verdict.pairs_processed == pairs
    # pair_cap=1 stops at the second selected pair
    capped = buchberger(gens, order="lex", pair_cap=1)
    assert capped.status == "capped" and capped.pairs_processed == 2
    assert capped.cap == ("pair_cap", 2)


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
                f = f - g.scale(f.terms[lm] / g.terms[glm], shift)
                break
        else:
            head = Poly(f.variables, {lm: f.terms[lm]})
            rem, f = rem + head, f - head
    return rem


def _s_polynomial(f, g, order):
    fl, gl = f.leading_monomial(order), g.leading_monomial(order)
    lcm = tuple(max(x, y) for x, y in zip(fl, gl))
    return (f.scale(1 / f.terms[fl], tuple(x - y for x, y in zip(lcm, fl)))
            - g.scale(1 / g.terms[gl], tuple(x - y for x, y in zip(lcm, gl))))


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
