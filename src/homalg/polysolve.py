"""Small exact polynomial-system solver (Buchberger) with certificates.

Scope is desk-scale systems (a dozen variables, low degree): enough to
certify whether a 2-dimensional unital Hom-associative algebra extends to a
Hom-bialgebra.  The solver either

* returns a reduced Groebner basis (with cofactors expressing each basis
  element as a combination of the input generators),
* proves inconsistency — the basis contains a nonzero constant, and the
  tracked cofactors recombine to the constant 1 exactly, or
* gives up ("capped") when the degree or S-pair budget is exhausted; a cap
  never produces a wrong certificate.

Monomials are dense exponent tuples over a fixed variable list.  The
canonical order is graded reverse lexicographic; elimination runs use plain
lexicographic order, under which back-substitution plus univariate rational
root extraction enumerates the rational points of zero-dimensional ideals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Sequence

from .rational import ONE, ZERO, rat

Monomial = tuple[int, ...]


def grevlex_key(m: Monomial):
    return (sum(m), tuple(-e for e in reversed(m)))


def lex_key(m: Monomial):
    return m


ORDER_KEYS: dict[str, Callable[[Monomial], object]] = {
    "grevlex": grevlex_key,
    "lex": lex_key,
}


class Poly:
    """Multivariate polynomial with exact rational coefficients.

    ``terms`` maps dense exponent tuples to nonzero coefficients; the
    variable list is fixed per system and shared by all polynomials that
    interact.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Monomial, object] | None = None):
        self.variables: tuple[str, ...] = tuple(variables)
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            c = rat(coeff)
            if c != 0:
                if len(mono) != len(self.variables):
                    raise ValueError("monomial arity differs from variable count")
                clean[tuple(mono)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], value) -> "Poly":
        return cls(variables, {(0,) * len(variables): rat(value)})

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "Poly":
        idx = list(variables).index(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {mono: ONE})

    # -- ring operations ---------------------------------------------------
    # An int or Fraction operand acts as a constant polynomial, so polynomial
    # and rational entries can share one tensor.
    def _operand(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly.const(self.variables, other)
        if self.variables != other.variables:
            raise ValueError("polynomials over different variable lists")
        return other

    def __add__(self, other) -> "Poly":
        other = self._operand(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) + c
        return Poly(self.variables, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = self._operand(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) - c
        return Poly(self.variables, terms)

    def __rsub__(self, other) -> "Poly":
        return self._operand(other) - self

    def __neg__(self) -> "Poly":
        return Poly(self.variables, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        other = self._operand(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return Poly(self.variables, terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def scale(self, coeff, mono: Monomial | None = None) -> "Poly":
        c0 = rat(coeff)
        if c0 == 0:
            return Poly.zero(self.variables)
        shift = mono or (0,) * len(self.variables)
        return Poly(
            self.variables,
            {tuple(a + b for a, b in zip(m, shift)): c0 * c for m, c in self.terms.items()},
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.variables == other.variables \
            and self.terms == other.terms

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        return self.terms.get((0,) * len(self.variables), ZERO)

    def leading_monomial(self, order: str = "grevlex") -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=ORDER_KEYS[order])

    def leading_coefficient(self, order: str = "grevlex") -> Fraction:
        return self.terms[self.leading_monomial(order)]

    # -- evaluation --------------------------------------------------------
    def substitute(self, assignment: Mapping[str, object]) -> "Poly":
        """Partially evaluate; remaining variables keep their positions."""
        values = {self.variables.index(k): rat(v) for k, v in assignment.items()}
        terms: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            c = coeff
            new = list(mono)
            for idx, val in values.items():
                if mono[idx]:
                    c *= val ** mono[idx]
                    new[idx] = 0
            if c != 0:
                key = tuple(new)
                terms[key] = terms.get(key, ZERO) + c
        return Poly(self.variables, terms)

    def evaluate(self, point: Mapping[str, object]) -> Fraction:
        res = self.substitute(point)
        if not res.is_constant():
            missing = [v for i, v in enumerate(self.variables)
                       if any(m[i] for m in res.terms)]
            raise ValueError(f"point does not bind variables {missing}")
        return res.constant_value()

    def used_variable_indices(self) -> set[int]:
        return {i for m in self.terms for i, e in enumerate(m) if e}

    def univariate_coefficients(self, index: int) -> list[Fraction]:
        """Ascending coefficient list in variable `index`; requires the poly
        to involve no other variable."""
        if not self.used_variable_indices() <= {index}:
            raise ValueError("polynomial is not univariate in that variable")
        degree = max((m[index] for m in self.terms), default=0)
        coeffs = [ZERO] * (degree + 1)
        for m, c in self.terms.items():
            coeffs[m[index]] += c
        return coeffs

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=grevlex_key, reverse=True):
            coeff = self.terms[mono]
            factors = [
                f"{self.variables[i]}^{e}" if e > 1 else self.variables[i]
                for i, e in enumerate(mono) if e
            ]
            body = "*".join(factors)
            if body:
                prefix = "" if coeff == 1 else ("-" if coeff == -1 else f"{coeff}*")
                parts.append(f"{prefix}{body}")
            else:
                parts.append(str(coeff))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def _mono_coprime(a: Monomial, b: Monomial) -> bool:
    return all(x == 0 or y == 0 for x, y in zip(a, b))


@dataclass
class _Tracked:
    """A polynomial with cofactors over the original generator list."""

    poly: Poly
    cofactors: list[Poly]

    def combo(self, coeff: Fraction, mono: Monomial, other: "_Tracked") -> "_Tracked":
        """self - coeff * x^mono * other, cofactors updated in lockstep."""
        poly = self.poly - other.poly.scale(coeff, mono)
        cof = [a - b.scale(coeff, mono) for a, b in zip(self.cofactors, other.cofactors)]
        return _Tracked(poly, cof)

    def rescale(self, coeff: Fraction) -> "_Tracked":
        return _Tracked(self.poly.scale(coeff), [c.scale(coeff) for c in self.cofactors])


def _reduce(f: _Tracked, basis: Sequence[_Tracked], order: str) -> _Tracked:
    """Full multivariate division of f by the basis; returns the remainder
    (cofactors kept consistent: remainder = original combination)."""
    key = ORDER_KEYS[order]
    work = f
    remainder_terms: dict[Monomial, Fraction] = {}
    while not work.poly.is_zero():
        lm = work.poly.leading_monomial(order)
        lc = work.poly.terms[lm]
        for g in basis:
            glm = g.poly.leading_monomial(order)
            if _mono_divides(glm, lm):
                ratio = lc / g.poly.terms[glm]
                work = work.combo(ratio, _mono_div(lm, glm), g)
                break
        else:
            remainder_terms[lm] = lc
            head = Poly(work.poly.variables, {lm: lc})
            work = _Tracked(work.poly - head, work.cofactors)
    rem = Poly(f.poly.variables, remainder_terms)
    return _Tracked(rem, work.cofactors)


@dataclass(frozen=True)
class GroebnerResult:
    """status "ok" or "capped"; on "ok" the basis is reduced and each entry
    carries cofactors over the input generators."""

    status: str
    basis: tuple[Poly, ...]
    cofactors: tuple[tuple[Poly, ...], ...]
    order: str
    pairs_processed: int

    @property
    def inconsistent(self) -> bool:
        return self.status == "ok" and any(
            p.is_constant() and not p.is_zero() for p in self.basis
        )

    def certificate(self) -> tuple[Poly, ...] | None:
        """Cofactors c_i with sum c_i * gen_i = 1, when inconsistent."""
        for poly, cof in zip(self.basis, self.cofactors):
            if poly.is_constant() and not poly.is_zero():
                inv = ONE / poly.constant_value()
                return tuple(c.scale(inv) for c in cof)
        return None


def buchberger(
    generators: Sequence[Poly],
    order: str = "grevlex",
    degree_cap: int = 6,
    pair_cap: int = 10000,
) -> GroebnerResult:
    """Buchberger's algorithm with degree/pair caps and cofactor tracking."""
    if order not in ORDER_KEYS:
        raise ValueError(f"unknown monomial order {order!r}")
    gens = list(generators)
    if not gens:
        raise ValueError("no generators")
    variables = gens[0].variables
    if len(variables) > 12:
        raise ValueError("solver is desk-scale: at most 12 variables")
    for g in gens:
        if g.variables != variables:
            raise ValueError("generators over different variable lists")

    basis: list[_Tracked] = []
    for idx, g in enumerate(gens):
        cof = [Poly.const(variables, 1 if i == idx else 0) for i in range(len(gens))]
        if not g.is_zero():
            basis.append(_Tracked(g, cof))
    if not basis:
        return GroebnerResult("ok", (), (), order, 0)

    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    processed = 0
    while pairs:
        pairs.sort(
            key=lambda ij: sum(_mono_lcm(
                basis[ij[0]].poly.leading_monomial(order),
                basis[ij[1]].poly.leading_monomial(order))),
            reverse=True,
        )
        i, j = pairs.pop()
        processed += 1
        if processed > pair_cap:
            return GroebnerResult("capped", (), (), order, processed)
        fi, fj = basis[i], basis[j]
        lmi = fi.poly.leading_monomial(order)
        lmj = fj.poly.leading_monomial(order)
        if _mono_coprime(lmi, lmj):
            continue
        lcm = _mono_lcm(lmi, lmj)
        si = _Tracked(fi.poly.scale(ONE / fi.poly.terms[lmi], _mono_div(lcm, lmi)),
                      [c.scale(ONE / fi.poly.terms[lmi], _mono_div(lcm, lmi))
                       for c in fi.cofactors])
        sj = _Tracked(fj.poly.scale(ONE / fj.poly.terms[lmj], _mono_div(lcm, lmj)),
                      [c.scale(ONE / fj.poly.terms[lmj], _mono_div(lcm, lmj))
                       for c in fj.cofactors])
        spair = _Tracked(si.poly - sj.poly,
                         [a - b for a, b in zip(si.cofactors, sj.cofactors)])
        rem = _reduce(spair, basis, order)
        if rem.poly.is_zero():
            continue
        if rem.poly.total_degree() > degree_cap:
            return GroebnerResult("capped", (), (), order, processed)
        basis.append(rem)
        new_idx = len(basis) - 1
        pairs.extend((t, new_idx) for t in range(new_idx))

    # minimalize: drop entries whose leading monomial another one divides
    keep: list[_Tracked] = []
    lms = [t.poly.leading_monomial(order) for t in basis]
    for i, t in enumerate(basis):
        lm = lms[i]
        redundant = any(
            k != i and _mono_divides(lms[k], lm) and (lms[k] != lm or k < i)
            for k in range(len(basis))
        )
        if not redundant:
            keep.append(t)

    # interreduce tails and normalize to monic
    reduced: list[_Tracked] = []
    for i, t in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        rem = _reduce(t, others, order) if others else t
        if rem.poly.is_zero():
            continue
        rem = rem.rescale(ONE / rem.poly.leading_coefficient(order))
        reduced.append(rem)
    reduced.sort(key=lambda t: ORDER_KEYS[order](t.poly.leading_monomial(order)))

    return GroebnerResult(
        "ok",
        tuple(t.poly for t in reduced),
        tuple(tuple(t.cofactors) for t in reduced),
        order,
        processed,
    )


def verify_certificate(generators: Sequence[Poly], certificate: Sequence[Poly]) -> bool:
    """The inconsistency certificate must recombine to the constant 1 exactly."""
    variables = generators[0].variables
    acc = Poly.zero(variables)
    for g, c in zip(generators, certificate):
        acc = acc + g * c
    return acc == Poly.const(variables, 1)


# ---------------------------------------------------------------------------
# rational points of zero-dimensional ideals (lex order)


def _integer_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial, ascending
    coefficients."""
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    roots = []
    if cs[0] == 0:
        roots.append(ZERO)
        while cs and cs[0] == 0:
            cs.pop(0)
    if len(cs) <= 1:
        return sorted(set(roots))
    denom_lcm = 1
    for c in cs:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in cs]
    content = 0
    for v in ints:
        content = gcd(content, abs(v))
    ints = [v // content for v in ints]
    lead, trail = ints[-1], ints[0]
    for p in _integer_divisors(trail):
        for q in _integer_divisors(lead):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                acc = ZERO
                for c in reversed(ints):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return sorted(set(roots))


def is_zero_dimensional(basis: Sequence[Poly], order: str = "lex") -> bool:
    """Every variable must head some basis element as a pure power."""
    if any(p.is_constant() and not p.is_zero() for p in basis):
        return True  # inconsistent: empty variety counts as zero-dimensional
    variables = basis[0].variables
    for idx in range(len(variables)):
        found = False
        for p in basis:
            lm = p.leading_monomial(order)
            if lm[idx] > 0 and all(e == 0 for i, e in enumerate(lm) if i != idx):
                found = True
                break
        if not found:
            return False
    return True


def enumerate_rational_points(
    basis: Sequence[Poly],
) -> list[dict[str, Fraction]]:
    """Back-substitution through a lex Groebner basis of a zero-dimensional
    ideal; returns every rational point, verified against the basis."""
    variables = basis[0].variables
    partial_points: list[dict[str, Fraction]] = [{}]
    for idx in range(len(variables) - 1, -1, -1):
        name = variables[idx]
        next_points: list[dict[str, Fraction]] = []
        for pt in partial_points:
            constraints: list[list[Fraction]] = []
            dead = False
            for p in basis:
                sub = p.substitute(pt)
                used = sub.used_variable_indices()
                if not used:
                    if sub.constant_value() != 0:
                        dead = True
                        break
                    continue
                if used == {idx}:
                    constraints.append(sub.univariate_coefficients(idx))
            if dead:
                continue
            if not constraints:
                # no univariate pin at this level: not zero-dimensional
                raise ValueError(f"no univariate constraint for {name}")
            g = constraints[0]
            for other in constraints[1:]:
                g = _poly_gcd(g, other)
            if len(g) <= 1 and g and g[0] != 0:
                continue  # units only: no common root on this branch
            for root in rational_roots(g):
                ext = dict(pt)
                ext[name] = root
                next_points.append(ext)
        partial_points = next_points
    return [
        pt for pt in partial_points
        if all(p.evaluate(pt) == 0 for p in basis)
    ]


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of univariate coefficient lists (Euclid)."""

    def strip(c: list[Fraction]) -> list[Fraction]:
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    def mod(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
        num = list(num)
        while len(num) >= len(den) and strip(num):
            factor = num[-1] / den[-1]
            shift = len(num) - len(den)
            for i, dv in enumerate(den):
                num[shift + i] -= factor * dv
            num = strip(num)
            if not num:
                break
        return num

    a, b = strip(a), strip(b)
    while b:
        a, b = b, mod(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


# ---------------------------------------------------------------------------
# bialgebra extension search


@dataclass(frozen=True)
class SystemVerdict:
    """Outcome of a polynomial-system solve.

    status: "solutions" (rational points listed, or positive_dimensional
    when the set is infinite), "inconsistent" (certificate recombines to 1),
    or "inconclusive" (caps exhausted; reason says which).
    """

    status: str
    generators: tuple[Poly, ...]
    points: tuple[dict[str, Fraction], ...] = ()
    positive_dimensional: bool = False
    certificate: tuple[Poly, ...] | None = None
    reason: str | None = None


EXTENSION_VARIABLES = ("x11", "x12", "x21", "x22", "y")


def bialgebra_extension_system(algebra, strict_alpha: bool = False) -> tuple[Poly, ...]:
    """Polynomial conditions for a dim-2 unital Hom-associative algebra to
    carry a weak-compatible counital comultiplication.

    Unknowns: Delta(e2) = sum x_ij e_i (x) e_j and eps(e2) = y; Delta(e1) =
    e1 (x) e1 and eps(e1) = 1 are forced.  The generators are the checkers'
    own defect entries on the bialgebra with those polynomial entries: the
    weak-compatibility witnesses, then the two-sided counit law per basis
    vector and component, then, with ``strict_alpha``, the alpha
    compatibilities of the strict reading (using the algebra's own twist).
    Repeats are dropped; the first occurrence keeps its place.
    """
    # imported here because tensors imports this module for Poly
    from .bialgebra import HomBialgebra, alpha_witnesses, weak_witnesses
    from .coalgebra import HomCoalgebra, counit_defects
    from .tensors import ComulTensor, LinearMap, Vector

    if algebra.dim != 2:
        raise ValueError("extension search is specified for dimension 2")
    if algebra.unit is None or algebra.unit != Vector.basis(2, 0):
        raise ValueError("extension search requires the unit to be e1")
    V = EXTENSION_VARIABLES
    one, zero = Poly.const(V, 1), Poly.zero(V)
    delta = ComulTensor([
        [[one, zero], [zero, zero]],
        [[Poly.var(V, f"x{i}{j}") for j in (1, 2)] for i in (1, 2)],
    ])
    eps = Vector([one, Poly.var(V, "y")])
    bialgebra = HomBialgebra(algebra, HomCoalgebra(delta, LinearMap.identity(2), eps))

    values = [w.value for w in weak_witnesses(bialgebra)]
    right, left = counit_defects(bialgebra.coalgebra)
    values += [m.entry(i, k) for k in range(2) for i in range(2) for m in (right, left)]
    if strict_alpha:
        values += [w.value for w in alpha_witnesses(bialgebra)]
    return tuple(dict.fromkeys(v for v in values if v))


def search_bialgebra_extension(
    algebra,
    degree_cap: int = 6,
    pair_cap: int = 10000,
    strict_alpha: bool = False,
) -> SystemVerdict:
    """Certify existence or nonexistence of a weak Hom-bialgebra structure
    over a dim-2 unital Hom-associative algebra."""
    gens = bialgebra_extension_system(algebra, strict_alpha=strict_alpha)
    result = buchberger(gens, order="lex", degree_cap=degree_cap, pair_cap=pair_cap)
    if result.status == "capped":
        return SystemVerdict(
            status="inconclusive",
            generators=gens,
            reason=f"solver capped (degree_cap={degree_cap}, pair_cap={pair_cap})",
        )
    if result.inconsistent:
        cert = result.certificate()
        assert cert is not None and verify_certificate(gens, cert)
        return SystemVerdict(status="inconsistent", generators=gens, certificate=cert)
    if not is_zero_dimensional(result.basis, order="lex"):
        return SystemVerdict(
            status="solutions", generators=gens, positive_dimensional=True
        )
    points = enumerate_rational_points(result.basis)
    points = [pt for pt in points if all(g.evaluate(pt) == 0 for g in gens)]
    points.sort(key=lambda pt: tuple(pt[v] for v in EXTENSION_VARIABLES))
    return SystemVerdict(
        status="solutions", generators=gens, points=tuple(points)
    )
