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
from heapq import heappop, heappush
from itertools import combinations, count
from math import gcd, lcm
from operator import add, le, sub
from typing import Callable, Mapping, Sequence

from .rational import ONE, ZERO, rat

Monomial = tuple[int, ...]
Terms = dict[Monomial, Fraction]


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
    def _raw(cls, variables: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "Poly":
        """Wrap terms that this module's arithmetic produced: Fraction
        coefficients on monomials of the right arity.  Zero coefficients are
        dropped; nothing else is checked or converted."""
        poly = cls.__new__(cls)
        poly.variables = variables
        poly.terms = {m: c for m, c in terms.items() if c}
        return poly

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
        return Poly._raw(self.variables, terms)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = self._operand(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = terms.get(m, ZERO) - c
        return Poly._raw(self.variables, terms)

    def __rsub__(self, other) -> "Poly":
        return self._operand(other) - self

    def __neg__(self) -> "Poly":
        return Poly._raw(self.variables, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        other = self._operand(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                terms[m] = terms.get(m, ZERO) + c1 * c2
        return Poly._raw(self.variables, terms)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.terms)

    def scale(self, coeff, mono: Monomial | None = None) -> "Poly":
        c0 = rat(coeff)
        if c0 == 0:
            return Poly.zero(self.variables)
        if mono:
            terms = {_mono_mul(m, mono): c0 * c for m, c in self.terms.items()}
        else:
            terms = {m: c0 * c for m, c in self.terms.items()}
        return Poly._raw(self.variables, terms)

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


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mono_coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(min, a, b))


class _Tracked:
    """A nonzero polynomial with cofactors over the original generator list.

    Its leading monomial ``lm`` and coefficient ``lc`` under the run's order
    are computed once: entries are never changed after they are built.
    """

    __slots__ = ("poly", "cofactors", "lm", "lc")

    def __init__(self, poly: Poly, cofactors: list[Poly], order: str):
        self.poly = poly
        self.cofactors = cofactors
        self.lm = poly.leading_monomial(order)
        self.lc = poly.terms[self.lm]


def _reduce(
    terms: Mapping[Monomial, Fraction],
    basis: Sequence[_Tracked],
    key: Callable[[Monomial], object],
) -> tuple[Terms, dict[int, Terms]]:
    """Full multivariate division of the polynomial with these terms by the
    basis; each step divides the leading term by the first basis element
    whose leading monomial divides it.

    Returns the remainder's terms and, per basis index used, the negated
    quotient: remainder = terms + sum_k quotients[k] * basis[k].
    """
    work = dict(terms)
    remainder: Terms = {}
    quotients: dict[int, Terms] = {}
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for k, g in enumerate(basis):
            if _mono_divides(g.lm, lm):
                shift = _mono_div(lm, g.lm)
                ratio = lc / g.lc
                # the leading monomial falls at every step, so shifts never repeat
                quotients.setdefault(k, {})[shift] = -ratio
                for m, c in g.poly.terms.items():
                    m = _mono_mul(m, shift)
                    v = work.get(m, ZERO) - ratio * c
                    if v:
                        work[m] = v
                    else:
                        del work[m]
                break
        else:
            remainder[lm] = work.pop(lm)
    return remainder, quotients


def _cofactors(
    combination: Sequence[tuple[Terms, _Tracked]], variables: tuple[str, ...], ngens: int
) -> list[Poly]:
    """Cofactors over the generators of sum_t multiplier * t, for the
    (multiplier terms, t) pairs of the combination."""
    pairs = [(Poly._raw(variables, mult), t) for mult, t in combination]
    return [sum((m * t.cofactors[idx] for m, t in pairs), Poly.zero(variables))
            for idx in range(ngens)]


@dataclass(frozen=True)
class GroebnerResult:
    """status "ok" or "capped"; on "ok" the basis is reduced and each entry
    carries cofactors over the input generators.  On "capped", ``cap`` names
    the cap that tripped and the value reached: ("pair_cap", pairs
    processed) or ("degree_cap", degree of the remainder that exceeded it)."""

    status: str
    basis: tuple[Poly, ...]
    cofactors: tuple[tuple[Poly, ...], ...]
    order: str
    pairs_processed: int
    cap: tuple[str, int] | None = None

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
    """Buchberger's algorithm with degree/pair caps and cofactor tracking.

    Pairs are selected by the normal strategy: the pending pair whose
    leading monomials have the lcm of lowest total degree comes next, and
    among pairs of equal degree the one queued most recently.  Every
    selected pair counts toward ``pair_cap``, including pairs skipped by
    the coprime-leading-monomial criterion.
    """
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
    key = ORDER_KEYS[order]
    ngens = len(gens)

    basis: list[_Tracked] = []
    for idx, g in enumerate(gens):
        cof = [Poly.const(variables, 1 if i == idx else 0) for i in range(ngens)]
        if not g.is_zero():
            basis.append(_Tracked(g, cof, order))
    if not basis:
        return GroebnerResult("ok", (), (), order, 0)

    # (lcm degree, -queue position, i, j): a pair's key never goes stale,
    # since basis entries never change
    queue: list[tuple[int, int, int, int]] = []
    tick = count()

    def push(i: int, j: int) -> None:
        degree = sum(_mono_lcm(basis[i].lm, basis[j].lm))
        heappush(queue, (degree, -next(tick), i, j))

    for i, j in combinations(range(len(basis)), 2):
        push(i, j)
    processed = 0
    while queue:
        _, _, i, j = heappop(queue)
        processed += 1
        if processed > pair_cap:
            return GroebnerResult("capped", (), (), order, processed, ("pair_cap", processed))
        fi, fj = basis[i], basis[j]
        if _mono_coprime(fi.lm, fj.lm):
            continue
        lcm = _mono_lcm(fi.lm, fj.lm)
        # the S-polynomial is si * fi + sj * fj
        si = {_mono_div(lcm, fi.lm): ONE / fi.lc}
        sj = {_mono_div(lcm, fj.lm): -ONE / fj.lc}
        spair = Poly._raw(variables, si) * fi.poly + Poly._raw(variables, sj) * fj.poly
        rem, quotients = _reduce(spair.terms, basis, key)
        if not rem:
            continue
        poly = Poly._raw(variables, rem)
        degree = poly.total_degree()
        if degree > degree_cap:
            return GroebnerResult("capped", (), (), order, processed, ("degree_cap", degree))
        combination = [(si, fi), (sj, fj)] + [(q, basis[k]) for k, q in quotients.items()]
        basis.append(_Tracked(poly, _cofactors(combination, variables, ngens), order))
        new_idx = len(basis) - 1
        for t in range(new_idx):
            push(t, new_idx)

    # minimalize: drop entries whose leading monomial another one divides
    lms = [t.lm for t in basis]
    keep = [
        t for i, t in enumerate(basis)
        if not any(
            k != i and _mono_divides(lms[k], lms[i]) and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        )
    ]

    # interreduce tails and normalize to monic
    one = (0,) * len(variables)
    reduced: list[_Tracked] = []
    for i, t in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        rem, quotients = _reduce(t.poly.terms, others, key)
        if not rem:
            continue
        inv = ONE / rem[max(rem, key=key)]
        combination = [({one: inv}, t)] + [
            ({m: inv * c for m, c in q.items()}, others[k]) for k, q in quotients.items()
        ]
        poly = Poly._raw(variables, {m: inv * c for m, c in rem.items()})
        reduced.append(_Tracked(poly, _cofactors(combination, variables, ngens), order))
    reduced.sort(key=lambda t: key(t.lm))

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


def _strip(coeffs: Sequence[Fraction]) -> list[Fraction]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(
    num: Sequence[Fraction], den: Sequence[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of ascending coefficient lists; ``den`` is
    stripped and nonzero."""
    num = _strip(num)
    quot = [ZERO] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        factor = num[-1] / den[-1]
        shift = len(num) - len(den)
        quot[shift] = factor
        for i, dv in enumerate(den):
            num[shift + i] -= factor * dv
        num = _strip(num)
    return quot, num


def _clear_denominators(coeffs: Sequence[Fraction]) -> list[int]:
    """The coefficients times the lcm of their denominators."""
    scale = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (scale // c.denominator) for c in coeffs]


def _horner(coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sign_changes(sequence: Sequence[Sequence[int]], x: int) -> int:
    changes, prev = 0, 0
    for p in sequence:
        v = _horner(p, x)
        if v:
            if prev and (v > 0) != (prev > 0):
                changes += 1
            prev = v
    return changes


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of a nonzero univariate polynomial, ascending
    coefficients; returned ascending, without repeats.

    The cost is polynomial in the bit size of the coefficients.  With a the
    primitive integer multiple of the polynomial and d its degree,
    q(y) = a_d^(d-1) * p(y / a_d) is monic with integer coefficients, so the
    rational roots are y / a_d for the integer roots y of q.  Exact bisection
    on a Sturm sequence of the square-free part of q narrows its real roots
    to intervals (y - 1, y] with integer ends; only y is a candidate there,
    and it is tested exactly.
    """
    cs = _strip([rat(c) for c in coeffs])
    if not cs:
        raise ValueError("zero polynomial")
    roots = []
    if cs[0] == 0:
        roots.append(ZERO)
        while cs[0] == 0:
            cs.pop(0)
    if len(cs) == 2:
        roots.append(-cs[0] / cs[1])
    if len(cs) <= 2:
        return sorted(roots)
    a = _clear_denominators(cs)
    content = gcd(*a)
    a = [c // content for c in a]
    d = len(a) - 1
    q = [c * a[-1] ** (d - 1 - i) for i, c in enumerate(a[:-1])] + [1]

    # signed remainder sequence of q and q'; its last entry is gcd(q, q'), and
    # dividing that out leaves a Sturm sequence of the square-free part of q
    sturm = [list(map(Fraction, q)), [Fraction(i * c) for i, c in enumerate(q)][1:]]
    while rem := _poly_divmod(sturm[-2], sturm[-1])[1]:
        sturm.append([-c for c in rem])
    if len(sturm[-1]) > 1:
        sturm = [_poly_divmod(p, sturm[-1])[0] for p in sturm]
    sturm = [_clear_denominators(p) for p in sturm]

    # every root of the monic q lies strictly inside (-bound, bound) (Cauchy);
    # sign changes at lo minus those at hi count the distinct roots in (lo, hi]
    bound = 1 + max(map(abs, q[:-1]))
    pending = [(-bound, bound, _sign_changes(sturm, -bound), _sign_changes(sturm, bound))]
    while pending:
        lo, hi, v_lo, v_hi = pending.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _horner(sturm[0], hi) == 0:
                roots.append(Fraction(hi, a[-1]))
            continue
        mid = (lo + hi) // 2
        v_mid = _sign_changes(sturm, mid)
        pending += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


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
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
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
    or "inconclusive" (caps exhausted, or a certificate that fails its
    check; reason says which).
    pairs_processed: the S-pairs Buchberger selected, capped runs included.
    """

    status: str
    generators: tuple[Poly, ...]
    points: tuple[dict[str, Fraction], ...] = ()
    positive_dimensional: bool = False
    certificate: tuple[Poly, ...] | None = None
    reason: str | None = None
    pairs_processed: int = 0


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
    pairs = result.pairs_processed
    if result.status == "capped":
        cap, reached = result.cap
        if cap == "pair_cap":
            reason = f"solver capped: pair_cap={pair_cap} reached after {reached} pairs"
        else:
            reason = (f"solver capped: degree_cap={degree_cap} exceeded by a degree-{reached} "
                      f"remainder after {pairs} pairs")
        return SystemVerdict(status="inconclusive", generators=gens, reason=reason,
                             pairs_processed=pairs)
    if result.inconsistent:
        cert = result.certificate()
        if cert is None or not verify_certificate(gens, cert):
            return SystemVerdict(
                status="inconclusive", generators=gens, pairs_processed=pairs,
                reason="solver found the system inconsistent, but its certificate "
                       "does not recombine the generators to 1")
        return SystemVerdict(status="inconsistent", generators=gens, certificate=cert,
                             pairs_processed=pairs)
    if not is_zero_dimensional(result.basis, order="lex"):
        return SystemVerdict(
            status="solutions", generators=gens, positive_dimensional=True,
            pairs_processed=pairs,
        )
    points = enumerate_rational_points(result.basis)
    points = [pt for pt in points if all(g.evaluate(pt) == 0 for g in gens)]
    points.sort(key=lambda pt: tuple(pt[v] for v in EXTENSION_VARIABLES))
    return SystemVerdict(
        status="solutions", generators=gens, points=tuple(points), pairs_processed=pairs
    )
