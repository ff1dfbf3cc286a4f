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

Polynomials are ``rational.Poly``s, whose monomials are dense exponent tuples
over a fixed variable list; the extension system is built by the structures'
own checkers, from ``algebra``, ``coalgebra`` and ``bialgebra``.  The
canonical order is graded reverse lexicographic; elimination runs use plain
lexicographic order, under which back-substitution plus univariate rational
root extraction enumerates the rational points of zero-dimensional ideals.

Buchberger runs on integers.  Each basis entry is a primitive integer
polynomial, division is fraction-free, and each entry's cofactors are
integer polynomials over one denominator.  Every entry is a fixed rational
multiple of the entry rational division would build, and division picks
the same divisors, so the basis, the cofactors and the pair counts are
those of rational Buchberger.  Rationals appear only at the end, when the
reduced entries are made monic and their cofactors over the generators are
divided by their denominators (Becker and Weispfenning, *Groebner Bases*,
1993; Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heappop, heappush
from itertools import count
from math import gcd, lcm, prod
from operator import le, mul, sub
from types import MappingProxyType
from typing import Callable, Iterable, Sequence

from .algebra import HomAlgebra, check_unital
from .bialgebra import _ALPHA_COMUL, _COMUL_ALPHA, _COUNIT_ALPHA, HomBialgebra
from .coalgebra import HomCoalgebra, counit_defects
from .linsolve import inconsistency_certificate
from .rational import ORDER_KEYS, ZERO, Monomial, Poly, _mono_mul, numerators, primitive, rat
from .tensors import ComulTensor, LinearMap, Table, Vector, _contraction

Terms = dict[Monomial, int]

# default budgets: the highest remainder degree and the most selected S-pairs
DEGREE_CAP = 6
PAIR_CAP = 10000


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(sub, a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _mono_coprime(a: Monomial, b: Monomial) -> bool:
    return not any(map(min, a, b))


def _chained(h: Monomial, a: Monomial, b: Monomial) -> bool:
    """The chain criterion: the pair with leading monomials a, b is redundant
    when h, the leading monomial of an entry that joined while the pair
    waited, divides their lcm and the lcms of h with a and with b both
    differ from it.  Read once, when the pair is selected."""
    m = _mono_lcm(a, b)
    return _mono_divides(h, m) and _mono_lcm(a, h) != m and _mono_lcm(b, h) != m


def _primitive(terms: Terms, lm: Monomial) -> tuple[Terms, int]:
    """The primitive part of integer terms, its coefficient at ``lm``
    positive, and the signed content the terms were divided by."""
    content = gcd(*terms.values())
    if terms[lm] < 0:
        content = -content
    if content == 1:
        return terms, 1
    return {m: c // content for m, c in terms.items()}, content


class _Tracked:
    """A basis entry: a primitive integer polynomial whose leading
    coefficient is positive, with sparse integer cofactors over one
    denominator.

    The entry satisfies ``den * poly = sum_i cofactors[i] * g_i`` over the
    input generators g_i; ``cofactors`` holds only the generators that
    occur, ``den`` is positive, and the gcd of ``den`` and all cofactor
    coefficients is 1.  The leading monomial ``lm`` and coefficient ``lc``
    under the run's order are computed once: entries are never changed
    after they are built.
    """

    __slots__ = ("poly", "cofactors", "den", "lm", "lc")

    def __init__(self, poly: Poly, cofactors: dict[int, Poly], den: int, lm: Monomial):
        self.poly = poly
        self.cofactors = cofactors
        self.den = den
        self.lm = lm
        self.lc = poly.terms[lm]

    @classmethod
    def normalized(
        cls, terms: Terms, cofactors: dict[int, Poly], den: int,
        key: Callable[[Monomial], object], variables: tuple[str, ...],
    ) -> "_Tracked":
        """The entry for nonzero integer terms with ``den * terms = sum_i
        cofactors[i] * g_i``: the content of the terms moves into the
        denominator, and the gcd of the denominator and the cofactor
        coefficients is divided out."""
        lm = max(terms, key=key)
        terms, content = _primitive(terms, lm)
        den *= content
        common = gcd(den, *(c for row in cofactors.values() for c in row.terms.values()))
        if den < 0:
            common = -common
        if common != 1:
            den //= common
            cofactors = {i: Poly._raw(variables, {m: c // common for m, c in row.terms.items()})
                         for i, row in cofactors.items()}
        return cls(Poly._raw(variables, terms), cofactors, den, lm)


def _reduce(
    terms: MappingProxyType[Monomial, int],
    basis: Sequence[_Tracked],
    key: Callable[[Monomial], object],
) -> tuple[Terms, dict[int, Terms], int]:
    """Fraction-free multivariate division of the integer polynomial with
    these terms by the basis; each step divides the leading term by the
    first basis element whose leading monomial divides it.

    A step with leading coefficient lc by g, d = gcd(lc, g.lc), multiplies
    the work and the remainder by g.lc/d and subtracts (lc/d) * x^shift * g.
    Returns the remainder's terms, per basis index used the negated
    quotient, and the positive integer scale s, the product of the step
    multipliers: remainder = s * terms + sum_k quotients[k] * basis[k].
    The remainder is s times the rational remainder of the same division.
    """
    work = terms.copy()
    # what leaves the work is recorded with the scale of its step, and
    # brought to the final scale once at the end
    moved: list[tuple[Monomial, int, int]] = []
    steps: list[tuple[int, Monomial, int, int]] = []
    scale = 1
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for k, g in enumerate(basis):
            if _mono_divides(g.lm, lm):
                shift = _mono_div(lm, g.lm)
                d = gcd(lc, g.lc)
                mult, ratio = g.lc // d, lc // d
                if mult != 1:
                    scale *= mult
                    work = {m: mult * c for m, c in work.items()}
                # the leading monomial falls at every step, so shifts never repeat
                steps.append((k, shift, -ratio, scale))
                for m, c in g.poly.terms.items():
                    m = _mono_mul(m, shift)
                    v = work.get(m, 0) - ratio * c
                    if v:
                        work[m] = v
                    else:
                        del work[m]
                break
        else:
            moved.append((lm, work.pop(lm), scale))
    remainder = {m: c * (scale // at) for m, c, at in moved}
    quotients: dict[int, Terms] = {}
    for k, shift, c, at in steps:
        quotients.setdefault(k, {})[shift] = c * (scale // at)
    return remainder, quotients, scale


def _cofactors(
    combination: Sequence[tuple[Terms, _Tracked]], variables: tuple[str, ...]
) -> tuple[dict[int, Poly], int]:
    """Integer cofactors over the input generators of sum_t multiplier * t,
    for the (integer multiplier terms, t) pairs of the combination, and
    their denominator, the lcm of the entries' denominators:
    ``den * sum_t multiplier * t = sum_i cofactors[i] * g_i``."""
    den = lcm(*(t.den for _, t in combination))
    acc: dict[int, Poly] = {}
    for mult, t in combination:
        f = den // t.den
        mult = Poly._raw(variables, {m: f * c for m, c in mult.items()})
        for i, row in t.cofactors.items():
            term = mult * row
            acc[i] = acc[i] + term if i in acc else term
    return {i: row for i, row in acc.items() if row}, den


@dataclass(frozen=True)
class GroebnerResult:
    """status "ok" or "capped"; on "ok" the basis is reduced, so monic, and
    each entry carries cofactors over the input generators; an inconsistent
    basis is exactly (1,).  On "capped", ``cap`` names the cap that tripped
    and the value reached: ("pair_cap", pairs processed) or ("degree_cap",
    degree of the remainder that exceeded it).  ``pairs_processed`` stops
    counting at the first nonzero constant."""

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
        """The cofactors of the basis (1,): sum c_i * gen_i = 1; None if consistent."""
        return self.cofactors[0] if self.inconsistent else None


def buchberger(
    generators: Sequence[Poly],
    order: str = "grevlex",
    degree_cap: int = DEGREE_CAP,
    pair_cap: int = PAIR_CAP,
) -> GroebnerResult:
    """Buchberger's algorithm with degree/pair caps and cofactor tracking.

    Pairs go through the Gebauer-Moller criteria (Becker and Weispfenning,
    *Groebner Bases*, 1993, UPDATE).  As each entry joins the basis, the
    generators included, in order, ``join`` forms its pairs with its
    partners, the earlier entries whose leading monomial no entry between
    them divides.  A pair (i, j), i < j, leaving the queue is skipped
    (``redundant``) when the lcm of j with another partner properly divides
    its lcm (M); when a partner gives the same lcm and comes after i or is
    coprime to j (F, and the product criterion when it is i); or when an
    entry of basis[j + 1:] chains it (B, ``_chained``).  The partners are
    fixed once j joins, and basis[j + 1:] holds the entries that joined
    while the pair waited, so the pairs skipped are those UPDATE drops as
    each entry joins; a pair's queue key is fixed, so the rest come out in
    the same order.  Division still runs over the whole basis, in list order.

    Pairs are selected by the normal strategy: the pending pair whose
    leading monomials have the lcm of lowest total degree comes next, and
    among pairs of equal degree the one queued most recently; the pairs
    among the generators are queued in ascending (i, j) order.  Only pairs
    that survive the criteria are selected, and each counts toward
    ``pair_cap``.  A reduced basis holding a nonzero constant is {1}, so it
    is returned where the first constant is built: a generator, before any
    pair is formed, or a remainder, before it joins; the pairs left are
    neither reduced nor counted.

    The arithmetic is on integers.  Every entry enters through
    ``_Tracked.normalized`` with cofactors over the input generators g_i,
    generator i as its numerators over their lcm denominator D, with
    cofactor D.  The S-polynomial of fi and fj, with d the gcd of their
    leading coefficients, is (fj.lc/d) x^a fi - (fi.lc/d) x^b fj; it is
    divided fraction-free (``_reduce``), and a nonzero remainder joins the
    basis with its content divided out.  The reduced entries are made monic
    at the end.
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
    one = (0,) * len(variables)

    def reduced(keep: list[_Tracked], processed: int) -> GroebnerResult:
        """The "ok" result on the minimal entries ``keep``: tails
        interreduced, then each entry made monic, the only rational step."""
        rows = []
        for i, t in enumerate(keep):
            others = keep[:i] + keep[i + 1:]
            # minimal: no other leading monomial divides t.lm, so it stays in rem
            rem, quotients, s = _reduce(t.poly.terms, others, key)
            combination = [({one: s}, t)] + [(q, others[k]) for k, q in quotients.items()]
            cofactors, den = _cofactors(combination, variables)
            lc = rem[t.lm]
            row = tuple(cofactors[idx].scale(Fraction(1, den * lc)) if idx in cofactors
                        else Poly.zero(variables) for idx in range(len(gens)))
            monic = Poly._raw(variables, {m: Fraction(c, lc) for m, c in rem.items()})
            rows.append((t.lm, monic, row))
        rows.sort(key=lambda r: key(r[0]))
        return GroebnerResult("ok", tuple(p for _, p, _ in rows),
                              tuple(row for _, _, row in rows), order, processed)

    # generator i enters as its numerators over their lcm denominator D
    basis: list[_Tracked] = []
    for idx, g in enumerate(gens):
        if g:
            nums, den = numerators(g.terms.values())
            basis.append(_Tracked.normalized(dict(zip(g.terms, nums)),
                                             {idx: Poly.const(variables, den)}, 1, key, variables))
    for t in basis:
        if t.lm == one:
            return reduced([t], 0)

    # live: the entries whose leading monomial no later entry divides;
    # partners[j]: (t, lcm(lm_t, lm_j)) for each entry t live when j joined
    live: list[int] = []
    partners: list[list[tuple[int, Monomial]]] = []

    def join(new: int) -> list[tuple[int, Monomial]]:
        """Record the new entry's partners, each with the lcm of its pair."""
        h = basis[new].lm
        partners.append([(t, _mono_lcm(basis[t].lm, h)) for t in live])
        live[:] = [t for t in live if not _mono_divides(h, basis[t].lm)] + [new]
        return partners[new]

    def redundant(i: int, j: int, m: Monomial) -> bool:
        """Whether M, F, the product criterion or B drops the pair (i, j), lcm m."""
        hi, hj = basis[i].lm, basis[j].lm
        for t, o in partners[j]:
            if o == m:
                # F keeps the last pair of an lcm, none if one is coprime
                if t > i or _mono_coprime(basis[t].lm, hj):
                    return True
            elif _mono_divides(o, m):  # M
                return True
        return any(_chained(h.lm, hi, hj) for h in basis[j + 1:])  # B

    # (lcm degree, -queue position, i, j, lcm): fixed, as basis entries never change
    queue: list[tuple[int, int, int, int, Monomial]] = []
    tick = count()

    for i, j, m in sorted((t, new, o) for new in range(len(basis)) for t, o in join(new)):
        heappush(queue, (sum(m), -next(tick), i, j, m))
    processed = 0
    while queue:
        _, _, i, j, m = heappop(queue)
        if redundant(i, j, m):
            continue
        fi, fj = basis[i], basis[j]
        processed += 1
        if processed > pair_cap:
            return GroebnerResult("capped", (), (), order, processed, ("pair_cap", processed))
        # the S-polynomial is ci x^ai fi + cj x^aj fj, on integers
        d = gcd(fi.lc, fj.lc)
        ai, ci = _mono_div(m, fi.lm), fj.lc // d
        aj, cj = _mono_div(m, fj.lm), -(fi.lc // d)
        spair = fi.poly.scale(ci, ai) + fj.poly.scale(cj, aj)
        rem, quotients, s = _reduce(spair.terms, basis, key)
        if not rem:
            continue
        degree = max(map(sum, rem))
        if degree > degree_cap:
            return GroebnerResult("capped", (), (), order, processed, ("degree_cap", degree))
        combination = [({ai: s * ci}, fi), ({aj: s * cj}, fj)]
        combination += [(q, basis[k]) for k, q in quotients.items()]
        t = _Tracked.normalized(rem, *_cofactors(combination, variables), key, variables)
        if t.lm == one:
            return reduced([t], processed)
        basis.append(t)
        for k, o in join(len(basis) - 1):
            heappush(queue, (sum(o), -next(tick), k, len(basis) - 1, o))

    # minimalize: drop entries whose leading monomial another one divides
    lms = [t.lm for t in basis]
    keep = [
        t for i, t in enumerate(basis)
        if not any(
            k != i and _mono_divides(lms[k], lms[i]) and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        )
    ]

    return reduced(keep, processed)


def verify_certificate(generators: Sequence[Poly], certificate: Sequence[Poly]) -> bool:
    """The certificate, one cofactor per generator, must recombine to 1 exactly.
    The solvers find it on integer rows and entries; it is checked as ``Poly``s."""
    if not generators:
        raise ValueError("no generators")
    if len(certificate) != len(generators):
        raise ValueError(f"certificate has {len(certificate)} cofactors "
                         f"for {len(generators)} generators")
    variables = generators[0].variables
    terms: dict[Monomial, Fraction | int] = {}
    for g, c in zip(generators, certificate):
        if g.variables != variables or c.variables != variables:
            raise ValueError("polynomials over different variable lists")
        if c:
            for m, v in (g.scale(c.constant_value()) if c.is_constant() else g * c).terms.items():
                terms[m] = terms.get(m, 0) + v
    return Poly._raw(variables, terms) == Poly.const(variables, 1)


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


def _horner(coeffs: Sequence[Fraction | int], x: Fraction | int) -> Fraction | int:
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
    a = primitive(numerators(cs)[0])
    d = len(a) - 1
    q = [c * a[-1] ** (d - 1 - i) for i, c in enumerate(a[:-1])] + [1]

    # signed remainder sequence of q and q'; its last entry is gcd(q, q'), and
    # dividing that out leaves a Sturm sequence of the square-free part of q
    sturm = [list(map(Fraction, q)), [Fraction(i * c) for i, c in enumerate(q)][1:]]
    while rem := _poly_divmod(sturm[-2], sturm[-1])[1]:
        sturm.append([-c for c in rem])
    if len(sturm[-1]) > 1:
        sturm = [_poly_divmod(p, sturm[-1])[0] for p in sturm]
    sturm = [numerators(p)[0] for p in sturm]

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
    if not basis:
        raise ValueError("empty basis")
    if any(p.is_constant() and not p.is_zero() for p in basis):
        return True  # inconsistent: empty variety counts as zero-dimensional
    heads = [p.leading_monomial(order) for p in basis]
    return all(any(0 < lm[idx] == sum(lm) for lm in heads)
               for idx in range(len(basis[0].variables)))


def enumerate_rational_points(
    basis: Sequence[Poly],
) -> list[dict[str, Fraction]]:
    """Back-substitution through a lex Groebner basis of a zero-dimensional
    ideal; returns every rational point that zeroes the basis (``_zeroes``).
    Each element is solved at its level, its first variable: with the later
    variables bound, the elements of a level are univariate in it."""
    if not basis:
        raise ValueError("empty basis")
    variables = basis[0].variables
    levels: dict[int, list[Poly]] = {}
    for p in basis:
        if used := p.used_variable_indices():
            levels.setdefault(min(used), []).append(p)
        elif p:
            return []  # a nonzero constant: the variety is empty
    partial_points: list[dict[str, Fraction]] = [{}]
    for idx in range(len(variables) - 1, -1, -1):
        next_points: list[dict[str, Fraction]] = []
        for pt in partial_points:
            constraints = [sub.univariate_coefficients(idx)
                           for p in levels.get(idx, ()) if (sub := p.substitute(pt))]
            if not constraints:
                # no univariate pin at this level: not zero-dimensional
                raise ValueError(f"no univariate constraint for {variables[idx]}")
            # a nonzero constant has no roots and vanishes nowhere
            first, *others = constraints
            next_points += [{**pt, variables[idx]: root} for root in rational_roots(first)
                            if all(_horner(c, root) == 0 for c in others)]
        partial_points = next_points
    return [pt for pt in partial_points if _zeroes(basis, map(pt.get, variables))]


# ---------------------------------------------------------------------------
# bialgebra extension search


@dataclass(frozen=True)
class SystemVerdict:
    """Outcome of a polynomial-system solve.

    status: "solutions" (rational points listed, or positive_dimensional
    when the set is infinite), "inconsistent" (certificate recombines to 1),
    or "inconclusive" (caps exhausted, or a certificate that fails its
    check; reason says which).
    pairs_processed: the S-pairs Buchberger selected, capped runs included,
    0 when the affine generators decide; only pairs that survive the
    Gebauer-Moller criteria count, coprime ones never do, and none counts
    after the first nonzero constant.
    """

    status: str
    generators: tuple[Poly, ...]
    points: tuple[dict[str, Fraction], ...] = ()
    positive_dimensional: bool = False
    certificate: tuple[Poly, ...] | None = None
    reason: str | None = None
    pairs_processed: int = 0


EXTENSION_VARIABLES = ("x11", "x12", "x21", "x22", "y")


# alpha_defects' specs, Delta and eps on integers, with a leg v over (x11, x12, x21, x22, y, 1):
# Delta(e1) = e1 (x) e1, Delta(e2) = sum x_ij e_i (x) e_j, eps = (1, y)
_ALPHA_SPECS = [s.replace("->", "v->") + "v" for s in (_COMUL_ALPHA, _ALPHA_COMUL, _COUNIT_ALPHA)]
_DELTA = Table((2, 2, 2, 6), False,
               {(0, 0, 0, 5): 1} | {(1, v // 2, v % 2, v): 1 for v in range(4)}, 1)
_EPS = Table((2, 6), False, {(0, 5): 1, (1, 4): 1}, 1)
_LEG_MONOMIALS = tuple(tuple(int(u == v) for u in range(5)) for v in range(6))


def _extension_bialgebra(algebra):
    """The algebra with Delta and eps the tables ``_DELTA`` and ``_EPS`` read on the
    monomials of their leg v: polynomials in ``EXTENSION_VARIABLES``."""
    legs = [Poly._raw(EXTENSION_VARIABLES, {m: 1}) for m in _LEG_MONOMIALS]
    delta = ComulTensor.contracted("kijv,v->kij", _DELTA, legs)
    eps = Vector.contracted("iv,v->i", _EPS, legs)
    return HomBialgebra(algebra, HomCoalgebra(delta, LinearMap.identity(2), eps))


@lru_cache(maxsize=8)
def _weak_generators(mul, unit) -> tuple[Poly, ...]:
    """The weak-compatibility and counit generators of the extension system
    over (mul, unit): nonzero, repeats dropped, first occurrence first.

    For every input the search accepts there are 9, each of total degree 2:
    with e1 a two-sided unit, Delta(e1) = e1 (x) e1 and eps(e1) = 1, each weak
    defect is 0 but comul-mult at (e2, e2), which holds -x11^2 or -2 x11 x_kl,
    and counit-mult, -y^2; each counit-law component holds x_i2 y or x_2j y.
    So the affine generators of a system are exactly its alpha part.

    Neither set of equations involves the twist, so they are built on the
    algebra with the identity twist and remembered by (mul, unit), by value.
    Over the 100 seed-1 operations of the solve-extension benchmark (400
    searches on mu1 and mu2 at fresh twists) it had 398 hits and 2 misses,
    and held 2 of its 8 entries.

    Raises ValueError unless the unit is two-sided (``check_unital``), a
    premise that does not involve the twist either; a raise is not
    remembered."""
    algebra = HomAlgebra(mul, LinearMap.identity(2), unit)
    if not check_unital(algebra):
        raise ValueError("extension search requires a unital algebra: "
                         "the unit e1 is not two-sided")
    bialgebra = _extension_bialgebra(algebra)
    values = [w.value for w in bialgebra.weak_defects.witnesses]
    right, left = counit_defects(bialgebra.coalgebra)
    values += [m.entry(i, k) for k in range(2) for i in range(2) for m in (right, left)]
    return tuple(dict.fromkeys(v for v in values if v))


def _zeroes(generators: Sequence[Poly], point: Iterable[Fraction]) -> bool:
    """Whether the point (one value per variable) zeroes every generator's integer terms:
    with its values over one denominator D, each monomial is valued once, times D^(top
    degree - degree), and each generator is one dot product, exact on a Fraction too."""
    nums, den = numerators(point)
    monomials = {m for g in generators for m in g.terms}
    top = max(map(sum, monomials), default=0)
    values = {m: prod(map(pow, nums, m)) * den ** (top - sum(m)) for m in monomials}
    return not any(sum(map(mul, map(values.__getitem__, g.terms), g.terms.values()))
                   for g in generators)


def bialgebra_extension_system(algebra, strict_alpha: bool = False) -> tuple[Poly, ...]:
    """Polynomial conditions for a dim-2 unital Hom-associative algebra to
    carry a weak-compatible counital comultiplication.

    Unknowns: Delta(e2) = sum x_ij e_i (x) e_j and eps(e2) = y; Delta(e1) =
    e1 (x) e1 and eps(e1) = 1 are forced.  The generators are the checkers'
    own defect entries on the bialgebra with those polynomial entries: the
    weak-compatibility witnesses, then the two-sided counit law per basis
    vector and component, then, with ``strict_alpha``, the alpha
    compatibilities of the strict reading (using the algebra's own twist).
    Repeats are dropped; the first occurrence keeps its place.  The weak and
    counit part does not involve the twist and is built once per (mul, unit)
    (``_weak_generators``), of degree 2; the affine alpha part per call, on integers.
    """
    return _extension_system(algebra, strict_alpha)[0]


def _extension_system(algebra, strict_alpha: bool):
    """The generators, the alpha generators' distinct integer rows on (x11, x12,
    x21, x22, y, 1), and the scale those rows carry: row / scale is the generator."""
    if algebra.dim != 2:
        raise ValueError("extension search is specified for dimension 2")
    if algebra.unit is None or algebra.unit.coords != (1, 0):
        raise ValueError("extension search requires the unit to be e1")
    weak = _weak_generators(algebra.mul, algebra.unit)
    if not strict_alpha:
        return weak, (), 1
    # each defect times den^2 by leg v: (k, i, j) in row 5k + 2i + j, (k,) in row 5k + 4
    a, den = algebra.alpha, algebra.alpha._den
    outer, inner, counit = (_contraction(spec, ops).num for spec, ops in
                            zip(_ALPHA_SPECS, ((a, _DELTA), (a, a, _DELTA), (a, _EPS))))
    cells, scale = [[0] * 6 for _ in range(10)], den * den
    for table, by in ((outer, den), (inner, -1), (counit, den), (_EPS.num, -scale)):
        for (k, *ij, v), c in table.items():
            cells[5 * k + (2 * ij[0] + ij[1] if ij else 4)][v] += by * c
    rows = tuple(dict.fromkeys(tuple(row) for row in cells if any(row)))
    alpha = tuple(Poly._raw(EXTENSION_VARIABLES, {_LEG_MONOMIALS[v]: Fraction(c, scale)
                                                  for v, c in enumerate(row) if c})
                  for row in rows)
    return weak + alpha, rows, scale


def _affine_certificate(generators: tuple[Poly, ...], rows, scale: int) -> tuple[Poly, ...] | None:
    """Constant cofactors recombining the generators to 1 when their affine
    part, the alpha rows (the last generators), is inconsistent alone; None
    otherwise.  With y the certificate of the rows A x = b (row = (A_g, -b_g)),
    the cofactor of alpha generator g is -scale * y_g; the rest share one zero."""
    y = rows and inconsistency_certificate([r[:-1] for r in rows], [-r[-1] for r in rows])
    if not y:
        return None
    variables = generators[0].variables
    zero = Poly._raw(variables, {})
    return (zero,) * (len(generators) - len(rows)) + tuple(
        Poly._raw(variables, {_LEG_MONOMIALS[5]: -scale * w}) if w else zero for w in y)


@lru_cache(maxsize=8)
def _lex_solve(
    generators: tuple[Poly, ...], degree_cap: int, pair_cap: int
) -> tuple[GroebnerResult, tuple[tuple[tuple[str, Fraction], ...], ...] | None]:
    """The lex Groebner basis of the generators under the caps and, for a
    consistent zero-dimensional ideal, its rational points as (variable,
    value) pairs; None in place of the points otherwise.

    Remembered by value.  Over the 100 seed-1 solve-extension operations it
    served the 200 weak searches and the 3 strict ones that reach it: 200
    hits, 3 misses, 3 of 8 entries held.  Points are stored as tuples, so
    each caller builds its own dicts and checks the certificate and the
    points on every call."""
    result = buchberger(generators, order="lex", degree_cap=degree_cap, pair_cap=pair_cap)
    if result.status == "capped" or result.inconsistent \
            or not is_zero_dimensional(result.basis, order="lex"):
        return result, None
    return result, tuple(tuple(pt.items()) for pt in enumerate_rational_points(result.basis))


def search_bialgebra_extension(
    algebra,
    degree_cap: int = DEGREE_CAP,
    pair_cap: int = PAIR_CAP,
    strict_alpha: bool = False,
) -> SystemVerdict:
    """Certify existence or nonexistence of a weak Hom-bialgebra structure
    over a dim-2 unital Hom-associative algebra.

    A linear certificate decides when the alpha rows alone are inconsistent
    (``_affine_certificate``), as nearly every strict system's are.
    Otherwise the system is solved once per (generators, caps)
    (``_lex_solve``), so the weak system of one (mul, unit) is built and
    solved once across twist bindings.  Every call, repeat or not, checks
    that the certificate recombines the generators to 1 (as ``Poly``s) and
    that each point zeroes every generator, on its integer terms (``_zeroes``)."""
    gens, rows, scale = _extension_system(algebra, strict_alpha)
    cert, pairs = _affine_certificate(gens, rows, scale), 0
    if cert is None:
        result, solved = _lex_solve(gens, degree_cap, pair_cap)
        cert, pairs = result.certificate(), result.pairs_processed
        if result.status == "capped":
            cap, reached = result.cap
            if cap == "pair_cap":
                reason = f"solver capped: pair_cap={pair_cap} reached after {reached} pairs"
            else:
                reason = (f"solver capped: degree_cap={degree_cap} exceeded by a "
                          f"degree-{reached} remainder after {pairs} pairs")
            return SystemVerdict(status="inconclusive", generators=gens, reason=reason,
                                 pairs_processed=pairs)
    if cert is not None:
        if not verify_certificate(gens, cert):
            return SystemVerdict(
                status="inconclusive", generators=gens, pairs_processed=pairs,
                reason="solver found the system inconsistent, but its certificate "
                       "does not recombine the generators to 1")
        return SystemVerdict(status="inconsistent", generators=gens, certificate=cert,
                             pairs_processed=pairs)
    if solved is None:
        return SystemVerdict(
            status="solutions", generators=gens, positive_dimensional=True,
            pairs_processed=pairs,
        )
    points = [pt for pt in map(dict, solved) if _zeroes(gens, map(pt.get, EXTENSION_VARIABLES))]
    points.sort(key=lambda pt: tuple(pt[v] for v in EXTENSION_VARIABLES))
    return SystemVerdict(
        status="solutions", generators=gens, points=tuple(points), pairs_processed=pairs
    )
