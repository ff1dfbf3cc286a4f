"""Hom-bialgebras, the convolution algebra, antipodes, and primitive elements.

A Hom-bialgebra couples a unital Hom-associative algebra with a counital
Hom-coassociative coalgebra on the same space.  The compatibility (B3) —
Delta and eps are morphisms of the underlying algebra — is a *checked*
property, not a construction constraint, so defective hand-entered
structures can still be built and diagnosed.  Two readings are implemented:

* weak (the default, used by the acceptance suite):
  Delta(e1) = e1 (x) e1, Delta(x.y) = Delta(x) * Delta(y),
  eps(e1) = 1, eps(x.y) = eps(x) eps(y),
  where * is the factor-wise product on V (x) V.
* strict: additionally Delta o alpha = (alpha (x) alpha) o Delta and
  eps o alpha = eps.

Endomorphisms convolve by f * g = mu o (f (x) g) o Delta with unit
eta o eps and twist gamma(f) = alpha o f o beta; an antipode is a two-sided
convolution inverse of the identity, found here by exact linear solving
(the antipode equations are linear in the entries of S).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod

from .algebra import HomAlgebra, check_hom_associative, commutator_bracket
from .coalgebra import HomCoalgebra, check_hom_coassociative
from .linsolve import _echelon, _kernel_numerators, inconsistency_certificate, linear_solve
from .rational import ONE
from .reports import DefectReport, Defects
from .tensors import (ComulTensor, Fields, LinearMap, Table, Tensor2, Tensor4, Vector,
                      _contraction, contract)


class HomBialgebra(Fields):
    """An algebra and a coalgebra sharing one space; unit and counit required."""

    algebra: HomAlgebra
    coalgebra: HomCoalgebra

    def __init__(self, algebra, coalgebra):
        self._store(algebra, coalgebra)
        if self.algebra.dim != self.coalgebra.dim:
            raise ValueError("algebra and coalgebra dimensions differ")
        if self.algebra.unit is None:
            raise ValueError("bialgebra needs a unit")
        if self.coalgebra.counit is None:
            raise ValueError("bialgebra needs a counit")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def unit(self) -> Vector:
        assert self.algebra.unit is not None
        return self.algebra.unit

    @property
    def counit(self) -> Vector:
        assert self.coalgebra.counit is not None
        return self.coalgebra.counit

    @cached_property
    def weak_defects(self) -> Defects:
        """Every nonzero defect of the four weak compatibility conditions, on
        basis pairs: unit-grouplike, counit-on-unit, then comul-mult and
        counit-mult merged by basis pair (p, q).  Kept with the bialgebra, so
        the strict suite reuses the weak tables and their witnesses."""
        u, eps, comul, mul = self.unit, self.counit, self.coalgebra.comul, self.algebra.mul
        eps_unit = contract("k,k->", u, eps) - ONE
        # Delta(e_p . e_q) minus the factor-wise product Delta(e_p) * Delta(e_q),
        # one table keyed (p, q, i, j), and eps(e_p . e_q) - eps(e_p) eps(e_q)
        comul_mult = Tensor4.contracted("pqk,kij->pqij", mul, comul) \
            - Tensor4.contracted("qcd,aci,pab,bdj->pqij", comul, mul, comul, mul)
        counit_mult = LinearMap.contracted("pqk,k->pq", mul, eps) \
            - LinearMap.contracted("p,q->pq", eps, eps)
        by_pair = Defects.joined(Defects.of(comul_mult, "comul-mult"),
                                 Defects.of(counit_mult, "counit-mult"), legs=2)
        return Defects.joined(Defects.of(comul.apply(u) - Tensor2.pure(u, u), "unit-grouplike"),
                              Defects({(): eps_unit} if eps_unit else {}, label="counit-on-unit"),
                              by_pair)

    @cached_property
    def _primitives(self) -> tuple[Vector, ...]:
        """``primitive_subspace``, solved once and kept with the bialgebra; a
        ValueError is not kept."""
        n, d, u = self.dim, self.coalgebra.comul, self.unit
        # row (i, j), column c of Delta(e_c) - e1 (x) e_c - e_c (x) e1, times both denominators
        e = [u._num.get((i,), 0) * d._den for i in range(n)]
        rows = [[u._den * d._num.get((c, i, j), 0) - e[i] * (j == c) - (i == c) * e[j]
                 for c in range(n)] for i in range(n) for j in range(n)]
        basis = _kernel(rows)
        for v in basis:
            if contract("k,k->", v, self.counit):
                raise ValueError(f"counit does not vanish on primitive element {v}")
        _check_commutators(self.algebra, basis, rows, "fails the primitive equation")
        return basis


class HomHopf(Fields):
    """A Hom-bialgebra with an antipode; the defining equations are verified
    at construction time and a violation raises immediately."""

    bialgebra: HomBialgebra
    antipode: LinearMap

    def __init__(self, bialgebra, antipode):
        self._store(bialgebra, antipode)
        if self.antipode.dim != self.bialgebra.dim:
            raise ValueError("antipode dimension differs from bialgebra")
        bad = antipode_defect(self.bialgebra, self.antipode)
        if bad:
            raise ValueError("antipode equations fail at basis indices "
                             + ",".join(str(k + 1) for k in bad))

    @property
    def dim(self) -> int:
        return self.bialgebra.dim


def _same_dim(bialgebra: HomBialgebra, **tensors) -> None:
    """Raise ValueError, naming the argument, unless each tensor has the bialgebra's dimension."""
    for name, t in tensors.items():
        if t.dim != bialgebra.dim:
            raise ValueError(f"{name} has dimension {t.dim}; the bialgebra has {bialgebra.dim}")


def bullet(bialgebra: HomBialgebra, s: Tensor2, t: Tensor2) -> Tensor2:
    """Factor-wise product on V (x) V: (a (x) b) * (c (x) d) = a.c (x) b.d."""
    _same_dim(bialgebra, s=s, t=t)
    mul = bialgebra.algebra.mul
    return Tensor2.contracted("ab,cd,aci,bdj->ij", s, t, mul, mul)


# Delta o alpha, (alpha (x) alpha) o Delta, keyed (k, i, j), and eps o alpha; Delta or eps last
_COMUL_ALPHA = "tk,tij->kij"
_ALPHA_COMUL = "ia,jb,kab->kij"
_COUNIT_ALPHA = "ik,i->k"


def alpha_defects(bialgebra: HomBialgebra) -> Defects:
    """Every nonzero defect of Delta o alpha = (alpha (x) alpha) o Delta and
    eps o alpha = eps, merged by basis vector."""
    alpha, comul, eps = bialgebra.algebra.alpha, bialgebra.coalgebra.comul, bialgebra.counit
    comul_alpha = ComulTensor.contracted(_COMUL_ALPHA, alpha, comul) \
        - ComulTensor.contracted(_ALPHA_COMUL, alpha, alpha, comul)
    counit_alpha = Vector.contracted(_COUNIT_ALPHA, alpha, eps) - eps
    return Defects.joined(Defects.of(comul_alpha, "comul-alpha"),
                          Defects.of(counit_alpha, "counit-alpha"), legs=1)


def check_bialgebra_weak(bialgebra: HomBialgebra) -> DefectReport:
    """The four weak compatibility conditions, on basis pairs."""
    return DefectReport("bialgebra-weak", bialgebra.weak_defects)


def check_bialgebra_strict(bialgebra: HomBialgebra) -> DefectReport:
    """Weak conditions plus the two alpha compatibilities."""
    return DefectReport("bialgebra-strict",
                        Defects.joined(bialgebra.weak_defects, alpha_defects(bialgebra)))


# ---------------------------------------------------------------------------
# the convolution Hom-algebra on End(V)


def convolution(bialgebra: HomBialgebra, f: LinearMap, g: LinearMap) -> LinearMap:
    """f * g = mu o (f (x) g) o Delta."""
    _same_dim(bialgebra, f=f, g=g)
    return LinearMap.contracted("kij,ai,bj,abm->mk", bialgebra.coalgebra.comul, f, g,
                                bialgebra.algebra.mul)


def convolution_unit(bialgebra: HomBialgebra) -> LinearMap:
    """eta o eps as a matrix: column k is eps(e_k) times the unit vector."""
    return LinearMap.contracted("i,k->ik", bialgebra.unit, bialgebra.counit)


def convolution_twist(bialgebra: HomBialgebra, f: LinearMap) -> LinearMap:
    """gamma(f) = alpha o f o beta."""
    _same_dim(bialgebra, f=f)
    return bialgebra.algebra.alpha.compose(f).compose(bialgebra.coalgebra.beta)


def check_convolution_hom_associative(bialgebra: HomBialgebra) -> bool | None:
    """gamma(f) * (g * h) = (f * g) * gamma(h) for all endomorphisms: True
    when the algebra side is Hom-associative and the coalgebra side
    Hom-coassociative, None ("premises not met") otherwise.

    The two premises are the whole proof.  Both sides are trilinear in
    (f, g, h), so take the basis matrices f = E_pq, g = E_rs, h = E_tu.
    There, component m of the left side at e_k is

        [(beta (x) Delta) o Delta](e_k)_{q,s,u} * [alpha(e_p) . (e_r . e_t)]_m,

    and the right side is [(Delta (x) beta) o Delta](e_k)_{q,s,u} *
    [(e_p . e_r) . alpha(e_t)]_m.  Hom-coassociativity makes the first
    factors equal and Hom-associativity the second, so nothing is left to
    evaluate.
    """
    premises = check_hom_associative(bialgebra.algebra).ok and \
        check_hom_coassociative(bialgebra.coalgebra).ok
    return True if premises else None


# ---------------------------------------------------------------------------
# antipodes


def antipode_defect(bialgebra: HomBialgebra, s: LinearMap) -> tuple[int, ...]:
    """Basis indices where mu o (S (x) id) o Delta or the mirrored equation
    misses eta o eps: the k of the nonzero entries (m, k) of S * id - eta o
    eps and of id * S - eta o eps."""
    _same_dim(bialgebra, s=s)
    ident, want = LinearMap.identity(bialgebra.dim), convolution_unit(bialgebra)
    misses = (convolution(bialgebra, s, ident) - want, convolution(bialgebra, ident, s) - want)
    return tuple(sorted({k for miss in misses for _, k in miss.nonzero}))


class AntipodeResult(Fields):
    """Outcome of the linear antipode solve.

    status is "unique" (with the verified Hopf structure attached), "none"
    (not Hom-Hopf), or "family" (an affine solution set; its kernel
    dimension and one particular solution are reported as data).
    """

    status: str
    antipode: LinearMap | None
    kernel_dim: int
    hopf: HomHopf | None
    unit_fixed: bool | None
    counit_compatible: bool | None

    def __init__(self, status, antipode, kernel_dim, hopf, unit_fixed, counit_compatible):
        self._store(status, antipode, kernel_dim, hopf, unit_fixed, counit_compatible)


def _antipode_equations(bialgebra: HomBialgebra) -> tuple[list[list[int]], list[int], int]:
    """Integer rows and right-hand sides of the antipode equations, each the
    rational equation times the scale returned: unknown p * n + i is entry
    (p, i) of S, and equation (side, k, m) is component m of (S * id)(e_k)
    on side 0, of (id * S)(e_k) on side 1, = eps(e_k) u_m."""
    d, c = bialgebra.coalgebra.comul, bialgebra.algebra.mul
    # both sides contract d and c, so their numerators share one denominator
    sides = [_contraction(spec, (d, c)) for spec in ("kij,pjm->kmpi", "kij,iqm->kmqj")]
    want = _contraction("k,m->km", (bialgebra.counit, bialgebra.unit))
    rows = [row for side in sides for row in _rows(side, 2, want.den)]
    return rows, _rows(want, 0, sides[0].den)[0] * 2, sides[0].den * want.den


def antipode_certificate(bialgebra: HomBialgebra) -> tuple[Fraction, ...] | None:
    """Evidence that no antipode exists, a weight per equation, (side, k, m) at
    index (side * dim + k) * dim + m, under which they sum to 0 = 1; else None."""
    rows, rhs, scale = _antipode_equations(bialgebra)
    y = inconsistency_certificate(rows, rhs)
    return None if y is None else tuple(scale * w for w in y)


def solve_antipode(bialgebra: HomBialgebra) -> AntipodeResult:
    """Solve the 2*dim^2 linear antipode equations in the dim^2 entries of S;
    ``antipode_certificate`` gives the evidence of a "none"."""
    n, u, eps = bialgebra.dim, bialgebra.unit, bialgebra.counit
    solution = linear_solve(*_antipode_equations(bialgebra)[:2])
    if not solution.consistent:
        return AntipodeResult("none", None, 0, None, None, None)

    entries = solution.particular
    assert entries is not None
    s = LinearMap([[entries[p * n + i] for i in range(n)] for p in range(n)])
    if solution.kernel:
        return AntipodeResult("family", s, solution.kernel_dim, None, None, None)

    unit_fixed = s.apply(u) == u
    counit_compatible = Vector.contracted("i,ik->k", eps, s) == eps
    hopf = HomHopf(bialgebra=bialgebra, antipode=s)
    return AntipodeResult("unique", s, 0, hopf, unit_fixed, counit_compatible)


# ---------------------------------------------------------------------------
# primitive and generalized primitive elements


def _rows(table: Table, legs: int, scale: int = 1) -> list[list[int]]:
    """A contraction's numerators times scale as a matrix: the first ``legs``
    output legs name a row, the others a column."""
    cells = [scale * table.num.get(index, 0) for index in product(*map(range, table.shape))]
    width = prod(table.shape[legs:])
    return [cells[i:i + width] for i in range(0, len(cells), width)]


def _kernel(rows: list[list[int]]) -> tuple[Vector, ...]:
    """Kernel basis of the homogeneous integer system ``rows``, no ``Fraction`` built."""
    basis, den = _kernel_numerators(*_echelon(rows, [0] * len(rows)))
    return tuple(Vector._of(len(nums), {(c,): x for c, x in enumerate(nums) if x}, den)
                 for nums in basis)


def _solves(rows: list[list[int]], x: Vector) -> bool:
    """Whether x lies in the kernel of the homogeneous integer system ``rows``."""
    return not any(sum(row[c] * v for (c,), v in x._num.items()) for row in rows)


def _check_commutators(algebra: HomAlgebra, basis, rows: list[list[int]], failure: str) -> None:
    """Raise ValueError unless the commutator of any two members of
    ``basis`` solves ``rows`` again; ``failure`` ends the message.

    Each unordered pair is checked once: [v, v] = 0 and [w, v] = -[v, w],
    and the solutions of ``rows`` form a subspace; the bracket is tabled once."""
    bracket = commutator_bracket(algebra).mul if len(basis) > 1 else None
    for i, v in enumerate(basis):
        for w in basis[i + 1:]:
            if not _solves(rows, bracket.apply(v, w)):
                raise ValueError(f"commutator [{v}, {w}] {failure}")


def primitive_subspace(bialgebra: HomBialgebra) -> tuple[Vector, ...]:
    """Kernel basis of Delta(x) = e1 (x) x + x (x) e1 (e1 the unit vector).

    Also verifies eps = 0 on the basis and that the commutator of any two
    members solves the primitive equation again; both follow from (C2) and
    weak (B3), and a violation (possible only on structures breaking those
    premises) raises ValueError.

    Solved once per bialgebra, so the Prim-in-GPrim check of
    ``generalized_primitive_subspace`` reuses it.
    """
    return bialgebra._primitives


def _gprim_rows(bialgebra: HomBialgebra) -> list[list[int]]:
    """Integer linear system whose kernel is the generalized primitive
    subspace: row (i, j, l), column c of the symmetry condition, then row
    (i, j), column c of Delta - Delta^op, each block times its denominator."""
    n, comul = bialgebra.dim, bialgebra.coalgebra.comul
    ops = (bialgebra.coalgebra.beta, comul, comul)
    # (beta (x) Delta) o Delta and tau_13 o (Delta (x) beta) o Delta, over one denominator
    left = _rows(_contraction("ia,cab,bjl->ijlc", ops), 3)
    right = _rows(_contraction("ib,cab,alj->ijlc", ops), 3)
    rows = [[x - y for x, y in zip(a, b)] for a, b in zip(left, right)]
    return rows + [[comul._num.get((c, i, j), 0) - comul._num.get((c, j, i), 0) for c in range(n)]
                   for i in range(n) for j in range(n)]


def generalized_primitive_subspace(bialgebra: HomBialgebra) -> tuple[Vector, ...]:
    """Kernel basis of the two generalized-primitive conditions:

        (beta (x) Delta) o Delta (x) = tau_13 o (Delta (x) beta) o Delta (x)
        Delta^op(x) = Delta(x).

    Verifies that every primitive element satisfies both conditions and
    that the commutator of any two members stays in the solution set.
    """
    basis = _kernel(rows := _gprim_rows(bialgebra))
    for p in primitive_subspace(bialgebra):
        if not _solves(rows, p):
            raise ValueError(f"primitive element {p} is not generalized primitive")

    _check_commutators(bialgebra.algebra, basis, rows,
                       "leaves the generalized primitive space")
    return basis

