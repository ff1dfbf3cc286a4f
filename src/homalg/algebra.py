"""Finite-dimensional Hom-algebras given by structure constants.

A Hom-associative algebra twists associativity by a linear map alpha:

    mu(alpha(x) (x) mu(y (x) z)) = mu(mu(x (x) y) (x) alpha(z)).

The defect of that identity is the alpha-associator
a(x, y, z) = mu(mu(x (x) y) (x) alpha(z)) - mu(alpha(x) (x) mu(y (x) z));
all checkers evaluate it (or a signed sum of its compositions with the S3
action) on basis triples, which suffices by trilinearity.

``alpha`` is an arbitrary linear map here, not necessarily multiplicative:
the 2-dimensional classification twists fail alpha(x.y) = alpha(x).alpha(y)
for generic parameters, so multiplicativity is offered as the separate
predicate :func:`check_twist_multiplicative`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Sequence

from .reports import DefectReport, Defects
from .tensors import (
    PERM_12,
    PERM_23,
    SUBGROUPS,
    LinearMap,
    MulTensor,
    Tensor3,
    Tensor4,
    Vector,
    _contraction,
    _reduced,
    contract,
    phi_apply,
    signed_leg_sum,
    subgroup,
    tabled,
)


@dataclass(frozen=True)
class HomAlgebra:
    """Multiplication constants, twisting map, and an optional unit vector.

    A Hom-Lie bracket is such a product too (:func:`commutator_bracket`)."""

    mul: MulTensor
    alpha: LinearMap
    unit: Vector | None = None

    def __post_init__(self):
        if self.alpha.dim != self.mul.dim:
            raise ValueError("mul and alpha dimensions differ")
        if self.unit is not None and self.unit.dim != self.mul.dim:
            raise ValueError("unit dimension differs from mul")

    @property
    def dim(self) -> int:
        return self.mul.dim


def multiply(algebra: HomAlgebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants."""
    return algebra.mul.apply(x, y)


def alpha_associator(algebra: HomAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """mu(mu(x (x) y) (x) alpha(z)) - mu(alpha(x) (x) mu(y (x) z))."""
    mul, alpha = algebra.mul, algebra.alpha
    left = mul.apply(mul.apply(x, y), alpha.apply(z))
    right = mul.apply(alpha.apply(x), mul.apply(y, z))
    return left - right


# the two products of the alpha-associator, (mu o (mu (x) alpha))(e_p, e_q, e_s)
# and (mu o (alpha (x) mu))(e_p, e_q, e_s), as whole tables keyed (k, p, q, s)
_OUTER = "us,tuk,pqt->kpqs"
_NESTED = "up,utk,qst->kpqs"
# a witness of the algebra side sits at (p, q, s, k)
_K_LAST = itemgetter(1, 2, 3, 0)


def _associator(algebra: HomAlgebra) -> Tensor4:
    """The alpha-associator as one table keyed (k, p, q, s)."""
    operands = algebra.alpha, algebra.mul, algebra.mul
    return Tensor4.contracted(_OUTER, *operands) - Tensor4.contracted(_NESTED, *operands)


# the checkers' associator, remembered for the last two algebras (by value): a
# bialgebra's algebra and the transpose of its coalgebra, on which the
# coalgebra checkers decide, are each computed once for every checker of one
# structure
_associator_table = lru_cache(maxsize=2)(_associator)


@lru_cache(maxsize=2 * len(SUBGROUPS))
def _G_defect(algebra: HomAlgebra, group: str) -> Tensor4:
    """sum_{sigma in G} (-1)^eps(sigma) a o Phi_sigma on legs (p, q, s) of the
    associator table a, remembered by value for every group of the last two
    algebras.  S3 is G5 and its coset G5 o (12), whose members are all odd,
    so G6's table is G5's less its Phi_(12) image."""
    if group == "G6":
        g5 = _G_defect(algebra, "G5")
        return g5 - phi_apply(PERM_12, g5, 1)
    perms, table = subgroup(group), _associator_table(algebra)
    return signed_leg_sum(perms, table, 1) if len(perms) > 1 else table


@lru_cache(maxsize=2 * len(SUBGROUPS))
def _G_witnesses(algebra: HomAlgebra, group: str, k_first: bool = False) -> Defects:
    """The witnesses of ``_G_defect``, listed when read (k first for the
    coalgebra checkers) and remembered like it, so one condition under two
    names (Hom-associativity and G1, Hom-coassociativity and G1, the
    alternating admissibility route and G6) shares one list."""
    return Defects.of(_G_defect(algebra, group), order=None if k_first else _K_LAST)


def check_hom_associative(algebra: HomAlgebra) -> DefectReport:
    """Report the basis triples where the alpha-associator is nonzero."""
    return DefectReport("hom-associative", _G_witnesses(algebra, "G1"))


def check_unital(algebra: HomAlgebra) -> bool | None:
    """True iff the declared unit is two-sided; None if no unit is declared."""
    if algebra.unit is None:
        return None
    u, mul = algebra.unit, algebra.mul
    ident = LinearMap.identity(algebra.dim)
    return LinearMap.contracted("i,ijk->kj", u, mul) == ident and \
        LinearMap.contracted("j,ijk->ki", u, mul) == ident


def _is_multiplicative(f: LinearMap, source: MulTensor, target: MulTensor) -> bool:
    """f(x.y) = f(x).f(y) on basis pairs, with the source and target products."""
    return Tensor3.contracted("kt,ijt->ijk", f, source) == \
        Tensor3.contracted("ai,abk,bj->ijk", f, target, f)


def check_twist_multiplicative(algebra: HomAlgebra) -> bool:
    """Strict reading of "homomorphism": alpha(x.y) = alpha(x).alpha(y)."""
    return _is_multiplicative(algebra.alpha, algebra.mul, algebra.mul)


def check_G_hom_associative(algebra: HomAlgebra, group: str) -> DefectReport:
    """Signed sum of associator compositions with Phi_sigma over the subgroup.

    sum_{sigma in G} (-1)^eps(sigma) a o Phi_sigma = 0, checked on basis
    triples.  G1 reduces to plain Hom-associativity.
    """
    return DefectReport(f"{group}-hom-associative", _G_witnesses(algebra, group))


def commutator_bracket(algebra: HomAlgebra) -> HomAlgebra:
    """[x, y] = mu(x (x) y) - mu(y (x) x), with the twist carried over: the
    commutator Hom-algebra, which has no unit."""
    return HomAlgebra(mul=algebra.mul - MulTensor.contracted("jik->ijk", algebra.mul),
                      alpha=algebra.alpha)


def check_skew(lie: HomAlgebra) -> bool:
    return (lie.mul + MulTensor.contracted("jik->ijk", lie.mul)).is_zero()


def check_hom_jacobi(lie: HomAlgebra) -> DefectReport:
    """Cyclic sum [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0."""
    nested = Tensor4.contracted(_NESTED, lie.alpha, lie.mul, lie.mul)
    # G5 = {id, (213), (231)}, all of sign +1: its signed sum is the cyclic sum
    cyclic = signed_leg_sum(subgroup("G5"), nested, 1)
    return DefectReport("hom-jacobi", Defects.of(cyclic, order=_K_LAST))


def check_hom_leibniz(lie: HomAlgebra) -> DefectReport:
    """[[x, y], alpha(z)] = [[x, z], alpha(y)] + [alpha(x), [y, z]] on basis triples."""
    operands = lie.alpha, lie.mul, lie.mul
    outer = Tensor4.contracted(_OUTER, *operands)
    nested = Tensor4.contracted(_NESTED, *operands)
    defect = outer - phi_apply(PERM_23, outer, 1) - nested
    return DefectReport("hom-leibniz", Defects.of(defect, order=_K_LAST))


def _merge_legs(t, pairs: int):
    """Flatten each pair of consecutive legs (i1, i2) into one leg i1 * dim2 + i2."""
    if pairs == 0:
        return t
    return [_merge_legs(inner, pairs - 1) for outer in t for inner in outer]


def tensor_product(a1: HomAlgebra, a2: HomAlgebra) -> HomAlgebra:
    """(V1 (x) V2, mu1 (x) mu2, alpha1 (x) alpha2, eta1 (x) eta2).

    Basis index (i1, i2) flattens to i1 * dim2 + i2.
    """
    if (a1.unit is None) != (a2.unit is None):
        raise ValueError("tensor product needs both algebras unital or both non-unital")
    mul = MulTensor(_merge_legs(contract("ace,bdf->abcdef", a1.mul, a2.mul), 3))
    alpha = LinearMap(_merge_legs(contract("ac,bd->abcd", a1.alpha, a2.alpha), 2))
    unit = None
    if a1.unit is not None and a2.unit is not None:
        unit = Vector(_merge_legs(contract("a,b->ab", a1.unit, a2.unit), 1))
    return HomAlgebra(mul=mul, alpha=alpha, unit=unit)


def check_algebra_morphism(f: LinearMap, source: HomAlgebra, target: HomAlgebra) -> bool:
    """mu' o (f (x) f) = f o mu, f o alpha = alpha' o f, and f(eta) = eta'."""
    if f.dim != source.dim or source.dim != target.dim:
        raise ValueError("dimension mismatch in morphism check")
    if not _is_multiplicative(f, source.mul, target.mul):
        return False
    if f.compose(source.alpha) != target.alpha.compose(f):
        return False
    if source.unit is not None and target.unit is not None:
        if f.apply(source.unit) != target.unit:
            return False
    elif (source.unit is None) != (target.unit is None):
        return False
    return True


def check_module(
    algebra: HomAlgebra,
    m_dim: int,
    f: LinearMap,
    gamma: Sequence[Sequence[Sequence]],
) -> bool:
    """Left module axiom gamma o (mu (x) f) = gamma o (alpha (x) gamma).

    ``gamma[i][m][p]`` is the coefficient of u_p in gamma(e_i (x) u_m), for
    the V-basis e_i and M-basis u_m.  At M = V, f = alpha, gamma = mu this
    is Hom-associativity, ``check_hom_associative(algebra).ok``.
    """
    n = algebra.dim
    if len(gamma) != n or any(len(plane) != m_dim for plane in gamma) or \
            any(len(row) != m_dim for plane in gamma for row in plane):
        raise ValueError("action tensor must have shape dim x m_dim x m_dim")
    if f.dim != m_dim:
        raise ValueError("f must act on the module")

    # both sides as one whole table keyed (x, y, m, p), in lowest terms
    gamma = tabled(gamma, 3)
    lhs = _contraction("rm,trp,xyt->xymp", (f, gamma, algebra.mul))
    rhs = _contraction("ax,arp,ymr->xymp", (algebra.alpha, gamma, gamma))
    return _reduced(lhs.num, lhs.den) == _reduced(rhs.num, rhs.den)
