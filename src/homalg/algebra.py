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

from functools import cached_property
from operator import itemgetter
from typing import Sequence

from .reports import DefectReport, Defects
from .tensors import (
    PERM_12,
    PERM_23,
    Fields,
    LinearMap,
    MulTensor,
    Table,
    Tensor3,
    Tensor4,
    Vector,
    _contraction,
    _reduced,
    _Tensor,
    phi_apply,
    signed_leg_sum,
    subgroup,
    tabled,
)


class HomAlgebra(Fields):
    """Multiplication constants, twisting map, and an optional unit vector.

    A Hom-Lie bracket is such a product too (:func:`commutator_bracket`)."""

    mul: MulTensor
    alpha: LinearMap
    unit: Vector | None

    def __init__(self, mul, alpha, unit=None):
        self._store(mul, alpha, unit)
        if self.alpha.dim != self.mul.dim:
            raise ValueError("mul and alpha dimensions differ")
        if self.unit is not None and self.unit.dim != self.mul.dim:
            raise ValueError("unit dimension differs from mul")

    @property
    def dim(self) -> int:
        return self.mul.dim

    @cached_property
    def _G_defects(self) -> dict[str, Tensor4]:
        """The G-defect tables read so far, by group ("G1" is the
        alpha-associator): each is computed once and lives as long as the
        algebra does."""
        return {}

    @cached_property
    def _G_witness_lists(self) -> dict[tuple[str, bool], Defects]:
        """Each G-defect table's witnesses by group and order, listed once."""
        return {}


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


def _G_defect(algebra: HomAlgebra, group: str) -> Tensor4:
    """sum_{sigma in G} (-1)^eps(sigma) a o Phi_sigma on legs (p, q, s) of the
    associator table a, kept on the algebra.  S3 is G5 and its coset
    G5 o (12), whose members are all odd, so G6's table is G5's less its
    Phi_(12) image."""
    tables = algebra._G_defects
    if group not in tables:
        if group == "G6":
            g5 = _G_defect(algebra, "G5")
            tables[group] = g5 - phi_apply(PERM_12, g5, 1)
        elif group == "G1":
            tables[group] = _associator(algebra)
        else:
            tables[group] = signed_leg_sum(subgroup(group), _G_defect(algebra, "G1"), 1)
    return tables[group]


def _G_witnesses(algebra: HomAlgebra, group: str, k_first: bool = False) -> Defects:
    """The witnesses of ``_G_defect``, listed when first read and kept on the
    algebra (k first for the coalgebra checkers)."""
    return algebra._G_witness_lists.setdefault((group, k_first), Defects.of(
        _G_defect(algebra, group), order=None if k_first else _K_LAST))


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


def _kron(t1, t2):
    """t1 (x) t2 on the integer tables, each leg pair (i1, i2) flattened to
    i1 * dim2 + i2."""
    n = t2.dim
    return type(t1)._of(t1.dim * n, {tuple(i * n + j for i, j in zip(k1, k2)): v1 * v2
                                     for k1, v1 in t1._num.items() for k2, v2 in t2._num.items()},
                        t1._den * t2._den)


def tensor_product(a1: HomAlgebra, a2: HomAlgebra) -> HomAlgebra:
    """(V1 (x) V2, mu1 (x) mu2, alpha1 (x) alpha2, eta1 (x) eta2).

    Basis index (i1, i2) flattens to i1 * dim2 + i2.
    """
    if (a1.unit is None) != (a2.unit is None):
        raise ValueError("tensor product needs both algebras unital or both non-unital")
    return HomAlgebra(mul=_kron(a1.mul, a2.mul), alpha=_kron(a1.alpha, a2.alpha),
                      unit=None if a1.unit is None else _kron(a1.unit, a2.unit))


def check_algebra_morphism(f: LinearMap, source: HomAlgebra, target: HomAlgebra) -> bool:
    """mu' o (f (x) f) = f o mu, f o alpha = alpha' o f, and f(eta) = eta'."""
    if f.dim != source.dim or source.dim != target.dim:
        raise ValueError("dimension mismatch in morphism check")
    if not _is_multiplicative(f, source.mul, target.mul):
        return False
    if f.compose(source.alpha) != target.alpha.compose(f):
        return False
    if (source.unit is None) != (target.unit is None):
        return False
    return source.unit is None or f.apply(source.unit) == target.unit


def _tabled_action(action, shape: tuple[int, int, int], message: str) -> Table:
    """A (co)action tensor as one ``Table``, which both sides of its axiom
    share, a tensor as it is; ValueError(message) unless its shape is ``shape``."""
    if isinstance(action, _Tensor):
        if (action.dim,) * action.order == shape:
            return Table(shape, True, action._num, action._den)
    elif len(action) == shape[0] and all(len(plane) == shape[1] for plane in action) and \
            all(len(row) == shape[2] for plane in action for row in plane):
        return tabled(action, 3)
    raise ValueError(message)


def _is_table_of(action: Table, tensor) -> bool:
    """Whether a tabled (co)action is the structure tensor itself, by value."""
    return _reduced(action.num, action.den) == (tensor._num, tensor._den)


def _sides_agree(lhs: str, lhs_operands, rhs: str, rhs_operands) -> bool:
    """Whether two contractions give one table, compared in lowest terms."""
    left, right = _contraction(lhs, lhs_operands), _contraction(rhs, rhs_operands)
    return _reduced(left.num, left.den) == _reduced(right.num, right.den)


def check_module(
    algebra: HomAlgebra,
    m_dim: int,
    f: LinearMap,
    gamma: Sequence[Sequence[Sequence]] | MulTensor,
) -> bool:
    """Left module axiom gamma o (mu (x) f) = gamma o (alpha (x) gamma).

    ``gamma[i][m][p]`` is the coefficient of u_p in gamma(e_i (x) u_m), for
    the V-basis e_i and M-basis u_m.  At M = V, f = alpha, gamma = mu (by
    value) it is Hom-associativity, read off the algebra's associator table,
    which a cold call computes at the cost of the two sides.
    """
    gamma = _tabled_action(gamma, (algebra.dim, m_dim, m_dim),
                           "action tensor must have shape dim x m_dim x m_dim")
    if f.dim != m_dim:
        raise ValueError("f must act on the module")
    if f == algebra.alpha and _is_table_of(gamma, algebra.mul):
        return _G_defect(algebra, "G1").is_zero()
    # both sides as one whole table keyed (x, y, m, p)
    return _sides_agree("rm,trp,xyt->xymp", (f, gamma, algebra.mul),
                        "ax,arp,ymr->xymp", (algebra.alpha, gamma, gamma))
