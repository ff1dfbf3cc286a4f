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
from typing import Sequence

from .reports import DefectReport, Witness
from .tensors import (
    PERM_23,
    SUBGROUPS,
    LinearMap,
    MulTensor,
    Tensor3,
    Vector,
    contract,
    phi_apply,
    signed_leg_sum,
    subgroup,
    tabled,
)


@dataclass(frozen=True)
class HomAlgebra:
    """Multiplication constants, twisting map, and an optional unit vector."""

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


@dataclass(frozen=True)
class HomBracket:
    """Bracket structure constants with a twisting map.

    Intended for skew-symmetric brackets; skew-symmetry is a checked
    property (:func:`check_skew`), not a construction constraint.
    """

    bracket: MulTensor
    alpha: LinearMap

    def __post_init__(self):
        if self.alpha.dim != self.bracket.dim:
            raise ValueError("bracket and alpha dimensions differ")

    @property
    def dim(self) -> int:
        return self.bracket.dim


def multiply(algebra: HomAlgebra, x: Vector, y: Vector) -> Vector:
    """Bilinear extension of the structure constants."""
    return algebra.mul.apply(x, y)


def alpha_associator(algebra: HomAlgebra, x: Vector, y: Vector, z: Vector) -> Vector:
    """mu(mu(x (x) y) (x) alpha(z)) - mu(alpha(x) (x) mu(y (x) z))."""
    mul, alpha = algebra.mul, algebra.alpha
    left = mul.apply(mul.apply(x, y), alpha.apply(z))
    right = mul.apply(alpha.apply(x), mul.apply(y, z))
    return left - right


def _associator_parts(
    mul: MulTensor, alpha: LinearMap
) -> tuple[tuple[Tensor3, ...], tuple[Tensor3, ...]]:
    """mu(mu(e_p (x) e_q) (x) alpha(e_s)) and mu(alpha(e_p) (x) mu(e_q (x) e_s)),
    one cube [p][q][s] per output component k."""
    return (Tensor3.slices("us,tuk,pqt->kpqs", alpha, mul, mul),
            Tensor3.slices("up,utk,qst->kpqs", alpha, mul, mul))


@lru_cache(maxsize=2)
def _associator_tensors(algebra: HomAlgebra) -> tuple[Tensor3, ...]:
    """The alpha-associator, one cube [p][q][s] per output component k.

    Remembered for the last two algebras (by value), so a bialgebra's algebra
    and the transpose of its coalgebra, on which the coalgebra checkers
    decide, are each computed once for every checker of one structure."""
    left, right = _associator_parts(algebra.mul, algebra.alpha)
    return tuple(a - b for a, b in zip(left, right))


def _component_witnesses(tensors: Sequence[Tensor3]) -> tuple[Witness, ...]:
    """Witnesses (p, q, s, k) of per-component defect cubes, in index order."""
    entries = {idx + (k,): value
               for k, tensor in enumerate(tensors) for idx, value in tensor.nonzero.items()}
    return tuple(Witness(indices=idx, value=entries[idx]) for idx in sorted(entries))


def _G_defects(algebra: HomAlgebra, group: str) -> Sequence[Tensor3]:
    """sum_{sigma in G} (-1)^eps(sigma) a o Phi_sigma, one cube [p][q][s] per
    output component k; for G1 that is the alpha-associator a itself."""
    perms = subgroup(group)
    defects = _associator_tensors(algebra)
    if len(perms) > 1:
        defects = [signed_leg_sum(perms, t) for t in defects]
    return defects


@lru_cache(maxsize=len(SUBGROUPS))
def _G_witnesses(algebra: HomAlgebra, group: str) -> tuple[Witness, ...]:
    """Witnesses of the G-defect.

    Remembered by value for the last len(SUBGROUPS) (algebra, group) pairs,
    so Hom-associativity and G1, which are one condition, share one tuple."""
    return _component_witnesses(_G_defects(algebra, group))


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


def commutator_bracket(algebra: HomAlgebra) -> HomBracket:
    """[x, y] = mu(x (x) y) - mu(y (x) x), with the twist carried over."""
    opposite = MulTensor.contracted("jik->ijk", algebra.mul)
    return HomBracket(bracket=algebra.mul - opposite, alpha=algebra.alpha)


def check_skew(lie: HomBracket) -> bool:
    return (lie.bracket + MulTensor.contracted("jik->ijk", lie.bracket)).is_zero()


def check_hom_jacobi(lie: HomBracket) -> DefectReport:
    """Cyclic sum [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0."""
    _, nested = _associator_parts(lie.bracket, lie.alpha)
    # G5 = {id, (213), (231)}, all of sign +1: its signed sum is the cyclic sum
    defects = [signed_leg_sum(subgroup("G5"), t) for t in nested]
    return DefectReport("hom-jacobi", _component_witnesses(defects))


def check_hom_leibniz(lie: HomBracket) -> DefectReport:
    """[[x, y], alpha(z)] = [[x, z], alpha(y)] + [alpha(x), [y, z]] on basis triples."""
    outer, nested = _associator_parts(lie.bracket, lie.alpha)
    defects = [a - phi_apply(PERM_23, a) - b for a, b in zip(outer, nested)]
    return DefectReport("hom-leibniz", _component_witnesses(defects))


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

    # both sides as one m_dim x m_dim matrix per basis pair (x, y)
    gamma = tabled(gamma, 3)
    lhs = LinearMap.slices("rm,trp,xyt->xymp", f, gamma, algebra.mul)
    rhs = LinearMap.slices("ax,arp,ymr->xymp", algebra.alpha, gamma, gamma)
    return lhs == rhs
