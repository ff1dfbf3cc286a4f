"""Finite-dimensional Hom-coalgebras and the twisted-coassociativity identities.

The central object is the beta-coassociator

    c_beta(Delta) = (Delta (x) beta) o Delta - (beta (x) Delta) o Delta,

materialized per basis vector as an order-3 coefficient tensor; every
identity in this module is then an exact tensor equality.  Axiom (C1) is the
vanishing of c_beta(Delta), (C2) the two-sided counit law.  The structure
carries no compatibility axiom between beta and the counit (nothing like
eps o beta = eps is demanded, and none is enforced here).

Delta_L = Delta - Delta^op is the cocommutator; the triple (V, Delta, beta)
is Hom-Lie admissible when the cyclic sum

    c_beta(Delta_L) + Phi_(213) o c_beta(Delta_L) + Phi_(231) o c_beta(Delta_L)

vanishes, equivalently (and always exactly twice) the alternating sum of
Phi_sigma o c_beta(Delta) over all of S3.  Both routes are computed and
reported by :func:`check_hom_lie_admissible`.

Some presentations write the comultiplication of the G2/G3 (Vinberg /
pre-Lie) variants as a map "mu: V -> V x V"; here it is always
Delta: V -> V (x) V, matching the surrounding coalgebra axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .rational import rat
from .reports import DefectReport, Witness
from .tensors import (
    ComulTensor,
    LinearMap,
    PERM_12,
    PERM_13,
    PERM_23,
    PERM_213,
    PERM_231,
    S3,
    Tensor2,
    Tensor3,
    Vector,
    contract,
    phi_apply,
    signed_leg_sum,
    subgroup,
)


@dataclass(frozen=True)
class HomCoalgebra:
    """Comultiplication constants, twisting map, optional counit covector.

    The counit stores the weights eps(e_k) as a length-dim vector.
    """

    comul: ComulTensor
    beta: LinearMap
    counit: Vector | None = None

    def __post_init__(self):
        if self.beta.dim != self.comul.dim:
            raise ValueError("comul and beta dimensions differ")
        if self.counit is not None and self.counit.dim != self.comul.dim:
            raise ValueError("counit dimension differs from comul")

    @property
    def dim(self) -> int:
        return self.comul.dim


def comultiply(coalgebra: HomCoalgebra, x: Vector) -> Tensor2:
    """Linear extension of the comultiplication constants."""
    return coalgebra.comul.apply(x)


def delta_op(coalgebra: HomCoalgebra) -> HomCoalgebra:
    """Opposite comultiplication tau o Delta; beta and counit carried over."""
    return HomCoalgebra(coalgebra.comul.op(), coalgebra.beta, coalgebra.counit)


def delta_L(coalgebra: HomCoalgebra) -> HomCoalgebra:
    """Cocommutator Delta - Delta^op; the counit is dropped (it has none)."""
    return HomCoalgebra(coalgebra.comul - coalgebra.comul.op(), coalgebra.beta, None)


# ---------------------------------------------------------------------------
# tensor expansions: the two ways of following Delta with Delta and beta


def expand_outer_beta(
    inner: ComulTensor, outer: ComulTensor, beta: LinearMap
) -> tuple[Tensor3, ...]:
    """(outer (x) beta) o inner, one order-3 tensor per basis vector."""
    return tuple(Tensor3(t) for t in contract("lb,kab,aij->kijl", beta, inner, outer))


def expand_beta_outer(
    inner: ComulTensor, outer: ComulTensor, beta: LinearMap
) -> tuple[Tensor3, ...]:
    """(beta (x) outer) o inner, one order-3 tensor per basis vector."""
    return tuple(Tensor3(t) for t in contract("ia,kab,bjl->kijl", beta, inner, outer))


def coassociator_tensors(comul: ComulTensor, beta: LinearMap) -> tuple[Tensor3, ...]:
    """c_beta for an arbitrary comultiplication tensor, per basis vector."""
    right = expand_outer_beta(comul, comul, beta)
    left = expand_beta_outer(comul, comul, beta)
    return tuple(r - l for r, l in zip(right, left))


@lru_cache(maxsize=1)
def beta_coassociator(coalgebra: HomCoalgebra) -> tuple[Tensor3, ...]:
    """c_beta(Delta) = (Delta (x) beta) o Delta - (beta (x) Delta) o Delta.

    Remembered for the last coalgebra (by value), which every checker of one
    structure in a row then shares."""
    return coassociator_tensors(coalgebra.comul, coalgebra.beta)


def _tensor_witnesses(
    tensors: Sequence[Tensor3], label: str = ""
) -> tuple[Witness, ...]:
    """Witnesses (k, i, j, l) of per-basis-vector defect cubes, in index order."""
    return tuple(
        Witness(indices=(k,) + idx, value=value, label=label)
        for k, tensor in enumerate(tensors)
        for idx, value in tensor.nonzero_entries()
    )


def check_hom_coassociative(coalgebra: HomCoalgebra) -> DefectReport:
    """(C1): the beta-coassociator vanishes on every basis vector."""
    return DefectReport("hom-coassociative", _tensor_witnesses(beta_coassociator(coalgebra)))


def counit_defects(coalgebra: HomCoalgebra) -> tuple[LinearMap, LinearMap]:
    """(id (x) eps) o Delta - id and (eps (x) id) o Delta - id, as matrices.

    The coalgebra must have a counit.
    """
    d, eps = coalgebra.comul, coalgebra.counit
    ident = LinearMap.identity(coalgebra.dim)
    return (LinearMap(contract("kij,j->ik", d, eps)) - ident,
            LinearMap(contract("kij,i->jk", d, eps)) - ident)


def check_counital(coalgebra: HomCoalgebra) -> bool | None:
    """(C2): (id (x) eps) o Delta = id = (eps (x) id) o Delta; None if no counit."""
    if coalgebra.counit is None:
        return None
    return all(m.is_zero() for m in counit_defects(coalgebra))


def check_G_hom_coalgebra(coalgebra: HomCoalgebra, group: str) -> DefectReport:
    """sum_{sigma in G} (-1)^eps(sigma) Phi_sigma o c_beta(Delta) = 0.

    G1 is Hom-coassociativity, G2 the Vinberg variant, G3 the pre-Lie
    variant, G6 Hom-Lie admissibility.
    """
    perms = subgroup(group)
    defects = [signed_leg_sum(perms, t) for t in beta_coassociator(coalgebra)]
    return DefectReport(f"{group}-hom-coalgebra", _tensor_witnesses(defects))


def admissibility_defects(
    coalgebra: HomCoalgebra,
) -> tuple[tuple[Tensor3, ...], tuple[Tensor3, ...]]:
    """The cyclic Delta_L defect and the alternating-S3 defect, per basis vector.

    These always satisfy cyclic = 2 * alternating, which the test suite pins
    as a universal identity.
    """
    c_L = coassociator_tensors(
        coalgebra.comul - coalgebra.comul.op(), coalgebra.beta
    )
    # G5 = {id, (213), (231)}, all of sign +1: its signed sum is the cyclic sum
    cyclic = tuple(signed_leg_sum(subgroup("G5"), t) for t in c_L)
    alternating = tuple(signed_leg_sum(S3, t) for t in beta_coassociator(coalgebra))
    return cyclic, alternating


@dataclass(frozen=True)
class AdmissibilityReport:
    """Both Hom-Lie admissibility routes; their booleans always agree."""

    cyclic: DefectReport
    alternating: DefectReport

    @property
    def ok(self) -> bool:
        return self.cyclic.ok

    @property
    def methods_agree(self) -> bool:
        return self.cyclic.ok == self.alternating.ok


def check_hom_lie_admissible(coalgebra: HomCoalgebra) -> AdmissibilityReport:
    cyclic, alternating = admissibility_defects(coalgebra)
    return AdmissibilityReport(
        cyclic=DefectReport("hom-lie-admissible (cyclic)", _tensor_witnesses(cyclic)),
        alternating=DefectReport(
            "hom-lie-admissible (alternating)", _tensor_witnesses(alternating)
        ),
    )


def lemma_identities_check(coalgebra: HomCoalgebra) -> tuple[bool, bool, bool, bool, bool]:
    """Five universal identities tying Delta, Delta^op, and the S3 action:

    1. c_beta(Delta^op) = -Phi_(13) o c_beta(Delta)
    2. (beta (x) Delta^op) o Delta = Phi_(13) o (Delta (x) beta) o Delta^op
    3. (beta (x) Delta) o Delta^op = Phi_(13) o (Delta^op (x) beta) o Delta
    4. (Delta (x) beta) o Delta^op = Phi_(213) o (beta (x) Delta) o Delta
    5. (Delta^op (x) beta) o Delta = Phi_(12) o (Delta (x) beta) o Delta
    """
    d = coalgebra.comul
    dop = d.op()
    beta = coalgebra.beta
    n = coalgebra.dim

    c = coassociator_tensors(d, beta)
    c_op = coassociator_tensors(dop, beta)
    eq1 = all(
        (c_op[k] + phi_apply(PERM_13, c[k])).is_zero() for k in range(n)
    )

    lhs2 = expand_beta_outer(d, dop, beta)
    rhs2 = expand_outer_beta(dop, d, beta)
    eq2 = all((lhs2[k] - phi_apply(PERM_13, rhs2[k])).is_zero() for k in range(n))

    lhs3 = expand_beta_outer(dop, d, beta)
    rhs3 = expand_outer_beta(d, dop, beta)
    eq3 = all((lhs3[k] - phi_apply(PERM_13, rhs3[k])).is_zero() for k in range(n))

    lhs4 = rhs2  # (Delta (x) beta) o Delta^op
    rhs4 = expand_beta_outer(d, d, beta)
    eq4 = all((lhs4[k] - phi_apply(PERM_213, rhs4[k])).is_zero() for k in range(n))

    lhs5 = rhs3  # (Delta^op (x) beta) o Delta
    rhs5 = expand_outer_beta(d, d, beta)
    eq5 = all((lhs5[k] - phi_apply(PERM_12, rhs5[k])).is_zero() for k in range(n))

    return (eq1, eq2, eq3, eq4, eq5)


def coassociator_expansion_check(coalgebra: HomCoalgebra) -> tuple[bool, bool]:
    """Two expansions of c_beta(Delta_L) against the direct computation.

    First: via c_beta(Delta), c_beta(Delta^op), and the four mixed
    Delta/Delta^op compositions.  Second: entirely in terms of Delta with
    Phi_(13), Phi_(213), Phi_(12), Phi_(23), Phi_(231) corrections.
    """
    d = coalgebra.comul
    dop = d.op()
    beta = coalgebra.beta
    n = coalgebra.dim

    c_L = coassociator_tensors(d - dop, beta)
    c = coassociator_tensors(d, beta)
    c_op = coassociator_tensors(dop, beta)
    d_b_dop = expand_outer_beta(dop, d, beta)    # (Delta (x) beta) o Delta^op
    dop_b_d = expand_outer_beta(d, dop, beta)    # (Delta^op (x) beta) o Delta
    b_d_d = expand_beta_outer(d, d, beta)        # (beta (x) Delta) o Delta
    d_b_d = expand_outer_beta(d, d, beta)        # (Delta (x) beta) o Delta

    first = True
    for k in range(n):
        rhs = c[k] + c_op[k] - d_b_dop[k] - dop_b_d[k] \
            + phi_apply(PERM_13, d_b_dop[k]) + phi_apply(PERM_13, dop_b_d[k])
        if not (c_L[k] - rhs).is_zero():
            first = False
            break

    second = True
    for k in range(n):
        rhs = c[k] - phi_apply(PERM_13, c[k]) \
            - phi_apply(PERM_213, b_d_d[k]) - phi_apply(PERM_12, d_b_d[k]) \
            + phi_apply(PERM_23, b_d_d[k]) + phi_apply(PERM_231, d_b_d[k])
        if not (c_L[k] - rhs).is_zero():
            second = False
            break

    return (first, second)


def check_comodule(
    coalgebra: HomCoalgebra,
    m_dim: int,
    g: LinearMap,
    rho: Sequence[Sequence[Sequence]],
) -> bool:
    """Right comodule axiom (rho (x) beta) o rho = (g (x) Delta) o rho.

    ``rho[m][p][i]`` is the coefficient of u_p (x) e_i in rho(u_m).
    """
    n = coalgebra.dim
    coact = [[[rat(v) for v in row] for row in plane] for plane in rho]
    if len(coact) != m_dim or any(len(plane) != m_dim for plane in coact) or \
            any(len(row) != n for plane in coact for row in plane):
        raise ValueError("coaction tensor must have shape m_dim x m_dim x dim")
    if g.dim != m_dim:
        raise ValueError("g must act on the comodule")
    # both sides live in M (x) V (x) V, indexed [m][p][j][l]
    lhs = contract("li,mqi,qpj->mpjl", coalgebra.beta, coact, coact)
    rhs = contract("pq,mqi,ijl->mpjl", g, coact, coalgebra.comul)
    return lhs == rhs


def comul_morphism_defect(f: LinearMap, source: ComulTensor, target: ComulTensor) -> ComulTensor:
    """Delta' o f - (f (x) f) o Delta, one plane per basis vector."""
    return ComulTensor(contract("tk,tij->kij", f, target)) \
        - ComulTensor(contract("ia,kab,jb->kij", f, source, f))


def check_coalgebra_morphism(
    f: LinearMap, source: HomCoalgebra, target: HomCoalgebra
) -> bool:
    """(f (x) f) o Delta = Delta' o f, eps = eps' o f, f o beta = beta' o f."""
    if f.dim != source.dim or source.dim != target.dim:
        raise ValueError("dimension mismatch in morphism check")
    if not comul_morphism_defect(f, source.comul, target.comul).is_zero():
        return False
    if f.compose(source.beta) != target.beta.compose(f):
        return False
    if source.counit is not None and target.counit is not None:
        if Vector(contract("i,ik->k", target.counit, f)) != source.counit:
            return False
    elif (source.counit is None) != (target.counit is None):
        return False
    return True
