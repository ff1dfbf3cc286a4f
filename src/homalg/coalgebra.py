"""Finite-dimensional Hom-coalgebras and the twisted-coassociativity identities.

The central object is the beta-coassociator

    c_beta(Delta) = (Delta (x) beta) o Delta - (beta (x) Delta) o Delta.

Every condition is decided on the transpose :func:`dual_algebra_of_coalgebra`:
c_beta(Delta) at basis vector k is the transpose's alpha-associator at output
component k (the same two contraction networks), the counit law (C2) is its
unit law, the self-comodule axiom its Hom-associativity, and morphisms
transpose to algebra morphisms (other comodules read Delta directly).  Axiom
(C1) is the vanishing of c_beta(Delta).  No compatibility axiom ties beta
to the counit (nothing like eps o beta = eps is demanded or enforced).

Delta_L = Delta - Delta^op is the cocommutator; the triple (V, Delta, beta)
is Hom-Lie admissible when the cyclic sum

    c_beta(Delta_L) + Phi_(213) o c_beta(Delta_L) + Phi_(231) o c_beta(Delta_L)

vanishes, equivalently (and always exactly twice) the alternating sum of
Phi_sigma o c_beta(Delta) over all of S3.  :func:`check_hom_lie_admissible`
reports both routes from the alternating (G6) table;
:func:`admissibility_defects` computes each route on its own.  The direct
expansions of Delta followed by Delta and beta (:func:`expand_outer_beta`,
:func:`expand_beta_outer`) serve the lemma identities.

Some presentations write the comultiplication of the G2/G3 (Vinberg /
pre-Lie) variants as a map "mu: V -> V x V"; here it is always
Delta: V -> V (x) V, matching the surrounding coalgebra axioms.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from typing import Sequence

from .algebra import (
    HomAlgebra,
    _associator,
    _G_defect,
    _G_witnesses,
    _is_table_of,
    _sides_agree,
    _tabled_action,
    check_algebra_morphism,
    check_unital,
    commutator_bracket,
)
from .rational import Poly
from .reports import DefectReport, Defects
from .tensors import (
    ComulTensor,
    Fields,
    LinearMap,
    MulTensor,
    PERM_12,
    PERM_13,
    PERM_23,
    PERM_213,
    PERM_231,
    S3,
    Tensor2,
    Tensor3,
    Tensor4,
    Vector,
    phi_apply,
    signed_leg_sum,
    subgroup,
)


class HomCoalgebra(Fields):
    """Comultiplication constants, twisting map, optional counit covector.

    The counit stores the weights eps(e_k) as a length-dim vector.
    """

    comul: ComulTensor
    beta: LinearMap
    counit: Vector | None

    def __init__(self, comul, beta, counit=None):
        self._store(comul, beta, counit)
        if self.beta.dim != self.comul.dim:
            raise ValueError("comul and beta dimensions differ")
        if self.counit is not None and self.counit.dim != self.comul.dim:
            raise ValueError("counit dimension differs from comul")

    @property
    def dim(self) -> int:
        return self.comul.dim

    @cached_property
    def _transpose(self) -> HomAlgebra:
        """The transpose every checker decides on, with its G-defect tables:
        built once and kept as long as the coalgebra is."""
        return dual_algebra_of_coalgebra(self)

    @cached_property
    def _compositions(self) -> tuple[dict, dict]:
        """The eight ways of following Delta or Delta^op with Delta or
        Delta^op and beta: ``(outer_beta, beta_outer)``, two dicts keyed
        ``(outer, inner)`` with "d" for Delta and "op" for Delta^op, holding
        (outer (x) beta) o inner and (beta (x) outer) o inner as whole tables
        keyed (k, i, j, l), which both identity checks share."""
        comuls = {"d": self.comul, "op": self.comul.op()}
        return tuple({(outer, inner): _expansion(spec, comuls[inner], comuls[outer], self.beta)
                      for outer, inner in product(comuls, repeat=2)}
                     for spec in (_OUTER_BETA, _BETA_OUTER))


def generic_coalgebra(dim: int) -> HomCoalgebra:
    """Every structure constant its own variable: d_k_i_j for Delta, b_i_j for
    beta.  An identity that is a polynomial in the constants holds for every
    coalgebra of this dimension exactly when it holds here."""
    names = [f"d_{k}_{i}_{j}" for k, i, j in product(range(dim), repeat=3)] \
        + [f"b_{i}_{j}" for i, j in product(range(dim), repeat=2)]
    var = {name: Poly.var(names, name) for name in names}
    return HomCoalgebra(
        comul=ComulTensor([[[var[f"d_{k}_{i}_{j}"] for j in range(dim)] for i in range(dim)]
                           for k in range(dim)]),
        beta=LinearMap([[var[f"b_{i}_{j}"] for j in range(dim)] for i in range(dim)]),
    )


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
# tensor expansions: the two ways of following Delta with Delta and beta, as
# whole tables keyed (k, i, j, l) over operands (beta, inner, outer)

_OUTER_BETA = "lb,kab,aij->kijl"   # (outer (x) beta) o inner
_BETA_OUTER = "ia,kab,bjl->kijl"   # (beta (x) outer) o inner


def _expansion(spec: str, inner: ComulTensor, outer: ComulTensor, beta: LinearMap) -> Tensor4:
    """One of the two expansions as a whole table keyed (k, i, j, l)."""
    return Tensor4.contracted(spec, beta, inner, outer)


def expand_outer_beta(
    inner: ComulTensor, outer: ComulTensor, beta: LinearMap
) -> tuple[Tensor3, ...]:
    """(outer (x) beta) o inner, one order-3 tensor per basis vector."""
    return Tensor3.parts(_expansion(_OUTER_BETA, inner, outer, beta))


def expand_beta_outer(
    inner: ComulTensor, outer: ComulTensor, beta: LinearMap
) -> tuple[Tensor3, ...]:
    """(beta (x) outer) o inner, one order-3 tensor per basis vector."""
    return Tensor3.parts(_expansion(_BETA_OUTER, inner, outer, beta))


# ---------------------------------------------------------------------------
# the transpose, on which every condition is decided


def dual_algebra_of_coalgebra(coalgebra: HomCoalgebra) -> HomAlgebra:
    """C_{ij}^k := D_k^{ij}, alpha := beta transposed, unit := counit weights."""
    return HomAlgebra(MulTensor.contracted("kij->ijk", coalgebra.comul),
                      coalgebra.beta.transpose(), coalgebra.counit)


def dual_coalgebra_of_algebra(algebra: HomAlgebra) -> HomCoalgebra:
    """D_k^{ij} := C_{ij}^k, beta := alpha transposed, counit := unit coords."""
    return HomCoalgebra(ComulTensor.contracted("ijk->kij", algebra.mul),
                        algebra.alpha.transpose(), algebra.unit)


def beta_coassociator(coalgebra: HomCoalgebra) -> tuple[Tensor3, ...]:
    """c_beta(Delta) = (Delta (x) beta) o Delta - (beta (x) Delta) o Delta, one
    cube [i][j][l] per basis vector k: the alpha-associator of the transpose,
    kept with it, cut per basis vector."""
    return Tensor3.parts(_G_defect(coalgebra._transpose, "G1"))


def _cocommutator_coassociator(coalgebra: HomCoalgebra) -> Tensor4:
    """c_beta(Delta_L) keyed (k, i, j, l), kept nowhere: Delta_L
    transposes to the commutator bracket of the transpose, and this is that
    bracket's alpha-associator."""
    return _associator(commutator_bracket(coalgebra._transpose))


def check_hom_coassociative(coalgebra: HomCoalgebra) -> DefectReport:
    """(C1): the beta-coassociator vanishes on every basis vector."""
    return DefectReport("hom-coassociative",
                        _G_witnesses(coalgebra._transpose, "G1", k_first=True))


def counit_defects(coalgebra: HomCoalgebra) -> tuple[LinearMap, LinearMap]:
    """(id (x) eps) o Delta - id and (eps (x) id) o Delta - id, as matrices.

    The coalgebra must have a counit.
    """
    d, eps = coalgebra.comul, coalgebra.counit
    ident = LinearMap.identity(coalgebra.dim)
    return (LinearMap.contracted("kij,j->ik", d, eps) - ident,
            LinearMap.contracted("kij,i->jk", d, eps) - ident)


def check_counital(coalgebra: HomCoalgebra) -> bool | None:
    """(C2): (id (x) eps) o Delta = id = (eps (x) id) o Delta; None if no counit.
    The transpose's unit law."""
    return check_unital(coalgebra._transpose)


def check_G_hom_coalgebra(coalgebra: HomCoalgebra, group: str) -> DefectReport:
    """sum_{sigma in G} (-1)^eps(sigma) Phi_sigma o c_beta(Delta) = 0.

    G1 is Hom-coassociativity, G2 the Vinberg variant, G3 the pre-Lie
    variant, G6 Hom-Lie admissibility.
    """
    return DefectReport(f"{group}-hom-coalgebra",
                        _G_witnesses(coalgebra._transpose, group, k_first=True))


def admissibility_defects(
    coalgebra: HomCoalgebra,
) -> tuple[tuple[Tensor3, ...], tuple[Tensor3, ...]]:
    """The cyclic Delta_L defect and the alternating-S3 defect, per basis vector,
    each computed from its own definition.

    These always satisfy cyclic = 2 * alternating, which the test suite pins
    as a universal identity.
    """
    alternating = signed_leg_sum(S3, _associator(coalgebra._transpose), 1)
    # G5 = {id, (213), (231)}, all of sign +1: its signed sum is the cyclic sum
    cyclic = signed_leg_sum(subgroup("G5"), _cocommutator_coassociator(coalgebra), 1)
    return Tensor3.parts(cyclic), Tensor3.parts(alternating)


class AdmissibilityReport(Fields):
    """Both Hom-Lie admissibility routes; their booleans always agree."""

    cyclic: DefectReport
    alternating: DefectReport

    def __init__(self, cyclic, alternating):
        self._store(cyclic, alternating)

    @property
    def ok(self) -> bool:
        return self.cyclic.ok

    @property
    def methods_agree(self) -> bool:
        return self.cyclic.ok == self.alternating.ok


def check_hom_lie_admissible(coalgebra: HomCoalgebra) -> AdmissibilityReport:
    """Both routes.  The alternating one is the G6 condition and reads its
    table; the cyclic one reads that table doubled, since cyclic =
    2 * alternating on every coalgebra (``identities`` proves it)."""
    transpose = coalgebra._transpose
    return AdmissibilityReport(
        cyclic=DefectReport("hom-lie-admissible (cyclic)",
                            Defects.of(2 * _G_defect(transpose, "G6"))),
        alternating=DefectReport("hom-lie-admissible (alternating)",
                                 _G_witnesses(transpose, "G6", k_first=True)),
    )


def _phi(sigma, table: Tensor4) -> Tensor4:
    """Phi_sigma on the legs (i, j, l) of a table keyed (k, i, j, l)."""
    return phi_apply(sigma, table, 1)


def lemma_identities_check(coalgebra: HomCoalgebra) -> tuple[bool, bool, bool, bool, bool]:
    """Five universal identities tying Delta, Delta^op, and the S3 action:

    1. c_beta(Delta^op) = -Phi_(13) o c_beta(Delta)
    2. (beta (x) Delta^op) o Delta = Phi_(13) o (Delta (x) beta) o Delta^op
    3. (beta (x) Delta) o Delta^op = Phi_(13) o (Delta^op (x) beta) o Delta
    4. (Delta (x) beta) o Delta^op = Phi_(213) o (beta (x) Delta) o Delta
    5. (Delta^op (x) beta) o Delta = Phi_(12) o (Delta (x) beta) o Delta
    """
    ob, bo = coalgebra._compositions
    c, c_op = (ob[x, x] - bo[x, x] for x in ("d", "op"))
    return (c_op == -_phi(PERM_13, c),
            bo["op", "d"] == _phi(PERM_13, ob["d", "op"]),
            bo["d", "op"] == _phi(PERM_13, ob["op", "d"]),
            ob["d", "op"] == _phi(PERM_213, bo["d", "d"]),
            ob["op", "d"] == _phi(PERM_12, ob["d", "d"]))


def coassociator_expansion_check(coalgebra: HomCoalgebra) -> tuple[bool, bool]:
    """Two expansions of c_beta(Delta_L) against the direct computation.

    First: via c_beta(Delta), c_beta(Delta^op), and the four mixed
    Delta/Delta^op compositions.  Second: entirely in terms of Delta with
    Phi_(13), Phi_(213), Phi_(12), Phi_(23), Phi_(231) corrections.
    """
    ob, bo = coalgebra._compositions
    c, c_op = (ob[x, x] - bo[x, x] for x in ("d", "op"))
    c_L = _cocommutator_coassociator(coalgebra)
    # x = (Delta (x) beta) o Delta^op, y = (Delta^op (x) beta) o Delta
    x, y = ob["d", "op"], ob["op", "d"]
    first = c + c_op - x - y + _phi(PERM_13, x) + _phi(PERM_13, y)
    # left = (beta (x) Delta) o Delta, right = (Delta (x) beta) o Delta
    left, right = bo["d", "d"], ob["d", "d"]
    second = c - _phi(PERM_13, c) - _phi(PERM_213, left) - _phi(PERM_12, right) \
        + _phi(PERM_23, left) + _phi(PERM_231, right)
    return (c_L == first, c_L == second)


def check_comodule(
    coalgebra: HomCoalgebra,
    m_dim: int,
    g: LinearMap,
    rho: Sequence[Sequence[Sequence]] | ComulTensor,
) -> bool:
    """Right comodule axiom (rho (x) beta) o rho = (g (x) Delta) o rho.

    ``rho[m][p][i]`` is the coefficient of u_p (x) e_i in rho(u_m).  At M = V,
    g = beta, rho = Delta (by value) it is Hom-coassociativity, read off the
    transpose's associator table, which a cold call computes at the cost of
    the two sides.
    """
    rho = _tabled_action(rho, (m_dim, m_dim, coalgebra.dim),
                         "coaction tensor must have shape m_dim x m_dim x dim")
    if g.dim != m_dim:
        raise ValueError("g must act on the comodule")
    if g == coalgebra.beta and _is_table_of(rho, coalgebra.comul):
        return _G_defect(coalgebra._transpose, "G1").is_zero()
    # both sides as one whole table keyed (m, p, j, l)
    return _sides_agree("mqi,qpj,li->mpjl", (rho, rho, coalgebra.beta),
                        "mqi,pq,ijl->mpjl", (rho, g, coalgebra.comul))


def check_coalgebra_morphism(
    f: LinearMap, source: HomCoalgebra, target: HomCoalgebra
) -> bool:
    """(f (x) f) o Delta = Delta' o f, eps = eps' o f, f o beta = beta' o f: the
    transpose of f is an algebra morphism from the target's transpose to the
    source's."""
    return check_algebra_morphism(f.transpose(), dual_algebra_of_coalgebra(target),
                                  dual_algebra_of_coalgebra(source))
