import random
from collections import Counter
from fractions import Fraction

import pytest

from homalg import (
    ComulTensor,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    LinearMap,
    MulTensor,
    SUBGROUPS,
    Vector,
    check_G_hom_associative,
    check_G_hom_coalgebra,
    check_hom_associative,
    check_hom_coassociative,
    check_unital,
    check_counital,
    commutator_bracket,
    delta_L,
    dual,
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
    generic_coalgebra,
    multiply,
    registry,
    tensor_product,
)
from homalg.algebra import _NESTED, _OUTER
from homalg.coalgebra import beta_coassociator, expand_beta_outer, expand_outer_beta
from homalg.tensors import Tensor3, Tensor4
from homalg.sampling import (
    random_comul_tensor,
    random_linear_map,
    random_mul_tensor,
    random_scalar,
)

from conftest import bialgebra_row, grouplike_coalgebra, mu1_algebra, reference_G_defect


def random_coalgebra(dim, rng, counital=False):
    counit = Vector([random_scalar(rng) for _ in range(dim)]) if counital else None
    return HomCoalgebra(comul=random_comul_tensor(dim, rng),
                        beta=random_linear_map(dim, rng), counit=counit)


def test_dual_of_grouplike_is_pointwise_product():
    dual = dual_algebra_of_coalgebra(grouplike_coalgebra(3))
    for i in range(3):
        for j in range(3):
            prod = multiply(dual, Vector.basis(3, i), Vector.basis(3, j))
            expect = Vector.basis(3, i) if i == j else Vector.zero(3)
            assert prod == expect
    # counit 1,...,1 becomes the unit of the pointwise product
    assert check_unital(dual) is True


def test_dual_of_row1_coalgebra_is_hom_associative():
    c = bialgebra_row(1, b1=2, b2=5, b3=0).coalgebra
    dual = dual_algebra_of_coalgebra(c)
    for i in range(2):
        e = Vector.basis(2, i)
        assert multiply(dual, e, e) == e
    assert check_hom_associative(dual).ok
    assert dual.alpha == c.beta.transpose()


def test_dual_of_zero_comultiplication():
    c = HomCoalgebra(comul=ComulTensor.zero(2), beta=LinearMap.identity(2))
    dual = dual_algebra_of_coalgebra(c)
    assert dual.mul == MulTensor.zero(2)


def test_round_trip_exact():
    rng = random.Random(3)
    for _ in range(10):
        c = random_coalgebra(2, rng, counital=True)
        assert dual_coalgebra_of_algebra(dual_algebra_of_coalgebra(c)) == c
    a = mu1_algebra(Fraction(2, 3), Fraction(-1, 2))
    assert dual_algebra_of_coalgebra(dual_coalgebra_of_algebra(a)) == a


def test_dual_of_mu1_is_hom_coassociative():
    dual = dual_coalgebra_of_algebra(mu1_algebra(1, 2))
    assert check_hom_coassociative(dual).ok
    assert check_counital(dual) is True


def test_dual_of_tensor_product_algebra():
    prod = tensor_product(mu1_algebra(1, 1), mu1_algebra(1, 1))
    dual = dual_coalgebra_of_algebra(prod)
    assert dual.dim == 4
    assert check_hom_coassociative(dual).ok


def direct_verdict(c, group):
    """Whether the direct expansion of c_beta(Delta), signed-summed over G,
    vanishes; it does not go through the transpose.  Asserts that the
    G-checks of the coalgebra and of its transpose both give this verdict."""
    direct = all(t.is_zero() for t in reference_G_defect(c, group))
    assert check_G_hom_coalgebra(c, group).ok is direct
    assert check_G_hom_associative(dual_algebra_of_coalgebra(c), group).ok is direct
    return direct


def test_defect_correspondence_coassociative_G1():
    c = bialgebra_row(2, b1=1, b2=0, b3=4).coalgebra
    assert direct_verdict(c, "G1")
    assert check_hom_associative(dual_algebra_of_coalgebra(c)).ok


def test_defect_correspondence_negative_witness():
    # non-coassociative: both sides must fail together under G1
    c = HomCoalgebra(
        comul=ComulTensor.from_entries(2, {(0, 0, 1): 1}),
        beta=LinearMap.identity(2),
    )
    assert not check_hom_coassociative(c).ok
    assert not check_hom_associative(dual_algebra_of_coalgebra(c)).ok
    assert not direct_verdict(c, "G1")


def test_defect_correspondence_random():
    rng = random.Random(5)
    verdicts = Counter()
    for dim in (2, 3):
        for _ in range(10):
            c = random_coalgebra(dim, rng)
            for group in SUBGROUPS:
                verdicts[direct_verdict(c, group)] += 1
    # not vacuous: G6 vanishes on every dim-2 coalgebra, the rest fail
    assert verdicts == {True: 10, False: 110}


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_commutator_bracket_and_cocommutator_are_duals(dim):
    # the bracket and Delta_L are one structure type seen from either side; a
    # declared (co)unit is dropped by both
    rng = random.Random(60 + dim)
    for counital in (False, True):
        c = random_coalgebra(dim, rng, counital=counital)
        assert commutator_bracket(dual_algebra_of_coalgebra(c)) == \
            dual_algebra_of_coalgebra(delta_L(c))
        unit = Vector([random_scalar(rng) for _ in range(dim)]) if counital else None
        a = HomAlgebra(mul=random_mul_tensor(dim, rng), alpha=random_linear_map(dim, rng),
                       unit=unit)
        assert dual_coalgebra_of_algebra(commutator_bracket(a)) == \
            delta_L(dual_coalgebra_of_algebra(a))
        assert commutator_bracket(a).unit is None


def test_dual_covers_all_four_kinds():
    hopf = registry()["hopf-2"].build({"b1": 1, "b2": 0, "b3": 1})
    bialgebra = hopf.bialgebra
    algebra, coalgebra = bialgebra.algebra, bialgebra.coalgebra
    assert dual(algebra) == dual_coalgebra_of_algebra(algebra)
    assert dual(coalgebra) == dual_algebra_of_coalgebra(coalgebra)
    assert dual(bialgebra) == HomBialgebra(algebra=dual(coalgebra), coalgebra=dual(algebra))
    assert dual(hopf) == HomHopf(bialgebra=dual(bialgebra), antipode=hopf.antipode.transpose())
    for structure in (algebra, coalgebra, bialgebra, hopf):
        assert dual(dual(structure)) == structure


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dual_associator_is_the_coassociator_on_generic_coalgebra(dim):
    # beta_coassociator is the dual algebra's associator; on the generic
    # coalgebra it equals the direct expansion of (Delta (x) beta) o Delta and
    # (beta (x) Delta) o Delta term by term, so with the dim-3 certificate
    # (test_dim_3_decides_the_identities_at_every_dimension) the G1-G6 defects
    # of a coalgebra, decided on its dual, are its own at every dim
    c = generic_coalgebra(dim)
    right = expand_outer_beta(c.comul, c.comul, c.beta)
    left = expand_beta_outer(c.comul, c.comul, c.beta)
    dual = dual_algebra_of_coalgebra(c)
    operands = dual.alpha, dual.mul, dual.mul
    assert Tensor3.parts(Tensor4.contracted(_OUTER, *operands)) == right
    assert Tensor3.parts(Tensor4.contracted(_NESTED, *operands)) == left
    assert beta_coassociator(c) == tuple(r - l for r, l in zip(right, left))


@pytest.mark.parametrize("dim", [2, 3])
def test_defect_correspondence_proved_on_generic_coalgebra(dim):
    # the defects of the generic coalgebra are polynomials in its constants, so
    # multisets equal to the direct expansion's prove the correspondence for
    # every coalgebra of this dim
    c = generic_coalgebra(dim)
    algebra = dual_algebra_of_coalgebra(c)
    for group in SUBGROUPS:
        direct = Counter(v for t in reference_G_defect(c, group) for v in t.nonzero.values())
        coalgebra_values = Counter(w.value for w in check_G_hom_coalgebra(c, group).witnesses)
        algebra_values = Counter(w.value for w in check_G_hom_associative(algebra, group).witnesses)
        assert coalgebra_values == direct and algebra_values == direct
        # not vacuous: only the alternating G6 sum vanishes, and only below dim 3
        assert bool(direct) == (group != "G6" or dim >= 3)
