import random
from fractions import Fraction
from itertools import product

import pytest

from homalg import (
    HomAlgebra,
    LinearMap,
    MulTensor,
    Vector,
    alpha_associator,
    check_algebra_morphism,
    check_G_hom_associative,
    check_hom_associative,
    check_hom_jacobi,
    check_hom_leibniz,
    check_module,
    check_skew,
    check_twist_multiplicative,
    check_unital,
    commutator_bracket,
    dual_algebra_of_coalgebra,
    generic_coalgebra,
    multiply,
    tensor_product,
)
from homalg.sampling import random_linear_map, random_mul_tensor, random_scalar, \
    random_vector
from homalg.tensors import contract

from conftest import mu1_algebra, mu2_algebra, registry_parts

E1 = Vector.basis(2, 0)
E2 = Vector.basis(2, 1)


# The first dim-2 structure with {0,1} constants and alpha = id whose
# associator does not vanish, found by the brute-force search below:
# mu(e1 (x) e2) = e1, all other products 0.  Its only defect is
# a(e1, e2, e2) = e1, and its G1..G6 pass/fail vector is frozen here.
NEGATIVE_CONTROL = HomAlgebra(
    mul=MulTensor.from_entries(2, {(0, 1, 0): 1}),
    alpha=LinearMap.identity(2),
)
NEGATIVE_CONTROL_G_VECTOR = (False, False, True, False, False, True)


def test_multiply_mu1_idempotent():
    assert multiply(mu1_algebra(), E2, E2) == E2


def test_multiply_mu2_nilpotent():
    assert multiply(mu2_algebra(), E2, E2) == Vector.zero(2)


def test_multiply_by_unit():
    rng = random.Random(3)
    for algebra in (mu1_algebra(2, 5), mu2_algebra(1, 7)):
        for _ in range(5):
            x = random_vector(2, rng)
            assert multiply(algebra, E1, x) == x
            assert multiply(algebra, x, E1) == x


def test_associator_vanishes_on_hom_associative():
    algebra = mu1_algebra(a1=2, a2=5)
    for p, q, s in product(range(2), repeat=3):
        assert alpha_associator(
            algebra, Vector.basis(2, p), Vector.basis(2, q), Vector.basis(2, s)
        ).is_zero()


def test_associator_hand_expansion():
    # mu1 with a1=1, a2=3: both routes through (e2, e2, e1) give 3*e2
    algebra = mu1_algebra(a1=1, a2=3)
    assert alpha_associator(algebra, E2, E2, E1).is_zero()
    left = multiply(algebra, multiply(algebra, E2, E2), algebra.alpha.apply(E1))
    assert left == Vector([0, 3])


def test_dim1_scaled_twist_still_associative():
    algebra = HomAlgebra(
        mul=MulTensor.from_entries(1, {(0, 0, 0): 1}),
        alpha=LinearMap([[2]]),
    )
    one = Vector.basis(1, 0)
    assert alpha_associator(algebra, one, one, one).is_zero()


def test_degenerate_twist_masks_nonassociativity():
    # alpha kills e2 and mu(e1 (x) .) = 0, so the associator on (e2,e2,e2)
    # vanishes even though the structure is not associative in any ordinary
    # sense
    algebra = HomAlgebra(
        mul=MulTensor.from_entries(2, {(1, 1, 0): 1}),
        alpha=LinearMap([[1, 0], [0, 0]]),
    )
    assert alpha_associator(algebra, E2, E2, E2).is_zero()


def brute_force_negative_control():
    """Search {0,1} structure constants (alpha = id) for a nonzero associator."""
    for bits in range(256):
        entries = {}
        idx = 0
        for i, j, k in product(range(2), repeat=3):
            if (bits >> idx) & 1:
                entries[(i, j, k)] = 1
            idx += 1
        algebra = HomAlgebra(
            mul=MulTensor.from_entries(2, entries), alpha=LinearMap.identity(2)
        )
        if not check_hom_associative(algebra).ok:
            return algebra
    raise AssertionError("search failed")


def test_negative_control_found_by_search():
    found = brute_force_negative_control()
    assert found == NEGATIVE_CONTROL
    report = check_hom_associative(found)
    assert not report.ok
    assert [w.indices for w in report.witnesses] == [(0, 1, 1, 0)]
    assert report.witnesses[0].value == 1


def test_check_hom_associative_classification_classes():
    rng = random.Random(5)
    for _ in range(6):
        a1 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        a2 = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        assert check_hom_associative(mu1_algebra(a1, a2)).ok
        assert check_hom_associative(mu2_algebra(a1, a2)).ok


def test_matrix_convention_discriminator():
    # Under columns-as-images the classification twist works for generic
    # parameters; reading the same grid with rows as images (i.e. using the
    # transpose) forces a1 = a2.
    a1, a2 = Fraction(2), Fraction(5)
    col = mu1_algebra(a1, a2)
    assert check_hom_associative(col).ok
    row_reading = HomAlgebra(mul=col.mul, alpha=col.alpha.transpose(),
                             unit=col.unit)
    assert not check_hom_associative(row_reading).ok
    equal = mu1_algebra(3, 3)
    row_equal = HomAlgebra(mul=equal.mul, alpha=equal.alpha.transpose(),
                           unit=equal.unit)
    assert check_hom_associative(row_equal).ok


def test_twist_not_multiplicative_in_general():
    # alpha(e2.e2) = a2 e2 but alpha(e2).alpha(e2) = a2^2 e2
    assert not check_twist_multiplicative(mu1_algebra(1, 3))
    assert check_twist_multiplicative(mu1_algebra(1, 1))


def test_check_unital():
    assert check_unital(mu1_algebra()) is True
    assert check_unital(mu2_algebra()) is True
    no_unit = HomAlgebra(mul=mu1_algebra().mul, alpha=LinearMap.identity(2))
    assert check_unital(no_unit) is None
    wrong_unit = HomAlgebra(mul=mu1_algebra().mul, alpha=LinearMap.identity(2),
                            unit=E2)
    # mu1(e2 (x) e1) = e2 != e1, so e2 is not a unit
    assert check_unital(wrong_unit) is False


def test_trilinearity_against_contraction():
    # associator on random vectors equals the structure-constant contraction
    # of basis associators
    rng = random.Random(23)
    algebra = HomAlgebra(mul=random_mul_tensor(2, rng),
                         alpha=random_linear_map(2, rng))
    table = {
        (p, q, s): alpha_associator(
            algebra, Vector.basis(2, p), Vector.basis(2, q), Vector.basis(2, s)
        )
        for p, q, s in product(range(2), repeat=3)
    }
    for _ in range(10):
        x, y, z = (random_vector(2, rng) for _ in range(3))
        direct = alpha_associator(algebra, x, y, z)
        assembled = Vector.zero(2)
        for p, q, s in product(range(2), repeat=3):
            w = x[p] * y[q] * z[s]
            if w != 0:
                assembled = assembled + w * table[(p, q, s)]
        assert direct == assembled


# --- G-Hom-associativity ----------------------------------------------------

def test_G1_equals_hom_associative_on_randoms():
    rng = random.Random(31)
    for _ in range(20):
        algebra = HomAlgebra(mul=random_mul_tensor(2, rng),
                             alpha=random_linear_map(2, rng))
        assert check_G_hom_associative(algebra, "G1").ok == \
            check_hom_associative(algebra).ok


def test_G6_passes_on_hom_associative():
    assert check_G_hom_associative(mu1_algebra(2, 3), "G6").ok
    for name in ("G1", "G2", "G3", "G4", "G5", "G6"):
        assert check_G_hom_associative(mu1_algebra(2, 3), name).ok


def test_negative_control_G_vector():
    vec = tuple(
        check_G_hom_associative(NEGATIVE_CONTROL, f"G{i}").ok for i in range(1, 7)
    )
    assert vec == NEGATIVE_CONTROL_G_VECTOR


def test_unknown_subgroup_rejected():
    with pytest.raises(ValueError):
        check_G_hom_associative(mu1_algebra(), "G7")


# --- commutator bracket and Hom-Lie layer ----------------------------------

def test_commutator_of_commutative_is_zero():
    lie = commutator_bracket(mu1_algebra(2, 7))
    assert all(
        lie.mul.entry(i, j, k) == 0 for i, j, k in product(range(2), repeat=3)
    )


def test_bracket_diagonal_vanishes():
    rng = random.Random(37)
    algebra = HomAlgebra(mul=random_mul_tensor(3, rng),
                         alpha=random_linear_map(3, rng))
    lie = commutator_bracket(algebra)
    for i in range(3):
        e = Vector.basis(3, i)
        assert lie.mul.apply(e, e).is_zero()


def test_noncommutative_bracket_value():
    algebra = HomAlgebra(
        mul=MulTensor.from_entries(2, {(0, 1, 1): 1}),
        alpha=LinearMap.identity(2),
    )
    lie = commutator_bracket(algebra)
    assert lie.mul.apply(E1, E2) == E2
    assert lie.mul.apply(E2, E1) == -E2


def test_skew_and_jacobi_from_hom_associative():
    for a1, a2 in ((1, 1), (2, 5), (Fraction(1, 2), Fraction(-3, 4)), (0, 0)):
        for algebra in (mu1_algebra(a1, a2), mu2_algebra(a1, a2)):
            lie = commutator_bracket(algebra)
            assert check_skew(lie)
            assert check_hom_jacobi(lie).ok
            assert check_hom_leibniz(lie).ok


def test_bracket_lawful_on_tensor_products_and_duals():
    # every Hom-associative structure in sight must commutator-bracket into
    # a skew Hom-Jacobi bracket: the classification classes, their tensor
    # products, and algebras produced by dualizing coalgebras
    from homalg import dual_algebra_of_coalgebra
    from conftest import bialgebra_row

    candidates = [
        tensor_product(mu1_algebra(1, 1), mu1_algebra(1, 1)),
        tensor_product(mu2_algebra(2, 3), mu1_algebra(1, 2)),
        dual_algebra_of_coalgebra(bialgebra_row(2, b1=2, b2=0, b3=5).coalgebra),
        dual_algebra_of_coalgebra(bialgebra_row(1, b1=1, b2=3, b3=0).coalgebra),
    ]
    for algebra in candidates:
        assert check_hom_associative(algebra).ok
        lie = commutator_bracket(algebra)
        assert check_skew(lie)
        assert check_hom_jacobi(lie).ok


def test_zero_bracket_trivially_lawful():
    lie = HomAlgebra(mul=MulTensor.zero(2), alpha=LinearMap.identity(2))
    assert check_skew(lie)
    assert check_hom_jacobi(lie).ok
    assert check_hom_leibniz(lie).ok


def test_corrupted_bracket_detected():
    lie = commutator_bracket(HomAlgebra(
        mul=MulTensor.from_entries(2, {(0, 1, 1): 1}),
        alpha=LinearMap.identity(2),
    ))
    # flip one sign: set bracket(e2, e1) = +e2 instead of -e2
    bad = MulTensor.from_entries(2, {(0, 1, 1): 1, (1, 0, 1): 1})
    corrupted = HomAlgebra(mul=bad, alpha=lie.alpha)
    assert not check_skew(corrupted)
    leib = check_hom_leibniz(corrupted)
    assert not leib.ok and leib.witnesses


def test_skew_plus_leibniz_implies_jacobi():
    rng = random.Random(41)
    found = 0
    while found < 12:
        cube = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        # random skew bracket: only the e1,e2 slot is free in dim 2
        v = random_vector(2, rng)
        cube[0][1] = [v[0], v[1]]
        cube[1][0] = [-v[0], -v[1]]
        lie = HomAlgebra(mul=MulTensor(cube), alpha=random_linear_map(2, rng))
        assert check_skew(lie)
        if check_hom_leibniz(lie).ok:
            found += 1
            assert check_hom_jacobi(lie).ok


# --- tensor products --------------------------------------------------------

def test_tensor_product_mu1_mu1():
    prod = tensor_product(mu1_algebra(1, 1), mu1_algebra(1, 1))
    assert prod.dim == 4
    assert check_hom_associative(prod).ok
    assert check_unital(prod) is True


def test_tensor_product_unit_is_first_unit_times_second():
    # mu1 with e1 and e2 swapped has unit e2, so eta1 (x) eta2 = e2 (x) e1,
    # index 1 * 2 + 0, while eta2 (x) eta1 = e1 (x) e2 would be index 1
    swapped = HomAlgebra(
        mul=MulTensor.from_entries(2, {(1 - i, 1 - j, 1 - k): v for (i, j, k), v in
                                       mu1_algebra().mul.nonzero.items()}),
        alpha=LinearMap.identity(2), unit=E2)
    assert check_unital(swapped) is True
    prod = tensor_product(swapped, mu1_algebra(1, 1))
    assert prod.unit == Vector.basis(4, 2)
    assert check_unital(prod) is True


def test_tensor_product_with_dim1_identity_is_reindexing():
    one = HomAlgebra(
        mul=MulTensor.from_entries(1, {(0, 0, 0): 1}),
        alpha=LinearMap.identity(1),
        unit=Vector.basis(1, 0),
    )
    algebra = mu1_algebra(2, 3)
    assert tensor_product(algebra, one) == algebra


def test_tensor_product_unit_mixing_rejected():
    no_unit = HomAlgebra(mul=mu1_algebra().mul, alpha=LinearMap.identity(2))
    with pytest.raises(ValueError):
        tensor_product(mu1_algebra(), no_unit)


def _merged(t, pairs: int):
    """Each pair of consecutive legs (i1, i2) of nested lists flattened to i1 * dim2 + i2."""
    return t if pairs == 0 else [_merged(inner, pairs - 1) for outer in t for inner in outer]


def _reference_tensor_product(a1: HomAlgebra, a2: HomAlgebra) -> HomAlgebra:
    """The tensor product on nested lists: each factor pair contracted, then
    its leg pairs merged."""
    unit = None if a1.unit is None else Vector(_merged(contract("a,b->ab", a1.unit, a2.unit), 1))
    return HomAlgebra(mul=MulTensor(_merged(contract("ace,bdf->abcdef", a1.mul, a2.mul), 3)),
                      alpha=LinearMap(_merged(contract("ac,bd->abcd", a1.alpha, a2.alpha), 2)),
                      unit=unit)


@pytest.mark.parametrize("unital", [True, False])
def test_tensor_product_matches_the_nested_list_reference(unital):
    # random dims 1-3 and denominators 1-3; equality compares the stored
    # numerators and denominator, so the result is in lowest terms too
    rng = random.Random(44 + unital)
    for _ in range(40):
        a1, a2 = (HomAlgebra(random_mul_tensor(dim, rng), random_linear_map(dim, rng),
                             random_vector(dim, rng) if unital else None)
                  for dim in (rng.randint(1, 3), rng.randint(1, 3)))
        assert tensor_product(a1, a2) == _reference_tensor_product(a1, a2)


def test_tensor_product_reduces_the_product_of_denominators():
    # denominators 6 and 10 share the factor 2, and 5 divides every numerator
    # of the first, 3 every numerator of the second: 60 reduces to 4
    def factor(small: Fraction, big: Fraction) -> HomAlgebra:
        return HomAlgebra(mul=MulTensor.from_entries(2, {(0, 0, 0): small, (0, 1, 1): big}),
                          alpha=LinearMap.from_entries(2, {(0, 0): small, (1, 0): big}),
                          unit=Vector([small, big]))

    a1, a2 = factor(Fraction(5, 6), Fraction(5, 2)), factor(Fraction(3, 10), Fraction(3, 2))
    prod = tensor_product(a1, a2)
    assert prod == _reference_tensor_product(a1, a2)
    assert [(a1_part._den, a2_part._den, part._den) for a1_part, a2_part, part in
            zip((a1.mul, a1.alpha, a1.unit), (a2.mul, a2.alpha, a2.unit),
                (prod.mul, prod.alpha, prod.unit))] == [(6, 10, 4)] * 3


# --- morphisms and modules ---------------------------------------------------

def test_identity_is_morphism():
    algebra = mu1_algebra(2, 3)
    assert check_algebra_morphism(LinearMap.identity(2), algebra, algebra)


def test_zero_map_fails_unit_condition():
    algebra = mu1_algebra()
    assert not check_algebra_morphism(LinearMap.zero(2), algebra, algebra)


def test_diagonal_rescaling_breaks_mu1_morphism():
    # f = diag(1, 2) fails on mu1: f(e2.e2) = 2 e2 but f(e2).f(e2) = 4 e2
    algebra = mu1_algebra(1, 1)
    f = LinearMap([[1, 0], [0, 2]])
    assert not check_algebra_morphism(f, algebra, algebra)


def test_identity_between_mu1_twists_fails_only_the_twist_condition():
    source, target = mu1_algebra(1, 2), mu1_algebra(1, 3)
    assert source.mul == target.mul and source.unit == target.unit
    assert source.alpha != target.alpha
    assert not check_algebra_morphism(LinearMap.identity(2), source, target)


def test_unit_on_one_side_only_fails_morphism():
    unital = mu1_algebra()
    bare = HomAlgebra(unital.mul, unital.alpha)
    ident = LinearMap.identity(2)
    assert check_algebra_morphism(ident, bare, bare)
    assert not check_algebra_morphism(ident, unital, bare)
    assert not check_algebra_morphism(ident, bare, unital)


def test_self_module():
    for algebra in (mu1_algebra(2, 3), mu2_algebra(1, 4)):
        gamma = [[list(algebra.mul.c[i][m]) for m in range(2)] for i in range(2)]
        assert check_module(algebra, 2, algebra.alpha, gamma)


def test_self_module_is_hom_associativity():
    """At M = V, f = alpha and gamma = mu the module axiom is the
    Hom-associativity equation, so the two checks agree: on the registry's
    algebra sides, which pass, and on seeded random algebras, which fail
    from dim 2 on (every dim-1 algebra is Hom-associative)."""
    registered = [p.algebra for p in registry_parts() if p.algebra is not None]
    rng = random.Random(12)
    randoms = [HomAlgebra(random_mul_tensor(n, rng), random_linear_map(n, rng))
               for n in (1, 2, 3) for _ in range(10)]
    cases = [(a, True) for a in registered] + [(a, a.dim == 1) for a in randoms]
    for a, want in cases:
        assert check_module(a, a.dim, a.alpha, a.mul.c) is check_hom_associative(a).ok is want


def test_module_action_is_tabled_once(monkeypatch):
    import homalg.algebra
    import homalg.tensors

    a = mu1_algebra(2, 3)
    # the action as nested lists, not the algebra's own tensor
    gamma = [[list(row) for row in plane] for plane in a.mul.c]
    calls = []

    def counted(data, depth, tabled=homalg.tensors.tabled):
        calls.append(depth)
        return tabled(data, depth)

    for module in (homalg.algebra, homalg.tensors):
        monkeypatch.setattr(module, "tabled", counted)
    assert check_module(a, a.dim, a.alpha, gamma)
    assert calls == [3]


def test_zero_action_is_module():
    algebra = mu1_algebra()
    gamma = [[[0] * 3 for _ in range(3)] for _ in range(2)]
    rng = random.Random(43)
    assert check_module(algebra, 3, random_linear_map(3, rng), gamma)


def test_corrupted_action_detected():
    algebra = mu1_algebra(1, 1)
    gamma = [[list(algebra.mul.c[i][m]) for m in range(2)] for i in range(2)]
    gamma[1][1][1] = Fraction(5)
    assert not check_module(algebra, 2, algebra.alpha, gamma)


def test_upper_triangular_matrices_act_on_column_vectors():
    """The upper triangular 2x2 matrices (E11, E12, E22) act on the column
    vectors (u1, u2) by E11.u1 = u1, E12.u2 = u1 and E22.u2 = u2.  Neither
    the product nor the action is symmetric in its legs, so a swapped leg in
    either side of the module axiom shows, and so does E12 acting by its
    transpose, E12.u1 = u2."""
    mul = MulTensor.from_entries(3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1})
    algebra = HomAlgebra(mul, LinearMap.identity(3), Vector([1, 0, 1]))
    gamma = [[[0, 0], [0, 0]] for _ in range(3)]
    gamma[0][0][0] = gamma[1][1][0] = gamma[2][1][1] = 1
    assert check_module(algebra, 2, LinearMap.identity(2), gamma)
    gamma[1][1][0], gamma[1][0][1] = 0, 1
    assert not check_module(algebra, 2, LinearMap.identity(2), gamma)


def test_construction_rejects_mismatched_dimensions():
    mul, alpha = MulTensor.zero(2), LinearMap.identity(3)
    with pytest.raises(ValueError, match="^mul and alpha dimensions differ$"):
        HomAlgebra(mul, alpha)
    with pytest.raises(ValueError, match="^unit dimension differs from mul$"):
        HomAlgebra(mul, LinearMap.identity(2), Vector.basis(3, 0))


def test_algebra_morphism_check_rejects_mismatched_dimensions():
    dim2, dim3 = mu1_algebra(1, 1), HomAlgebra(MulTensor.zero(3), LinearMap.identity(3))
    for f, target in ((LinearMap.identity(3), dim2), (LinearMap.identity(2), dim3)):
        with pytest.raises(ValueError, match="^dimension mismatch in morphism check$"):
            check_algebra_morphism(f, dim2, target)


@pytest.mark.parametrize("gamma, m_dim, message", [
    ([[[0] * 2] * 2], 2, "action tensor must have shape dim x m_dim x m_dim"),
    ([[[0] * 2] * 3] * 2, 2, "action tensor must have shape dim x m_dim x m_dim"),
    ([[[0] * 3] * 2] * 2, 2, "action tensor must have shape dim x m_dim x m_dim"),
    ([[[0] * 3] * 3] * 2, 3, "f must act on the module"),
    (MulTensor.zero(3), 2, "action tensor must have shape dim x m_dim x m_dim"),
    (LinearMap.identity(2), 2, "action tensor must have shape dim x m_dim x m_dim"),
], ids=["dim", "m-dim", "row", "f", "tensor-dim", "tensor-order"])
def test_module_rejects_mismatched_shapes(gamma, m_dim, message):
    algebra = mu1_algebra()
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_module(algebra, m_dim, LinearMap.identity(2), gamma)


def test_module_rejects_malformed_entry():
    algebra = mu1_algebra(1, 1)
    gamma = [[[0, 0], [0, 0]], [[0, "x"], [0, 0]]]
    with pytest.raises(ValueError, match="not a rational number"):
        check_module(algebra, 2, algebra.alpha, gamma)


def reference_module(a, m_dim, f, gamma):
    """gamma o (mu (x) f) = gamma o (alpha (x) gamma), entry by entry."""
    n, mul, alpha, f = a.dim, a.mul.c, a.alpha.entries, f.entries
    for x, y, m, p in product(range(n), range(n), range(m_dim), range(m_dim)):
        lhs = sum(mul[x][y][t] * f[r][m] * gamma[t][r][p]
                  for t in range(n) for r in range(m_dim))
        rhs = sum(alpha[s][x] * gamma[y][m][r] * gamma[s][r][p]
                  for s in range(n) for r in range(m_dim))
        if lhs != rhs:
            return False
    return True


def block_module(a):
    """M = V (+) V, each copy acted on as V is by mu, twisted by alpha (+) alpha."""
    n = a.dim
    gamma = [[[a.mul.c[i][m % n][p % n] if m // n == p // n else 0 for p in range(2 * n)]
              for m in range(2 * n)] for i in range(n)]
    f = LinearMap([[a.alpha.entries[p % n][q % n] if p // n == q // n else 0
                    for q in range(2 * n)] for p in range(2 * n)])
    return 2 * n, f, gamma


def test_modules_match_the_direct_action():
    rng = random.Random(71)
    registered = [p.algebra for p in registry_parts() if p.algebra is not None]
    randoms = [HomAlgebra(random_mul_tensor(n, rng), random_linear_map(n, rng))
               for n in (1, 2, 3) for _ in range(4)]
    generic = dual_algebra_of_coalgebra(generic_coalgebra(2))
    results = []
    for a in registered + randoms + [generic]:
        n = a.dim
        # the self case M = V, f = alpha, gamma = mu, as nested lists, as
        # the tensor's own tuples and as the tensor itself
        gamma = [[list(row) for row in plane] for plane in a.mul.c]
        want = reference_module(a, n, a.alpha, gamma)
        assert check_module(a, n, a.alpha, gamma) is check_module(a, n, a.alpha, a.mul.c) \
            is check_module(a, n, a.alpha, a.mul) is want
        results.append(want)
        # near it, on the general path: gamma = mu but for one entry, and
        # f = alpha + E_11
        i, m, p = (rng.randrange(n) for _ in range(3))
        gamma[i][m][p] += 1
        want = reference_module(a, n, a.alpha, gamma)
        assert check_module(a, n, a.alpha, gamma) is want
        results.append(want)
        f = a.alpha + LinearMap.from_entries(n, {(0, 0): 1})
        want = reference_module(a, n, f, a.mul.c)
        assert check_module(a, n, f, a.mul.c) is check_module(a, n, f, a.mul) is want
        results.append(want)
        # M = V (+) V acted on block by block: a module exactly when V is one
        m_dim, f, gamma = block_module(a)
        want = reference_module(a, m_dim, f, gamma)
        assert want is reference_module(a, n, a.alpha, a.mul.c)
        assert check_module(a, m_dim, f, gamma) is want
        gamma[rng.randrange(n)][0][m_dim - 1] = 1
        assert check_module(a, m_dim, f, gamma) is reference_module(a, m_dim, f, gamma)
    # random M and random action over random algebras
    for n in (1, 2, 3):
        a, m_dim = HomAlgebra(random_mul_tensor(n, rng), random_linear_map(n, rng)), \
            rng.randint(1, 3)
        gamma = [[[random_scalar(rng) for _ in range(m_dim)] for _ in range(m_dim)]
                 for _ in range(n)]
        f = random_linear_map(m_dim, rng)
        assert check_module(a, m_dim, f, gamma) is reference_module(a, m_dim, f, gamma)
    assert True in results and False in results
