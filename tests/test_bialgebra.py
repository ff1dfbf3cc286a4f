import random
from fractions import Fraction
from itertools import product

import pytest

import homalg.bialgebra
from homalg import (
    ComulTensor,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    HomHopf,
    LinearMap,
    MulTensor,
    Tensor2,
    Vector,
    antipode_certificate,
    antipode_defect,
    bullet,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_convolution_hom_associative,
    check_hom_associative,
    check_hom_coassociative,
    check_counital,
    check_unital,
    convolution,
    convolution_twist,
    convolution_unit,
    dual,
    generalized_primitive_subspace,
    primitive_subspace,
    registry,
    solve_antipode,
)
from homalg.coalgebra import expand_beta_outer, expand_outer_beta
from homalg.linsolve import linear_solve
from homalg.sampling import random_comul_tensor, random_linear_map, random_mul_tensor, random_scalar
from homalg.tensors import PERM_13, contract, phi_apply

from conftest import bialgebra_row, cyclic_group_bialgebra, truncated_primitive_bialgebra

E1 = Vector.basis(2, 0)
E2 = Vector.basis(2, 1)


# --- weak and strict compatibility -------------------------------------------

def test_table_rows_pass_weak():
    rng = random.Random(3)
    for row in (1, 2, 3):
        for _ in range(4):
            b = bialgebra_row(row, b1=random_scalar(rng), b2=random_scalar(rng),
                              b3=random_scalar(rng),
                              a1=random_scalar(rng), a2=random_scalar(rng))
            assert check_bialgebra_weak(b).ok


def test_grouplike_over_mu1_is_row1():
    b = bialgebra_row(1, b1=1, b2=1, b3=0)
    assert b.coalgebra.comul == ComulTensor.from_entries(
        2, {(0, 0, 0): 1, (1, 1, 1): 1}
    )
    assert check_bialgebra_weak(b).ok


def test_row2_coefficient_perturbations():
    # changing the -2 to -1 gives exactly row 3 (still weak-compatible);
    # changing it to -3 breaks compatibility at the pair (e2, e2)
    base = bialgebra_row(2)
    row3_like = HomBialgebra(
        algebra=base.algebra,
        coalgebra=HomCoalgebra(
            comul=ComulTensor.from_entries(
                2, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): -1}
            ),
            beta=base.coalgebra.beta,
            counit=base.coalgebra.counit,
        ),
    )
    assert row3_like.coalgebra.comul == bialgebra_row(3).coalgebra.comul
    assert check_bialgebra_weak(row3_like).ok

    broken = HomBialgebra(
        algebra=base.algebra,
        coalgebra=HomCoalgebra(
            comul=ComulTensor.from_entries(
                2, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): -3}
            ),
            beta=base.coalgebra.beta,
            counit=base.coalgebra.counit,
        ),
    )
    report = check_bialgebra_weak(broken)
    assert not report.ok
    assert any(w.indices[:2] == (1, 1) and w.label == "comul-mult"
               for w in report.witnesses)


def test_strict_with_identity_twists():
    b = bialgebra_row(2, b1=1, b2=0, b3=1, a1=1, a2=1)
    assert b.algebra.alpha == LinearMap.identity(2)
    assert b.coalgebra.beta == LinearMap.identity(2)
    assert check_bialgebra_strict(b).ok


def test_strict_recorded_for_generic_params():
    # strictness holds iff the twists cooperate; with alpha != id the
    # eps o alpha = eps condition fails for mu1 (recorded, not acceptance)
    b = bialgebra_row(2, b1=1, b2=0, b3=1, a1=2, a2=3)
    report = check_bialgebra_strict(b)
    assert not report.ok
    assert any(w.label == "counit-alpha" for w in report.witnesses)


def test_failing_weak_fails_strict():
    base = bialgebra_row(2)
    broken = HomBialgebra(
        algebra=base.algebra,
        coalgebra=HomCoalgebra(
            comul=ComulTensor.from_entries(
                2, {(0, 0, 0): 1, (1, 1, 1): -3}
            ),
            beta=base.coalgebra.beta,
            counit=base.coalgebra.counit,
        ),
    )
    assert not check_bialgebra_weak(broken).ok
    assert not check_bialgebra_strict(broken).ok


def test_construction_requires_unit_and_counit():
    base = bialgebra_row(2)
    with pytest.raises(ValueError):
        HomBialgebra(
            algebra=HomAlgebra(mul=base.algebra.mul, alpha=base.algebra.alpha),
            coalgebra=base.coalgebra,
        )


def test_construction_without_counit_is_named():
    base = bialgebra_row(2)
    coalgebra = HomCoalgebra(comul=base.coalgebra.comul, beta=base.coalgebra.beta)
    with pytest.raises(ValueError, match="^bialgebra needs a counit$"):
        HomBialgebra(algebra=base.algebra, coalgebra=coalgebra)


@pytest.mark.parametrize("entries, where, named", [([[1, 0], [0, 2]], (1,), "2"),
                                                   ([[0, 1], [1, 0]], (0, 1), "1,2")])
def test_a_wrong_antipode_is_named_by_basis_vectors_from_one(entries, where, named):
    b = registry()["hopf-2"].build({"b1": 1, "b2": 0, "b3": 1}).bialgebra
    s = LinearMap(entries)
    # antipode_defect counts from 0, the message from 1, as reports do
    assert antipode_defect(b, s) == where
    with pytest.raises(ValueError) as info:
        HomHopf(b, s)
    assert str(info.value) == f"antipode equations fail at basis indices {named}"


def test_construction_rejects_mismatched_dimensions():
    base = bialgebra_row(2)
    dim3 = cyclic_group_bialgebra()
    with pytest.raises(ValueError, match="^algebra and coalgebra dimensions differ$"):
        HomBialgebra(algebra=base.algebra, coalgebra=dim3.coalgebra)
    with pytest.raises(ValueError, match="^antipode dimension differs from bialgebra$"):
        HomHopf(bialgebra=base, antipode=LinearMap.identity(3))


# a map or tensor of the wrong dimension is named with both dimensions, not
# reported as a contraction index of two sizes
def test_bullet_names_a_tensor_of_the_wrong_dimension():
    b, right = bialgebra_row(2), Tensor2.pure(E1, E2)
    wrong = Tensor2.pure(Vector.basis(3, 0), Vector.basis(3, 1))
    with pytest.raises(ValueError, match=r"^s has dimension 3; the bialgebra has 2$"):
        bullet(b, wrong, right)
    with pytest.raises(ValueError, match=r"^t has dimension 3; the bialgebra has 2$"):
        bullet(b, right, wrong)


def test_convolution_names_a_map_of_the_wrong_dimension():
    b, right, wrong = bialgebra_row(2), LinearMap.identity(2), LinearMap.identity(3)
    with pytest.raises(ValueError, match=r"^f has dimension 3; the bialgebra has 2$"):
        convolution(b, wrong, right)
    with pytest.raises(ValueError, match=r"^g has dimension 3; the bialgebra has 2$"):
        convolution(b, right, wrong)


def test_convolution_twist_names_a_map_of_the_wrong_dimension():
    with pytest.raises(ValueError, match=r"^f has dimension 3; the bialgebra has 2$"):
        convolution_twist(bialgebra_row(2), LinearMap.identity(3))


def test_antipode_defect_names_a_map_of_the_wrong_dimension():
    with pytest.raises(ValueError, match=r"^s has dimension 2; the bialgebra has 3$"):
        antipode_defect(cyclic_group_bialgebra(), LinearMap.identity(2))


# --- convolution --------------------------------------------------------------

def test_convolution_unit_idempotent():
    b = bialgebra_row(2, b1=1, b2=0, b3=1)
    eta_eps = convolution_unit(b)
    assert convolution(b, eta_eps, eta_eps) == eta_eps


def test_identity_convolved_with_antipode():
    b = bialgebra_row(2, b1=1, b2=0, b3=1)
    s = LinearMap.identity(2)
    assert convolution(b, LinearMap.identity(2), s) == convolution_unit(b)
    assert convolution(b, s, LinearMap.identity(2)) == convolution_unit(b)


def test_convolution_bilinear():
    b = bialgebra_row(2, b1=2, b2=0, b3=5)
    rng = random.Random(7)
    f1, f2, g = (random_linear_map(2, rng) for _ in range(3))
    assert convolution(b, f1 + f2, g) == convolution(b, f1, g) + convolution(b, f2, g)
    assert convolution(b, g, f1 + f2) == convolution(b, g, f1) + convolution(b, g, f2)


def test_convolution_twist_values():
    b = bialgebra_row(2, b1=1, b2=0, b3=3, a1=2, a2=5)
    alpha, beta = b.algebra.alpha, b.coalgebra.beta
    assert convolution_twist(b, LinearMap.identity(2)) == alpha.compose(beta)
    assert convolution_twist(b, LinearMap.zero(2)) == LinearMap.zero(2)
    f = LinearMap([[1, 2], [3, 4]])
    assert convolution_twist(b, f) == alpha.compose(f).compose(beta)


def test_convolution_hom_associative_row2():
    b = bialgebra_row(2, b1=1, b2=0, b3=1)
    assert check_convolution_hom_associative(b) is True


def test_convolution_hom_associative_generic_params():
    b = bialgebra_row(2, b1=3, b2=0, b3=-2, a1=Fraction(1, 2), a2=4)
    assert check_convolution_hom_associative(b) is True


def test_convolution_hom_associative_exact_at_dim_3():
    b = cyclic_group_bialgebra()
    assert check_hom_associative(b.algebra).ok and check_hom_coassociative(b.coalgebra).ok
    assert check_convolution_hom_associative(b) is True


def _convolution_holds_on_basis_triples(b):
    n = b.dim
    mats = [LinearMap.basis_matrix(n, i, j) for i in range(n) for j in range(n)]
    return all(
        convolution(b, convolution_twist(b, f), convolution(b, g, h))
        == convolution(b, convolution(b, f, g), convolution_twist(b, h))
        for f, g, h in product(mats, repeat=3))


def _upper_triangular_bialgebra():
    """The noncommutative associative algebra of upper triangular 2x2
    matrices on (E11, E12, E22), with its dual, noncocommutative coalgebra
    and no twists."""
    from homalg import dual_coalgebra_of_algebra

    mul = MulTensor.from_entries(3, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1,
                                     (2, 2, 2): 1})
    algebra = HomAlgebra(mul, LinearMap.identity(3), Vector([1, 0, 1]))
    return HomBialgebra(algebra, dual_coalgebra_of_algebra(algebra))


def _random_bialgebra(n, seed):
    rng = random.Random(seed)
    return HomBialgebra(
        HomAlgebra(random_mul_tensor(n, rng), random_linear_map(n, rng), Vector.basis(n, 0)),
        HomCoalgebra(random_comul_tensor(n, rng), random_linear_map(n, rng), Vector.basis(n, 0)))


def _row_2_breaking(side):
    """Row 2 with one side broken: e2.e2 gains an e1 term, which fails only
    Hom-associativity, or beta becomes [[1, 1], [1, 1]], which fails only
    Hom-coassociativity."""
    b = bialgebra_row(2, b1=2, b3=5, a1=3, a2=-1)
    if side == "mul":
        c = [[list(row) for row in plane] for plane in b.algebra.mul.c]
        c[1][1][0] += 1
        return HomBialgebra(HomAlgebra(MulTensor(c), b.algebra.alpha, b.algebra.unit),
                            b.coalgebra)
    return HomBialgebra(b.algebra, HomCoalgebra(b.coalgebra.comul, LinearMap([[1, 1], [1, 1]]),
                                                b.coalgebra.counit))


@pytest.mark.parametrize("make, premises", [
    pytest.param(lambda: _random_bialgebra(2, 0), False, id="seed-2-0"),
    pytest.param(lambda: _random_bialgebra(2, 1), False, id="seed-2-1"),
    pytest.param(lambda: _random_bialgebra(3, 2), False, id="seed-3-2"),
    *(pytest.param(lambda row=row: bialgebra_row(row, b1=2, b3=5, a1=3, a2=-1), True,
                   id=f"row-{row}") for row in (1, 2, 3)),
    pytest.param(cyclic_group_bialgebra, True, id="twisted-z3"),
    pytest.param(_upper_triangular_bialgebra, True, id="upper-triangular"),
    pytest.param(lambda: _row_2_breaking("mul"), False, id="row-2-not-hom-associative"),
    pytest.param(lambda: _row_2_breaking("beta"), False, id="row-2-not-hom-coassociative"),
])
def test_convolution_verdict_agrees_with_basis_triples(make, premises):
    """The verdict is read from the two premises: True, and the identity
    holds on every basis-matrix triple, exactly when both pass; None
    otherwise, and on these structures the identity then fails."""
    b = make()
    assert (check_hom_associative(b.algebra).ok
            and check_hom_coassociative(b.coalgebra).ok) is premises
    assert check_convolution_hom_associative(b) is (True if premises else None)
    assert _convolution_holds_on_basis_triples(b) is premises


def test_convolution_premises_not_met():
    base = bialgebra_row(2)
    broken = HomBialgebra(
        algebra=base.algebra,
        coalgebra=HomCoalgebra(
            comul=base.coalgebra.comul,
            beta=LinearMap([[1, 1], [1, 1]]),  # fails (C1)
            counit=base.coalgebra.counit,
        ),
    )
    assert not check_hom_coassociative(broken.coalgebra).ok
    assert check_convolution_hom_associative(broken) is None


def test_eta_eps_convolution_neutral_on_eta_eps_triple():
    # at the identity-twist anchor (alpha = beta = id) gamma fixes eta o eps,
    # so both sides of the twisted associativity law collapse to eta o eps
    b = bialgebra_row(2, b1=1, b2=0, b3=1)
    e = convolution_unit(b)
    assert convolution_twist(b, e) == e
    assert convolution(b, e, e) == e
    lhs = convolution(b, convolution_twist(b, e), convolution(b, e, e))
    rhs = convolution(b, convolution(b, e, e), convolution_twist(b, e))
    assert lhs == e and rhs == e


# --- antipodes ----------------------------------------------------------------

def test_antipode_row2_is_identity():
    rng = random.Random(11)
    for _ in range(4):
        b = bialgebra_row(2, b1=random_scalar(rng), b2=random_scalar(rng),
                          b3=random_scalar(rng))
        result = solve_antipode(b)
        assert result.status == "unique"
        assert result.antipode == LinearMap.identity(2)
        assert result.unit_fixed and result.counit_compatible
        assert result.hopf is not None


def test_antipode_row1_none():
    # mu(S(e2) (x) e2) = (s1 + s2) e2 can never equal eta(eps(e2)) = e1
    result = solve_antipode(bialgebra_row(1))
    assert result.status == "none"
    assert result.antipode is None and result.hopf is None


def test_antipode_row3_none():
    result = solve_antipode(bialgebra_row(3))
    assert result.status == "none"


def test_antipode_row_permutation_invariance(monkeypatch):
    b = bialgebra_row(2, b1=2, b2=0, b3=7)
    base = solve_antipode(b)
    solve = homalg.bialgebra.linear_solve
    for seed in (1, 2, 3, 99):
        def shuffled_solve(rows, rhs, seed=seed):
            # the antipode equations in another row order
            order = list(range(len(rows)))
            random.Random(seed).shuffle(order)
            return solve([rows[i] for i in order], [rhs[i] for i in order])

        monkeypatch.setattr(homalg.bialgebra, "linear_solve", shuffled_solve)
        shuffled = solve_antipode(b)
        assert shuffled.status == "unique"
        assert shuffled.antipode == base.antipode


def _z3_group_hopf_in_another_basis():
    """The group algebra of Z/3 (g_a g_b = g_(a+b), Delta(g) = g (x) g,
    eps(g) = 1, unit g_0, alpha = beta = id) in the basis f_j = sum_i
    P[i][j] g_i, with its antipode g -> g^-1 in that basis, Q S P."""
    P = [[1, 1, 0], [0, 1, 2], [1, 0, 1]]
    Q = [[Fraction(v, 3) for v in row] for row in ([1, -1, 2], [2, 1, -2], [-1, 1, 1])]
    mul = MulTensor.from_entries(3, {(a, b, (a + b) % 3): 1 for a in range(3) for b in range(3)})
    comul = ComulTensor.from_entries(3, {(g, g, g): 1 for g in range(3)})
    inverse = LinearMap.from_entries(3, {(-g % 3, g): 1 for g in range(3)})
    b = HomBialgebra(
        HomAlgebra(MulTensor.contracted("ia,jb,ijk,ck->abc", P, P, mul, Q), LinearMap.identity(3),
                   Vector.contracted("ck,k->c", Q, Vector.basis(3, 0))),
        HomCoalgebra(ComulTensor.contracted("kc,kij,ai,bj->cab", P, comul, Q, Q),
                     LinearMap.identity(3), Vector.contracted("kc,k->c", P, [1, 1, 1])))
    return b, LinearMap.contracted("ak,kl,lb->ab", Q, inverse, P)


def test_antipode_of_z3_in_a_basis_where_unit_and_counit_are_spread():
    """eps(e_k) u_m is not symmetric in (k, m) here, so an equation of either
    side paired with the right-hand side of its transpose finds no antipode."""
    b, antipode = _z3_group_hopf_in_another_basis()
    assert LinearMap([[1, 1, 0], [0, 1, 2], [1, 0, 1]]).compose(LinearMap(
        [[Fraction(v, 3) for v in row] for row in ([1, -1, 2], [2, 1, -2], [-1, 1, 1])])) \
        == LinearMap.identity(3)
    assert b.unit.coords == (Fraction(1, 3), Fraction(2, 3), Fraction(-1, 3))
    assert b.counit.coords == (2, 2, 3)
    result = solve_antipode(b)
    assert result.status == "unique" and result.antipode == antipode
    assert result.unit_fixed and result.counit_compatible
    assert antipode != LinearMap.identity(3) and antipode_certificate(b) is None


def test_antipode_affine_family_reported():
    # zero comultiplication with zero counit: every equation reads 0 = 0,
    # so the solution set is the full matrix space
    b = HomBialgebra(
        algebra=bialgebra_row(2).algebra,
        coalgebra=HomCoalgebra(
            comul=ComulTensor.zero(2),
            beta=LinearMap.identity(2),
            counit=Vector([0, 0]),
        ),
    )
    result = solve_antipode(b)
    assert result.status == "family"
    assert result.kernel_dim == 4
    assert result.hopf is None


def _weighted_antipode_equations(b, y) -> tuple[list, object]:
    """The antipode equations weighted by y, read off the convolutions
    directly: equation (side, k, m), weight y[(side * dim + k) * dim + m],
    is component m at e_k of S * id (side 0) or id * S (side 1) against
    that of eta o eps.  Returns the weighted sum of the left sides at each
    basis matrix S = E_pi, and that of the right sides."""
    n, ident = b.dim, LinearMap.identity(b.dim)
    weights = [[[y[(side * n + k) * n + m] for m in range(n)] for k in range(n)]
               for side in range(2)]

    def weighted(left, right):
        return contract("skm,smk->", weights, [left.entries, right.entries])

    sides = [weighted(convolution(b, e, ident), convolution(b, ident, e))
             for e in (LinearMap.basis_matrix(n, p, i) for p in range(n) for i in range(n))]
    return sides, weighted(convolution_unit(b), convolution_unit(b))


@pytest.mark.parametrize("kind", [1, 3, "random"])
def test_antipode_none_carries_a_certificate(kind):
    """Rows 1 and 3 at 30 bindings each, and seeded random bialgebras of
    dims 2 and 3, have no antipode: the certificate weights the equations so
    that their left sides cancel and their right sides sum to 1, and with
    any one nonzero weight changed they do not.  The random ones are not
    cocommutative, so the two sides' equations differ."""
    rng = random.Random(35)
    cases = [_random_bialgebra(n, seed) for n in (2, 3) for seed in range(10)] \
        if kind == "random" else \
        [bialgebra_row(kind, *(random_scalar(rng) for _ in range(5))) for _ in range(30)]
    for b in cases:
        assert solve_antipode(b).status == "none"
        y = antipode_certificate(b)
        sides, right = _weighted_antipode_equations(b, y)
        assert not any(sides) and right == 1
        for r in (r for r, v in enumerate(y) if v):
            sides, right = _weighted_antipode_equations(b, y[:r] + (y[r] + 1,) + y[r + 1:])
            assert any(sides) or right != 1


def test_an_antipode_or_a_family_has_no_certificate():
    assert antipode_certificate(bialgebra_row(2, b1=2, b2=0, b3=7)) is None
    zero = HomBialgebra(bialgebra_row(2).algebra,
                        HomCoalgebra(ComulTensor.zero(2), LinearMap.identity(2), Vector([0, 0])))
    assert solve_antipode(zero).status == "family" and antipode_certificate(zero) is None


def test_hopf_construction_validates():
    b = bialgebra_row(2)
    hopf = HomHopf(bialgebra=b, antipode=LinearMap.identity(2))
    assert antipode_defect(b, hopf.antipode) == ()
    with pytest.raises(ValueError):
        HomHopf(bialgebra=b, antipode=LinearMap.zero(2))


def test_dual_hopf_row2():
    hopf = HomHopf(bialgebra=bialgebra_row(2, b1=1, b2=0, b3=1),
                   antipode=LinearMap.identity(2))
    dualized = dual(hopf)  # construction re-verifies the antipode equations
    assert dualized.antipode == LinearMap.identity(2)
    assert check_bialgebra_weak(dualized.bialgebra).ok
    assert dual(dualized) == hopf


# --- primitive elements --------------------------------------------------------

def test_primitive_subspace_row2_zero():
    assert primitive_subspace(bialgebra_row(2)) == ()


def test_primitive_subspace_row1_zero():
    assert primitive_subspace(bialgebra_row(1)) == ()


def test_primitive_subspace_dim3():
    b = truncated_primitive_bialgebra()
    basis = primitive_subspace(b)
    assert len(basis) == 1
    assert basis[0] == Vector.basis(3, 1)


def test_truncated_structure_lawful_sides():
    b = truncated_primitive_bialgebra()
    assert check_hom_associative(b.algebra).ok
    assert check_hom_coassociative(b.coalgebra).ok
    assert check_unital(b.algebra) is True
    assert check_counital(b.coalgebra) is True
    # weak compatibility holds on every pair drawn from the unit and the
    # primitive generator...
    report = check_bialgebra_weak(b)
    pair_ok = {(p, q): True for p, q in product(range(3), repeat=2)}
    for w in report.witnesses:
        if w.label == "comul-mult":
            pair_ok[w.indices[:2]] = False
    for p, q in product(range(2), repeat=2):
        assert pair_ok[(p, q)], (p, q)
    # ...and must fail on a pair involving e3: no finite-dimensional
    # structure over the rationals passes full weak compatibility with a
    # nonzero primitive
    assert not report.ok
    assert not pair_ok[(1, 2)]


def test_gprim_contains_prim_dim3():
    b = truncated_primitive_bialgebra()
    gbasis = generalized_primitive_subspace(b)
    # the whole space is generalized primitive here
    assert len(gbasis) == 3


def test_gprim_row1_whole_space():
    # every basis vector of the grouplike row is generalized primitive
    b = bialgebra_row(1, b1=1, b2=0, b3=1)
    assert len(generalized_primitive_subspace(b)) == 2


def test_gprim_grouplike_scaled_beta():
    # e1 grouplike with beta(e1) = b e1: both sides of the symmetry
    # condition equal b * e1 (x) e1 (x) e1
    b = bialgebra_row(1, b1=Fraction(5, 3), b2=2, b3=0)
    basis = generalized_primitive_subspace(b)
    coords = [v.coords for v in basis]
    assert (Fraction(1), Fraction(0)) in coords


def _gprim_rows_through_fractions(b):
    """The generalized primitive system built through the tensors' Fraction
    views, as the rational reference for ``_gprim_rows``."""
    comul, beta = b.coalgebra.comul, b.coalgebra.beta
    left = expand_beta_outer(comul, comul, beta)
    right = expand_outer_beta(comul, comul, beta)
    defect = [(x - phi_apply(PERM_13, y)).coeffs for x, y in zip(left, right)]
    rows = [row for plane in contract("cijl->ijlc", defect) for line in plane for row in line]
    rows += [row for plane in contract("cij->ijc", comul - comul.op()) for row in plane]
    return rows


def test_gprim_rows_are_integer_multiples_of_the_fraction_rows():
    structures = [truncated_primitive_bialgebra(), cyclic_group_bialgebra(),
                  _upper_triangular_bialgebra(), primitive_span_bialgebra(4)]
    for seed in range(12):
        rng = random.Random(seed)
        structures += [_random_bialgebra(1 + seed % 3, seed),
                       bialgebra_row(1 + seed % 3, *(random_scalar(rng) for _ in range(5)))]
    for b in structures:
        rows, reference = homalg.bialgebra._gprim_rows(b), _gprim_rows_through_fractions(b)
        assert len(rows) == len(reference)
        assert all(type(v) is int for row in rows for v in row)
        for new, old in zip(rows, reference):
            assert [v == 0 for v in new] == [w == 0 for w in old]
            ratios = {Fraction(v) / w for v, w in zip(new, old) if w}
            assert len(ratios) <= 1 and all(r > 0 for r in ratios)
        zeros = [0] * len(rows)
        solution = linear_solve(rows, zeros)
        assert solution == linear_solve(reference, zeros)
        try:
            basis = generalized_primitive_subspace(b)
        except ValueError:
            continue
        assert basis == tuple(Vector(v) for v in solution.kernel)


def test_zero_vector_always_primitive():
    b = bialgebra_row(2)
    n = b.dim
    u = b.unit
    zero = Vector.zero(n)
    expected = Tensor2.pure(u, zero) + Tensor2.pure(zero, u)
    assert (b.coalgebra.comul.apply(zero) - expected).is_zero()


# --- counit expansions ----------------------------------------------------------

def test_counit_expansion_rows():
    for row in (1, 2, 3):
        assert check_counital(bialgebra_row(row).coalgebra) is True


def test_counit_expansion_dim3():
    assert check_counital(truncated_primitive_bialgebra().coalgebra) is True


def test_bullet_product_matches_hand_value():
    b = bialgebra_row(2)
    s = Tensor2.pure(E1, E2) + Tensor2.pure(E2, E1)
    result = bullet(b, s, s)
    # hand expansion of (e1(x)e2 + e2(x)e1) * (e1(x)e2 + e2(x)e1) over mu1:
    # (e1e1)(x)(e2e2) + (e1e2)(x)(e2e1) + (e2e1)(x)(e1e2) + (e2e2)(x)(e1e1)
    #   = e1(x)e2 + e2(x)e2 + e2(x)e2 + e2(x)e1
    hand = Tensor2([[0, 1], [1, 2]])
    assert result == hand


def test_bullet_of_two_different_tensors_matches_hand_value():
    b = bialgebra_row(2)
    s = Tensor2.pure(E1, E2)
    t = Tensor2.pure(E1, E1) + Tensor2.pure(E2, E1)
    # over mu1 (e1 the unit, e2e2 = e2): (e1e1)(x)(e2e1) + (e1e2)(x)(e2e1)
    #   = e1(x)e2 + e2(x)e2, which is not symmetric
    assert bullet(b, s, t) == Tensor2([[0, 1], [0, 1]])


def multiply_basis(b, x, y):
    return b.algebra.mul.apply(x, y)


def test_primitive_commutator_outside_the_subspace_raises():
    # Prim = span(e2, e3), but e2.e3 = e1 makes [e2, e3] = e1, whose
    # Delta(e1) = e1 (x) e1 is not primitive: only possible without weak (B3)
    algebra = HomAlgebra(MulTensor.from_entries(3, {(1, 2, 0): 1}),
                         LinearMap.identity(3), Vector.basis(3, 0))
    coalgebra = HomCoalgebra(
        ComulTensor.from_entries(3, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1,
                                     (2, 0, 2): 1, (2, 2, 0): 1}),
        LinearMap.identity(3), Vector.basis(3, 0))
    with pytest.raises(ValueError, match=r"^commutator \[.*\] fails the primitive equation$"):
        primitive_subspace(HomBialgebra(algebra, coalgebra))


def test_primitive_commutator_message_names_the_first_failing_pair():
    algebra = HomAlgebra(MulTensor.from_entries(3, {(1, 2, 0): 1}),
                         LinearMap.identity(3), Vector.basis(3, 0))
    coalgebra = HomCoalgebra(
        ComulTensor.from_entries(3, {(0, 0, 0): 1, (1, 0, 1): 1, (1, 1, 0): 1,
                                     (2, 0, 2): 1, (2, 2, 0): 1}),
        LinearMap.identity(3), Vector.basis(3, 0))
    with pytest.raises(ValueError) as info:
        primitive_subspace(HomBialgebra(algebra, coalgebra))
    assert str(info.value) == "commutator [(0, 1, 0), (0, 0, 1)] fails the primitive equation"


def test_primitive_outside_the_generalized_primitive_space_raises():
    # e2 is primitive, but Delta(e1) = e1 (x) e2 is not symmetric, so the
    # first generalized-primitive condition fails at e2: only possible
    # without weak (B3)
    algebra = HomAlgebra(MulTensor.from_entries(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
                         LinearMap.identity(2), Vector.basis(2, 0))
    coalgebra = HomCoalgebra(ComulTensor.from_entries(2, {(0, 0, 1): 1, (1, 0, 1): 1,
                                                          (1, 1, 0): 1}),
                             LinearMap.identity(2), Vector.basis(2, 0))
    b = HomBialgebra(algebra, coalgebra)
    assert primitive_subspace(b) == (Vector.basis(2, 1),)
    with pytest.raises(ValueError) as info:
        generalized_primitive_subspace(b)
    assert str(info.value) == "primitive element (0, 1) is not generalized primitive"


def test_generalized_primitive_commutator_outside_the_subspace_raises():
    # e2 and e3 are grouplike, so generalized primitive; e1 is not
    # (Delta(e1) = e1 (x) e2 is not symmetric), and [e2, e3] = e1
    algebra = HomAlgebra(MulTensor.from_entries(3, {(1, 2, 0): 1}),
                         LinearMap.identity(3), Vector.basis(3, 0))
    coalgebra = HomCoalgebra(ComulTensor.from_entries(3, {(0, 0, 1): 1, (1, 1, 1): 1,
                                                          (2, 2, 2): 1}),
                             LinearMap.identity(3), Vector.basis(3, 0))
    with pytest.raises(ValueError) as info:
        generalized_primitive_subspace(HomBialgebra(algebra, coalgebra))
    assert str(info.value) == \
        "commutator [(0, 1, 0), (0, 0, 1)] leaves the generalized primitive space"


def primitive_span_bialgebra(n):
    """Unit e1, grouplike; e2..en primitive, with every product among them
    zero.  Prim = span(e2, ..., en) and every vector is generalized
    primitive."""
    mul = {(0, 0, 0): 1}
    comul = {(0, 0, 0): 1}
    for k in range(1, n):
        mul.update({(0, k, k): 1, (k, 0, k): 1})
        comul.update({(k, 0, k): 1, (k, k, 0): 1})
    return HomBialgebra(
        HomAlgebra(MulTensor.from_entries(n, mul), LinearMap.identity(n), Vector.basis(n, 0)),
        HomCoalgebra(ComulTensor.from_entries(n, comul), LinearMap.identity(n),
                     Vector.basis(n, 0)))


def test_primitives_off_the_coordinate_axes_are_read_exactly():
    """primitive_span_bialgebra(3) in the basis f_j = sum_i P[i][j] e_i, P the
    unimodular matrix that bench/workloads.py's ``_unimodular(3,
    random.Random(5))`` draws, Q its inverse.  Prim = span(Q e2, Q e3), whose
    kernel basis has nonzero entries in its pivot column."""
    P = LinearMap([[1, 2, -1], [1, 3, -3], [1, 0, 4]])
    Q = LinearMap([[12, -8, -3], [-7, 5, 2], [-3, 2, 1]])
    assert P.compose(Q) == LinearMap.identity(3)
    b = primitive_span_bialgebra(3)
    algebra, coalgebra = b.algebra, b.coalgebra
    moved = HomBialgebra(
        HomAlgebra(MulTensor.contracted("ia,jb,ijk,ck->abc", P, P, algebra.mul, Q),
                   Q.compose(algebra.alpha).compose(P), Q.apply(b.unit)),
        HomCoalgebra(ComulTensor.contracted("kc,kij,ai,bj->cab", P, coalgebra.comul, Q, Q),
                     Q.compose(coalgebra.beta).compose(P),
                     Vector.contracted("kc,k->c", P, b.counit)))
    assert check_hom_associative(moved.algebra).ok and check_hom_coassociative(moved.coalgebra).ok
    v, w = primitive_subspace(moved)
    assert (v, w) == (Vector([-2, 1, 0]), Vector([1, 0, 1]))
    # Q e2 and Q e3 span them
    assert Q.apply(Vector.basis(3, 1)) == 5 * v + 2 * w
    assert Q.apply(Vector.basis(3, 2)) == 2 * v + w


def test_each_commutator_pair_is_checked_once(monkeypatch):
    calls = []
    solves = homalg.bialgebra._solves

    def counted(rows, x):
        calls.append(x)
        return solves(rows, x)

    monkeypatch.setattr(homalg.bialgebra, "_solves", counted)
    b = primitive_span_bialgebra(4)
    assert len(primitive_subspace(b)) == 3
    assert len(calls) == 3 * 2 // 2
    calls.clear()
    assert len(generalized_primitive_subspace(b)) == 4
    # the bialgebra keeps its primitive subspace: Prim in GPrim per primitive, and
    # the 4-dim basis's pairs
    assert len(calls) == 3 + 4 * 3 // 2


def test_generalized_primitives_of_a_fresh_bialgebra_solve_prim_first(monkeypatch):
    calls = []
    solves = homalg.bialgebra._solves

    def counted(rows, x):
        calls.append(x)
        return solves(rows, x)

    monkeypatch.setattr(homalg.bialgebra, "_solves", counted)
    assert len(generalized_primitive_subspace(primitive_span_bialgebra(4))) == 4
    # the primitive solve's pairs, Prim in GPrim per primitive, and the
    # 4-dim basis's pairs
    assert len(calls) == 3 + 3 + 4 * 3 // 2
