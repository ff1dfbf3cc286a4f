import random
from fractions import Fraction

import pytest

from homalg import (
    ComulTensor,
    HomCoalgebra,
    LinearMap,
    Tensor2,
    Tensor3,
    Vector,
    admissibility_defects,
    beta_coassociator,
    check_coalgebra_morphism,
    check_comodule,
    check_counital,
    check_G_hom_coalgebra,
    check_hom_coassociative,
    check_hom_lie_admissible,
    coassociator_expansion_check,
    comultiply,
    delta_L,
    delta_op,
    generic_coalgebra,
    lemma_identities_check,
)
from homalg.coalgebra import _compositions, _phi
from homalg.linsolve import linear_solve
from homalg.sampling import random_comul_tensor, random_linear_map, random_scalar
from homalg.tensors import S3

from conftest import bialgebra_row, grouplike_coalgebra, registry_parts

E1 = Vector.basis(2, 0)
E2 = Vector.basis(2, 1)


def random_coalgebra(dim, rng, counital=False):
    counit = Vector([random_scalar(rng) for _ in range(dim)]) if counital else None
    return HomCoalgebra(comul=random_comul_tensor(dim, rng),
                        beta=random_linear_map(dim, rng), counit=counit)


# --- comultiply -------------------------------------------------------------

def test_comultiply_row2():
    c = bialgebra_row(2).coalgebra
    expected = Tensor2([[0, 1], [1, -2]])
    assert comultiply(c, E2) == expected


def test_comultiply_row1_grouplike():
    c = bialgebra_row(1).coalgebra
    assert comultiply(c, E2) == Tensor2.pure(E2, E2)


def test_comultiply_zero():
    c = bialgebra_row(2).coalgebra
    assert comultiply(c, Vector.zero(2)).is_zero()


# --- op and cocommutator ----------------------------------------------------

def test_delta_L_of_cocommutative_is_zero():
    c = bialgebra_row(2).coalgebra  # symmetric constants
    assert delta_L(c).comul == ComulTensor.zero(2)
    assert delta_L(c).counit is None


def test_delta_op_involution():
    rng = random.Random(3)
    c = random_coalgebra(3, rng, counital=True)
    assert delta_op(delta_op(c)) == c


def test_delta_L_op_antisymmetry():
    rng = random.Random(5)
    for dim in (2, 3):
        for _ in range(10):
            c = random_coalgebra(dim, rng)
            dL = delta_L(c).comul
            flipped = dL.op()
            assert flipped == ComulTensor.zero(dim) - dL


# --- the beta-coassociator ---------------------------------------------------

def test_coassociator_zero_for_coassociative():
    rng = random.Random(7)
    for row in (1, 2, 3):
        b1 = random_scalar(rng)
        b3 = random_scalar(rng)
        c = bialgebra_row(row, b1=b1, b2=0, b3=b3).coalgebra
        assert all(t.is_zero() for t in beta_coassociator(c))


def test_coassociator_row2_identity_beta():
    c = bialgebra_row(2, b1=1, b2=0, b3=1).coalgebra
    assert c.beta == LinearMap.identity(2)
    assert all(t.is_zero() for t in beta_coassociator(c))


def test_coassociator_nonzero_witness():
    # single-constant comultiplication Delta(e1) = e1 (x) e2, beta = id:
    # c(e1) = Delta(e1) (x) e2 = e1 (x) e2 (x) e2, c(e2) = 0
    c = HomCoalgebra(
        comul=ComulTensor.from_entries(2, {(0, 0, 1): 1}),
        beta=LinearMap.identity(2),
    )
    tensors = beta_coassociator(c)
    expected = Tensor3.zero(2) + Tensor3(
        [[[0, 0], [0, 1]], [[0, 0], [0, 0]]]
    )
    assert tensors[0] == expected
    assert tensors[1].is_zero()
    report = check_hom_coassociative(c)
    assert [w.indices for w in report.witnesses] == [(0, 0, 1, 1)]


def test_random_non_coassociative_detected():
    rng = random.Random(11)
    seen_bad = False
    for _ in range(10):
        c = HomCoalgebra(comul=random_comul_tensor(2, rng),
                         beta=LinearMap.identity(2))
        if not check_hom_coassociative(c).ok:
            seen_bad = True
    assert seen_bad


# --- (C1)/(C2) on the table rows ---------------------------------------------

def test_table_rows_pass_C1_C2_random_params():
    rng = random.Random(13)
    for row in (1, 2, 3):
        for _ in range(5):
            b1, b2, b3 = (random_scalar(rng) for _ in range(3))
            c = bialgebra_row(row, b1=b1, b2=b2, b3=b3).coalgebra
            assert check_hom_coassociative(c).ok
            assert check_counital(c) is True


def test_grouplike_with_identity_beta():
    c = grouplike_coalgebra(3)
    assert check_hom_coassociative(c).ok
    assert check_counital(c) is True


def test_corrupted_counit_detected():
    # row 2 with eps(e2) = 1: (id (x) eps) Delta(e2) = e1 - e2 != e2
    good = bialgebra_row(2).coalgebra
    bad = HomCoalgebra(comul=good.comul, beta=good.beta, counit=Vector([1, 1]))
    assert check_counital(bad) is False


def test_counital_none_when_missing():
    c = HomCoalgebra(comul=grouplike_coalgebra(2).comul,
                     beta=LinearMap.identity(2))
    assert check_counital(c) is None


# --- G-Hom-coalgebras ---------------------------------------------------------

def test_coassociative_passes_every_subgroup():
    c = bialgebra_row(3, b1=2, b2=0, b3=5).coalgebra
    for name in ("G1", "G2", "G3", "G4", "G5", "G6"):
        assert check_G_hom_coalgebra(c, name).ok


def test_cocommutative_passes_G6():
    rng = random.Random(17)
    for _ in range(5):
        # symmetrize a random comultiplication
        raw = random_comul_tensor(2, rng)
        sym = ComulTensor(
            [[[raw.d[k][i][j] + raw.d[k][j][i] for j in range(2)]
              for i in range(2)] for k in range(2)]
        )
        c = HomCoalgebra(comul=sym, beta=random_linear_map(2, rng))
        assert check_G_hom_coalgebra(c, "G6").ok
        assert check_hom_lie_admissible(c).ok


def test_G1_true_implies_all_subgroups():
    rng = random.Random(19)
    for _ in range(30):
        c = random_coalgebra(2, rng)
        if check_G_hom_coalgebra(c, "G1").ok:
            for name in ("G2", "G3", "G4", "G5", "G6"):
                assert check_G_hom_coalgebra(c, name).ok


def test_random_G_vector_frozen():
    # one fixed random structure, its subgroup pass/fail vector pinned; G6
    # passes because the alternating sum antisymmetrizes three tensor legs,
    # which is identically zero on a 2-dimensional space
    rng = random.Random(20240607)
    c = random_coalgebra(2, rng)
    vec = tuple(check_G_hom_coalgebra(c, f"G{i}").ok for i in range(1, 7))
    assert vec == (False, False, False, False, False, True)


def test_every_dim2_structure_is_admissible():
    # Lambda^3 of a 2-dim space vanishes, so the G6 condition is vacuous
    rng = random.Random(53)
    for _ in range(15):
        c = random_coalgebra(2, rng)
        assert check_G_hom_coalgebra(c, "G6").ok
        assert check_hom_lie_admissible(c).ok


def test_any_subgroup_pass_implies_admissible():
    # dim 3 makes this non-vacuous (dim 2 admissibility is automatic)
    rng = random.Random(59)
    implications = 0
    for _ in range(60):
        c = random_coalgebra(3, rng)
        passes_some = [f"G{i}" for i in range(1, 7)
                       if check_G_hom_coalgebra(c, f"G{i}").ok]
        if passes_some:
            implications += 1
            assert check_hom_lie_admissible(c).ok, passes_some
    # also force the hypothesis with structured instances: cocommutative
    # comultiplications pass G6 by construction
    for _ in range(10):
        raw = random_comul_tensor(3, rng)
        sym = ComulTensor(
            [[[raw.d[k][i][j] + raw.d[k][j][i] for j in range(3)]
              for i in range(3)] for k in range(3)]
        )
        c = HomCoalgebra(comul=sym, beta=random_linear_map(3, rng))
        assert check_G_hom_coalgebra(c, "G6").ok
        assert check_hom_lie_admissible(c).ok
        implications += 1
    assert implications


# --- admissibility: two routes ---------------------------------------------

def test_admissibility_routes_agree_and_factor_two():
    rng = random.Random(23)
    for dim in (2, 3):
        for _ in range(25):
            c = random_coalgebra(dim, rng)
            cyclic, alternating = admissibility_defects(c)
            for t_cyc, t_alt in zip(cyclic, alternating):
                assert t_cyc == Fraction(2) * t_alt
            report = check_hom_lie_admissible(c)
            assert report.methods_agree


def test_coassociative_is_admissible():
    c = bialgebra_row(2, b1=3, b2=0, b3=7).coalgebra
    report = check_hom_lie_admissible(c)
    assert report.ok and report.alternating.ok


def test_admissibility_failure_has_witnesses():
    # needs dim >= 3: see test_every_dim2_structure_is_admissible
    rng = random.Random(29)
    seen = False
    for _ in range(10):
        c = random_coalgebra(3, rng)
        report = check_hom_lie_admissible(c)
        if not report.ok:
            seen = True
            assert report.cyclic.witnesses and report.alternating.witnesses
        assert report.methods_agree
    assert seen


# --- the universal lemma identities -----------------------------------------

def test_lemma_identities_random():
    rng = random.Random(31)
    for dim in (2, 3):
        for _ in range(25):
            c = random_coalgebra(dim, rng)
            assert lemma_identities_check(c) == (True,) * 5


def test_lemma_identities_zero_comul():
    c = HomCoalgebra(comul=ComulTensor.zero(2), beta=LinearMap.identity(2))
    assert lemma_identities_check(c) == (True,) * 5
    assert coassociator_expansion_check(c) == (True, True)


def test_first_identity_reduces_on_cocommutative():
    # with Delta^op = Delta the first identity forces c = -Phi_(13) c
    from homalg import phi_apply
    from homalg.tensors import PERM_13

    rng = random.Random(37)
    raw = random_comul_tensor(2, rng)
    sym = ComulTensor(
        [[[raw.d[k][i][j] + raw.d[k][j][i] for j in range(2)]
          for i in range(2)] for k in range(2)]
    )
    c = HomCoalgebra(comul=sym, beta=random_linear_map(2, rng))
    for t in beta_coassociator(c):
        assert t == Fraction(-1) * phi_apply(PERM_13, t)


def test_expansions_random():
    rng = random.Random(41)
    for dim in (2, 3):
        for _ in range(25):
            c = random_coalgebra(dim, rng)
            assert coassociator_expansion_check(c) == (True, True)


def test_expansions_trivial_on_coassociative_cocommutative():
    c = grouplike_coalgebra(2)
    assert all(t.is_zero() for t in beta_coassociator(c))
    assert all(t.is_zero() for t in beta_coassociator(delta_L(c)))
    assert coassociator_expansion_check(c) == (True, True)


def test_expansions_single_entry_hand_check():
    c = HomCoalgebra(
        comul=ComulTensor.from_entries(2, {(0, 0, 1): 1}),
        beta=LinearMap.identity(2),
    )
    assert coassociator_expansion_check(c) == (True, True)


# --- comodules and morphisms -------------------------------------------------

def test_self_comodule():
    c = bialgebra_row(2, b1=2, b2=0, b3=3).coalgebra
    n = c.dim
    rho = [[[c.comul.d[m][q][i] for i in range(n)] for q in range(n)]
           for m in range(n)]
    assert check_comodule(c, n, c.beta, rho)


def test_self_comodule_is_hom_coassociativity():
    """At M = V, g = beta and rho = Delta the comodule axiom is the
    Hom-coassociativity equation, so the two checks agree: on the registry's
    coalgebra sides, which pass, and on seeded random coalgebras, which fail
    from dim 2 on (every dim-1 coalgebra is Hom-coassociative)."""
    registered = [p.coalgebra for p in registry_parts() if p.coalgebra is not None]
    rng = random.Random(12)
    randoms = [random_coalgebra(n, rng) for n in (1, 2, 3) for _ in range(10)]
    cases = [(c, True) for c in registered] + [(c, c.dim == 1) for c in randoms]
    for c, want in cases:
        assert check_comodule(c, c.dim, c.beta, c.comul.d) is \
            check_hom_coassociative(c).ok is want


def test_zero_coaction_is_comodule():
    c = bialgebra_row(2).coalgebra
    rho = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    rng = random.Random(43)
    assert check_comodule(c, 2, random_linear_map(2, rng), rho)


def test_corrupted_coaction_detected():
    c = bialgebra_row(2, b1=2, b2=0, b3=3).coalgebra
    n = c.dim
    rho = [[[c.comul.d[m][q][i] for i in range(n)] for q in range(n)]
           for m in range(n)]
    rho[1][1][1] = Fraction(9)
    assert not check_comodule(c, n, c.beta, rho)


def test_identity_coalgebra_morphism():
    c = bialgebra_row(2).coalgebra
    assert check_coalgebra_morphism(LinearMap.identity(2), c, c)


def test_zero_map_fails_counit():
    c = bialgebra_row(2).coalgebra
    assert not check_coalgebra_morphism(LinearMap.zero(2), c, c)


def test_diagonal_rescaling_coalgebra_morphism():
    # on the grouplike coalgebra f = diag(1,2) breaks (f (x) f) o Delta = Delta o f
    c = grouplike_coalgebra(2)
    assert not check_coalgebra_morphism(LinearMap([[1, 0], [0, 2]]), c, c)


# --- the lemma layer as a proof: one generic coalgebra per dimension ---------

@pytest.mark.parametrize("n", [2, 3])
def test_lemma_layer_holds_on_generic_coalgebra(n):
    c = generic_coalgebra(n)
    # the coassociator is not identically zero, so the identities below are
    # polynomial identities, not vacuous ones
    assert not all(t.is_zero() for t in beta_coassociator(c))
    assert lemma_identities_check(c) == (True,) * 5
    assert coassociator_expansion_check(c) == (True, True)
    cyclic, alternating = admissibility_defects(c)
    # the alternating sum lands in the exterior cube of V, zero below dim 3
    assert any(not a.is_zero() for a in alternating) == (n >= 3)
    assert all(cyc == 2 * alt for cyc, alt in zip(cyclic, alternating))


# --- the certificate that dim 3 decides every dimension ----------------------

def _network(shape, outer, inner, sigma):
    """The contraction network of Phi_sigma o (outer (x) beta) o inner ("ob")
    or Phi_sigma o (beta (x) outer) o inner ("bo"): which output of the top
    Delta feeds the lower Delta, and the output positions of the lower Delta's
    first and second legs and of beta's leg."""
    feed = (shape == "bo") != (inner == "op")
    legs = (0, 1, 2) if shape == "ob" else (1, 2, 0)
    if outer == "op":
        legs = (legs[1], legs[0], legs[2])
    return feed, tuple(sigma.images[leg] - 1 for leg in legs)


def _coordinates(tensors):
    """Each nonzero coefficient of a tuple of Poly tensors, by (k, i, j, l, monomial)."""
    return {(k,) + idx + (mono,): coeff for k, t in enumerate(tensors)
            for idx, poly in t.nonzero.items() for mono, coeff in poly.terms.items()}


@pytest.mark.parametrize("dim, rank", [(2, 10), (3, 12)])
def test_dim_3_decides_the_identities_at_every_dimension(dim, rank):
    # Every term of the eight identities is Phi_sigma of one of the eight
    # compositions: 48 terms but 12 networks, and terms of one network are equal
    # at every dim.  Rank 12 at dim 3 means an identity holds there only if each
    # network's net coefficient is 0, so then at every dim; zero padding carries
    # a dim-3 failure to every dim above.  Dim 2 is not enough.
    ob, bo = _compositions(generic_coalgebra(dim))
    networks = {}
    for shape, compositions in (("ob", ob), ("bo", bo)):
        for (outer, inner), tensors in compositions.items():
            for sigma in S3:
                networks.setdefault(_network(shape, outer, inner, sigma), []).append(
                    _phi(sigma, tensors))
    assert len(networks) == 12
    assert all(terms == [terms[0]] * 4 for terms in networks.values())
    columns = [_coordinates(terms[0]) for terms in networks.values()]
    rows = sorted(set().union(*columns))
    matrix = [[column.get(row, 0) for column in columns] for row in rows]
    assert 12 - linear_solve(matrix, [0] * len(rows)).kernel_dim == rank


def test_identity_checks_share_their_compositions(monkeypatch):
    import homalg.coalgebra as coalgebra

    calls = []

    def counted(expand):
        def wrapper(*args):
            calls.append(expand.__name__)
            return expand(*args)
        return wrapper

    for name in ("expand_outer_beta", "expand_beta_outer"):
        monkeypatch.setattr(coalgebra, name, counted(getattr(coalgebra, name)))
    coalgebra._compositions.cache_clear()
    c = random_coalgebra(2, random.Random(47))
    assert lemma_identities_check(c) == (True,) * 5
    assert coassociator_expansion_check(c) == (True, True)
    # eight Delta/Delta^op compositions, shared, plus c_beta(Delta_L) directly
    assert len(calls) <= 10


def test_comodule_rejects_malformed_entry():
    c = bialgebra_row(2).coalgebra
    rho = [[[0, 0], [0, 0]], [[0, "x"], [0, 0]]]
    with pytest.raises(ValueError, match="not a rational number"):
        check_comodule(c, 2, c.beta, rho)
