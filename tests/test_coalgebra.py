import random
from fractions import Fraction
from itertools import product

import pytest

from homalg import (
    ComulTensor,
    HomAlgebra,
    HomCoalgebra,
    LinearMap,
    MulTensor,
    SUBGROUPS,
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
    dual_coalgebra_of_algebra,
    generic_coalgebra,
    lemma_identities_check,
    phi_apply,
    subgroup,
)
from homalg.reports import Defects
from homalg.coalgebra import (
    _compositions,
    _phi,
    counit_defects,
)
from homalg.linsolve import linear_solve
from homalg.sampling import random_comul_tensor, random_linear_map, random_scalar
from homalg.tensors import S3

from conftest import bialgebra_row, grouplike_coalgebra, reference_coassociator, \
    reference_signed_sum, registry_parts

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


def test_cyclic_report_is_doubled_g6_and_agrees_with_its_definition():
    # check_hom_lie_admissible doubles the G6 witnesses; admissibility_defects
    # still builds the cyclic sum of c_beta(Delta_L), and the two agree
    rng = random.Random(31)
    coalgebras = [p.coalgebra for p in registry_parts() if p.coalgebra is not None]
    coalgebras += [random_coalgebra(rng.randint(1, 4), rng) for _ in range(30)]
    failing = 0
    for c in coalgebras:
        report = check_hom_lie_admissible(c)
        g6 = check_G_hom_coalgebra(c, "G6").witnesses
        assert [(w.indices, w.value) for w in report.cyclic.witnesses] == \
            [(w.indices, 2 * w.value) for w in g6]
        cyclic, _ = admissibility_defects(c)
        assert report.cyclic.witnesses == Defects(
            {(k,) + idx: v for k, t in enumerate(cyclic) for idx, v in t.nonzero.items()}).witnesses
        failing += not report.ok
    assert failing >= 10


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


def test_comodule_coaction_is_tabled_once(monkeypatch):
    import homalg.algebra
    import homalg.tensors

    c = bialgebra_row(2).coalgebra
    # the coaction as nested lists, not the coalgebra's own tensor
    rho = [[list(row) for row in plane] for plane in c.comul.d]
    calls = []

    def counted(data, depth, tabled=homalg.tensors.tabled):
        calls.append(depth)
        return tabled(data, depth)

    # the comodule axiom is decided as a module axiom, which tables the action
    for module in (homalg.algebra, homalg.tensors):
        monkeypatch.setattr(module, "tabled", counted)
    assert check_comodule(c, c.dim, c.beta, rho)
    assert calls == [3]


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


def test_construction_rejects_mismatched_dimensions():
    comul = ComulTensor.zero(2)
    with pytest.raises(ValueError, match="^comul and beta dimensions differ$"):
        HomCoalgebra(comul, LinearMap.identity(3))
    with pytest.raises(ValueError, match="^counit dimension differs from comul$"):
        HomCoalgebra(comul, LinearMap.identity(2), Vector.basis(3, 0))


def test_coalgebra_morphism_check_rejects_mismatched_dimensions():
    dim2, dim3 = grouplike_coalgebra(2), grouplike_coalgebra(3)
    for f, target in ((LinearMap.identity(3), dim2), (LinearMap.identity(2), dim3)):
        with pytest.raises(ValueError, match="^dimension mismatch in morphism check$"):
            check_coalgebra_morphism(f, dim2, target)


@pytest.mark.parametrize("rho, m_dim, message", [
    ([[[0] * 2] * 2], 2, "coaction tensor must have shape m_dim x m_dim x dim"),
    ([[[0] * 2] * 3] * 2, 2, "coaction tensor must have shape m_dim x m_dim x dim"),
    ([[[0] * 3] * 2] * 2, 2, "coaction tensor must have shape m_dim x m_dim x dim"),
    ([[[0] * 2] * 3] * 3, 3, "g must act on the comodule"),
], ids=["m-dim", "plane", "dim", "g"])
def test_comodule_rejects_mismatched_shapes(rho, m_dim, message):
    c = bialgebra_row(2).coalgebra
    with pytest.raises(ValueError, match=f"^{message}$"):
        check_comodule(c, m_dim, LinearMap.identity(2), rho)


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


def test_identity_between_rows_2_and_3_fails_only_the_comul_condition():
    source = bialgebra_row(2, b1=2, b2=0, b3=2).coalgebra
    target = bialgebra_row(3, b1=2, b2=0, b3=2).coalgebra
    assert source.beta == target.beta and source.counit == target.counit
    assert source.comul != target.comul
    assert not check_coalgebra_morphism(LinearMap.identity(2), source, target)


def test_identity_between_row_1_twists_fails_only_the_twist_condition():
    source, target = bialgebra_row(1, b2=3).coalgebra, bialgebra_row(1, b2=5).coalgebra
    assert source.comul == target.comul and source.counit == target.counit
    assert source.beta != target.beta
    assert not check_coalgebra_morphism(LinearMap.identity(2), source, target)


def test_counit_on_one_side_only_fails_morphism():
    counital = bialgebra_row(2).coalgebra
    bare = HomCoalgebra(counital.comul, counital.beta)
    ident = LinearMap.identity(2)
    assert check_coalgebra_morphism(ident, bare, bare)
    assert not check_coalgebra_morphism(ident, counital, bare)
    assert not check_coalgebra_morphism(ident, bare, counital)


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


def _coordinates(table):
    """Each nonzero coefficient of a Poly table keyed (k, i, j, l), by
    (k, i, j, l, monomial)."""
    return {key + (mono,): coeff
            for key, poly in table.nonzero.items() for mono, coeff in poly.terms.items()}


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
        for (outer, inner), table in compositions.items():
            for sigma in S3:
                networks.setdefault(_network(shape, outer, inner, sigma), []).append(
                    _phi(sigma, table))
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

    monkeypatch.setattr(coalgebra, "_expansion", counted(coalgebra._expansion))
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


# --- every condition decided on the transpose, against a direct reference ----
#
# The checkers above run on the transpose (dual_algebra_of_coalgebra); these
# references evaluate each coalgebra condition straight from its definition,
# with the expansions of Delta followed by Delta and beta (conftest's
# reference_coassociator), phi_apply and explicit sums over the structure
# constants.

def reference_witnesses(cubes):
    """(indices, value) of each nonzero entry, k first, then in index order."""
    return [((k,) + idx, value) for k, t in enumerate(cubes)
            for idx, value in sorted(t.nonzero.items())]


def reference_comodule(c, m_dim, g, rho):
    """(rho (x) beta) o rho = (g (x) Delta) o rho, entry by entry."""
    n, beta, d, g = c.dim, c.beta.entries, c.comul.d, g.entries
    for m, p, j, l in product(range(m_dim), range(m_dim), range(n), range(n)):
        lhs = sum(rho[m][q][i] * rho[q][p][j] * beta[l][i]
                  for q in range(m_dim) for i in range(n))
        rhs = sum(rho[m][q][i] * g[p][q] * d[i][j][l] for q in range(m_dim) for i in range(n))
        if lhs != rhs:
            return False
    return True


def reference_morphism(f, source, target):
    """(f (x) f) o Delta = Delta' o f, f o beta = beta' o f, eps = eps' o f."""
    n, f = source.dim, f.entries
    for k, i, j in product(range(n), repeat=3):
        pushed = sum(source.comul.d[k][a][b] * f[i][a] * f[j][b]
                     for a in range(n) for b in range(n))
        if pushed != sum(target.comul.d[t][i][j] * f[t][k] for t in range(n)):
            return False
    for i, j in product(range(n), repeat=2):
        if sum(f[i][a] * source.beta.entries[a][j] for a in range(n)) != \
                sum(target.beta.entries[i][a] * f[a][j] for a in range(n)):
            return False
    if (source.counit is None) != (target.counit is None):
        return False
    return source.counit is None or all(
        sum(target.counit[t] * f[t][k] for t in range(n)) == source.counit[k] for k in range(n))


def triangular_coalgebra(t):
    """The dual of the upper triangular 2x2 matrices (E11, E12, E22), Yau-twisted
    by the automorphism E12 -> t E12: Hom-coassociative, not cocommutative."""
    alpha = LinearMap([[1, 0, 0], [0, t, 0], [0, 0, 1]])
    mul = MulTensor.from_entries(3, {(0, 0, 0): 1, (0, 1, 1): t, (1, 2, 1): t, (2, 2, 2): 1})
    return dual_coalgebra_of_algebra(HomAlgebra(mul, alpha, Vector([1, 0, 1])))


def differential_coalgebras():
    rng = random.Random(2026)
    cases = [random_coalgebra(dim, rng, counital=bool(seed % 2))
             for dim in (1, 2, 3, 4) for seed in range(4)]
    cases += [grouplike_coalgebra(n) for n in (1, 2, 3)]
    cases += [triangular_coalgebra(t) for t in (1, 2)]
    cases += [p.coalgebra for p in registry_parts() if p.coalgebra is not None]
    return cases


def test_G_witnesses_match_the_direct_expansion():
    cases = differential_coalgebras() + [generic_coalgebra(2)]
    nonzero = 0
    for c in cases:
        cubes = reference_coassociator(c)
        for group in SUBGROUPS:
            want = reference_witnesses([reference_signed_sum(subgroup(group), t) for t in cubes])
            got = [(w.indices, w.value) for w in check_G_hom_coalgebra(c, group).witnesses]
            assert got == want, (c, group)
            nonzero += bool(want)
        assert [(w.indices, w.value) for w in check_hom_coassociative(c).witnesses] == \
            reference_witnesses(cubes)
    assert nonzero >= 50


def test_admissibility_routes_match_the_direct_expansion():
    for c in differential_coalgebras() + [generic_coalgebra(2)]:
        c_L = reference_coassociator(delta_L(c))
        cyclic = [reference_signed_sum(subgroup("G5"), t) for t in c_L]
        alternating = [reference_signed_sum(S3, t) for t in reference_coassociator(c)]
        assert admissibility_defects(c) == (tuple(cyclic), tuple(alternating))
        report = check_hom_lie_admissible(c)
        assert [(w.indices, w.value) for w in report.cyclic.witnesses] == \
            reference_witnesses(cyclic)
        assert [(w.indices, w.value) for w in report.alternating.witnesses] == \
            reference_witnesses(alternating)


def test_counital_matches_the_counit_law():
    rng = random.Random(61)
    cases = differential_coalgebras() + [generic_coalgebra(2)]
    # counits that hold: the grouplike ones and the table rows; and a broken one
    good = bialgebra_row(2).coalgebra
    cases.append(HomCoalgebra(good.comul, good.beta, Vector([1, 1])))
    seen = set()
    for c in cases:
        want = None if c.counit is None else all(m.is_zero() for m in counit_defects(c))
        assert check_counital(c) is want
        seen.add(want)
        if c.counit is not None:
            bent = HomCoalgebra(c.comul, c.beta, c.counit + Vector.basis(c.dim, rng.randrange(c.dim)))
            assert check_counital(bent) is all(m.is_zero() for m in counit_defects(bent))
    assert seen == {None, True, False}


def test_comodules_match_the_direct_coaction():
    rng = random.Random(67)
    results = []
    # the self case M = V, g = beta, rho = Delta
    for c in differential_coalgebras() + [generic_coalgebra(2)]:
        want = reference_comodule(c, c.dim, c.beta, c.comul.d)
        assert check_comodule(c, c.dim, c.beta, c.comul.d) is want
        results.append(want)
    # random M over a grouplike coalgebra: rho(u) = g(u) (x) e_k is a comodule
    # for every g, and a changed coefficient mostly breaks it
    for n, m_dim in product((1, 2, 3), (1, 2, 3, 4)):
        c, k = grouplike_coalgebra(n), rng.randrange(n)
        g = random_linear_map(m_dim, rng)
        rho = [[[g.entries[p][m] if i == k else 0 for i in range(n)] for p in range(m_dim)]
               for m in range(m_dim)]
        for _ in range(3):
            want = reference_comodule(c, m_dim, g, rho)
            assert check_comodule(c, m_dim, g, rho) is want
            results.append(want)
            rho[rng.randrange(m_dim)][rng.randrange(m_dim)][rng.randrange(n)] += 1
    # M = C (+) C over a coalgebra that is not cocommutative, each copy
    # coacting as Delta does on C
    for t in (1, 2):
        c = triangular_coalgebra(t)
        n = c.dim
        assert check_hom_coassociative(c).ok and c.comul != c.comul.op()
        rho = [[[c.comul.d[m % n][p % n][i] if m // n == p // n else 0 for i in range(n)]
                for p in range(2 * n)] for m in range(2 * n)]
        g = LinearMap([[c.beta.entries[p % n][q % n] if p // n == q // n else 0
                        for q in range(2 * n)] for p in range(2 * n)])
        assert check_comodule(c, 2 * n, g, rho) is reference_comodule(c, 2 * n, g, rho) is True
        rho[0][n + 1][2] = 1
        assert check_comodule(c, 2 * n, g, rho) is reference_comodule(c, 2 * n, g, rho) is False
    # random M and random coaction over random coalgebras
    for n in (1, 2, 3, 4):
        c, m_dim = random_coalgebra(n, rng), rng.randint(1, 3)
        rho = [[[random_scalar(rng) for _ in range(n)] for _ in range(m_dim)]
               for _ in range(m_dim)]
        g = random_linear_map(m_dim, rng)
        assert check_comodule(c, m_dim, g, rho) is reference_comodule(c, m_dim, g, rho)
    assert True in results and False in results


def relabelled(c, perm):
    """The coalgebra c with basis vector e_k renamed e_perm[k]."""
    n = c.dim
    inv = [perm.index(k) for k in range(n)]
    comul = ComulTensor([[[c.comul.d[inv[k]][inv[i]][inv[j]] for j in range(n)]
                          for i in range(n)] for k in range(n)])
    beta = LinearMap([[c.beta.entries[inv[i]][inv[j]] for j in range(n)] for i in range(n)])
    counit = None if c.counit is None else Vector([c.counit[inv[k]] for k in range(n)])
    return HomCoalgebra(comul, beta, counit)


def block_comodule(c):
    """M = C (+) C, each copy coacted on as C is by Delta, twisted by beta (+) beta."""
    n = c.dim
    rho = [[[c.comul.d[m % n][p % n][i] if m // n == p // n else 0 for i in range(n)]
            for p in range(2 * n)] for m in range(2 * n)]
    g = LinearMap([[c.beta.entries[p % n][q % n] if p // n == q // n else 0
                    for q in range(2 * n)] for p in range(2 * n)])
    return 2 * n, g, rho


def test_near_self_comodules_match_the_direct_coaction():
    rng = random.Random(73)
    results = []
    for c in differential_coalgebras() + [generic_coalgebra(2)]:
        n = c.dim
        # the self case M = V, g = beta, rho = Delta, as nested lists
        rho = [[list(row) for row in plane] for plane in c.comul.d]
        want = reference_comodule(c, n, c.beta, rho)
        assert check_comodule(c, n, c.beta, rho) is want
        results.append(want)
        # near it, on the general path: rho = Delta but for one entry, and
        # g = beta + E_11
        m, p, i = (rng.randrange(n) for _ in range(3))
        rho[m][p][i] += 1
        want = reference_comodule(c, n, c.beta, rho)
        assert check_comodule(c, n, c.beta, rho) is want
        results.append(want)
        g = c.beta + LinearMap.from_entries(n, {(0, 0): 1})
        want = reference_comodule(c, n, g, c.comul.d)
        assert check_comodule(c, n, g, c.comul.d) is want
        results.append(want)
        # M = C (+) C coacted on block by block: a comodule exactly when C is one
        m_dim, g, rho = block_comodule(c)
        want = reference_comodule(c, m_dim, g, rho)
        assert want is reference_comodule(c, n, c.beta, c.comul.d)
        assert check_comodule(c, m_dim, g, rho) is want
        rho[0][m_dim - 1][rng.randrange(n)] = 1
        assert check_comodule(c, m_dim, g, rho) is reference_comodule(c, m_dim, g, rho)
    assert True in results and False in results

def test_morphisms_match_the_direct_conditions():
    rng = random.Random(71)
    results = []
    for c in differential_coalgebras():
        n = c.dim
        perm = list(range(n))
        rng.shuffle(perm)
        # the relabelling map e_k -> e_perm[k] is a morphism onto the relabelled coalgebra
        f = LinearMap([[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)])
        target = relabelled(c, perm)
        bent = HomCoalgebra(target.comul, target.beta + LinearMap.basis_matrix(n, 0, n - 1),
                            target.counit)
        for f, source, target in ((f, c, target), (f, c, bent),
                                  (random_linear_map(n, rng), c, c),
                                  (LinearMap.identity(n), c, c)):
            want = reference_morphism(f, source, target)
            assert check_coalgebra_morphism(f, source, target) is want
            results.append(want)
    assert True in results and False in results
