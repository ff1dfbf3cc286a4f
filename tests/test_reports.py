"""Reports of whole defect tables, and the public per-component views cut
from those tables.

A checker that decides on a whole table hands it to its report as
``reports.Defects``: the verdict, the count and a bounded rendering build no
witness they do not show, the witness tuple is built once and shared by one
condition under two names, and such a report equals, hashes and renders as
the report of its explicit witness tuple.  The per-component views
(``beta_coassociator``, ``admissibility_defects``, ``expand_*``) and the weak
bialgebra witnesses are compared here with a direct evaluation of their
definitions, and the weak and alpha witnesses with their listing one witness
tuple per condition."""

import random
from fractions import Fraction
from itertools import product
from operator import itemgetter

import pytest

from homalg import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    DefectReport,
    S3,
    SUBGROUPS,
    Tensor3,
    Vector,
    Witness,
    admissibility_defects,
    beta_coassociator,
    check_G_hom_associative,
    check_G_hom_coalgebra,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_hom_associative,
    check_hom_coassociative,
    check_hom_lie_admissible,
    generic_coalgebra,
    subgroup,
)
from homalg import bialgebra, polysolve, reports
from homalg.coalgebra import expand_beta_outer, expand_outer_beta
from homalg.reports import Defects
from homalg.sampling import (
    random_comul_tensor,
    random_linear_map,
    random_mul_tensor,
    random_vector,
)
from homalg.tensors import ComulTensor, LinearMap, Tensor2, Tensor4, contract

from conftest import mu1_algebra, mu2_algebra, registry_parts

def dense_no_instance(seed, dim=3):
    """A random unital algebra and counital coalgebra of that dim,
    Hom-associative, Hom-coassociative and compatible only by accident."""
    rng = random.Random(seed)
    return (HomAlgebra(random_mul_tensor(dim, rng), random_linear_map(dim, rng),
                       random_vector(dim, rng)),
            HomCoalgebra(random_comul_tensor(dim, rng), random_linear_map(dim, rng),
                         random_vector(dim, rng)))


def checkers(a, c):
    """Every checker of tables, by name."""
    b = HomBialgebra(a, c)
    out = {"hom-assoc": lambda: check_hom_associative(a),
           "coassoc": lambda: check_hom_coassociative(c),
           "cyclic": lambda: check_hom_lie_admissible(c).cyclic,
           "alternating": lambda: check_hom_lie_admissible(c).alternating,
           "bialgebra-weak": lambda: check_bialgebra_weak(b),
           "bialgebra-strict": lambda: check_bialgebra_strict(b)}
    for g in SUBGROUPS:
        out[f"{g}-alg"] = lambda g=g: check_G_hom_associative(a, g)
        out[f"{g}-coalg"] = lambda g=g: check_G_hom_coalgebra(c, g)
    return out


def eager(report):
    """The same report from its explicit witness tuple."""
    return DefectReport(report.check, tuple(report.witnesses))


# --- what a report of a table costs ------------------------------------------


def test_verdict_count_and_bounded_rendering_build_at_most_what_they_show(monkeypatch):
    a, c = dense_no_instance(1)
    built = []

    def counted(*args):
        built.append(args)
        return Witness(*args)

    over_limit = 0
    for name, checker in checkers(a, c).items():
        monkeypatch.setattr(reports, "Witness", counted)
        built.clear()
        report = checker()
        assert not report.ok, name
        count = report.count
        text = report.render(limit=8)
        assert len(built) == 0, name
        monkeypatch.undo()
        # the listed witnesses give the same count and the same rendering
        assert count == len(report.witnesses)
        assert text == eager(report).render(limit=8)
        over_limit += count > 8
    assert over_limit >= 10


def test_the_witness_tuple_is_built_once_and_kept():
    a, c = dense_no_instance(2)
    for name, checker in checkers(a, c).items():
        report = checker()
        first = report.witnesses
        assert first and report.witnesses is first, name
    # only ``witnesses`` is looked up on demand; any other name is unknown
    assert hasattr(DefectReport("c", ()), "nope") is False


def test_one_condition_under_two_names_shares_one_witness_tuple():
    a, c = dense_no_instance(3)
    assert check_hom_associative(a).witnesses is check_G_hom_associative(a, "G1").witnesses
    assert check_hom_coassociative(c).witnesses is check_G_hom_coalgebra(c, "G1").witnesses
    alternating = check_hom_lie_admissible(c).alternating
    assert alternating.witnesses is check_G_hom_coalgebra(c, "G6").witnesses
    assert alternating.witnesses


# --- a report of a table behaves as the report of its witness tuple -----------

K_LAST = itemgetter(1, 2, 3, 0)


def table_of(count, seed):
    """``count`` nonzero numerators keyed (k, p, q, s) in dim 3, in no order."""
    rng = random.Random(seed)
    keys = rng.sample(list(product(range(3), repeat=4)), count)
    return {key: rng.choice([-5, -2, -1, 1, 3, 4, 6]) for key in keys}


@pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 40])
@pytest.mark.parametrize("scale", [1, 2])
def test_a_table_report_equals_its_witness_tuple(count, scale):
    table, den = table_of(count, count), 6
    listed = tuple(sorted((Witness(K_LAST(key), Fraction(scale * value, den))
                           for key, value in table.items()), key=lambda w: w.indices))

    def lazy():
        return DefectReport("g", Defects({k: scale * v for k, v in table.items()}, den,
                                         order=K_LAST))

    want = DefectReport("g", listed)
    for limit in (None, 0, 1, 8):
        # rendered before any witness is listed, then after
        report = lazy()
        assert report.render(limit) == want.render(limit)
        assert report.render(limit) == want.render(limit)
        assert report.ok == want.ok and report.count == want.count == count
    text = lazy().render(8)
    assert text.endswith(f" (+{count - 8} more)") == (count > 8)
    assert "more" not in lazy().render()
    report = lazy()
    assert report == want and hash(report) == hash(want) and repr(report) == repr(want)
    assert report.witnesses == listed and lazy() != DefectReport("h", listed)


def test_a_zero_limit_renders_the_count_alone():
    table = table_of(2, 2)
    lazy = DefectReport("x", Defects(table, 1, order=K_LAST))
    first = lazy.witnesses[0].render()
    for report in (lazy, eager(lazy)):
        assert report.render(0) == "x: 2 nonzero defect(s): (+2 more)"
        assert report.render(1) == f"x: 2 nonzero defect(s): {first} (+1 more)"
    assert DefectReport("x", ()).render(0) == "x: ok"


def test_a_negative_limit_is_a_value_error():
    table = table_of(12, 12)
    lazy = DefectReport("g", Defects(table, 6, order=K_LAST))
    for report in (eager(lazy), lazy, DefectReport("g", ())):
        for limit in (-1, -12, -13):
            with pytest.raises(ValueError, match="limit"):
                report.render(limit)


def test_checker_reports_equal_their_witness_tuples():
    a, c = dense_no_instance(4)
    for name, checker in checkers(a, c).items():
        report = checker()
        assert report == eager(report) and hash(report) == hash(eager(report)), name


def test_a_coalgebra_table_lists_its_witnesses_k_first():
    table = {(1, 0, 2, 2): 3, (0, 2, 1, 0): -1, (2, 0, 0, 1): 2}
    assert [w.indices for w in Defects(table).witnesses] == sorted(table)
    assert [w.indices for w in Defects(table, order=K_LAST).witnesses] == \
        sorted(map(K_LAST, table))
    assert Defects(table, 4, "x").witnesses[0] == Witness((0, 2, 1, 0), Fraction(-1, 4), "x")


# --- the public per-component views, against a direct evaluation -------------


def direct_expansion(inner, outer, beta, outer_beta):
    """(outer (x) beta) o inner or (beta (x) outer) o inner, per basis vector,
    summed from the structure constants."""
    n, d, o, b = inner.dim, inner.d, outer.d, beta.entries
    if outer_beta:
        def entry(k, i, j, l):
            return sum((d[k][a][c] * o[a][i][j] * b[l][c]
                        for a, c in product(range(n), repeat=2)), Fraction(0))
    else:
        def entry(k, i, j, l):
            return sum((d[k][a][c] * b[i][a] * o[c][j][l]
                        for a, c in product(range(n), repeat=2)), Fraction(0))
    return tuple(Tensor3.from_entries(n, {(i, j, l): entry(k, i, j, l)
                                          for i, j, l in product(range(n), repeat=3)})
                 for k in range(n))


def direct_signed_sum(perms, t):
    """sum_{sigma in perms} (-1)^eps(sigma) Phi_sigma(t), entry by entry."""
    n = t.dim

    def moved(sigma, idx):
        inv = sigma.inverse().images
        return tuple(idx[inv[m] - 1] for m in range(3))

    total = {idx: Fraction(0) for idx in product(range(n), repeat=3)}
    for sigma in perms:
        for idx in product(range(n), repeat=3):
            total[moved(sigma, idx)] = total[moved(sigma, idx)] + sigma.sign * t.entry(*idx)
    return Tensor3.from_entries(n, total)


def view_cases():
    rng = random.Random(61)
    cases = [generic_coalgebra(2)]
    for dim in (1, 2, 3, 4):
        cases += [HomCoalgebra(random_comul_tensor(dim, rng), random_linear_map(dim, rng))
                  for _ in range(2)]
    return cases


@pytest.mark.parametrize("c", view_cases(), ids=lambda c: f"dim{c.dim}")
def test_per_component_views_match_the_direct_evaluation(c):
    delta, op, beta = c.comul, c.comul.op(), c.beta
    for inner, outer in ((delta, delta), (delta, op), (op, delta)):
        assert expand_outer_beta(inner, outer, beta) == \
            direct_expansion(inner, outer, beta, True)
        assert expand_beta_outer(inner, outer, beta) == \
            direct_expansion(inner, outer, beta, False)
    right = direct_expansion(delta, delta, beta, True)
    left = direct_expansion(delta, delta, beta, False)
    coassociator = tuple(r - x for r, x in zip(right, left))
    got = beta_coassociator(c)
    assert type(got) is tuple and all(type(t) is Tensor3 for t in got)
    assert got == coassociator
    delta_l = delta - op
    c_l = tuple(r - x for r, x in zip(direct_expansion(delta_l, delta_l, beta, True),
                                      direct_expansion(delta_l, delta_l, beta, False)))
    cyclic, alternating = admissibility_defects(c)
    assert type(cyclic) is tuple and type(alternating) is tuple
    assert cyclic == tuple(direct_signed_sum(subgroup("G5"), t) for t in c_l)
    assert alternating == tuple(direct_signed_sum(S3, t) for t in coassociator)


def direct_weak_witnesses(b):
    """(indices, value, label) of every nonzero weak defect, in report order,
    summed from the structure constants."""
    n = b.dim
    C, D, u, eps = b.algebra.mul.c, b.coalgebra.comul.d, b.unit.coords, b.counit.coords
    found = []
    for i, j in product(range(n), repeat=2):
        v = sum((u[k] * D[k][i][j] for k in range(n)), Fraction(0)) - u[i] * u[j]
        if v:
            found.append(((i, j), v, "unit-grouplike"))
    v = sum((u[k] * eps[k] for k in range(n)), Fraction(0)) - 1
    if v:
        found.append(((), v, "counit-on-unit"))
    for p, q in product(range(n), repeat=2):
        for i, j in product(range(n), repeat=2):
            v = sum((C[p][q][k] * D[k][i][j] for k in range(n)), Fraction(0)) - sum(
                (D[p][a][e] * D[q][c][f] * C[a][c][i] * C[e][f][j]
                 for a, e, c, f in product(range(n), repeat=4)), Fraction(0))
            if v:
                found.append(((p, q, i, j), v, "comul-mult"))
        v = sum((C[p][q][k] * eps[k] for k in range(n)), Fraction(0)) - eps[p] * eps[q]
        if v:
            found.append(((p, q), v, "counit-mult"))
    return found


def weak_cases():
    rng = random.Random(67)
    cases = [polysolve._extension_bialgebra(family(3, 5)) for family in (mu1_algebra, mu2_algebra)]
    for dim in (1, 2, 3, 4):
        for _ in range(2):
            cases.append(HomBialgebra(
                HomAlgebra(random_mul_tensor(dim, rng), random_linear_map(dim, rng),
                           random_vector(dim, rng)),
                HomCoalgebra(random_comul_tensor(dim, rng), random_linear_map(dim, rng),
                             random_vector(dim, rng))))
    return cases


@pytest.mark.parametrize("b", weak_cases(), ids=lambda b: f"dim{b.dim}")
def test_weak_witnesses_match_the_direct_evaluation(b):
    got = b.weak_defects.witnesses
    assert type(got) is tuple
    assert [(w.indices, w.value, w.label) for w in got] == direct_weak_witnesses(b)


# --- the weak and alpha witnesses, against one witness tuple per condition ----


def listed(tensor, label):
    """One witness per nonzero entry of a tensor, in index order."""
    return tuple(Witness(key, value, label) for key, value in sorted(tensor.nonzero.items()))


def by_leading(first, then, legs):
    """Two witness tuples merged by their leading ``legs`` indices, ``first``
    before ``then`` at equal leading indices."""
    return tuple(sorted(first + then, key=lambda w: w.indices[:legs]))


def listed_weak_witnesses(b):
    """The weak witnesses listed condition by condition: unit-grouplike,
    counit-on-unit, then comul-mult and counit-mult merged by basis pair."""
    u, eps, comul, mul = b.unit, b.counit, b.coalgebra.comul, b.algebra.mul
    found = listed(comul.apply(u) - Tensor2.pure(u, u), "unit-grouplike")
    eps_unit = contract("k,k->", u, eps) - Fraction(1)
    if eps_unit:
        found += (Witness((), eps_unit, "counit-on-unit"),)
    comul_mult = Tensor4.contracted("pqk,kij->pqij", mul, comul) \
        - Tensor4.contracted("qcd,aci,pab,bdj->pqij", comul, mul, comul, mul)
    counit_mult = LinearMap.contracted("pqk,k->pq", mul, eps) \
        - LinearMap.contracted("p,q->pq", eps, eps)
    return found + by_leading(listed(comul_mult, "comul-mult"),
                              listed(counit_mult, "counit-mult"), 2)


def listed_alpha_witnesses(b):
    """The alpha witnesses listed condition by condition: comul-alpha and
    counit-alpha merged by basis vector."""
    alpha, comul, eps = b.algebra.alpha, b.coalgebra.comul, b.counit
    comul_alpha = ComulTensor.contracted("tk,tij->kij", alpha, comul) \
        - ComulTensor.contracted("ia,kab,jb->kij", alpha, comul, alpha)
    counit_alpha = Vector.contracted("ik,i->k", alpha, eps) - eps
    return by_leading(listed(comul_alpha, "comul-alpha"), listed(counit_alpha, "counit-alpha"), 1)


def pin_cases():
    cases = [p.bialgebra for p in registry_parts() if p.bialgebra is not None]
    cases += [polysolve._extension_bialgebra(family(a1, a2))
              for family in (mu1_algebra, mu2_algebra) for a1, a2 in ((1, 1), (3, 5), (-2, 1))]
    return cases + [HomBialgebra(*dense_no_instance(71 + 4 * dim + i, dim))
                    for dim in (1, 2, 3) for i in range(4)]


@pytest.mark.parametrize("b", pin_cases(), ids=lambda b: f"dim{b.dim}")
def test_weak_and_alpha_witnesses_match_their_listing_by_condition(b):
    weak, alpha = b.weak_defects.witnesses, bialgebra.alpha_defects(b).witnesses
    want_weak, want_alpha = listed_weak_witnesses(b), listed_alpha_witnesses(b)
    assert type(weak) is tuple and type(alpha) is tuple
    assert weak == want_weak and alpha == want_alpha
    assert [type(w.value) for w in weak + alpha] == [type(w.value) for w in want_weak + want_alpha]
    for report, want in ((check_bialgebra_weak(b), want_weak),
                         (check_bialgebra_strict(b), want_weak + want_alpha)):
        assert report.witnesses == want
        for limit in (None, 0, 3, 8):
            assert report.render(limit) == DefectReport(report.check, want).render(limit)
