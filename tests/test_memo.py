"""Each structure keeps the tables derived from it for as long as it lives:
an algebra its G-defect tables ("G1" is the alpha-associator, and G6's
table is built from G5's), a coalgebra its transpose, on which the
coalgebra checkers decide, and its eight compositions, a bialgebra its weak
defects and its primitive subspace.  Each table is computed once per
structure, whatever order the checkers of several structures run in, never
stale, and freed with the structure.  The self-module and self-comodule
checks read the associator table and contract nothing; any other action is
tabled once and contracted.  The extension search's memos of the weak system
and the lex solve are keyed by value across structures and stay within their
bound."""

import gc
import random
import weakref
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest

from homalg import (
    ComulTensor,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    LinearMap,
    MulTensor,
    SUBGROUPS,
    Vector,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_coalgebra_morphism,
    check_comodule,
    check_G_hom_associative,
    check_G_hom_coalgebra,
    check_hom_associative,
    check_hom_coassociative,
    check_hom_lie_admissible,
    check_module,
    dual,
    dual_algebra_of_coalgebra,
    generalized_primitive_subspace,
    lemma_identities_check,
    primitive_subspace,
    search_bialgebra_extension,
)
from homalg import algebra, coalgebra, polysolve, tensors
from homalg.coalgebra import beta_coassociator
from homalg.polysolve import DEGREE_CAP, _lex_solve, _weak_generators
from homalg.sampling import random_scalar
from homalg.tensors import signed_leg_sum

from conftest import bialgebra_row, mu1_algebra, mu2_algebra, truncated_primitive_bialgebra

EXTENSION = (_weak_generators, _lex_solve)


@pytest.fixture(autouse=True)
def empty_extension_memos():
    for memo in EXTENSION:
        memo.cache_clear()
    yield
    for memo in EXTENSION:
        memo.cache_clear()


def cube(n, rng):
    return [[[random_scalar(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]


def square(n, rng):
    return [[random_scalar(rng) for _ in range(n)] for _ in range(n)]


def random_bialgebra_data(n, seed):
    rng = random.Random(seed)
    return (cube(n, rng), square(n, rng), [random_scalar(rng) for _ in range(n)],
            cube(n, rng), square(n, rng), [random_scalar(rng) for _ in range(n)])


def build(data):
    mul, alpha, unit, comul, beta, counit = data
    return HomBialgebra(HomAlgebra(MulTensor(mul), LinearMap(alpha), Vector(unit)),
                        HomCoalgebra(ComulTensor(comul), LinearMap(beta), Vector(counit)))


def fresh(b):
    """An equal bialgebra with nothing derived from it yet."""
    return HomBialgebra(replace(b.algebra), replace(b.coalgebra))


CHECKERS = [lambda b: check_hom_associative(b.algebra),
            lambda b: check_hom_coassociative(b.coalgebra)]
for _g in SUBGROUPS:
    CHECKERS += [lambda b, g=_g: check_G_hom_associative(b.algebra, g),
                 lambda b, g=_g: check_G_hom_coalgebra(b.coalgebra, g)]
CHECKERS += [lambda b: check_hom_lie_admissible(b.coalgebra).cyclic,
             lambda b: check_hom_lie_admissible(b.coalgebra).alternating,
             check_bialgebra_weak, check_bialgebra_strict]


def reports(b):
    return [checker(b) for checker in CHECKERS]


def fresh_reports(b):
    """The reports, each checker run on its own fresh copy of the structure."""
    return [checker(fresh(b)) for checker in CHECKERS]


def count_property(monkeypatch, cls, name):
    """Record the instance of every computation of the cached attribute
    ``cls.<name>``."""
    calls, compute = [], getattr(cls, name).func

    def counted(self):
        calls.append(self)
        return compute(self)

    counted_property = cached_property(counted)
    counted_property.__set_name__(cls, name)
    monkeypatch.setattr(cls, name, counted_property)
    return calls


def count_associators(monkeypatch):
    """Record the algebra of every alpha-associator computed, on either side."""
    calls, original = [], algebra._associator

    def counted(a):
        calls.append(a)
        return original(a)

    for module in (algebra, coalgebra):
        monkeypatch.setattr(module, "_associator", counted)
    return calls


def ids(structures):
    return [id(s) for s in structures]


def test_alternating_structures_get_their_own_witnesses():
    first, second = build(random_bialgebra_data(3, 1)), build(random_bialgebra_data(3, 2))
    want = {id(first): fresh_reports(first), id(second): fresh_reports(second)}
    assert want[id(first)] != want[id(second)]
    for b in (first, second, first, second, second, first):
        assert reports(b) == want[id(b)]
    # interleaved one checker at a time, so every lookup switches structure
    for g in SUBGROUPS:
        for b in (first, second):
            assert check_G_hom_associative(b.algebra, g) == \
                want[id(b)][2 + 2 * list(SUBGROUPS).index(g)]
            assert check_G_hom_coalgebra(b.coalgebra, g) == \
                want[id(b)][3 + 2 * list(SUBGROUPS).index(g)]


def test_equal_but_distinct_structures_give_equal_reports():
    data = random_bialgebra_data(2, 3)
    one, other = build(data), build(data)
    assert one is not other and one == other
    assert reports(one) == reports(other) == fresh_reports(one)


def test_each_structure_computes_its_associator_and_coassociator_once(monkeypatch):
    b = build(random_bialgebra_data(3, 4))
    associators = count_associators(monkeypatch)
    transposes = count_property(monkeypatch, HomCoalgebra, "_transpose")
    weak = count_property(monkeypatch, HomBialgebra, "weak_defects")
    # reports() alternates the algebra's checkers and the coalgebra's, group
    # by group: the transpose is built once, and each side's associator is
    # computed once and kept on its own structure
    reports(b)
    assert ids(associators) == ids([b.algebra, b.coalgebra._transpose])
    assert ids(transposes) == ids([b.coalgebra]) and ids(weak) == ids([b])
    # both sides are still there
    assert beta_coassociator(b.coalgebra) == beta_coassociator(b.coalgebra)
    check_hom_associative(b.algebra)
    assert len(associators) == 2 and len(transposes) == 1
    # one table per group and side
    assert set(b.algebra._G_defects) == set(b.coalgebra._transpose._G_defects) == set(SUBGROUPS)


def test_interleaved_algebras_compute_each_associator_once(monkeypatch):
    algebras = [build(random_bialgebra_data(3, seed)).algebra for seed in (21, 22, 23)]
    associators = count_associators(monkeypatch)
    for g in SUBGROUPS:
        for a in algebras:
            assert not check_G_hom_associative(a, g).ok
    assert ids(associators) == ids(algebras)


def test_a_dropped_structure_frees_its_tables():
    b = build(random_bialgebra_data(3, 12))
    reports(b)
    assert lemma_identities_check(b.coalgebra) == (True,) * 5
    transpose = b.coalgebra._transpose
    tables = [b.algebra._G_defects["G1"], b.algebra._G_defects["G6"], transpose,
              transpose._G_defects["G1"], b.coalgebra._compositions[0]["d", "d"], b.weak_defects]
    refs = [weakref.ref(table) for table in tables]
    del b, transpose, tables
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def test_one_condition_under_two_names_is_one_witness_tuple():
    b = build(random_bialgebra_data(3, 5))
    a, c = b.algebra, b.coalgebra
    # a no-instance: empty tuples would be one object anyway
    assert check_hom_associative(a).witnesses and check_hom_coassociative(c).witnesses
    assert check_G_hom_associative(a, "G1").witnesses is check_hom_associative(a).witnesses
    assert check_G_hom_coalgebra(c, "G1").witnesses is check_hom_coassociative(c).witnesses
    alternating = check_hom_lie_admissible(c).alternating
    assert alternating.witnesses
    assert alternating.witnesses is check_G_hom_coalgebra(c, "G6").witnesses


def test_morphism_checks_leave_the_transpose_memo_alone():
    kept = build(random_bialgebra_data(2, 6)).coalgebra
    transpose = kept._transpose
    source, target = bialgebra_row(2).coalgebra, bialgebra_row(1).coalgebra
    ident = LinearMap.identity(2)
    for _ in range(5):
        assert check_coalgebra_morphism(ident, source, source)
        assert not check_coalgebra_morphism(ident, source, target)
    # the morphism check transposes afresh and keeps nothing
    assert "_transpose" not in vars(source) and "_transpose" not in vars(target)
    assert kept._transpose is transpose


def test_dualizing_leaves_the_transpose_memo_alone():
    checked, other = (build(random_bialgebra_data(2, seed)).coalgebra for seed in (7, 8))
    assert not check_hom_coassociative(checked).ok
    transpose = checked._transpose
    assert dual(other) == dual_algebra_of_coalgebra(other)
    assert "_transpose" not in vars(other)
    # G2 is a new signed sum, on the transpose the coalgebra keeps
    assert not check_G_hom_coalgebra(checked, "G2").ok
    assert checked._transpose is transpose and "G2" in transpose._G_defects


def test_alternating_bialgebras_get_their_own_primitives(monkeypatch):
    first, second = truncated_primitive_bialgebra(), bialgebra_row(2)
    want = {id(b): primitive_subspace(fresh(b)) for b in (first, second)}
    assert want[id(first)] != want[id(second)]
    solves = count_property(monkeypatch, HomBialgebra, "_primitives")
    for b in (first, second, second, first, first, second):
        assert primitive_subspace(b) == want[id(b)]
    assert ids(solves) == ids([first, second])
    # an equal but distinct bialgebra is solved for itself, once
    again = truncated_primitive_bialgebra()
    assert again is not first and again == first
    assert primitive_subspace(again) == primitive_subspace(again) == want[id(first)]
    assert ids(solves) == ids([first, second, again])


def test_generalized_primitives_after_primitives_solve_prim_once(monkeypatch):
    b = truncated_primitive_bialgebra()
    solves = count_property(monkeypatch, HomBialgebra, "_primitives")
    assert len(primitive_subspace(b)) == 1
    assert len(generalized_primitive_subspace(b)) == len(generalized_primitive_subspace(b)) == 3
    assert ids(solves) == ids([b])


def test_hom_associativity_alone_sums_no_group(monkeypatch):
    sums = []
    for module in (algebra, coalgebra):
        monkeypatch.setattr(module, "signed_leg_sum", lambda perms, t: sums.append(perms))
    b = build(random_bialgebra_data(3, 6))
    check_hom_associative(b.algebra)
    check_hom_coassociative(b.coalgebra)
    assert sums == []
    assert list(b.algebra._G_defects) == list(b.coalgebra._transpose._G_defects) == ["G1"]


def test_each_group_sums_the_associator_once_per_side(monkeypatch):
    sums = []

    def recorded(perms, t, lead=0):
        sums.append(tuple(perms))
        return signed_leg_sum(perms, t, lead)

    for module in (algebra, coalgebra):
        monkeypatch.setattr(module, "signed_leg_sum", recorded)
    b = build(random_bialgebra_data(3, 6))
    want = fresh_reports(b)
    sums.clear()
    assert reports(b) == want
    # G1 is the associator itself and G6 is built from G5's table
    assert Counter(sums) == {SUBGROUPS[g]: 2 for g in ("G2", "G3", "G4", "G5")}


def count_calls(monkeypatch, name):
    """Record the first argument of every call of tensors.<name>, wherever
    the algebra side binds it."""
    calls, original = [], getattr(tensors, name)

    def counted(first, *rest):
        calls.append(first)
        return original(first, *rest)

    for module in (algebra, tensors):
        monkeypatch.setattr(module, name, counted)
    return calls


def test_self_module_and_comodule_read_the_remembered_associators(monkeypatch):
    b = build(random_bialgebra_data(3, 9))
    a, c = b.algebra, b.coalgebra
    want = check_hom_associative(a).ok, check_hom_coassociative(c).ok
    associators = count_associators(monkeypatch)
    contractions = count_calls(monkeypatch, "_contraction")
    # the action as nested lists, so the tensors are compared by value
    gamma = [[list(row) for row in plane] for plane in a.mul.c]
    rho = [[list(row) for row in plane] for plane in c.comul.d]
    assert (check_module(a, a.dim, a.alpha, gamma), check_comodule(c, c.dim, c.beta, rho)) == want
    assert contractions == [] and associators == []


def test_near_self_modules_and_comodules_contract_both_sides(monkeypatch):
    b = build(random_bialgebra_data(2, 10))
    a, c = b.algebra, b.coalgebra
    check_hom_associative(a)
    check_hom_coassociative(c)
    associators = count_associators(monkeypatch)
    contractions = count_calls(monkeypatch, "_contraction")
    gamma = [[list(row) for row in plane] for plane in a.mul.c]
    gamma[1][0][1] += 1
    rho = [[list(row) for row in plane] for plane in c.comul.d]
    rho[0][1][1] += 1
    nudge = LinearMap.from_entries(2, {(0, 0): 1})
    check_module(a, 2, a.alpha, gamma)
    check_module(a, 2, a.alpha + nudge, a.mul.c)
    check_comodule(c, 2, c.beta, rho)
    check_comodule(c, 2, c.beta + nudge, c.comul.d)
    # two sides per call, and no associator computed
    assert len(contractions) == 4 * 2
    assert associators == []


def test_any_action_is_tabled_once(monkeypatch):
    b = build(random_bialgebra_data(2, 11))
    a, c = b.algebra, b.coalgebra
    calls = count_calls(monkeypatch, "tabled")
    # M = V (+) V, each copy acted on as V is
    gamma = [[[a.mul.c[i][m % 2][p % 2] if m // 2 == p // 2 else 0 for p in range(4)]
              for m in range(4)] for i in range(2)]
    rho = [[[c.comul.d[m % 2][p % 2][i] if m // 2 == p // 2 else 0 for i in range(2)]
            for p in range(4)] for m in range(4)]
    check_module(a, 4, LinearMap.identity(4), gamma)
    check_comodule(c, 4, LinearMap.identity(4), rho)
    assert calls == [gamma, rho] and calls[0] is gamma and calls[1] is rho


def test_strict_extension_search_reuses_the_weak_witnesses(monkeypatch):
    weak_tables = count_property(monkeypatch, HomBialgebra, "weak_defects")
    algebra = mu1_algebra(2, 3)
    weak = search_bialgebra_extension(algebra)
    strict = search_bialgebra_extension(algebra, strict_alpha=True)
    # the weak witnesses are computed once: the strict search takes the weak
    # generators from their memo and computes no weak witness at all
    assert len(weak_tables) == 1
    info = _weak_generators.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert strict.generators[:len(weak.generators)] == weak.generators


# --- the extension search's memos ----------------------------------------------------

def bindings(count, seed):
    """Distinct twist bindings (a1, a2) away from a1 = 1 and a2 = a1."""
    rng, seen = random.Random(seed), set()
    while len(seen) < count:
        a1, a2 = random_scalar(rng), random_scalar(rng)
        if a1 not in (0, 1) and a2 not in (0, a1):
            seen.add((a1, a2))
    return sorted(seen)


def test_equal_but_distinct_multiplications_share_the_weak_system():
    one = mu1_algebra(2, 3)
    other = HomAlgebra(MulTensor(one.mul.c), LinearMap(one.alpha.entries), Vector(one.unit.coords))
    assert other.mul is not one.mul and other.mul == one.mul
    first, second = search_bialgebra_extension(one), search_bialgebra_extension(other)
    for memo in EXTENSION:
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 1), memo
    assert first == second


def test_alternating_families_hit_the_weak_solve_from_the_second_round():
    for round, (a1, a2) in enumerate(bindings(6, 17)):
        for family in (mu1_algebra, mu2_algebra):
            for strict in (False, True):
                hits = _lex_solve.cache_info().hits
                search_bialgebra_extension(family(a1, a2), strict_alpha=strict)
                if round and not strict:
                    assert _lex_solve.cache_info().hits == hits + 1, (round, family)
    # two weak systems, each built once
    assert _weak_generators.cache_info().misses == 2


def test_extension_memos_stay_within_their_bound():
    # nearly every strict system is decided before the lex solve, so each
    # binding's searches run at their own degree cap, a new solve key
    for cap, (a1, a2) in enumerate(bindings(50, 18), DEGREE_CAP):
        for family in (mu1_algebra, mu2_algebra):
            for strict in (False, True):
                search_bialgebra_extension(family(a1, a2), strict_alpha=strict, degree_cap=cap)
                for memo in EXTENSION:
                    info = memo.cache_info()
                    assert info.currsize <= info.maxsize, memo
    assert _lex_solve.cache_info().currsize == _lex_solve.cache_info().maxsize


def test_caps_are_part_of_the_solve_key():
    algebra = mu2_algebra(2, 3)
    warm = search_bialgebra_extension(algebra)
    assert warm.status == "inconsistent"
    capped = search_bialgebra_extension(algebra, pair_cap=1)
    assert capped.status == "inconclusive" and "pair_cap=1" in capped.reason
    capped = search_bialgebra_extension(algebra, degree_cap=1)
    assert capped.status == "inconclusive" and "degree_cap=1" in capped.reason
    assert search_bialgebra_extension(algebra) == warm
    assert _lex_solve.cache_info().hits == 1


def test_a_warm_hit_still_checks_the_certificate(monkeypatch):
    algebra = mu2_algebra(2, 3)
    assert search_bialgebra_extension(algebra).status == "inconsistent"
    monkeypatch.setattr(polysolve, "verify_certificate", lambda generators, certificate: False)
    verdict = search_bialgebra_extension(algebra)
    assert _lex_solve.cache_info().hits == 1
    assert verdict.status == "inconclusive" and verdict.certificate is None
    assert "certificate does not recombine" in verdict.reason


def test_a_warm_hit_still_checks_the_points(monkeypatch):
    algebra = mu1_algebra(2, 3)
    assert search_bialgebra_extension(algebra).points
    # a point that some generator does not vanish at is dropped, hit or not
    monkeypatch.setattr(polysolve, "_zeroes", lambda rows, point: False)
    verdict = search_bialgebra_extension(algebra)
    assert _lex_solve.cache_info().hits == 1
    assert verdict.status == "solutions" and verdict.points == ()


def test_mutating_a_verdict_leaves_the_next_verdict_unchanged():
    algebra = mu1_algebra(2, 3)
    first = search_bialgebra_extension(algebra)
    want = [dict(point) for point in first.points]
    for point in first.points:
        point["x11"] = 99
        point.pop("y")
    second = search_bialgebra_extension(algebra)
    assert _lex_solve.cache_info().hits == 1
    assert [dict(point) for point in second.points] == want


def test_a_verdicts_generators_cannot_be_changed():
    # the weak generators are the memo's own polynomials, shared by every
    # binding of mu1: clearing one would make a later search list the zero
    # polynomial
    first = search_bialgebra_extension(mu1_algebra(2, 3))
    want = [dict(g.terms) for g in first.generators]
    with pytest.raises(AttributeError):
        first.generators[0].terms.clear()
    with pytest.raises(TypeError):
        first.generators[0].terms[next(iter(want[0]))] = 0
    later = search_bialgebra_extension(mu1_algebra(5, 7))
    assert _weak_generators.cache_info().hits == 1
    assert all(later.generators)
    assert [dict(g.terms) for g in later.generators] == want


def test_warm_searches_equal_cold_ones():
    cases = [(family, a1, a2, strict) for a1, a2 in bindings(12, 19)
             for family in (mu1_algebra, mu2_algebra) for strict in (False, True)]
    cold = []
    for family, a1, a2, strict in cases:
        for memo in EXTENSION:
            memo.cache_clear()
        cold.append(search_bialgebra_extension(family(a1, a2), strict_alpha=strict))
    for memo in EXTENSION:
        memo.cache_clear()
    warm = [search_bialgebra_extension(family(a1, a2), strict_alpha=strict)
            for family, a1, a2, strict in cases]
    assert _lex_solve.cache_info().hits >= 2 * 11
    # status, generators, points, certificate, pairs and reason, field by field
    for case, c, w in zip(cases, cold, warm):
        assert w == c, case
