"""The associator's two-entry memo (a bialgebra's algebra and its
coalgebra's transpose, on which the coalgebra checkers decide), the one-entry
memos of that transpose, the weak bialgebra witnesses and the primitive
subspace, the per-group memos of the G-defect witnesses, and the extension
search's memos of the weak system and the lex solve: keyed on the structure's
value, never stale, never growing past their bound."""

import random

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
    check_G_hom_associative,
    check_G_hom_coalgebra,
    check_hom_associative,
    check_hom_coassociative,
    check_hom_lie_admissible,
    search_bialgebra_extension,
)
from homalg import algebra, coalgebra, polysolve
from homalg.algebra import _associator_tensors
from homalg.bialgebra import primitive_subspace, weak_witnesses
from homalg.coalgebra import beta_coassociator, dual_algebra_of_coalgebra
from homalg.polysolve import _lex_solve, _weak_generators
from homalg.sampling import random_scalar

from conftest import bialgebra_row, mu1_algebra, mu2_algebra, truncated_primitive_bialgebra

ONE_ENTRY = (dual_algebra_of_coalgebra, weak_witnesses)
PER_GROUP = (algebra._G_witnesses, coalgebra._G_witnesses)
EXTENSION = (_weak_generators, _lex_solve)
# one entry too, but no checker of reports() reaches it
PRIMITIVE = (primitive_subspace,)
MEMOS = ONE_ENTRY + (_associator_tensors,) + PER_GROUP + EXTENSION + PRIMITIVE


@pytest.fixture(autouse=True)
def empty_memos():
    for memo in MEMOS:
        memo.cache_clear()
    yield
    for memo in MEMOS:
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


def reports(b):
    a, c = b.algebra, b.coalgebra
    out = [check_hom_associative(a), check_hom_coassociative(c)]
    for g in SUBGROUPS:
        out += [check_G_hom_associative(a, g), check_G_hom_coalgebra(c, g)]
    adm = check_hom_lie_admissible(c)
    out += [adm.cyclic, adm.alternating, check_bialgebra_weak(b), check_bialgebra_strict(b)]
    return out


def fresh_reports(b):
    """The reports with every memo emptied before each checker runs."""
    a, c = b.algebra, b.coalgebra
    checkers = [lambda: check_hom_associative(a), lambda: check_hom_coassociative(c)]
    for g in SUBGROUPS:
        checkers += [lambda g=g: check_G_hom_associative(a, g),
                     lambda g=g: check_G_hom_coalgebra(c, g)]
    checkers += [lambda: check_hom_lie_admissible(c).cyclic,
                 lambda: check_hom_lie_admissible(c).alternating,
                 lambda: check_bialgebra_weak(b), lambda: check_bialgebra_strict(b)]
    out = []
    for checker in checkers:
        for memo in MEMOS:
            memo.cache_clear()
        out.append(checker())
    return out


def test_alternating_structures_get_their_own_witnesses():
    first, second = build(random_bialgebra_data(3, 1)), build(random_bialgebra_data(3, 2))
    want = {id(first): fresh_reports(first), id(second): fresh_reports(second)}
    assert want[id(first)] != want[id(second)]
    for b in (first, second, first, second, second, first):
        assert reports(b) == want[id(b)]
    # interleaved one checker at a time, so every memo lookup switches structure
    for g in SUBGROUPS:
        for b in (first, second):
            assert check_G_hom_associative(b.algebra, g) == \
                want[id(b)][2 + 2 * list(SUBGROUPS).index(g)]
            assert check_G_hom_coalgebra(b.coalgebra, g) == \
                want[id(b)][3 + 2 * list(SUBGROUPS).index(g)]
    assert all(memo.cache_info().currsize <= len(SUBGROUPS) for memo in PER_GROUP)


def test_equal_but_distinct_structures_give_equal_reports():
    data = random_bialgebra_data(2, 3)
    one, other = build(data), build(data)
    assert one is not other and one == other
    assert reports(one) == reports(other) == fresh_reports(one)


def test_each_structure_computes_its_associator_and_coassociator_once():
    b = build(random_bialgebra_data(3, 4))
    # reports() alternates the algebra's checkers and the coalgebra's, group
    # by group: the transpose is built once, and each side's associator is
    # computed once and kept beside the other's
    reports(b)
    for memo in ONE_ENTRY:
        info = memo.cache_info()
        assert info.misses == 1 and info.hits >= 1, memo
        assert info.maxsize == 1 and info.currsize == 1, memo
    info = _associator_tensors.cache_info()
    assert info.misses == 2 and info.maxsize == info.currsize == 2
    # both sides are still there
    assert beta_coassociator(b.coalgebra) is beta_coassociator(b.coalgebra)
    _associator_tensors(b.algebra)
    assert _associator_tensors.cache_info().misses == 2
    assert dual_algebra_of_coalgebra.cache_info().misses == 1
    # one signed sum per group and side; G1 and G6 are asked for twice
    for memo in PER_GROUP:
        info = memo.cache_info()
        assert info.misses == len(SUBGROUPS) and info.hits >= 1, memo
        assert info.maxsize == info.currsize == len(SUBGROUPS), memo


def test_memo_holds_one_structure():
    for seed in range(5):
        reports(build(random_bialgebra_data(2, seed)))
    assert all(memo.cache_info().currsize == 1 for memo in ONE_ENTRY)
    assert _associator_tensors.cache_info().currsize == 2
    assert all(memo.cache_info().currsize <= len(SUBGROUPS) for memo in PER_GROUP)


def test_morphism_checks_leave_the_transpose_memo_alone():
    kept = build(random_bialgebra_data(2, 6)).coalgebra
    transpose = dual_algebra_of_coalgebra(kept)
    before = dual_algebra_of_coalgebra.cache_info()
    source, target = bialgebra_row(2).coalgebra, bialgebra_row(1).coalgebra
    ident = LinearMap.identity(2)
    for _ in range(5):
        assert check_coalgebra_morphism(ident, source, source)
        assert not check_coalgebra_morphism(ident, source, target)
    assert dual_algebra_of_coalgebra.cache_info() == before
    assert dual_algebra_of_coalgebra(kept) is transpose


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


def test_alternating_bialgebras_get_their_own_primitives():
    first, second = truncated_primitive_bialgebra(), bialgebra_row(2)
    want = {}
    for b in (first, second):
        primitive_subspace.cache_clear()
        want[id(b)] = primitive_subspace(b)
    assert want[id(first)] != want[id(second)]
    primitive_subspace.cache_clear()
    for b in (first, second, second, first, first, second):
        assert primitive_subspace(b) == want[id(b)]
    info = primitive_subspace.cache_info()
    assert (info.misses, info.hits, info.maxsize, info.currsize) == (4, 2, 1, 1)
    # an equal but distinct bialgebra is a hit
    again = truncated_primitive_bialgebra()
    assert again is not first and again == first
    assert primitive_subspace(again) == want[id(first)]
    assert primitive_subspace.cache_info().misses == 5
    assert primitive_subspace(again) == want[id(first)]
    assert primitive_subspace.cache_info().hits == 3


def test_hom_associativity_alone_sums_no_group(monkeypatch):
    sums = []
    for module in (algebra, coalgebra):
        monkeypatch.setattr(module, "signed_leg_sum", lambda perms, t: sums.append(perms))
    b = build(random_bialgebra_data(3, 6))
    check_hom_associative(b.algebra)
    check_hom_coassociative(b.coalgebra)
    assert sums == []
    assert all(memo.cache_info().currsize == 1 for memo in PER_GROUP)


def test_strict_extension_search_reuses_the_weak_witnesses():
    algebra = mu1_algebra(2, 3)
    weak = search_bialgebra_extension(algebra)
    strict = search_bialgebra_extension(algebra, strict_alpha=True)
    # the weak witnesses are computed once: the strict search takes the weak
    # generators from their memo and computes no weak witness at all
    info = weak_witnesses.cache_info()
    assert (info.misses, info.hits) == (1, 0)
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
    for a1, a2 in bindings(50, 18):
        for family in (mu1_algebra, mu2_algebra):
            for strict in (False, True):
                search_bialgebra_extension(family(a1, a2), strict_alpha=strict)
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
    monkeypatch.setattr(polysolve.Poly, "evaluate", lambda poly, point: 1)
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
        for memo in MEMOS:
            memo.cache_clear()
        cold.append(search_bialgebra_extension(family(a1, a2), strict_alpha=strict))
    for memo in MEMOS:
        memo.cache_clear()
    warm = [search_bialgebra_extension(family(a1, a2), strict_alpha=strict)
            for family, a1, a2, strict in cases]
    assert _lex_solve.cache_info().hits >= 2 * 11
    # status, generators, points, certificate, pairs and reason, field by field
    for case, c, w in zip(cases, cold, warm):
        assert w == c, case
