"""The one-entry memos of the associator, the coassociator and the weak
bialgebra witnesses: keyed on the structure's value, never stale, never
growing."""

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
    beta_coassociator,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_G_hom_associative,
    check_G_hom_coalgebra,
    check_hom_associative,
    check_hom_coassociative,
    check_hom_lie_admissible,
    search_bialgebra_extension,
)
from homalg.algebra import _associator_tensors
from homalg.bialgebra import weak_witnesses
from homalg.sampling import random_scalar

from conftest import mu1_algebra

MEMOS = (_associator_tensors, beta_coassociator, weak_witnesses)


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


def test_equal_but_distinct_structures_give_equal_reports():
    data = random_bialgebra_data(2, 3)
    one, other = build(data), build(data)
    assert one is not other and one == other
    assert reports(one) == reports(other) == fresh_reports(one)


def test_each_structure_computes_its_associator_and_coassociator_once():
    b = build(random_bialgebra_data(3, 4))
    reports(b)
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.misses == 1 and info.hits >= 1, memo
        assert info.maxsize == 1 and info.currsize == 1, memo


def test_memo_holds_one_structure():
    for seed in range(5):
        reports(build(random_bialgebra_data(2, seed)))
    assert all(memo.cache_info().currsize == 1 for memo in MEMOS)


def test_strict_extension_search_reuses_the_weak_witnesses():
    algebra = mu1_algebra(2, 3)
    weak = search_bialgebra_extension(algebra)
    assert weak_witnesses.cache_info().misses == 1
    strict = search_bialgebra_extension(algebra, strict_alpha=True)
    assert weak_witnesses.cache_info().hits == 1
    assert strict.generators[:len(weak.generators)] == weak.generators
