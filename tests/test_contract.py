"""contract() against a brute-force oracle: for every output index, the sum
over all values of the summed letters of the product of operand entries."""

import inspect
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import homalg
from homalg import LinearMap, MulTensor, Poly, Vector
from homalg import tensors
from homalg.sampling import random_scalar
from homalg.tensors import SUBGROUPS, contract

from conftest import grouplike_coalgebra

XY = ("x", "y")


def oracle(spec, operands):
    inputs, output = spec.split("->")
    legs = inputs.split(",")
    sizes = {}
    for letters, op in zip(legs, operands):
        level = op
        for ch in letters:
            sizes[ch] = len(level)
            level = level[0]
    letters = sorted(sizes)

    def entry(op, letters_of_op, env):
        for ch in letters_of_op:
            op = op[env[ch]]
        return op

    def total(out_index):
        acc = 0
        for values in product(*(range(sizes[ch]) for ch in letters)):
            env = dict(zip(letters, values))
            if any(env[ch] != i for ch, i in zip(output, out_index)):
                continue
            acc = acc + reduce(mul, (entry(op, lg, env) for op, lg in zip(operands, legs)))
        return acc

    def dense(prefix):
        if len(prefix) == len(output):
            return total(prefix)
        return [dense(prefix + (i,)) for i in range(sizes[output[len(prefix)]])]

    return dense(())


def same(a, b):
    """Equal entries, where every zero (0, Fraction(0), the zero Poly) agrees."""
    if isinstance(a, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return (not a and not b) or a == b


def scalar(kind, rng):
    if rng.random() < 0.3:
        return 0
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "fraction":
        return random_scalar(rng)
    if kind == "coprime":
        return Fraction(rng.randint(-9, 9), rng.choice((7, 11, 13, 17, 19, 23)))
    if kind == "large":
        return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 25))
    if kind == "mixed":
        if rng.random() < 0.5:
            return rng.randint(-3, 3)
        return random_scalar(rng)
    return Poly(XY, {(1, 0): random_scalar(rng), (0, rng.randint(0, 2)): random_scalar(rng)})


def grid(shape, kind, rng):
    if not shape:
        return scalar(kind, rng)
    return [grid(shape[1:], kind, rng) for _ in range(shape[0])]


def random_case(rng, kind):
    sizes = {ch: rng.randint(1, 3) for ch in "abcde"}
    legs = ["".join(rng.sample("abcde", rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
    repeat = rng.random() < 0.4
    if repeat:
        # the first operand again under permuted legs: its letters share a size
        for ch in legs[0]:
            sizes[ch] = sizes[legs[0][0]]
    operands = [grid([sizes[ch] for ch in lg], kind, rng) for lg in legs]
    if repeat:
        legs.append("".join(rng.sample(legs[0], len(legs[0]))))
        operands.append(operands[0])
    used = sorted(set("".join(legs)))
    output = "".join(rng.sample(used, rng.randint(0, len(used))))
    return ",".join(legs) + "->" + output, operands


@pytest.mark.parametrize("kind", ["int", "fraction", "poly"])
def test_contract_matches_brute_force(kind):
    rng = random.Random({"int": 1, "fraction": 2, "poly": 3}[kind])
    for _ in range(60):
        spec, operands = random_case(rng, kind)
        assert same(contract(spec, *operands), oracle(spec, operands)), spec


def test_contract_on_tensors_matches_brute_force():
    rng = random.Random(4)
    for n in (1, 2, 3):
        m = MulTensor([[[random_scalar(rng) for _ in range(n)] for _ in range(n)]
                       for _ in range(n)])
        f = LinearMap([[random_scalar(rng) for _ in range(n)] for _ in range(n)])
        x = Vector(random_scalar(rng) for _ in range(n))
        data = {x: x.coords, f: f.entries, m: m.c}
        for spec, ops in (("i,j,ijk->k", (x, x, m)),
                          ("lb,kab,aij->kijl", (f, m, m)),
                          ("cd,aci,ab,bdj->ij", (f, m, f, m)),
                          ("ijk->kji", (m,))):
            expected = oracle(spec, [data[op] for op in ops])
            assert same(contract(spec, *ops), expected), spec


def test_contract_rejects_mismatched_index_sizes():
    with pytest.raises(ValueError):
        contract("ij,j->i", [[1, 2], [3, 4]], [1, 2, 3])
    with pytest.raises(ValueError):
        contract("ij,jk->ik", LinearMap.identity(2), LinearMap.identity(3))
    with pytest.raises(ValueError):
        contract("ij,j->i", LinearMap.identity(2), Vector([1, 2, 3]))


def flat(result):
    if isinstance(result, list):
        return [v for row in result for v in flat(row)]
    return [result]


@pytest.mark.parametrize("kind", ["coprime", "large", "mixed"])
def test_integer_kernel_matches_brute_force(kind):
    rng = random.Random({"coprime": 5, "large": 6, "mixed": 7}[kind])
    for _ in range(60):
        spec, operands = random_case(rng, kind)
        result = contract(spec, *operands)
        assert same(result, oracle(spec, operands)), spec
        # nonzero entries are Fractions whenever an operand held one, and an
        # entry no product reached, or whose sum cancelled, is the integer 0
        held = {type(v) for op in operands for v in flat(op) if v}
        want = Fraction if Fraction in held else int
        assert all(type(v) is (want if v else int) for v in flat(result)), spec


def test_integer_kernel_mixed_operands_and_large_denominators():
    rng = random.Random(8)
    big = [[Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** 30))
            for _ in range(3)] for _ in range(3)]
    ints = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
    coprime = [Fraction(1, p) for p in (2, 3, 5)]
    for spec, operands in (("ij,jk->ik", (big, ints)),
                           ("ij,jk,k->i", (ints, big, coprime)),
                           ("ij,ij->", (big, big)),
                           ("i,i->", (coprime, [6, -10, 15]))):
        result = contract(spec, *operands)
        assert same(result, oracle(spec, operands)), spec
        assert all(type(v) is Fraction for v in flat(result) if v), spec


def test_integer_kernel_drops_cancelled_entries():
    # row 0 sums to 1/3 * 2 - 2/3 * 1 = 0; row 1 to 2/7
    assert contract("ij,j->i", [[Fraction(1, 3), Fraction(-2, 3)], [Fraction(1, 7), 0]],
                    [2, 1]) == [0, Fraction(2, 7)]
    vector = contract("ij,j->i", [[Fraction(1, 3), Fraction(-2, 3)], [0, 0]], [2, 1])
    assert vector == [0, 0] and all(type(v) is int for v in vector)
    scalar_zero = contract("i,i->", [Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 2), -1])
    assert scalar_zero == 0 and type(scalar_zero) is int
    scalar = contract("i,i->", [Fraction(1, 3), Fraction(1, 6)], [Fraction(1, 2), 1])
    assert scalar == Fraction(1, 3) and type(scalar) is Fraction


def test_contract_rejects_repeated_letters():
    grid2 = [[1, 2], [3, 4]]
    for spec, operands in (("ii->i", [grid2]), ("ii->", [grid2]), ("ij,jj->i", [grid2, grid2]),
                           ("ij->ii", [grid2])):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            contract(spec, *operands)


@pytest.mark.parametrize("spec, message", [
    ("i,j->ij", r"spec 'i,j->ij' does not name 1 operand\(s\)"),
    ("ij->i", "legs 'ij' do not fit an order-1 tensor"),
    ("i->j", r"output indices \{'j'\} name no leg in 'i->j'"),
    ("i", "spec 'i' needs exactly one '->'"),
    ("i->i->i", "spec 'i->i->i' needs exactly one '->'"),
], ids=["operand-count", "order", "output", "no-arrow", "two-arrows"])
def test_contract_rejects_a_spec_that_does_not_fit_its_operands(spec, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        contract(spec, Vector([1, 2]))


@pytest.mark.parametrize("make", [Vector, lambda row: tensors.tabled(row, 1), list],
                         ids=["tensor", "table", "nested"])
def test_contract_rejects_a_surplus_operand(make):
    """More operands than the spec names raise, whatever they are, instead of
    the surplus being cut off."""
    with pytest.raises(ValueError, match=r"^spec 'i->i' does not name 2 operand\(s\)$"):
        contract("i->i", make([1, 2]), make([3, 4]))
    with pytest.raises(ValueError, match=r"^spec 'i->i' does not name 2 operand\(s\)$"):
        Vector.contracted("i->i", Vector([1, 2]), make([3, 4]))


def test_a_surplus_nested_operand_is_counted_before_it_is_tabled():
    with pytest.raises(ValueError, match=r"^spec 'i->i' does not name 2 operand\(s\)$"):
        contract("i->i", [1, 2], [[3, 4]])


def nest(flat, shape):
    """The flat entries as nested lists of that shape."""
    for size in reversed(shape[1:]):
        flat = [flat[i:i + size] for i in range(0, len(flat), size)]
    return flat if shape else flat[0]


@st.composite
def contractions(draw):
    """A spec of 1-4 operands over letters a-d of sizes 1-3, and grids for
    it of ints, Fractions and linear polynomials in x and y."""
    sizes = {ch: draw(st.integers(1, 3)) for ch in "abcd"}
    legs = draw(st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3, unique=True)
                         .map("".join), min_size=1, max_size=4))
    used = sorted(set("".join(legs)))
    output = "".join(draw(st.permutations(used))[:draw(st.integers(0, len(used)))])
    fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    polys = st.builds(lambda x, y: Poly(XY, {(1, 0): x, (0, 1): y}), fractions, fractions)
    scalars = st.integers(-3, 3) | fractions | polys
    operands = []
    for letters in legs:
        shape = [sizes[ch] for ch in letters]
        count = reduce(mul, shape, 1)
        operands.append(nest(draw(st.lists(scalars, min_size=count, max_size=count)), shape))
    return ",".join(legs) + "->" + output, operands


@given(contractions())
def test_contract_matches_brute_force_on_any_plan(case):
    spec, operands = case
    assert same(contract(spec, *operands), oracle(spec, operands)), spec


@pytest.fixture
def products(monkeypatch):
    """The number of entry products every pairwise join of ``contract`` makes."""
    count = [0]
    join = tensors._join

    def counted(acc, acc_key, table, table_key, pick):
        matches = Counter(map(table_key, table))
        count[0] += sum(matches[acc_key(key)] for key in acc)
        return join(acc, acc_key, table, table_key, pick)

    monkeypatch.setattr(tensors, "_join", counted)
    return count


def ones(order, dim=3):
    """A dense grid: no product is skipped and no sum cancels."""
    return nest([1] * dim ** order, [dim] * order)


def left_to_right(spec, dim=3):
    """Products of contracting a dense spec pairwise from left to right,
    summing a letter as soon as no later operand or output leg names it."""
    inputs, output = spec.split("->")
    legs = inputs.split(",")
    total, running = 0, legs[0]
    for step, other in enumerate(legs[1:], 1):
        total += dim ** len(set(running + other))
        later = set(output).union(*legs[step + 1:])
        running = "".join(ch for ch in dict.fromkeys(running + other) if ch in later)
    return total


def test_weak_compatibility_product_takes_1215_products_on_dense_dim_3(products):
    rng = random.Random(9)
    comul, mul3 = ([[[rng.randint(1, 5) for _ in range(3)] for _ in range(3)] for _ in range(3)]
                   for _ in range(2))
    spec = "qcd,aci,pab,bdj->pqij"
    result = contract(spec, comul, mul3, comul, mul3)
    assert products[0] == 1215 and left_to_right(spec) == 1701
    # the same sum, joined pairwise from left to right by hand
    step = contract("qcd,aci->qdai", comul, mul3)
    step = contract("qdai,pab->qdipb", step, comul)
    assert result == contract("qdipb,bdj->pqij", step, mul3)


def package_specs():
    """Every multi-operand spec written in the package's source."""
    found = {spec for path in Path(homalg.__file__).parent.glob("*.py")
             for spec in re.findall(r'"([a-z,]+->[a-z]*)"', path.read_text())}
    return sorted(spec for spec in found if "," in spec)


def test_no_package_spec_plans_more_products_than_left_to_right(products):
    specs = package_specs()
    assert "qcd,aci,pab,bdj->pqij" in specs and len(specs) >= 30
    for spec in specs:
        products[0] = 0
        contract(spec, *[ones(len(letters)) for letters in spec.split("->")[0].split(",")])
        assert products[0] <= left_to_right(spec), spec


@pytest.mark.parametrize("spec, operands", [
    ("ij,ij->ij", ([[1, Fraction(1, 2)], [0, 3]], [[2, 4], [5, Fraction(-1, 3)]])),
    ("i,ij->ij", ([2, Fraction(1, 3)], [[1, 0, -1], [3, 6, 9]])),
    ("ijk,k->i", ([[[1, 2], [3, 4]], [[0, 5], [Fraction(1, 2), -1]]], [3, -2])),
    ("ijk->kji", ([[[1, 2], [3, 4]], [[0, 5], [Fraction(1, 2), -1]]],)),
    ("ij->", ([[1, Fraction(1, 2), 3], [-4, 0, Fraction(-1, 2)]],)),
    ("ij,jk->ik", ([[0, 0], [0, 0]], [[1, 2], [3, 4]])),
    ("ij,jk,k->i", ([[1, 2], [3, 4]], [[0, 0], [0, 0]], [1, 1])),
    # the plan joins ia with ib, sharing and keeping i; then abc with iab,
    # summing a and b; then ic with ci, sharing both kept letters in the
    # other order
    ("ia,ib,ic,abc->ci", ([[1, 2], [0, -1]], [[3, Fraction(1, 2)], [1, 1]],
                          [[2, 0], [Fraction(-1, 3), 5]],
                          [[[1, -1], [2, 0]], [[0, 3], [4, Fraction(1, 7)]]])),
], ids=["shared-kept", "vector-into-kept", "summed-by-one", "transpose", "sum-all",
        "zero-operand", "zero-middle", "kept-across-joins"])
def test_contract_matches_brute_force_on_each_layout(spec, operands):
    assert same(contract(spec, *operands), oracle(spec, operands)), spec


def reference_join(acc, acc_key, table, table_key, layout):
    """The join as one sum per output index tuple, built and hashed for every
    product: the reference the row-by-row join must equal."""
    row, column, decode, order = layout
    order = order or tuple

    def pick(akey, bkey):
        return order(row(akey) + decode[column(bkey)])

    groups = {}
    for key, value in table.items():
        groups.setdefault(table_key(key), []).append((key, value))
    out = {}
    for akey, avalue in acc.items():
        for bkey, bvalue in groups.get(acc_key(akey), ()):
            key = pick(akey, bkey)
            value = avalue * bvalue
            out[key] = out[key] + value if key in out else value
    return {key: value for key, value in out.items() if value}


def diagonal(order, rng, dim=3):
    """Nonzero only where every index is equal, as a grouplike coalgebra's
    comultiplication: each shared key of a join names one entry."""
    return nest([rng.randint(1, 5) if len(set(index)) == 1 else 0
                 for index in product(range(dim), repeat=order)], [dim] * order)


@pytest.mark.parametrize("kind", ["dense", "diagonal", "fraction", "poly"])
def test_row_join_equals_the_reference_on_every_package_spec(kind, monkeypatch):
    rng = random.Random({"dense": 10, "diagonal": 13, "fraction": 11, "poly": 12}[kind])
    make = {"dense": lambda order: ones(order),
            "diagonal": lambda order: diagonal(order, rng)}.get(
        kind, lambda order: grid([3] * order, kind, rng))
    cases = []
    for spec in package_specs():
        cases.append((spec, [make(len(letters)) for letters in spec.split("->")[0].split(",")]))
    rows = [tensors._contraction(spec, operands) for spec, operands in cases]
    monkeypatch.setattr(tensors, "_join", reference_join)
    for (spec, operands), got in zip(cases, rows):
        assert got == tensors._contraction(spec, operands), spec


JOIN = tensors._join
UPDATES = {"list": "row[column] += ", "dict": "row[column] = row[column] + "}


def accumulators(run):
    """The row accumulators the joins summed into while ``run()`` ran: "list"
    when a product was added to a list row, "dict" when to a dict row, read
    from the lines of ``tensors._join`` that ran."""
    source, first = inspect.getsourcelines(JOIN)
    lines = {first + n: kind for n, line in enumerate(source)
             for kind, text in UPDATES.items() if text in line}
    assert sorted(lines.values()) == ["dict", "list"]
    seen = set()

    def line(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            seen.add(lines[frame.f_lineno])
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code is JOIN.__code__ else None)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


@pytest.fixture
def checked_joins(monkeypatch):
    """Every join of ``contract`` compared with ``reference_join``."""
    def checked(*args):
        got = JOIN(*args)
        assert got == reference_join(*args)
        return got

    monkeypatch.setattr(tensors, "_join", checked)


@pytest.mark.parametrize("kind", ["dense", "diagonal"])
def test_each_join_sums_into_list_rows_when_its_right_table_fills_them(kind, checked_joins):
    """A dense grid fills every group, so each join sums into list rows.  In
    a diagonal grid each group holds one entry, a third of the row's width
    or less, so each join sums into dict rows; a diagonal vector is full, so
    specs with a vector operand are left out there."""
    rng = random.Random(13)
    for spec in package_specs():
        legs = spec.split("->")[0].split(",")
        if kind == "dense":
            operands, expected = [ones(len(letters)) for letters in legs], {"list"}
        elif min(map(len, legs)) >= 2:
            operands, expected = [diagonal(len(letters), rng) for letters in legs], {"dict"}
        else:
            continue
        assert accumulators(lambda: tensors._contraction(spec, operands)) == expected, spec


def test_a_grouplike_coalgebra_sums_every_join_into_dict_rows(checked_joins):
    """Delta(e_k) = e_k (x) e_k and beta = id hold one entry per group."""
    coalgebra = grouplike_coalgebra(16)

    def decide():
        assert homalg.check_hom_coassociative(coalgebra).ok
        assert all(homalg.check_G_hom_coalgebra(coalgebra, g).ok for g in SUBGROUPS)
        assert homalg.check_hom_lie_admissible(coalgebra).ok

    assert accumulators(decide) == {"dict"}
