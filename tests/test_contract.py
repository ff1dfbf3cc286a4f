"""contract() against a brute-force oracle: for every output index, the sum
over all values of the summed letters of the product of operand entries."""

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

import pytest

from homalg import LinearMap, MulTensor, Poly, Vector
from homalg.sampling import random_scalar
from homalg.tensors import contract

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
