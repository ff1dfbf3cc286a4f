"""contract() against a brute-force oracle: for every output index, the sum
over all values of the summed letters of the product of operand entries."""

import random
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
