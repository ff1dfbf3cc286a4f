import random
from fractions import Fraction
from itertools import product
from math import lcm

import pytest
from hypothesis import given, strategies as st

from homalg import (
    PERMS,
    S3,
    SUBGROUPS,
    ComulTensor,
    LinearMap,
    MulTensor,
    Poly,
    Tensor2,
    Tensor3,
    Vector,
    phi_apply,
)
from homalg.sampling import random_scalar
from homalg.tensors import signed_leg_sum


def random_tensor3(dim, rng):
    return Tensor3([[[random_scalar(rng) for _ in range(dim)]
                     for _ in range(dim)] for _ in range(dim)])


def basis_tensor3(dim, i, j, k):
    cube = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    cube[i][j][k] = Fraction(1)
    return Tensor3(cube)


# --- the S3 table ----------------------------------------------------------

def test_signs():
    assert PERMS["id"].sign == 1
    for t in ("(12)", "(23)", "(13)"):
        assert PERMS[t].sign == -1
    assert PERMS["(213)"].sign == 1
    assert PERMS["(231)"].sign == 1


def test_cycles_have_order_three():
    c = PERMS["(213)"]
    assert c.compose(c) == PERMS["(231)"]
    assert c.compose(c).compose(c) == PERMS["id"]
    assert PERMS["(213)"].inverse() == PERMS["(231)"]


def test_group_axioms():
    for p in S3:
        assert p.compose(PERMS["id"]) == p == PERMS["id"].compose(p)
        assert p.compose(p.inverse()) == PERMS["id"]
    for p, q in product(S3, repeat=2):
        assert p.compose(q) in S3
        assert p.compose(q).sign == p.sign * q.sign


def test_subgroups_closed():
    for name, elems in SUBGROUPS.items():
        for p, q in product(elems, repeat=2):
            assert p.compose(q) in elems, name
    assert len(SUBGROUPS["G6"]) == 6 and len(SUBGROUPS["G5"]) == 3


# --- the action on tensor cubes -------------------------------------------

def test_phi_identity():
    rng = random.Random(1)
    t = random_tensor3(3, rng)
    assert phi_apply(PERMS["id"], t) == t


def test_phi_transposition_on_pure_tensor():
    # (12) swaps the first two factors: e1 (x) e2 (x) e3 -> e2 (x) e1 (x) e3
    t = basis_tensor3(3, 0, 1, 2)
    assert phi_apply(PERMS["(12)"], t) == basis_tensor3(3, 1, 0, 2)


def test_phi_cycles_on_pure_tensor():
    # Phi_(213): a (x) b (x) c -> b (x) c (x) a (legs move by sigma^-1)
    t = basis_tensor3(3, 0, 1, 2)
    assert phi_apply(PERMS["(213)"], t) == basis_tensor3(3, 1, 2, 0)
    assert phi_apply(PERMS["(231)"], t) == basis_tensor3(3, 2, 0, 1)


def test_phi_squared_cycle_matches_composition():
    rng = random.Random(7)
    for _ in range(10):
        t = random_tensor3(2, rng)
        twice = phi_apply(PERMS["(213)"], phi_apply(PERMS["(213)"], t))
        assert twice == phi_apply(PERMS["(231)"], t)


def oracle_phi(sigma, t):
    """Independent oracle: scatter each basis entry to its permuted slot."""
    n = t.dim
    inv = sigma.inverse().images
    out = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a in product(range(n), repeat=3):
        # e_{a1} (x) e_{a2} (x) e_{a3} -> e_{a_{inv(1)}} (x) ...
        target = (a[inv[0] - 1], a[inv[1] - 1], a[inv[2] - 1])
        out[target[0]][target[1]][target[2]] += t.entry(*a)
    return Tensor3(out)


def test_phi_matches_scatter_oracle():
    rng = random.Random(11)
    for dim in (2, 3):
        for _ in range(5):
            t = random_tensor3(dim, rng)
            for sigma in S3:
                assert phi_apply(sigma, t) == oracle_phi(sigma, t)


def test_phi_left_action_law():
    rng = random.Random(13)
    for _ in range(5):
        t = random_tensor3(2, rng)
        for s1, s2 in product(S3, repeat=2):
            lhs = phi_apply(s1, phi_apply(s2, t))
            assert lhs == phi_apply(s1.compose(s2), t)


def test_phi_linear():
    rng = random.Random(17)
    t1, t2 = random_tensor3(3, rng), random_tensor3(3, rng)
    a = Fraction(-5, 3)
    for sigma in S3:
        assert phi_apply(sigma, a * t1 + t2) == \
            a * phi_apply(sigma, t1) + phi_apply(sigma, t2)


def test_phi_moves_the_legs_of_basis_tensors():
    # Phi_sigma(x1 (x) x2 (x) x3) = x_{sigma^-1(1)} (x) x_{sigma^-1(2)} (x) x_{sigma^-1(3)}
    for sigma in S3:
        for trip in product(range(2), repeat=3):
            moved = tuple(trip[sigma.inverse()(m) - 1] for m in (1, 2, 3))
            assert phi_apply(sigma, basis_tensor3(2, *trip)) == \
                basis_tensor3(2, *moved)


# --- flip ------------------------------------------------------------------

def test_flip_pure_tensor():
    t = Tensor2.pure(Vector.basis(2, 0), Vector.basis(2, 1))
    assert t.flip() == Tensor2.pure(Vector.basis(2, 1), Vector.basis(2, 0))


def test_flip_involution():
    rng = random.Random(19)
    t = Tensor2([[random_scalar(rng) for _ in range(3)] for _ in range(3)])
    assert t.flip().flip() == t


def test_flip_fixes_symmetric():
    t = Tensor2.pure(Vector.basis(2, 0), Vector.basis(2, 0))
    assert t.flip() == t


# --- container validation ---------------------------------------------------

def test_linear_map_rejects_ragged():
    with pytest.raises(ValueError):
        LinearMap([[1, 2], [3]])


def test_apply_dim_mismatch():
    with pytest.raises(ValueError):
        LinearMap.identity(2).apply(Vector.basis(3, 0))


@pytest.mark.parametrize("call, message", [
    (lambda: MulTensor.from_entries(2, {(0, 0, 5): 1}),
     r"index \(0, 0, 5\) does not fit a multiplication tensor of dim 2"),
    (lambda: MulTensor.from_entries(2, {(0, 0, -1): 1}),
     r"index \(0, 0, -1\) does not fit a multiplication tensor of dim 2"),
    (lambda: MulTensor.from_entries(2, {(0, 0): 1}),
     r"index \(0, 0\) does not fit a multiplication tensor of dim 2"),
    (lambda: MulTensor.from_entries(2, {(0, 0, 0, 0): 1}),
     r"index \(0, 0, 0, 0\) does not fit a multiplication tensor of dim 2"),
    (lambda: Vector.basis(2, 5), "index 5 out of range for dim 2"),
    (lambda: Vector.basis(2, -1), "index -1 out of range for dim 2"),
    (lambda: LinearMap.basis_matrix(2, 3, 0), r"index \(3, 0\) does not fit a linear map of dim 2"),
    (lambda: LinearMap.identity(2).column(9), "index 9 out of range for dim 2"),
    (lambda: ComulTensor.zero(2).image(7), "index 7 out of range for dim 2"),
], ids=["from-entries-high", "from-entries-negative", "from-entries-short", "from-entries-long",
        "basis-high", "basis-negative", "basis-matrix", "column", "image"])
def test_out_of_range_indices_are_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: LinearMap([[1, 2], [3, 4]]).entry(-1, -1),
     r"index \(-1, -1\) does not fit a linear map of dim 2"),
    (lambda: LinearMap([[1, 2], [3, 4]]).entry(0),
     r"index \(0,\) does not fit a linear map of dim 2"),
    (lambda: LinearMap([[1, 2], [3, 4]]).entry(0, 2),
     r"index \(0, 2\) does not fit a linear map of dim 2"),
    (lambda: MulTensor.zero(2).entry(0, 0, 0, 0),
     r"index \(0, 0, 0, 0\) does not fit a multiplication tensor of dim 2"),
    (lambda: Vector([1, 2])[-1], "index -1 out of range for dim 2"),
    (lambda: Vector([1, 2])[2], "index 2 out of range for dim 2"),
], ids=["entry-negative", "entry-partial", "entry-high", "entry-long", "item-negative",
        "item-high"])
def test_entry_and_vector_item_reject_indices_outside_the_tensor(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert LinearMap([[1, 2], [3, 4]]).entry(1, 1) == 4 and Vector([1, 2])[1] == 2
    assert list(Vector([1, 2])) == [1, 2]


@pytest.mark.parametrize("call, message", [
    (lambda: LinearMap([[1, 2]]), "linear map must be nonempty with every leg of one length"),
    (lambda: LinearMap.contracted("i,j->i", Vector([1, 2]), Vector([1, 2])),
     "output legs of 'i,j->i' do not end in a linear map"),
    (lambda: Vector([1, 2]) + Vector([1, 2, 3]), "dimensions 2 and 3 differ"),
    (lambda: phi_apply(PERMS["(12)"], Tensor3.zero(2), 1),
     r"legs 1\.\.3 do not fit an order-3 tensor"),
], ids=["non-square", "contracted-order", "sum-dims", "phi-legs"])
def test_shape_mismatches_are_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# --- the stored form against an entrywise Fraction reference ----------------

CLASSES = {1: Vector, 2: LinearMap, 3: Tensor3}

# outside entries as ints, Fractions or "p/q" strings, often zero
fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
entries = st.one_of(st.just(0), st.integers(-9, 9), fractions,
                    fractions.map(lambda f: f"{f.numerator}/{f.denominator}"))


def grid(shape, draw_entry):
    if not shape:
        return draw_entry()
    return [grid(shape[1:], draw_entry) for _ in range(shape[0])]


@st.composite
def tensor_data(draw, count=1):
    """count nested grids of one random order (1..3) and dim (1..4)."""
    order, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    return order, dim, [grid((dim,) * order, lambda: draw(entries)) for _ in range(count)]


def reference(data, order):
    """The grid as a dict of Fractions over every index tuple."""
    n = len(data)
    cells = {}
    for idx in product(range(n), repeat=order):
        value = data
        for i in idx:
            value = value[i]
        cells[idx] = Fraction(value)
    return cells


def cells(t):
    return {idx: t.entry(*idx) for idx in product(range(t.dim), repeat=t.order)}


def assert_canonical(t):
    """Numerators over the lcm of the entries' reduced denominators."""
    values = t.nonzero.values()
    assert t._den == lcm(*(v.denominator for v in values))
    assert t._num == {idx: v * t._den for idx, v in t.nonzero.items()}
    assert all(type(v) is int for v in t._num.values())
    assert all(type(v) is Fraction for v in cells(t).values())


@given(tensor_data(count=2), entries)
def test_arithmetic_matches_fraction_reference(data, scalar):
    order, _, (x, y) = data
    cls = CLASSES[order]
    a, b = cls(x), cls(y)
    ra, rb, s = reference(x, order), reference(y, order), Fraction(scalar)
    assert cells(a) == ra
    assert_canonical(a)
    for result, want in ((a + b, {i: ra[i] + rb[i] for i in ra}),
                         (a - b, {i: ra[i] - rb[i] for i in ra}),
                         (-a, {i: -ra[i] for i in ra}),
                         (scalar * a, {i: s * ra[i] for i in ra})):
        assert type(result) is cls
        assert cells(result) == want
        assert result.is_zero() == (not any(want.values()))
        assert_canonical(result)
    assert (a == b) == (ra == rb)
    if ra == rb:
        assert hash(a) == hash(b)
    assert a != cls.zero(a.dim + 1)


@given(tensor_data(count=2))
def test_equal_values_by_different_routes_are_equal(data):
    order, dim, (x, y) = data
    cls = CLASSES[order]
    a, b = cls(x), cls(y)
    values = reference(x, order)
    routes = [(a + b) - b, -(-a), (b + a) - b, Fraction(1, 3) * (3 * a),
              cls.from_entries(dim, values),
              cls.from_entries(dim, {i: f"{v.numerator}/{v.denominator}"
                                     for i, v in values.items()}),
              cls.from_entries(dim, {i: int(v) for i, v in values.items() if v.denominator == 1})
              + cls.from_entries(dim, {i: v for i, v in values.items() if v.denominator != 1})]
    for route in routes:
        assert route == a and hash(route) == hash(a)
        assert route._num == a._num and route._den == a._den
    zero = cls.zero(dim)
    assert 0 * a == zero and hash(0 * a) == hash(zero) and a - a == zero


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(entries, min_size=n ** 3, max_size=n ** 3).map(lambda v: (n, v))))
def test_phi_and_signed_leg_sum_match_permuted_indices(data):
    dim, flat = data
    values = dict(zip(product(range(dim), repeat=3), map(Fraction, flat)))
    t = Tensor3.from_entries(dim, values)

    def moved(sigma, idx):
        inv = sigma.inverse().images
        return tuple(idx[inv[m] - 1] for m in range(3))

    def signed(perms, values):
        want = {idx: 0 for idx in values}
        for sigma in perms:
            for idx, v in values.items():
                want[moved(sigma, idx)] += sigma.sign * v
        return want

    for sigma in S3:
        assert cells(phi_apply(sigma, t)) == {moved(sigma, i): v for i, v in values.items()}
    # every subgroup, in order and reversed (the identity last), and the odd
    # coset, which holds no identity
    lists = dict(SUBGROUPS)
    lists.update({f"{name} reversed": perms[::-1] for name, perms in SUBGROUPS.items()})
    lists["odd"] = (PERMS["(12)"], PERMS["(23)"], PERMS["(13)"])
    x = Poly.var(("x", "y"), "x")
    polys = {idx: v * x + v for idx, v in values.items()}
    p = Tensor3.from_entries(dim, polys)
    for name, perms in lists.items():
        total = signed_leg_sum(perms, t)
        assert cells(total) == signed(perms, values), name
        assert_canonical(total)
        want = {idx: v for idx, v in signed(perms, polys).items() if v}
        assert signed_leg_sum(perms, p).nonzero == want, name


def test_poly_valued_tensors_round_trip_through_entry():
    xy = ("x", "y")
    x, y = Poly.var(xy, "x"), Poly.var(xy, "y")
    p = x * y - Poly.const(xy, Fraction(2, 3))
    t = Tensor2([[x, Poly.zero(xy)], [p, Fraction(1, 2)]])
    assert t.entry(0, 0) == x and t.entry(1, 0) == p
    assert not t.entry(0, 1) and t.entry(1, 1) == Fraction(1, 2)
    assert t == Tensor2([[x, 0], [p, "1/2"]]) and hash(t) == hash(Tensor2([[x, 0], [p, "1/2"]]))
    # a rational operand's denominator is divided into the polynomials
    third = Tensor2([[Fraction(1, 3), 0], [0, 0]])
    assert (t + third).entry(0, 0) == x + Fraction(1, 3)
    assert (t - t).is_zero() and (Fraction(3, 4) * t).entry(1, 0) == p * Fraction(3, 4)
