"""Exact vectors, matrices, order-2/3 tensors, the S3 action on tensor cubes,
and the one contraction primitive every identity is built from.

Index conventions (every other module leans on these):

* ``LinearMap`` stores a square grid ``entries[i][j]``; **column j is the
  image of basis vector e_j**, so ``apply`` is the usual matrix-vector
  product.  The row convention is wrong for this library: it breaks the
  2-dimensional classification examples (see the convention test).
* ``MulTensor`` holds multiplication constants ``c[i][j][k]`` with
  mu(e_i (x) e_j) = sum_k c[i][j][k] e_k.
* ``ComulTensor`` holds comultiplication constants ``d[k][i][j]`` with
  Delta(e_k) = sum_{i,j} d[k][i][j] e_i (x) e_j.
* A permutation sigma acts on V (x) V (x) V by moving tensor legs:
  Phi_sigma(x1 (x) x2 (x) x3) = x_{sigma^-1(1)} (x) x_{sigma^-1(2)} (x) x_{sigma^-1(3)},
  which on coefficient cubes reads
  ``phi(t)[b1][b2][b3] = t[b[sigma(1)]][b[sigma(2)]][b[sigma(3)]]``.

Permutations are named in cycle notation: ``(213)`` is the 3-cycle
2 -> 1 -> 3 -> 2 and ``(231)`` its inverse 2 -> 3 -> 1 -> 2; these are the two
cyclic permutations of order 3 and both have signature +1.

Contraction specs.  ``contract(spec, *operands)`` takes an einsum-style spec
such as ``"lb,kab,aij->kijl"``:

* Each comma-separated group names the legs of one operand, outermost index
  first, one letter per leg; the letters of one operand are distinct.  An
  operand is a tensor of this module or a nested sequence of that depth.
* A letter shared by operands is one index: its entries are multiplied, and
  the letter is summed over unless it appears after ``->``.  One letter must
  have one size everywhere.
* Operands are contracted pairwise from left to right, and a letter is summed
  out as soon as no later operand and no output leg names it.  So the
  operand order is the contraction order: list the cheapest pair first.
* The letters after ``->`` are the output legs in order.  The result is a
  nested list in that layout (a bare scalar for an empty output), where an
  entry no product reached is the integer 0.

Only ``+``, ``*`` and truthiness of the entries are used, and zero entries are
skipped, so the same code runs on ints, Fractions and polynomials.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .polysolve import Poly
from .rational import ONE, ZERO, rat

# ---------------------------------------------------------------------------
# the contraction primitive


def contract(spec: str, *operands):
    """Sum of products over shared index letters; see the module docstring."""
    inputs, arrow, output = spec.partition("->")
    legs = inputs.split(",")
    if not arrow or len(legs) != len(operands):
        raise ValueError(f"spec {spec!r} does not name {len(operands)} operand(s)")
    sizes: dict[str, int] = {}
    tables = [_table(letters, operand, sizes) for letters, operand in zip(legs, operands)]
    missing = [ch for ch in output if ch not in sizes]
    if missing:
        raise ValueError(f"output indices {missing} name no operand leg in {spec!r}")

    letters, acc = "", {}
    for step, (other, table) in enumerate(zip(legs, tables)):
        both = letters + other
        if step == len(legs) - 1:
            keep = output
        else:
            later = set(output).union(*legs[step + 1:])
            keep = "".join(ch for ch in dict.fromkeys(both) if ch in later)
        products = _join(acc, letters, table, other) if step else table.items()
        acc = _accumulate(products, _picker([both.index(ch) for ch in keep]))
        letters = keep

    if not output:
        return acc.get((), 0)
    return _dense([sizes[ch] for ch in output], acc)


def _table(legs: str, operand, sizes: dict[str, int]) -> dict:
    """Nonzero entries of one operand by index tuple; records leg sizes."""
    if isinstance(operand, _Tensor):
        if len(legs) != operand.order:
            raise ValueError(f"legs {legs!r} do not fit an order-{operand.order} tensor")
        shape, table = (operand.dim,) * operand.order, operand.nonzero
    else:
        shape, level = [], operand
        for _ in legs:
            shape.append(len(level))
            level = level[0] if level else ()
        table = _nonzero(operand, len(legs))
    for ch, size in zip(legs, shape):
        if sizes.setdefault(ch, size) != size:
            raise ValueError(f"index {ch!r} has sizes {sizes[ch]} and {size}")
    return table


def _nonzero(data, order: int) -> dict:
    entries = [((), data)]
    for _ in range(order):
        entries = [(key + (i,), item) for key, row in entries for i, item in enumerate(row)]
    return {key: value for key, value in entries if value}


def _join(acc: dict, acc_legs: str, table: dict, legs: str):
    """Products of the entries of two tables that agree on their shared letters,
    keyed by the concatenated index tuples."""
    shared = [ch for ch in legs if ch in acc_legs]
    acc_key = _picker([acc_legs.index(ch) for ch in shared])
    table_key = _picker([legs.index(ch) for ch in shared])
    groups: dict[tuple, list] = {}
    for key, value in table.items():
        groups.setdefault(table_key(key), []).append((key, value))
    for akey, avalue in acc.items():
        for bkey, bvalue in groups.get(acc_key(akey), ()):
            yield akey + bkey, avalue * bvalue


def _accumulate(products, pick) -> dict:
    out: dict[tuple, object] = {}
    for key, value in products:
        key = pick(key)
        out[key] = out[key] + value if key in out else value
    return {key: value for key, value in out.items() if value}


def _picker(positions: list[int]):
    """Function taking an index tuple to the tuple of its entries at positions."""
    if len(positions) == 1:
        (p,) = positions
        return lambda key: (key[p],)
    return itemgetter(*positions) if positions else (lambda key: ())


def _zeros(shape: list[int]) -> list:
    if len(shape) == 1:
        return [0] * shape[0]
    return [_zeros(shape[1:]) for _ in range(shape[0])]


def _dense(shape: list[int], entries: Mapping[tuple[int, ...], object]) -> list:
    """Nested lists of that shape: each entry at its index tuple, 0 elsewhere."""
    grid = _zeros(shape)
    for key, value in entries.items():
        row = grid
        for i in key[:-1]:
            row = row[i]
        row[key[-1]] = value
    return grid


# ---------------------------------------------------------------------------
# the shared container


def _scalar(value):
    """Exact entry: outside input goes through ``rat``; polynomials pass."""
    return value if isinstance(value, Poly) else rat(value)


def _freeze(data, order: int):
    if order == 0:
        return _scalar(data)
    return tuple(_freeze(row, order - 1) for row in data)


def _is_cube(data, n: int, order: int) -> bool:
    return order == 0 or (len(data) == n and all(_is_cube(row, n, order - 1) for row in data))


def _map(fn, order: int, *grids):
    if order == 0:
        return fn(*grids)
    return [_map(fn, order - 1, *rows) for rows in zip(*grids, strict=True)]


class _Tensor:
    """A frozen nested tuple of exact entries, every leg of the same length.

    Subclasses fix the number of legs (``order``) and name the stored grid
    (``coords``, ``entries``, ``coeffs``, ``c``, ``d``).
    """

    order = 0
    kind = "tensor"

    def __init__(self, data):
        frozen = _freeze(data, self.order)
        if not frozen or not _is_cube(frozen, len(frozen), self.order):
            raise ValueError(f"{self.kind} must be nonempty with every leg of one length")
        self._data = frozen

    @property
    def dim(self) -> int:
        return len(self._data)

    @cached_property
    def nonzero(self) -> dict[tuple[int, ...], object]:
        """Nonzero entries by index tuple."""
        return _nonzero(self._data, self.order)

    @classmethod
    def zero(cls, dim: int):
        return cls(_zeros([dim] * cls.order))

    @classmethod
    def from_entries(cls, dim: int, entries: Mapping[tuple[int, ...], object]):
        return cls(_dense([dim] * cls.order, entries))

    def entry(self, *index: int):
        value = self._data
        for i in index:
            value = value[i]
        return value

    def nonzero_entries(self) -> list[tuple[tuple[int, ...], object]]:
        return sorted(self.nonzero.items(), key=itemgetter(0))

    def is_zero(self) -> bool:
        return not self.nonzero

    def __add__(self, other):
        return type(self)(_map(operator.add, self.order, self._data, other._data))

    def __sub__(self, other):
        return type(self)(_map(operator.sub, self.order, self._data, other._data))

    def __neg__(self):
        return type(self)(_map(operator.neg, self.order, self._data))

    def __rmul__(self, scalar):
        s = _scalar(scalar)
        return type(self)(_map(lambda v: s * v, self.order, self._data))

    def __eq__(self, other):
        return type(self) is type(other) and self._data == other._data

    def __hash__(self):
        return hash(self._data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._data!r})"


# ---------------------------------------------------------------------------
# vectors and linear maps


class Vector(_Tensor):
    order, kind = 1, "vector"

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return self._data

    @classmethod
    def basis(cls, dim: int, index: int) -> "Vector":
        return cls([ONE if i == index else ZERO for i in range(dim)])

    def __getitem__(self, i: int) -> Fraction:
        return self._data[i]

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self._data) + ")"


class LinearMap(_Tensor):
    """Square matrix; column j is the image of e_j."""

    order, kind = 2, "linear map"

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._data

    @classmethod
    def identity(cls, dim: int) -> "LinearMap":
        return cls([[ONE if i == j else ZERO for j in range(dim)] for i in range(dim)])

    @classmethod
    def from_columns(cls, columns: Sequence[Vector]) -> "LinearMap":
        return cls(zip(*(col.coords for col in columns)))

    @classmethod
    def basis_matrix(cls, dim: int, row: int, col: int) -> "LinearMap":
        """Elementary matrix E_{row,col} (sends e_col to e_row)."""
        return cls.from_entries(dim, {(row, col): ONE})

    def column(self, j: int) -> Vector:
        return Vector(row[j] for row in self._data)

    def apply(self, v: Vector) -> Vector:
        return Vector(contract("ij,j->i", self, v))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self . other)."""
        return LinearMap(contract("ik,kj->ij", self, other))

    def transpose(self) -> "LinearMap":
        return LinearMap(contract("ji->ij", self))

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self._data) + "]"


# ---------------------------------------------------------------------------
# order-2 and order-3 coefficient tensors


class Tensor2(_Tensor):
    """Coefficients of an element of V (x) V: coeffs[i][j] on e_i (x) e_j."""

    order, kind = 2, "order-2 tensor"

    @property
    def coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._data

    @classmethod
    def pure(cls, x: Vector, y: Vector) -> "Tensor2":
        return cls(contract("i,j->ij", x, y))

    def flip(self) -> "Tensor2":
        return Tensor2(contract("ji->ij", self))


class Tensor3(_Tensor):
    """Coefficients of an element of V (x) V (x) V: coeffs[i][j][k]."""

    order, kind = 3, "order-3 tensor"

    @property
    def coeffs(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._data


def flip_tau(t: Tensor2) -> Tensor2:
    """The usual flip tau(x (x) y) = y (x) x on coefficient grids."""
    return t.flip()


# ---------------------------------------------------------------------------
# the symmetric group S3 and its action on tensor cubes


@dataclass(frozen=True)
class Perm3:
    """An element of S3, stored as (sigma(1), sigma(2), sigma(3)), 1-indexed."""

    name: str
    images: tuple[int, int, int]
    sign: int

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Perm3":
        inv = [0, 0, 0]
        for i in range(3):
            inv[self.images[i] - 1] = i + 1
        return _BY_IMAGES[tuple(inv)]

    def compose(self, other: "Perm3") -> "Perm3":
        """self after other."""
        return _BY_IMAGES[tuple(self.images[other.images[i] - 1] for i in range(3))]


PERM_ID = Perm3("id", (1, 2, 3), 1)
PERM_12 = Perm3("(12)", (2, 1, 3), -1)
PERM_23 = Perm3("(23)", (1, 3, 2), -1)
PERM_13 = Perm3("(13)", (3, 2, 1), -1)
PERM_213 = Perm3("(213)", (3, 1, 2), 1)   # cycle 2 -> 1 -> 3 -> 2
PERM_231 = Perm3("(231)", (2, 3, 1), 1)   # cycle 2 -> 3 -> 1 -> 2

S3 = (PERM_ID, PERM_12, PERM_23, PERM_13, PERM_213, PERM_231)
_BY_IMAGES = {p.images: p for p in S3}
PERMS = {p.name: p for p in S3}

SUBGROUPS: dict[str, tuple[Perm3, ...]] = {
    "G1": (PERM_ID,),
    "G2": (PERM_ID, PERM_12),
    "G3": (PERM_ID, PERM_23),
    "G4": (PERM_ID, PERM_13),
    "G5": (PERM_ID, PERM_213, PERM_231),
    "G6": S3,
}


def subgroup(name: str) -> tuple[Perm3, ...]:
    try:
        return SUBGROUPS[name]
    except KeyError:
        raise ValueError(f"unknown subgroup {name!r}; expected G1..G6") from None


def phi_apply(sigma: Perm3, t: Tensor3) -> Tensor3:
    """Permute tensor legs: leg m of the output is leg sigma^-1(m) of the input."""
    legs = "".join("abc"[s - 1] for s in sigma.images)
    return Tensor3(contract(legs + "->abc", t))


def signed_leg_sum(perms: Iterable[Perm3], t: Tensor3) -> Tensor3:
    """sum_{sigma in perms} (-1)^eps(sigma) Phi_sigma(t).

    Over a subgroup this also equals the signed sum of t o Phi_sigma, since
    sigma and its inverse have one sign and the subgroup holds both.
    """
    perms = tuple(perms)
    stack = [phi_apply(sigma, t).coeffs for sigma in perms]
    return Tensor3(contract("s,sabc->abc", [sigma.sign for sigma in perms], stack))


def permute_triple(sigma: Perm3, triple: tuple[int, int, int]) -> tuple[int, int, int]:
    """Index triple of Phi_sigma(e_p (x) e_q (x) e_s) for triple = (p, q, s)."""
    inv = sigma.inverse().images
    return (triple[inv[0] - 1], triple[inv[1] - 1], triple[inv[2] - 1])


# ---------------------------------------------------------------------------
# structure-constant containers


class MulTensor(_Tensor):
    """Multiplication constants c[i][j][k]: mu(e_i (x) e_j) = sum_k c[i][j][k] e_k."""

    order, kind = 3, "multiplication tensor"

    @property
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._data

    def product_basis(self, i: int, j: int) -> Vector:
        return Vector(self._data[i][j])

    def apply(self, x: Vector, y: Vector) -> Vector:
        return Vector(contract("i,j,ijk->k", x, y, self))


class ComulTensor(_Tensor):
    """Comultiplication constants d[k][i][j]: Delta(e_k) = sum d[k][i][j] e_i (x) e_j."""

    order, kind = 3, "comultiplication tensor"

    @property
    def d(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._data

    def image(self, k: int) -> Tensor2:
        return Tensor2(self._data[k])

    def apply(self, x: Vector) -> Tensor2:
        return Tensor2(contract("k,kij->ij", x, self))

    def op(self) -> "ComulTensor":
        """Opposite comultiplication: d[k][i][j] -> d[k][j][i]."""
        return ComulTensor(contract("kji->kij", self))
