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
  first, one letter per leg, one group per operand; the letters of one operand
  are distinct, and so are the output's (else ValueError).  An operand is a
  tensor of this module, a nested sequence of that depth, or a ``tabled`` one.
* A letter shared by operands is one index: its entries are multiplied, and
  the letter is summed over unless it appears after ``->``.  One letter must
  have one size everywhere.
* Operands are contracted pairwise as a tree, cheapest pair first: the pair
  whose join makes the fewest products on dense operands (the product of the
  sizes of the letters the two name), then the smaller result, then the
  leftmost pair, as opt_einsum's greedy path orders them.  The pair leaves
  the operand list and its result joins the end; a letter is summed out as
  soon as no other operand and no output leg names it.  So a spec is written
  in reading order; the operand order only breaks ties.
* A join sums row by row (Gustavson's sparse product): the left operand's
  kept letters name a row, the right operand's other kept letters one int
  in that row, and an index tuple is built once per nonzero sum.  When the
  right operand's groups (its entries by shared letters) are at least half
  full on average, a row is a list as wide as the row and a product costs
  a list add: each touched row takes at least half its width in products,
  so the list costs about what they do.  Otherwise a row is a dict and a
  product costs an int-keyed dict update.  A lone operand is re-keyed
  instead, which reorders its legs or sums some out.
* The letters after ``->`` are the output legs in order; a spec holds
  exactly one ``->`` (else ValueError).  The result is a
  nested list in that layout (a bare scalar for an empty output), where an
  entry no product reached is the integer 0; nonzero entries are Fractions
  when an operand held one (a tensor always does).  A tensor class's
  ``contracted`` returns a tensor instead, and ``parts`` cuts a whole
  table, such as an order-4 ``Tensor4`` keyed (k, p, q, s), into one
  tensor per leading index, for callers that ask per component.

Stored form.  A tensor holds the int numerators of its nonzero entries by
index tuple over one denominator, the lcm of their reduced denominators, so
equal tensors have equal tables.  ``tabled`` clears outside entries and
nested-sequence operands once.  Contraction (``+``, ``*`` and truthiness
only), ``+``, ``-``, scalar ``*``, ``==``, hashing and the S3 action (on
any three consecutive legs) run on those ints.  Outside this module only
the checkers read them, to hand a whole defect table to
``reports.Defects``, which builds a Fraction for a witness when it is read.
A polynomial entry is its own numerator over denominator 1.
Fractions appear only at the boundary (``nonzero``, ``entry``, ``coords``,
``entries``, ``coeffs``, ``c``, ``d``, witnesses), built lazily and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import combinations, product
from math import gcd, lcm, prod
from operator import getitem, itemgetter
from typing import Iterable, Mapping, NamedTuple

from .rational import ONE, ZERO, Poly, numerators, rat

# ---------------------------------------------------------------------------
# the contraction primitive


def contract(spec: str, *operands):
    """Sum of products over shared index letters; see the module docstring."""
    shape, fractional, table, den = _contraction(spec, operands)
    table, den = _reduced(table, den)
    if fractional:
        table = {key: _value(value, den) for key, value in table.items()}
    return _dense(shape, table)


def _contraction(spec: str, operands) -> "Table":
    """The contraction as a whole ``Table``, its numerators over the product
    of the operands' denominators, not in lowest terms.  The spec is split
    only to table a nested sequence."""
    if spec.count(",") + 1 != len(operands):
        raise ValueError(f"spec {spec!r} does not name {len(operands)} operand(s)")
    shapes, live, fractional, den = [], [], False, 1
    for op in operands:
        if isinstance(op, _Tensor):
            shapes.append((op.dim,) * op.order)
            live.append(op._num)
            fractional, den = True, den * op._den
            continue
        if not isinstance(op, Table):
            op = tabled(op, len(spec.partition("->")[0].split(",")[len(live)]))
        shapes.append(op.shape)
        live.append(op.num)
        fractional, den = fractional or op.fractional, den * op.den
    steps, out_shape = _plan(spec, tuple(shapes))
    for i, j, key_i, key_j, layout in steps:
        if j is None:
            live.append(_rekey(live.pop(i), layout))
        else:
            right = live.pop(j)
            live.append(_join(live.pop(i), key_i, right, key_j, layout))
    (table,) = live
    return Table(out_shape, fractional, table, den)


@lru_cache(maxsize=512)
def _plan(spec: str, shapes: tuple[tuple[int, ...], ...]):
    """The steps that contract the spec, cheapest pair first (see the module
    docstring), and the output shape.

    A join (i, j, key_i, key_j, layout) takes live operands i < j out of the
    list, multiplies their entries that agree on the shared letters (read by
    key_i and key_j) and appends the sums, placed by layout = (row, column,
    decode, order).  The left operand's kept letters name a row: ``row``
    reads them as a tuple.  The right operand's other kept letters name a
    column in it: ``column`` reads them as one mixed-radix int, and
    ``decode`` lists their tuples by that int.  ``order`` puts row + decoded
    column in output order, None when they already are.  A step (0, None,
    None, None, pick) re-keys a lone operand by pick, which only sums out or
    reorders its legs."""
    if spec.count("->") != 1:
        raise ValueError(f"spec {spec!r} needs exactly one '->'")
    inputs, _, output = spec.partition("->")
    legs = inputs.split(",")
    if any(len(set(letters)) != len(letters) for letters in legs + [output]):
        raise ValueError(f"spec {spec!r} repeats a letter within an operand or the output")
    sizes: dict[str, int] = {}
    for letters, shape in zip(legs, shapes):
        if len(letters) != len(shape):
            raise ValueError(f"legs {letters!r} do not fit an order-{len(shape)} tensor")
        for ch, size in zip(letters, shape):
            if sizes.setdefault(ch, size) != size:
                raise ValueError(f"index {ch!r} has sizes {sizes[ch]} and {size}")
    if not set(output) <= set(sizes):
        raise ValueError(f"output indices {set(output) - set(sizes)} name no leg in {spec!r}")
    steps, live = [], legs
    if len(legs) == 1 and legs[0] != output:
        steps.append((0, None, None, None, _picker([legs[0].index(ch) for ch in output])))
    while len(live) > 1:
        options = []
        for i, j in combinations(range(len(live)), 2):
            both = live[i] + live[j]
            rest = set(output).union(*(live[m] for m in range(len(live)) if m not in (i, j)))
            keep = "".join(ch for ch in dict.fromkeys(both) if ch in rest) \
                if len(live) > 2 else output
            options.append((prod(sizes[ch] for ch in set(both)),
                            prod(sizes[ch] for ch in keep), i, j, keep))
        _, _, i, j, keep = min(options)
        left, right = live[i], live[j]
        shared = [ch for ch in right if ch in left]
        rows = "".join(ch for ch in left if ch in keep)
        cols = "".join(ch for ch in right if ch in keep and ch not in left)
        layout = (_picker([left.index(ch) for ch in rows]),
                  _radix([right.index(ch) for ch in cols], [sizes[ch] for ch in cols]),
                  list(product(*(range(sizes[ch]) for ch in cols))),
                  None if rows + cols == keep
                  else _picker([(rows + cols).index(ch) for ch in keep]))
        steps.append((i, j, _picker([left.index(ch) for ch in shared], bare=True),
                      _picker([right.index(ch) for ch in shared], bare=True), layout))
        live = [letters for m, letters in enumerate(live) if m not in (i, j)] + [keep]
    return tuple(steps), tuple(sizes[ch] for ch in output)


class Table(NamedTuple):
    """A contraction operand as data: its shape, whether a nonzero entry is a
    Fraction (always for a tensor, whose entries read as Fractions), the
    numerators of its nonzero entries by index tuple and their denominator."""

    shape: tuple[int, ...]
    fractional: bool
    num: dict
    den: int


def tabled(data, depth: int) -> Table:
    """Nested sequences of that depth as a ``Table``, which ``contract`` takes
    as is, so an operand of several contractions is cleared once.  Outside
    entries come in only here: ints, Fractions and "p/q" strings through
    ``rat``; a polynomial is its own numerator."""
    shape, flat = [], [data]
    for _ in range(depth):
        rows = [list(row) for row in flat]
        shape.append(len(rows[0]) if rows else 0)
        if any(len(row) != shape[-1] for row in rows):
            raise ValueError("nested sequences of unequal lengths")
        flat = [item for row in rows for item in row]
    exact = {}
    for key, value in zip(product(*map(range, shape)), flat):
        value = value if isinstance(value, (Fraction, int, Poly)) else rat(value)
        if value:
            exact[key] = value
    nums, den = numerators(exact.values())
    return Table(tuple(shape), any(isinstance(v, Fraction) for v in exact.values()),
                 dict(zip(exact, nums)), den)


def _reduced(table: dict, den: int) -> tuple[dict, int]:
    """Numerators over den in lowest terms; polynomial numerators take den into
    their coefficients, which leaves denominator 1."""
    if den == 1:
        return table, 1
    try:
        common = gcd(den, *table.values())
    except TypeError:
        return {key: value * Fraction(1, den) for key, value in table.items()}, 1
    if common == 1:
        return table, den
    return {key: value // common for key, value in table.items()}, den // common


def _value(numerator, den: int):
    """numerator / den as a Fraction; a polynomial numerator (over 1) as is."""
    return Fraction(numerator, den) if isinstance(numerator, int) else numerator


def _join(acc: dict, acc_key, table: dict, table_key, layout: tuple) -> dict:
    """Sums of the products of the entries of two tables that agree on their
    shared letters, row by row (Gustavson's sparse product): each entry of
    acc adds its products into the accumulator of its row at the column int,
    and an index tuple is built once per nonzero sum.  The accumulator is a
    list of the row's width (the dense accumulator of Gilbert, Moler and
    Schreiber) when table's groups are at least half full on average, so
    each touched row takes at least width/2 products and the list costs
    about what they do; else a dict keyed by the column."""
    row_of, column_of, decode, order = layout
    groups: dict[object, list] = {}
    for key, value in table.items():
        groups.setdefault(table_key(key), []).append((column_of(key), value))
    width = len(decode)
    full = 2 * len(table) >= width * len(groups)
    rows: dict[tuple, list | dict] = {}
    for akey, avalue in acc.items():
        group = groups.get(acc_key(akey))
        if group is None:
            continue
        head = row_of(akey)
        row = rows.get(head)
        if row is None:
            row = rows[head] = [0] * width if full else {}
        if full:
            for column, bvalue in group:
                row[column] += avalue * bvalue
            continue
        for column, bvalue in group:
            value = avalue * bvalue
            row[column] = row[column] + value if column in row else value
    cells = enumerate if full else dict.items
    if order is None:
        return {head + decode[column]: value
                for head, row in rows.items() for column, value in cells(row) if value}
    return {order(head + decode[column]): value
            for head, row in rows.items() for column, value in cells(row) if value}


def _rekey(table: dict, pick) -> dict:
    """The entries of one table summed under pick of their index tuples."""
    out: dict[tuple, object] = {}
    for key, value in table.items():
        key = pick(key)
        old = out.get(key)
        out[key] = value if old is None else old + value
    return {key: value for key, value in out.items() if value}


def _picker(positions: list[int], bare: bool = False):
    """Index tuple -> tuple of its entries at positions (``bare``: one entry as is)."""
    if len(positions) == 1 and not bare:
        (p,) = positions
        return lambda key: (key[p],)
    return itemgetter(*positions) if positions else (lambda key: ())


def _radix(positions: list[int], sizes: list[int]):
    """Index tuple -> the mixed-radix int of its entries at positions, the
    last fastest: the place of their tuple in product(*map(range, sizes))."""
    if not positions:
        return lambda key: 0
    if len(positions) == 1:
        return itemgetter(positions[0])
    if len(positions) == 2:
        (p, q), size = positions, sizes[1]
        return lambda key: key[p] * size + key[q]
    places = tuple(zip(positions, [prod(sizes[m + 1:]) for m in range(len(sizes))]))
    return lambda key: sum(key[p] * place for p, place in places)


def _in_range(index: int, dim: int) -> None:
    """Raise ValueError unless index is a basis index of a dim-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} out of range for dim {dim}")


def _dense(shape: tuple[int, ...], entries: Mapping, fill=0, seq=list):
    """Nested ``seq``s of that shape: entries at their index tuples, fill elsewhere."""
    cells = [entries.get(index, fill) for index in product(*map(range, shape))]
    for size in reversed(shape[1:]):
        cells = [seq(cells[i:i + size]) for i in range(0, len(cells), size)]
    return seq(cells) if shape else cells[0]


# ---------------------------------------------------------------------------
# the shared container


class _Tensor:
    """Exact entries, every leg of length ``dim``: numerators of the nonzero
    entries by index tuple (``_num``) over one denominator (``_den``), in
    lowest terms.  Subclasses fix the number of legs (``order``) and name the
    nested-tuple view (``coords``, ``entries``, ``coeffs``, ``c``, ``d``)."""

    order = 0
    kind = "tensor"

    def __init__(self, data):
        shape, _, table, den = tabled(data, self.order)
        self._set(shape, table, den)

    def _set(self, shape: tuple[int, ...], table: dict, den: int) -> None:
        if not shape[0] or len(set(shape)) != 1:
            raise ValueError(f"{self.kind} must be nonempty with every leg of one length")
        self.dim, (self._num, self._den) = shape[0], _reduced(table, den)

    @classmethod
    def _of(cls, dim: int, table: dict, den: int = 1):
        """From nonzero numerators over den, not necessarily in lowest terms."""
        tensor = cls.__new__(cls)
        tensor._set((dim,), table, den)
        return tensor

    @classmethod
    def contracted(cls, spec: str, *operands):
        """``contract(spec, *operands)`` as a tensor of this class."""
        shape, _, table, den = _contraction(spec, operands)
        if len(shape) != cls.order or len(set(shape)) > 1:
            raise ValueError(f"output legs of {spec!r} do not end in a {cls.kind}")
        return cls._of(shape[0], table, den)

    @classmethod
    def parts(cls, whole: "_Tensor") -> tuple:
        """``whole`` cut along its leading legs, all but the last ``order``,
        into tensors of this class, one per leading index tuple in index
        order: the per-component view of a whole table."""
        lead = whole.order - cls.order
        cut: dict[tuple, dict] = {index: {} for index in product(range(whole.dim), repeat=lead)}
        for key, value in whole._num.items():
            cut[key[:lead]][key[lead:]] = value
        return tuple(cls._of(whole.dim, part, whole._den) for part in cut.values())

    @cached_property
    def nonzero(self) -> dict[tuple[int, ...], object]:
        """Nonzero entries by index tuple."""
        return {key: _value(value, self._den) for key, value in self._num.items()}

    @cached_property
    def _data(self):
        """The entries as nested tuples, zeros included."""
        return _dense((self.dim,) * self.order, self.nonzero, ZERO, tuple)

    @classmethod
    def zero(cls, dim: int):
        return cls._of(dim, {})

    @classmethod
    def _fits(cls, index: tuple, dim: int) -> None:
        """Raise ValueError unless index names an entry of a dim-dimensional tensor."""
        if len(index) != cls.order or not all(0 <= i < dim for i in index):
            raise ValueError(f"index {index} does not fit a {cls.kind} of dim {dim}")

    @classmethod
    def from_entries(cls, dim: int, entries: Mapping[tuple[int, ...], object]):
        for key in entries:
            cls._fits(key, dim)
        return cls(_dense((dim,) * cls.order, entries))

    def entry(self, *index: int):
        self._fits(index, self.dim)
        return reduce(getitem, index, self._data)

    def is_zero(self) -> bool:
        return not self._num

    def _combine(self, other: "_Tensor", sign: int):
        """self + sign * other, on the numerators over their lcm denominator."""
        if self.dim != other.dim:
            raise ValueError(f"dimensions {self.dim} and {other.dim} differ")
        den = lcm(self._den, other._den)
        scale, other_scale = den // self._den, sign * (den // other._den)
        out = dict(self._num) if scale == 1 else {k: v * scale for k, v in self._num.items()}
        for key, value in other._num.items():
            value, old = value * other_scale, out.get(key)
            out[key] = value if old is None else old + value
        return self._of(self.dim, {key: value for key, value in out.items() if value}, den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._of(self.dim, {key: -value for key, value in self._num.items()}, self._den)

    def __rmul__(self, scalar):
        _, _, table, den = tabled([scalar], 1)
        s = table.get((0,), 0)
        return self._of(self.dim, {key: s * value for key, value in self._num.items()} if s else {},
                        self._den * den)

    def __eq__(self, other):
        return type(self) is type(other) and self.dim == other.dim \
            and self._den == other._den and self._num == other._num

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.dim, self._den, frozenset(self._num.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._data!r})"


# ---------------------------------------------------------------------------
# vectors, linear maps, and order-2 and order-3 coefficient tensors


class Vector(_Tensor):
    order, kind = 1, "vector"

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return self._data

    @classmethod
    def basis(cls, dim: int, index: int) -> "Vector":
        _in_range(index, dim)
        return cls([ONE if i == index else ZERO for i in range(dim)])

    def __getitem__(self, i: int) -> Fraction:
        _in_range(i, self.dim)
        return self._data[i]

    def __iter__(self):
        # iteration would otherwise run through __getitem__ until it raises
        return iter(self._data)

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
        return cls._of(dim, {(i, i): 1 for i in range(dim)})

    @classmethod
    def basis_matrix(cls, dim: int, row: int, col: int) -> "LinearMap":
        """Elementary matrix E_{row,col} (sends e_col to e_row)."""
        return cls.from_entries(dim, {(row, col): ONE})

    def apply(self, v: Vector) -> Vector:
        return Vector.contracted("ij,j->i", self, v)

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self . other)."""
        return LinearMap.contracted("ik,kj->ij", self, other)

    def transpose(self) -> "LinearMap":
        return LinearMap.contracted("ji->ij", self)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(v) for v in row) for row in self._data) + "]"


class Tensor2(_Tensor):
    """Coefficients of an element of V (x) V: coeffs[i][j] on e_i (x) e_j."""

    order, kind = 2, "order-2 tensor"

    @property
    def coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._data

    @classmethod
    def pure(cls, x: Vector, y: Vector) -> "Tensor2":
        return cls.contracted("i,j->ij", x, y)

    def flip(self) -> "Tensor2":
        """The usual flip tau(x (x) y) = y (x) x."""
        return Tensor2.contracted("ji->ij", self)


class Tensor3(_Tensor):
    """Coefficients of an element of V (x) V (x) V: coeffs[i][j][k]."""

    order, kind = 3, "order-3 tensor"

    @property
    def coeffs(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._data


class Tensor4(_Tensor):
    """A whole defect table of four legs, such as the alpha-associator keyed
    (k, p, q, s): one cube [p][q][s] per output component k
    (``Tensor3.parts``)."""

    order, kind = 4, "order-4 tensor"


# ---------------------------------------------------------------------------
# the symmetric group S3 and its action on tensor cubes


@dataclass(frozen=True)
class Perm3:
    """An element of S3, stored as (sigma(1), sigma(2), sigma(3)), 1-indexed."""

    name: str
    images: tuple[int, int, int]
    sign: int

    def __call__(self, i: int) -> int:
        if not 1 <= i <= 3:
            raise ValueError(f"index {i} out of range 1..3")
        return self.images[i - 1]

    def inverse(self) -> "Perm3":
        return _BY_IMAGES[tuple(self.images.index(i) + 1 for i in (1, 2, 3))]

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


@lru_cache(maxsize=4 * len(S3))
def _leg_picker(sigma: Perm3, lead: int, order: int):
    """Index tuple of Phi_sigma on legs lead..lead+2 of an order-``order``
    tensor from the tuple before it; the other legs stay."""
    if not 0 <= lead <= order - 3:
        raise ValueError(f"legs {lead}..{lead + 2} do not fit an order-{order} tensor")
    legs = list(range(order))
    legs[lead:lead + 3] = [lead + i - 1 for i in sigma.inverse().images]
    return _picker(legs)


def phi_apply(sigma: Perm3, t: _Tensor, lead: int = 0) -> _Tensor:
    """Permute legs lead..lead+2 of t (all three of a Tensor3): leg lead + m
    of the output is leg lead + sigma^-1(m) of the input."""
    pick = _leg_picker(sigma, lead, t.order)
    return t._of(t.dim, dict(zip(map(pick, t._num), t._num.values())), t._den)


def signed_leg_sum(perms: Iterable[Perm3], t: _Tensor, lead: int = 0) -> _Tensor:
    """sum_{sigma in perms} (-1)^eps(sigma) Phi_sigma(t), Phi_sigma acting on
    legs lead..lead+2 as in ``phi_apply``.

    The identity's term is a copy of t's numerators; each other term's
    numerators are added, signed, under their permuted index tuples.  Over a
    subgroup this also equals the signed sum of t o Phi_sigma, since sigma
    and its inverse have one sign and the subgroup holds both."""
    rest = list(perms)
    total: dict[tuple, object] = {}
    if PERM_ID in rest:
        rest.remove(PERM_ID)
        total.update(t._num)
    negated = [(key, -value) for key, value in t._num.items()] \
        if any(s.sign < 0 for s in rest) else ()
    get = total.get
    for sigma in rest:
        pick = _leg_picker(sigma, lead, t.order)
        for key, value in t._num.items() if sigma.sign > 0 else negated:
            key = pick(key)
            old = get(key)
            total[key] = value if old is None else old + value
    return t._of(t.dim, {key: value for key, value in total.items() if value}, t._den)


# ---------------------------------------------------------------------------
# structure-constant containers


class MulTensor(_Tensor):
    """Multiplication constants c[i][j][k]: mu(e_i (x) e_j) = sum_k c[i][j][k] e_k."""

    order, kind = 3, "multiplication tensor"

    @property
    def c(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._data

    def apply(self, x: Vector, y: Vector) -> Vector:
        return Vector.contracted("i,j,ijk->k", x, y, self)


class ComulTensor(_Tensor):
    """Comultiplication constants d[k][i][j]: Delta(e_k) = sum d[k][i][j] e_i (x) e_j."""

    order, kind = 3, "comultiplication tensor"

    @property
    def d(self) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
        return self._data

    def apply(self, x: Vector) -> Tensor2:
        return Tensor2.contracted("k,kij->ij", x, self)

    def op(self) -> "ComulTensor":
        """Opposite comultiplication: d[k][i][j] -> d[k][j][i]."""
        return ComulTensor.contracted("kji->kij", self)
