"""Defect reports returned by the structure checkers.

A checker either passes (empty witness list) or names every failing basis
index combination together with the exact nonzero defect value, so a report
doubles as a debugging tool for hand-entered structure tables.

A checker that decides on whole defect tables hands them over as
``Defects``: the verdict, the count and a bounded rendering read the integer
tables as they are, and the witnesses are built only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import merge
from itertools import islice
from math import gcd
from typing import Callable, Iterator, Mapping


def _entry(label: str, indices: tuple[int, ...], value) -> str:
    """One defect entry as a report shows it, basis indices counted from 1."""
    return f"{label}({','.join(str(i + 1) for i in indices)}) = {value}"


@dataclass(frozen=True)
class Witness:
    """One nonzero defect entry: which condition, at which basis indices."""

    indices: tuple[int, ...]
    value: Fraction
    label: str = ""

    def render(self) -> str:
        return _entry(self.label, self.indices, self.value)


class Defects:
    """The nonzero entries of one or more labelled defect tables, formatted or
    listed as witnesses when read.

    A table's entry at ``key`` has the value ``table[key] / den`` (a
    polynomial entry is its own value, over 1) at the indices ``order(key)``
    (the key itself without ``order``), and its entries come in index order.
    ``joined`` lists several holders' entries one after another or, with
    ``legs``, merged by their leading ``legs`` indices, the earlier holder
    first at equal leading indices.  ``len`` is free, ``render(limit)``
    formats the first ``limit`` entries from the numerators, and
    ``witnesses`` lists every entry once and keeps the tuple."""

    parts: tuple[Defects, ...] = ()

    def __init__(self, table: Mapping, den: int = 1, label: str = "",
                 order: Callable[[tuple], tuple] | None = None):
        self.table, self.den, self.label, self.order = table, den, label, order

    @classmethod
    def joined(cls, *parts: Defects, legs: int = 0) -> Defects:
        joined = cls({})
        joined.parts, joined.legs = parts, legs
        return joined

    @classmethod
    def of(cls, tensor, label: str = "", order: Callable[[tuple], tuple] | None = None) -> Defects:
        """The nonzero entries of a tensor's integer table."""
        return cls(tensor._num, tensor._den, label, order=order)

    def __len__(self) -> int:
        return sum(map(len, self.parts)) if self.parts else len(self.table)

    @cached_property
    def _keys(self) -> list:
        return sorted(self.table, key=self.order)

    def _entries(self) -> Iterator[tuple]:
        """(label, indices, numerator, denominator) of every entry in report
        order, each made as it is read."""
        if self.parts:
            # at equal keys merge takes the earlier part first: legs 0 concatenates
            return merge(*(part._entries() for part in self.parts),
                         key=lambda entry: entry[1][:self.legs])
        table, order = self.table, self.order
        return ((self.label, order(key) if order else key, table[key], self.den)
                for key in self._keys)

    def render(self, limit: int | None = None) -> list[str]:
        """The first ``limit`` entries (all without a limit), each as its
        witness renders, with no witness built."""
        out = []
        for label, indices, value, den in islice(self._entries(), limit):
            if isinstance(value, int):
                common = gcd(value, den)
                value = value // common if common == den else f"{value // common}/{den // common}"
            out.append(_entry(label, indices, value))
        return out

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        return tuple(Witness(indices, Fraction(value, den) if isinstance(value, int) else value,
                             label) for label, indices, value, den in self._entries())


@dataclass(frozen=True, init=False)
class DefectReport:
    """A checker's name and its witnesses, given as a tuple or as
    ``Defects``.  ``ok``, the count and ``render(limit)`` build no witness
    from ``Defects``; equality, hashing and ``repr`` read the witnesses, so a
    report of tables equals the report of its witness tuple."""

    check: str
    witnesses: tuple[Witness, ...]

    def __init__(self, check: str, witnesses: tuple[Witness, ...] | Defects):
        object.__setattr__(self, "check", check)
        object.__setattr__(self, "_defects", witnesses)

    def __getattr__(self, name: str):
        # ``witnesses`` is not stored: Defects list theirs once, and keep them
        if name != "witnesses":
            raise AttributeError(name)
        defects = self._defects
        return defects.witnesses if isinstance(defects, Defects) else defects

    @property
    def ok(self) -> bool:
        return not self._defects

    @property
    def count(self) -> int:
        """The number of witnesses."""
        return len(self._defects)

    def render(self, limit: int | None = None) -> str:
        """The verdict and the first ``limit`` witnesses (all without a
        limit); a negative ``limit`` is a ValueError."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be at least 0, got {limit}")
        if self.ok:
            return f"{self.check}: ok"
        count, defects = self.count, self._defects
        shown = defects.render(limit) if isinstance(defects, Defects) \
            else [w.render() for w in defects[:limit]]
        extra = "" if limit is None or count <= limit else f"(+{count - limit} more)"
        return " ".join(filter(None, (f"{self.check}: {count} nonzero defect(s):",
                                      "; ".join(shown), extra)))
