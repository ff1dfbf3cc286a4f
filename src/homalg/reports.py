"""Defect reports returned by the structure checkers.

A checker either passes (empty witness list) or names every failing basis
index combination together with the exact nonzero defect value, so a report
doubles as a debugging tool for hand-entered structure tables.

A checker that decides on a whole defect table hands it over as ``Defects``:
the verdict and the count read the table as it is, and a witness is built
only when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import Callable, Mapping


@dataclass(frozen=True)
class Witness:
    """One nonzero defect entry: which condition, at which basis indices."""

    indices: tuple[int, ...]
    value: Fraction
    label: str = ""

    def render(self) -> str:
        idx = ",".join(str(i + 1) for i in self.indices)
        head = f"{self.label}({idx})" if self.label else f"({idx})"
        return f"{head} = {self.value}"


class Defects:
    """The nonzero entries of a defect table, listed as witnesses when read.

    Witness values are ``table[key] * scale / den`` (a polynomial entry is
    its own value, over 1), at indices ``order(key)`` (the key itself without
    ``order``), in index order.  ``len`` is free, ``[:limit]`` builds the
    witnesses it returns, and ``witnesses`` builds the rest once and keeps
    the tuple."""

    def __init__(self, table: Mapping, den: int = 1, label: str = "", scale: int = 1,
                 order: Callable[[tuple], tuple] | None = None):
        self.table, self.den, self.label, self.scale, self.order = table, den, label, scale, order
        self._head: tuple[Witness, ...] = ()

    def scaled(self, scale: int) -> "Defects":
        return Defects(self.table, self.den, self.label, self.scale * scale, self.order)

    def __len__(self) -> int:
        return len(self.table)

    @cached_property
    def _keys(self) -> list:
        return sorted(self.table, key=self.order)

    def _list(self, keys: list) -> tuple[Witness, ...]:
        values = [self.table[key] * self.scale if self.scale != 1 else self.table[key]
                  for key in keys]
        values = [Fraction(v, self.den) if isinstance(v, int) else v for v in values]
        indices = map(self.order, keys) if self.order else keys
        return tuple(map(Witness, indices, values, repeat(self.label)))

    def __getitem__(self, head: slice) -> tuple[Witness, ...]:
        # only leading runs [:limit] are asked for; the longest is kept
        if "witnesses" in self.__dict__:
            return self.witnesses[head]
        self._head += self._list(self._keys[len(self._head):head.stop])
        return self._head[head]

    @cached_property
    def witnesses(self) -> tuple[Witness, ...]:
        return self._head + self._list(self._keys[len(self._head):])


def witnesses(entries: Mapping[tuple[int, ...], Fraction],
              label: str = "") -> tuple[Witness, ...]:
    """One witness per entry of ``entries``, the nonzero defect values by index
    tuple, in index order."""
    return Defects(entries, label=label).witnesses


@dataclass(frozen=True, init=False)
class DefectReport:
    """A checker's name and its witnesses, given as a tuple or as
    ``Defects``.  ``ok``, the count and ``render(limit)`` build no witness
    they do not show; equality, hashing and ``repr`` read the witnesses, so a
    report of a table equals the report of its witness tuple."""

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
        if self.ok:
            return f"{self.check}: ok"
        count = self.count
        body = "; ".join(w.render() for w in self._defects[:limit])
        extra = "" if limit is None or count <= limit else f" (+{count - limit} more)"
        return f"{self.check}: {count} nonzero defect(s): {body}{extra}"
