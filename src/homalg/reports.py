"""Defect reports returned by the structure checkers.

A checker either passes (empty witness list) or names every failing basis
index combination together with the exact nonzero defect value, so a report
doubles as a debugging tool for hand-entered structure tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping


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


def witnesses(entries: Mapping[tuple[int, ...], Fraction], label: str = "",
              prefix: tuple[int, ...] = ()) -> tuple[Witness, ...]:
    """One witness per entry of ``entries``, the nonzero defect values by index
    tuple, at ``prefix`` + that tuple, in index order: the one way every
    checker lists its defects."""
    return tuple(Witness(prefix + idx, entries[idx], label) for idx in sorted(entries))


@dataclass(frozen=True)
class DefectReport:
    check: str
    witnesses: tuple[Witness, ...]

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def render(self, limit: int | None = None) -> str:
        if self.ok:
            return f"{self.check}: ok"
        shown = self.witnesses if limit is None else self.witnesses[:limit]
        body = "; ".join(w.render() for w in shown)
        extra = "" if limit is None or len(self.witnesses) <= limit else \
            f" (+{len(self.witnesses) - limit} more)"
        return f"{self.check}: {len(self.witnesses)} nonzero defect(s): {body}{extra}"
