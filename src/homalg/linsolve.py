"""Exact Gaussian elimination over the rationals.

``linear_solve`` returns the full affine solution set of A x = b: one
particular solution plus a kernel basis, or a distinguished inconsistent
result (never an exception for unsolvable systems).

The elimination runs on integers, fraction-free (Bareiss, Math. Comp.
1968).  An augmented row of ints is taken as it is, and one holding a
Fraction is scaled by the lcm of its denominators.  A row update multiplies
by the pivot instead of dividing by it, and every updated row is divided by
the gcd of its entries, where Bareiss divides by the previous pivot.  The
pivot choice is that of Gauss-Jordan over the rationals, and row i of the
final integer matrix is a nonzero multiple of row i of the reduced row
echelon form.  That form is unique, so the pivot columns, the particular
solution (free variables 0) and the kernel basis (one vector per free
column) are those of rational elimination.  Callers read what they need
from ``_echelon``'s rows: ``inconsistency_certificate`` the particular
solution alone, ``bialgebra._kernel`` the kernel's integer numerators, and
``linear_solve`` both, as ``Fraction``s.

By the Fredholm alternative, A x = b is inconsistent exactly when some y has
y A = 0 and y . b = 1; ``inconsistency_certificate`` solves [A^T; b^T] y = [0; 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .rational import ZERO, numerators, primitive, rat


@dataclass(frozen=True)
class LinearSolution:
    """Solution set {particular + span(kernel)} of a linear system, if any."""

    particular: tuple[Fraction, ...] | None
    kernel: tuple[tuple[Fraction, ...], ...]

    @property
    def consistent(self) -> bool:
        return self.particular is not None

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)

    @property
    def unique(self) -> bool:
        return self.consistent and not self.kernel


def linear_solve(matrix: Sequence[Sequence], rhs: Sequence) -> LinearSolution:
    """Solve A x = b exactly; A is m x n, b has length m.  Entries are ints,
    Fractions or "p/q" strings (through ``rat``)."""
    echelon = _echelon(matrix, rhs)
    if echelon is None:
        return LinearSolution(particular=None, kernel=())
    kernel, den = _kernel_numerators(*echelon)
    return LinearSolution(particular=_particular(*echelon),
                          kernel=tuple(tuple(Fraction(x, den) for x in v) for v in kernel))


def _echelon(matrix: Sequence[Sequence], rhs: Sequence) -> tuple[list[list[int]], list[int]] | None:
    """[A | b] eliminated on integers: its m rows, row i a multiple of row i of
    the reduced row echelon form, and the pivot columns; None if inconsistent."""
    rows = [[v if type(v) is int else rat(v) for v in row] for row in matrix]
    b = [v if type(v) is int else rat(v) for v in rhs]
    m = len(rows)
    if len(b) != m:
        raise ValueError(f"matrix has {m} rows but rhs has {len(b)} entries")
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged coefficient matrix")
    aug = []
    for row in (rows[i] + [b[i]] for i in range(m)):
        try:  # gcd takes only ints: a row holding a Fraction is cleared first
            aug.append(primitive(row))
        except TypeError:
            aug.append(primitive(numerators(row)[0]))
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        for pivot in range(r, m):
            if aug[pivot][col]:
                break
        else:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow, pv = aug[r], aug[r][col]
        for i in range(m):
            if i != r and aug[i][col]:
                # (pv * row_i - row_i[col] * row_r) / g, zero at col, then its content out
                g = gcd(pv, aug[i][col])
                a, f = pv // g, aug[i][col] // g
                aug[i] = primitive([a * x - f * p for x, p in zip(aug[i], prow)])
        pivot_cols.append(col)
        r += 1
    return None if any(aug[i][n] for i in range(r, m)) else (aug, pivot_cols)


def _particular(aug: list[list[int]], pivot_cols: list[int]) -> tuple[Fraction, ...]:
    """The solution with every free variable 0, read from ``_echelon``'s rows."""
    particular = [ZERO] * (len(aug[0]) - 1 if aug else 0)
    for row, col in zip(aug, pivot_cols):
        particular[col] = Fraction(row[-1], row[col])
    return tuple(particular)


def _kernel_numerators(aug: list[list[int]], pivot_cols: list[int]) -> tuple[list[list[int]], int]:
    """The kernel basis read from ``_echelon``'s rows, one vector per free column
    f (e_f less the pivot columns' multiples), as integers over the pivots' lcm."""
    n, basis = len(aug[0]) - 1 if aug else 0, []
    den = lcm(*(row[col] for row, col in zip(aug, pivot_cols)))
    for free in (c for c in range(n) if c not in pivot_cols):
        nums = [den * (c == free) for c in range(n)]
        for row, col in zip(aug, pivot_cols):
            nums[col] = -row[free] * (den // row[col])
        basis.append(nums)
    return basis, den


def inconsistency_certificate(matrix: Sequence[Sequence],
                              rhs: Sequence) -> tuple[Fraction, ...] | None:
    """A row y with y A = 0 and y . b = 1 if A x = b is inconsistent, None
    if it is consistent: the particular solution of [A^T; b^T] y = [0; 1]."""
    transposed = [list(col) for col in zip(*matrix, strict=True)] + [list(rhs)]
    echelon = _echelon(transposed, [0] * (len(transposed) - 1) + [1])
    return None if echelon is None else _particular(*echelon)
