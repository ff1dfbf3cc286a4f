"""Exact Gaussian elimination over the rationals.

``linear_solve`` returns the full affine solution set of A x = b: one
particular solution plus a kernel basis, or a distinguished inconsistent
result (never an exception for unsolvable systems).

The elimination runs on integers, fraction-free (Bareiss, Math. Comp.
1968).  Each augmented row is scaled by the lcm of its denominators, a row
update multiplies by the pivot instead of dividing by it, and every updated
row is divided by the gcd of its entries, where Bareiss divides by the
previous pivot.  The pivot choice is that of
Gauss-Jordan over the rationals, and row i of the final integer matrix is
a nonzero multiple of row i of the reduced row echelon form.  That form is
unique, so the pivot columns, the particular solution (free variables 0)
and the kernel basis (one vector per free column) are those of rational
elimination; ``Fraction``s are built only when they are read out.

By the Fredholm alternative, A x = b is inconsistent exactly when some y has
y A = 0 and y . b = 1; ``inconsistency_certificate`` solves [A^T; b^T] y = [0; 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .rational import ONE, ZERO, numerators, primitive, rat


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


def linear_solve(
    matrix: Sequence[Sequence], rhs: Sequence
) -> LinearSolution:
    """Solve A x = b exactly; A is m x n, b has length m.  Entries are ints,
    Fractions or "p/q" strings (through ``rat``)."""
    rows = [[v if type(v) is int else rat(v) for v in row] for row in matrix]
    b = [v if type(v) is int else rat(v) for v in rhs]
    m = len(rows)
    if len(b) != m:
        raise ValueError(f"matrix has {m} rows but rhs has {len(b)} entries")
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows):
        raise ValueError("ragged coefficient matrix")

    aug = [primitive(numerators(rows[i] + [b[i]])[0]) for i in range(m)]
    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        prow = aug[r]
        pv = prow[col]
        for i in range(m):
            if i != r and aug[i][col]:
                # (pv * row_i - row_i[col] * row_r) / g, zero at col, then its content out
                g = gcd(pv, aug[i][col])
                a, f = pv // g, aug[i][col] // g
                aug[i] = primitive([a * x - f * p for x, p in zip(aug[i], prow)])
        pivot_cols.append(col)
        r += 1
        if r == m:
            break

    for i in range(r, m):
        if aug[i][n]:
            return LinearSolution(particular=None, kernel=())

    particular = [ZERO] * n
    for row_idx, col in enumerate(pivot_cols):
        particular[col] = Fraction(aug[row_idx][n], aug[row_idx][col])

    pivots = set(pivot_cols)
    kernel = []
    for free in (c for c in range(n) if c not in pivots):
        vec = [ZERO] * n
        vec[free] = ONE
        for row_idx, col in enumerate(pivot_cols):
            vec[col] = Fraction(-aug[row_idx][free], aug[row_idx][col])
        kernel.append(tuple(vec))

    return LinearSolution(particular=tuple(particular), kernel=tuple(kernel))


def inconsistency_certificate(matrix: Sequence[Sequence],
                              rhs: Sequence) -> tuple[Fraction, ...] | None:
    """A row y with y A = 0 and y . b = 1 if A x = b is inconsistent, None
    if it is consistent: the particular solution of [A^T; b^T] y = [0; 1]."""
    transposed = [list(col) for col in zip(*matrix, strict=True)] + [list(rhs)]
    return linear_solve(transposed, [0] * (len(transposed) - 1) + [1]).particular
