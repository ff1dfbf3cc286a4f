"""Independent arithmetic for checking homalg's answers.

Nothing here calls into homalg: every identity is evaluated straight from
its definition on plain nested lists (structure constants in homalg's index
conventions, read off the inputs), one loop nest per formula.  The
benchmark compares the program's verdicts and witness lists against these
values outside the timed region.

Conventions (the same as the structure files):

* ``C[i][j][k]``: coefficient of e_k in e_i . e_j
* ``D[k][i][j]``: coefficient of e_i (x) e_j in Delta(e_k)
* matrices act columns-as-images: ``A[i][j]`` is the e_i coordinate of A(e_j)
* ``u`` the unit vector, ``eps`` the counit weights eps(e_k)
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

ZERO = Fraction(0)
ONE = Fraction(1)

# S3 as image tuples (sigma(1), sigma(2), sigma(3)) with their signs, and the
# six subgroups G1..G6 of the paper: {id}, <(12)>, <(23)>, <(13)>, A3, S3.
_ID, _T12, _T23, _T13 = (1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1)
_C1, _C2 = (3, 1, 2), (2, 3, 1)
SIGN = {_ID: 1, _T12: -1, _T23: -1, _T13: -1, _C1: 1, _C2: 1}
SUBGROUPS = {
    "G1": (_ID,),
    "G2": (_ID, _T12),
    "G3": (_ID, _T23),
    "G4": (_ID, _T13),
    "G5": (_ID, _C1, _C2),
    "G6": (_ID, _T12, _T23, _T13, _C1, _C2),
}


def _inverse(sigma):
    inv = [0, 0, 0]
    for i, s in enumerate(sigma):
        inv[s - 1] = i + 1
    return tuple(inv)


def phi_index(sigma, idx):
    """Index triple of Phi_sigma(e_a (x) e_b (x) e_c) for idx = (a, b, c).

    Phi_sigma(x1 (x) x2 (x) x3) = x_{sigma^-1(1)} (x) x_{sigma^-1(2)} (x) x_{sigma^-1(3)}.
    """
    inv = _inverse(sigma)
    return tuple(idx[inv[m] - 1] for m in range(3))


# ---------------------------------------------------------------------------
# the two defining defects
#
# The dim-3 checks evaluate tens of thousands of products per structure, so
# they run on integers: every input is scaled by the least common
# denominator L of all its entries, a sum of degree-d products then carries
# the factor L^d, and only nonzero results become Fractions.


def _entries(x):
    if isinstance(x, list):
        for y in x:
            yield from _entries(y)
    else:
        yield x


def _scaled(x, L):
    if isinstance(x, list):
        return [_scaled(y, L) for y in x]
    return int(x * L)


def common_denominator(*arrays) -> int:
    L = 1
    for v in (v for a in arrays for v in _entries(a)):
        d = Fraction(v).denominator
        L = L * d // gcd(L, d)
    return L


def associator(C, alpha):
    """(A, d): A[p][q][s][k] / d is the e_k coordinate of
    mu(mu(e_p, e_q), alpha e_s) - mu(alpha e_p, mu(e_q, e_s))."""
    L = common_denominator(C, alpha)
    c, a = _scaled(C, L), _scaled(alpha, L)
    n = len(C)
    R = range(n)
    A = [[[[0] * n for _ in R] for _ in R] for _ in R]
    for p, q, s, k in product(R, repeat=4):
        left = sum(c[p][q][m] * a[t][s] * c[m][t][k] for m in R for t in R)
        right = sum(a[m][p] * c[q][s][t] * c[m][t][k] for m in R for t in R)
        A[p][q][s][k] = left - right
    return A, L ** 3


def coassociator(D, beta):
    """(K, d): K[k][i][j][l] / d is the coefficient of e_i (x) e_j (x) e_l in
    ((Delta (x) beta) o Delta - (beta (x) Delta) o Delta)(e_k)."""
    L = common_denominator(D, beta)
    dd, b = _scaled(D, L), _scaled(beta, L)
    n = len(D)
    R = range(n)
    K = [[[[0] * n for _ in R] for _ in R] for _ in R]
    for k, i, j, l in product(R, repeat=4):
        outer_beta = sum(dd[k][a][x] * dd[a][i][j] * b[l][x] for a in R for x in R)
        beta_outer = sum(dd[k][a][x] * b[i][a] * dd[x][j][l] for a in R for x in R)
        K[k][i][j][l] = outer_beta - beta_outer
    return K, L ** 3


def algebra_g_witnesses(A, group):
    """((p, q, s, k), value) for the nonzero entries of
    sum_{sigma in G} sign(sigma) * (a o Phi_sigma)(e_p, e_q, e_s), coordinate k."""
    table, den = A
    n = len(table)
    out = []
    for p, q, s in product(range(n), repeat=3):
        for k in range(n):
            total = 0
            for sigma in SUBGROUPS[group]:
                a, b, c = phi_index(sigma, (p, q, s))
                total += SIGN[sigma] * table[a][b][c][k]
            if total:
                out.append(((p, q, s, k), Fraction(total, den)))
    return out


def coalgebra_g_witnesses(K, group, scale=1):
    """((k, i, j, l), value) for the nonzero entries of
    scale * sum_{sigma in G} sign(sigma) (Phi_sigma o c_beta)(e_k)."""
    cube, den = K
    n = len(cube)
    out = []
    for k in range(n):
        acc = [[[0] * n for _ in range(n)] for _ in range(n)]
        for sigma in SUBGROUPS[group]:
            for idx in product(range(n), repeat=3):
                a, b, c = phi_index(sigma, idx)
                acc[a][b][c] += SIGN[sigma] * cube[k][idx[0]][idx[1]][idx[2]]
        for i, j, l in product(range(n), repeat=3):
            if acc[i][j][l]:
                out.append(((k, i, j, l), Fraction(scale * acc[i][j][l], den)))
    return out


def is_unital(C, u):
    n = len(C)
    R = range(n)
    for j in R:
        for k in R:
            want = ONE if j == k else ZERO
            if sum((u[i] * C[i][j][k] for i in R), ZERO) != want:
                return False
            if sum((u[i] * C[j][i][k] for i in R), ZERO) != want:
                return False
    return True


def is_counital(D, eps):
    n = len(D)
    R = range(n)
    for k, i in product(R, repeat=2):
        want = ONE if i == k else ZERO
        if sum((D[k][i][j] * eps[j] for j in R), ZERO) != want:
            return False
        if sum((D[k][j][i] * eps[j] for j in R), ZERO) != want:
            return False
    return True


# ---------------------------------------------------------------------------
# bialgebra compatibility


def weak_witnesses(C, u, D, eps):
    """Labelled nonzero defects of the weak compatibility conditions, in the
    order a user reads them: unit grouplike, counit on unit, then per basis
    pair (p, q) the comultiplication and counit multiplicativity."""
    L = common_denominator(C, u, D, eps)
    c, uu, dd, e = (_scaled(x, L) for x in (C, u, D, eps))
    n = len(C)
    R = range(n)
    out = []
    for i, j in product(R, repeat=2):
        v = sum(uu[k] * dd[k][i][j] for k in R) - uu[i] * uu[j]
        out.append(("unit-grouplike", (i, j), Fraction(v, L ** 2)))
    out.append(("counit-on-unit", (),
                Fraction(sum(uu[k] * e[k] for k in R), L ** 2) - ONE))
    for p, q in product(R, repeat=2):
        # Delta(e_p) * Delta(e_q) = sum D[p][a][b] D[q][x][y] (e_a e_x) (x) (e_b e_y),
        # summed over (a, x) first
        Y = [[[sum(dd[p][a][b] * dd[q][x][y] * c[a][x][i] for a in R for x in R)
               for y in R] for b in R] for i in R]
        for i, j in product(R, repeat=2):
            lhs = sum(c[p][q][m] * dd[m][i][j] for m in R)                  # degree 2
            rhs = sum(Y[i][b][y] * c[b][y][j] for b in R for y in R)         # degree 4
            out.append(("comul-mult", (p, q, i, j), Fraction(lhs * L ** 2 - rhs, L ** 4)))
        v = sum(c[p][q][m] * e[m] for m in R) - e[p] * e[q]
        out.append(("counit-mult", (p, q), Fraction(v, L ** 2)))
    return [w for w in out if w[2] != 0]


def strict_extra_witnesses(alpha, D, eps):
    """The two alpha compatibilities added by the strict reading."""
    L = common_denominator(alpha, D, eps)
    a, dd, e = (_scaled(x, L) for x in (alpha, D, eps))
    n = len(D)
    R = range(n)
    out = []
    for k in R:
        for i, j in product(R, repeat=2):
            lhs = sum(a[t][k] * dd[t][i][j] for t in R)                      # degree 2
            rhs = sum(a[i][x] * dd[k][x][y] * a[j][y] for x in R for y in R)  # degree 3
            out.append(("comul-alpha", (k, i, j), Fraction(lhs * L - rhs, L ** 3)))
        v = sum(a[i][k] * e[i] for i in R) - e[k] * L
        out.append(("counit-alpha", (k,), Fraction(v, L ** 2)))
    return [w for w in out if w[2] != 0]


# ---------------------------------------------------------------------------
# linear algebra for the solver checks


def rank(rows):
    """Rank of a rational matrix by plain Gaussian elimination."""
    m = [list(map(Fraction, r)) for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def antipode_system(C, u, D, eps):
    """Rows and right-hand side of mu o (S (x) id) o Delta = eta o eps =
    mu o (id (x) S) o Delta, unknowns S[p][i] flattened as p * n + i."""
    n = len(C)
    R = range(n)
    rows, rhs = [], []
    for side in ("left", "right"):
        for k, m in product(R, repeat=2):
            row = [ZERO] * (n * n)
            for i, j, p in product(R, repeat=3):
                if side == "left":   # S(e_i) . e_j, S(e_i) = sum_p S[p][i] e_p
                    row[p * n + i] += D[k][i][j] * C[p][j][m]
                else:                # e_i . S(e_j)
                    row[p * n + j] += D[k][i][j] * C[i][p][m]
            rows.append(row)
            rhs.append(eps[k] * u[m])
    return rows, rhs


def antipode_residual(C, u, D, eps, S):
    rows, rhs = antipode_system(C, u, D, eps)
    n = len(C)
    x = [S[p][i] for p in range(n) for i in range(n)]
    return [sum((a * b for a, b in zip(row, x)), ZERO) - r for row, r in zip(rows, rhs)]


def primitive_rows(D, u):
    """Delta(x) - u (x) x - x (x) u = 0, one row per (i, j)."""
    n = len(D)
    return [[D[c][i][j] - (u[i] if c == j else 0) - (u[j] if c == i else 0)
             for c in range(n)] for i, j in product(range(n), repeat=2)]


def gprimitive_rows(D, beta):
    """(beta (x) Delta) Delta(x) = Phi_(13) (Delta (x) beta) Delta(x) and
    Delta^op(x) = Delta(x), one row per tensor coordinate."""
    n = len(D)
    R = range(n)
    rows = []
    for i, j, l in product(R, repeat=3):
        row = []
        for c in R:
            beta_outer = sum((D[c][a][b] * beta[i][a] * D[b][j][l] for a in R for b in R), ZERO)
            # Phi_(13) swaps the outer legs: coordinate (i, j, l) reads (l, j, i)
            outer_beta = sum((D[c][a][b] * D[a][l][j] * beta[i][b] for a in R for b in R), ZERO)
            row.append(beta_outer - outer_beta)
        rows.append(row)
    for i, j in product(R, repeat=2):
        rows.append([D[c][i][j] - D[c][j][i] for c in R])
    return rows


def in_kernel(rows, x):
    return all(sum((a * b for a, b in zip(row, x)), ZERO) == 0 for row in rows)


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}


def poly_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, ZERO) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def poly_add(f, g):
    out = dict(f)
    for m, c in g.items():
        out[m] = out.get(m, ZERO) + c
    return {m: c for m, c in out.items() if c != 0}


def combination_is_one(generators, cofactors, nvars):
    """sum cofactor_i * generator_i multiplied out equals the constant 1."""
    acc = {}
    for g, c in zip(generators, cofactors):
        acc = poly_add(acc, poly_mul(g, c))
    return acc == {(0,) * nvars: ONE}


# ---------------------------------------------------------------------------
# basis change, for building dense yes-instances


def matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def inverse(P):
    """Inverse of an invertible rational matrix by Gauss-Jordan elimination."""
    n = len(P)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(P)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [v / pv for v in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [row[n:] for row in m]


def change_basis(C, alpha, u, D, beta, eps, P, Q):
    """All constants in the basis f_j = sum_i P[i][j] e_i, with Q = P^-1,
    contracting one index at a time (on ints when every input is integral)."""
    R = range(len(C))
    T = [[[sum(P[j][b] * C[i][j][k] for j in R) for k in R] for b in R] for i in R]
    T = [[[sum(P[i][a] * T[i][b][k] for i in R) for k in R] for b in R] for a in R]
    C2 = [[[sum(Q[c][k] * T[a][b][k] for k in R) for c in R] for b in R] for a in R]
    S = [[[sum(P[k][c] * D[k][i][j] for k in R) for j in R] for i in R] for c in R]
    S = [[[sum(Q[a][i] * S[c][i][j] for i in R) for j in R] for a in R] for c in R]
    D2 = [[[sum(Q[b][j] * S[c][a][j] for j in R) for b in R] for a in R] for c in R]
    u2 = [sum(Q[c][k] * u[k] for k in R) for c in R]
    eps2 = [sum(P[k][c] * eps[k] for k in R) for c in R]
    return (C2, matmul(Q, matmul(alpha, P)), u2, D2, matmul(Q, matmul(beta, P)), eps2)
