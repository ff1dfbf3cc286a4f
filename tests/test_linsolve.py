import random
from fractions import Fraction

import pytest

from homalg import Vector, linear_solve
from homalg.bialgebra import _kernel
from homalg.linsolve import LinearSolution, inconsistency_certificate
from homalg.rational import numerators, rat
from homalg.sampling import random_scalar


def substitute_back(matrix, rhs, solution):
    """Oracle: every returned vector must satisfy its defining equations."""
    m, n = len(matrix), len(matrix[0])
    assert solution.particular is not None
    for i in range(m):
        total = sum((matrix[i][j] * solution.particular[j] for j in range(n)),
                    Fraction(0))
        assert total == rhs[i]
    for vec in solution.kernel:
        for i in range(m):
            total = sum((matrix[i][j] * vec[j] for j in range(n)), Fraction(0))
            assert total == 0


def test_identity_system():
    sol = linear_solve([[1, 0], [0, 1]], [1, 0])
    assert sol.particular == (Fraction(1), Fraction(0))
    assert sol.kernel == ()
    assert sol.unique


def test_zero_matrix_full_kernel():
    sol = linear_solve([[0, 0]], [0])
    assert sol.particular == (Fraction(0), Fraction(0))
    assert sol.kernel_dim == 2


def test_underdetermined_substitute_back():
    matrix, rhs = [[1, 1]], [1]
    sol = linear_solve(matrix, rhs)
    assert sol.consistent and sol.kernel_dim == 1
    substitute_back(matrix, rhs, sol)


def test_inconsistent_is_distinguished():
    sol = linear_solve([[1], [1]], [0, 1])
    assert not sol.consistent
    assert sol.particular is None and sol.kernel == ()


def test_random_systems_substitute_back():
    rng = random.Random(97)
    consistent_seen = inconsistent_seen = 0
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        matrix = [[random_scalar(rng) for _ in range(n)] for _ in range(m)]
        rhs = [random_scalar(rng) for _ in range(m)]
        sol = linear_solve(matrix, rhs)
        if sol.consistent:
            consistent_seen += 1
            substitute_back(matrix, rhs, sol)
        else:
            inconsistent_seen += 1
    assert consistent_seen and inconsistent_seen


def test_an_inconsistent_system_has_a_fredholm_certificate():
    """y A = 0 and y . b = 1 exactly when A x = b has no solution, on
    systems with zero, repeated and scaled rows and entries of every form."""
    rng = random.Random(35)
    seen = set()
    for _ in range(200):
        matrix, rhs = random_system(rng)
        y = inconsistency_certificate(matrix, rhs)
        seen.add(y is None)
        assert (y is None) == linear_solve(matrix, rhs).consistent
        if y is not None:
            columns = zip(*([rat(v) for v in row] for row in matrix))
            assert all(sum(w * v for w, v in zip(y, col)) == 0 for col in columns)
            assert sum(w * rat(v) for w, v in zip(y, rhs)) == 1
    assert seen == {True, False}
    assert inconsistency_certificate([[0, 0], [1, 1]], [2, 0]) == (Fraction(1, 2), 0)


def test_dimension_validation():
    with pytest.raises(ValueError, match="^matrix has 1 rows but rhs has 2 entries$"):
        linear_solve([[1, 2]], [1, 2])
    with pytest.raises(ValueError, match="^ragged coefficient matrix$"):
        linear_solve([[1, 2], [3]], [1, 2])


# --- differential tests against rational Gauss-Jordan -------------------------

def reference_solve(matrix, rhs):
    """Gauss-Jordan on Fractions, each pivot row divided by its pivot: the
    rational elimination that ``linear_solve`` reproduces on integers."""
    rows = [[rat(v) for v in row] for row in matrix]
    b = [rat(v) for v in rhs]
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [rows[i] + [b[i]] for i in range(m)]
    pivot_cols = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pv = aug[r][col]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * p for a, p in zip(aug[i], aug[r])]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    if any(aug[i][n] != 0 for i in range(r, m)):
        return LinearSolution(particular=None, kernel=())
    particular = [Fraction(0)] * n
    for row_idx, col in enumerate(pivot_cols):
        particular[col] = aug[row_idx][n]
    kernel = []
    for free in (c for c in range(n) if c not in pivot_cols):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row_idx, col in enumerate(pivot_cols):
            vec[col] = -aug[row_idx][free]
        kernel.append(tuple(vec))
    return LinearSolution(particular=tuple(particular), kernel=tuple(kernel))


def random_entry(rng, kind):
    """A rational as an int, a Fraction or a "p/q" string; "big" numerators
    are around 10**30."""
    if kind == "zero":
        return 0
    if kind == "big":
        num = rng.choice((-1, 1)) * rng.randint(10 ** 29, 10 ** 31)
        return Fraction(num, rng.randint(1, 10 ** 6)) if rng.random() < 0.5 else num
    value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    form = rng.choice(("int", "fraction", "string"))
    if form == "int":
        return value.numerator
    return value if form == "fraction" else f"{value.numerator}/{value.denominator}"


def random_system(rng):
    """An m x n system, 0 <= m, n <= 6 (n = 0 when m = 0), with some zero
    rows, duplicate or scaled rows, and a right-hand side that is either
    drawn at random or A times a random point."""
    m = rng.randint(0, 6)
    n = rng.randint(0, 6) if m else 0
    kind = rng.choice(("small", "small", "big", "sparse"))
    matrix = []
    for _ in range(m):
        draw = rng.random()
        if draw < 0.1:
            row = [0] * n
        elif draw < 0.25 and matrix:
            base = rng.choice(matrix)
            factor = rng.choice((1, -2, Fraction(1, 3)))
            row = [rat(v) * factor for v in base]
        else:
            row = [random_entry(rng, "zero" if kind == "sparse" and rng.random() < 0.6
                                else kind) for _ in range(n)]
        matrix.append(row)
    if rng.random() < 0.5:
        point = [rat(random_entry(rng, "small")) for _ in range(n)]
        rhs = [sum((rat(a) * x for a, x in zip(row, point)), Fraction(0)) for row in matrix]
    else:
        rhs = [random_entry(rng, kind) for _ in range(m)]
    return matrix, rhs


def assert_same_as_reference(matrix, rhs):
    sol = linear_solve(matrix, rhs)
    assert sol == reference_solve(matrix, rhs)
    for vec in ((sol.particular or ()),) + sol.kernel:
        assert all(type(v) is Fraction for v in vec)
    return sol


def test_integer_elimination_matches_rational_gauss_jordan():
    rng = random.Random(2026)
    shapes, outcomes = set(), set()
    for _ in range(600):
        matrix, rhs = random_system(rng)
        sol = assert_same_as_reference(matrix, rhs)
        shapes.add((len(matrix), len(matrix[0]) if matrix else 0))
        outcomes.add((sol.consistent, sol.kernel_dim > 0))
    assert {(m, n) for m in range(1, 7) for n in range(7)} | {(0, 0)} == shapes
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_readers_of_the_integer_elimination_match_the_reference():
    """inconsistency_certificate equals the particular solution of
    [A^T; b^T] y = [0; 1] by rational Gauss-Jordan, and ``_kernel`` on the
    system's rows cleared to integers equals its kernel, vector for vector."""
    rng = random.Random(38)
    certified = kernels = 0
    for _ in range(250):
        matrix, rhs = random_system(rng)
        transposed = [list(col) for col in zip(*matrix)] + [list(rhs)]
        want = reference_solve(transposed, [0] * (len(transposed) - 1) + [1]).particular
        got = inconsistency_certificate(matrix, rhs)
        assert got == want
        assert got is None or all(type(v) is Fraction for v in got)
        certified += got is not None
        rows = [numerators([rat(v) for v in row])[0] for row in matrix]
        kernel = _kernel(rows)
        assert kernel == tuple(Vector(v) for v in reference_solve(rows, [0] * len(rows)).kernel)
        kernels += len(kernel)
    assert certified and kernels


def test_hand_picked_systems_match_the_reference():
    big = 10 ** 30 + 7
    systems = [
        ([], []),
        ([[]], [0]),
        ([[], []], [0, 1]),                                # 0 = 1 with no unknowns
        ([[0, 0, 0]], [0]),
        ([[1, 2, 3], [1, 2, 3]], [1, 1]),                  # duplicate rows
        ([[1, 2, 3], [2, 4, 6]], [1, 3]),                  # inconsistent multiple
        ([[big, 1], [1, big]], [big, Fraction(1, big)]),
        ([["1/3", "2/3"], ["-1/2", 5]], ["7/6", 0]),
        ([[Fraction(1, 3), 0], [0, 0], [0, Fraction(2, 5)]], [1, 0, 1]),
        ([[0, 1, 0, 2], [0, 0, 0, 0], [0, 2, 0, 4]], [3, 0, 6]),
    ]
    for matrix, rhs in systems:
        assert_same_as_reference(matrix, rhs)


def test_entries_must_be_rational():
    with pytest.raises(ValueError, match=r"^not a rational number: 'x'$"):
        linear_solve([["x"]], [1])
    with pytest.raises(ValueError, match=r"^not a rational number: 1\.5$"):
        linear_solve([[1]], [1.5])
    with pytest.raises(ValueError, match=r"^not a rational number: None$"):
        linear_solve([[None, 1]], [1])
