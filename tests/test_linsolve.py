import random
from fractions import Fraction

import pytest

from homalg import linear_solve
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


def test_dimension_validation():
    with pytest.raises(ValueError, match="^matrix has 1 rows but rhs has 2 entries$"):
        linear_solve([[1, 2]], [1, 2])
    with pytest.raises(ValueError, match="^ragged coefficient matrix$"):
        linear_solve([[1, 2], [3]], [1, 2])
