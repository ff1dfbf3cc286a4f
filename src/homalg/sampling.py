"""Seeded random structure generation for the tests and the benchmark.

Constants are drawn uniformly from {-3, ..., 3} over denominators from
{1, 2, 3}; small exact rationals keep the identity checks fast and
overflow-free.  Callers own the ``random.Random`` instance so every suite
is reproducible from its seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .tensors import ComulTensor, LinearMap, MulTensor, Vector


def random_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_vector(dim: int, rng: random.Random) -> Vector:
    return Vector(random_scalar(rng) for _ in range(dim))


def random_linear_map(dim: int, rng: random.Random) -> LinearMap:
    return LinearMap(
        [random_scalar(rng) for _ in range(dim)] for _ in range(dim)
    )


def _random_cube(dim: int, rng: random.Random) -> list:
    return [[[random_scalar(rng) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]


def random_mul_tensor(dim: int, rng: random.Random) -> MulTensor:
    return MulTensor(_random_cube(dim, rng))


def random_comul_tensor(dim: int, rng: random.Random) -> ComulTensor:
    return ComulTensor(_random_cube(dim, rng))
