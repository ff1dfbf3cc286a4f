"""Shared builders for the test suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import settings

from homalg import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    LinearMap,
    MulTensor,
    ComulTensor,
    Vector,
    registry,
)
from homalg.structio import parts

# Property tests draw the same examples on every run: no example database,
# no deadline (the machine's speed varies), derandomized generation.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def reg():
    return registry()


def registry_parts() -> list:
    """The parts of every registry entry at a1 = 3, a2 = -1, b1 = 2, b3 = 5
    (b2 is pinned to 0 by coassociativity)."""
    values = {"a1": 3, "a2": -1, "b1": 2, "b2": 0, "b3": 5}
    return [parts(e.build({p: values[p] for p in e.required + tuple(dict(e.defaults))}))
            for e in registry().values()]


def mu1_algebra(a1=1, a2=1) -> HomAlgebra:
    return registry()["algebra-mu1"].build({"a1": a1, "a2": a2})


def mu2_algebra(a1=1, a2=1) -> HomAlgebra:
    return registry()["algebra-mu2"].build({"a1": a1, "a2": a2})


def bialgebra_row(row: int, b1=1, b2=0, b3=1, a1=1, a2=1) -> HomBialgebra:
    return registry()[f"bialgebra-{row}"].build(
        {"b1": b1, "b2": b2, "b3": b3, "a1": a1, "a2": a2}
    )


def truncated_primitive_bialgebra() -> HomBialgebra:
    """dim-3 structure with unit e1, primitive e2, and e3 = e2.e2.

    Multiplication is the degree-2 truncation of the polynomial algebra on
    e2 (e2.e3 = e3.e3 = 0); the comultiplication extends Delta(e2) =
    e1(x)e2 + e2(x)e1 multiplicatively to e3, giving the divided-power
    pattern Delta(e3) = e1(x)e3 + 2 e2(x)e2 + e3(x)e1.  It is associative,
    coassociative (alpha = beta = id), unital, counital, and weakly
    compatible on every pair drawn from {e1, e2}; full weak compatibility on
    pairs involving e3 is impossible over the rationals for any structure
    with a nonzero primitive, so this is as much bialgebra as exists.
    """
    mul = MulTensor.from_entries(3, {
        (0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1,
        (1, 0, 1): 1, (2, 0, 2): 1,
        (1, 1, 2): 1,
    })
    comul = ComulTensor.from_entries(3, {
        (0, 0, 0): 1,
        (1, 0, 1): 1, (1, 1, 0): 1,
        (2, 0, 2): 1, (2, 1, 1): 2, (2, 2, 0): 1,
    })
    return HomBialgebra(
        algebra=HomAlgebra(mul=mul, alpha=LinearMap.identity(3),
                           unit=Vector.basis(3, 0)),
        coalgebra=HomCoalgebra(comul=comul, beta=LinearMap.identity(3),
                               counit=Vector([1, 0, 0])),
    )


def cyclic_group_bialgebra() -> HomBialgebra:
    """Twisted group algebra of Z/3 on e_k = g^k: alpha = beta = the
    automorphism g -> g^2, mu = alpha o (group product) and Delta = (grouplike
    Delta) o alpha, so it is Hom-associative and Hom-coassociative with a
    nontrivial twist on both sides."""
    swap = (0, 2, 1)
    twist = LinearMap.from_entries(3, {(swap[k], k): 1 for k in range(3)})
    mul = MulTensor.from_entries(3, {(i, j, swap[(i + j) % 3]): 1
                                     for i in range(3) for j in range(3)})
    comul = ComulTensor.from_entries(3, {(k, swap[k], swap[k]): 1 for k in range(3)})
    return HomBialgebra(
        algebra=HomAlgebra(mul=mul, alpha=twist, unit=Vector.basis(3, 0)),
        coalgebra=HomCoalgebra(comul=comul, beta=twist, counit=Vector([1, 1, 1])),
    )


def grouplike_coalgebra(dim: int) -> HomCoalgebra:
    """Delta(e_k) = e_k (x) e_k with counit identically 1 and beta = id."""
    comul = ComulTensor.from_entries(dim, {(k, k, k): 1 for k in range(dim)})
    return HomCoalgebra(comul=comul, beta=LinearMap.identity(dim),
                        counit=Vector([Fraction(1)] * dim))
