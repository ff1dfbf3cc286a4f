"""Transpose duality between Hom-coalgebras and finite-dimensional Hom-algebras.

On the dual basis the correspondence is a pure reindexing of structure
constants: an algebra's C_{ij}^k become the dual coalgebra's D_k^{ij} and
vice versa, while the twisting map transposes.  A unit vector and a counit
covector trade places.  The two transposes live in ``coalgebra.py``, which
decides every coalgebra condition on the dual algebra; :func:`dual` applies
them to all four structure kinds: a bialgebra swaps its two sides and a hopf
antipode transposes.  :func:`duality_defect_correspondence` checks the
boolean agreement of the G-defects, which holds by that construction; the
tests compare the coassociator with its direct expansion.
"""

from __future__ import annotations

from .algebra import check_G_hom_associative
from .bialgebra import HomBialgebra, HomHopf
from .coalgebra import (
    HomCoalgebra,
    check_G_hom_coalgebra,
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
)
from .structio import Structure, parts


def dual(structure: Structure) -> Structure:
    """The dual of any of the four kinds: each side goes to its dual on the
    other side, and an antipode transposes (the hopf constructor re-verifies
    its equations on the dual)."""
    p = parts(structure)
    if p.kind == "algebra":
        return dual_coalgebra_of_algebra(p.algebra)
    if p.kind == "coalgebra":
        return dual_algebra_of_coalgebra(p.coalgebra)
    bialgebra = HomBialgebra(algebra=dual_algebra_of_coalgebra(p.coalgebra),
                             coalgebra=dual_coalgebra_of_algebra(p.algebra))
    if p.antipode is None:
        return bialgebra
    return HomHopf(bialgebra=bialgebra, antipode=p.antipode.transpose())


def dual_hopf(hopf: HomHopf) -> HomHopf:
    """Dualize both sides and transpose the antipode; construction re-verifies
    the antipode equations on the dual."""
    return dual(hopf)


def duality_defect_correspondence(coalgebra: HomCoalgebra, group: str) -> bool:
    """Whether the G-defect booleans of a coalgebra and its dual algebra agree.

    This is always True, by construction: the coalgebra's G-defect is that of
    the dual algebra, reindexed.
    """
    coalg_ok = check_G_hom_coalgebra(coalgebra, group).ok
    alg_ok = check_G_hom_associative(dual_algebra_of_coalgebra(coalgebra), group).ok
    return coalg_ok == alg_ok
