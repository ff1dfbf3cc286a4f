"""Transpose duality between Hom-coalgebras and finite-dimensional Hom-algebras.

On the dual basis the correspondence is a pure reindexing of structure
constants: an algebra's C_{ij}^k become the dual coalgebra's D_k^{ij} and
vice versa, while the twisting map transposes.  A unit vector and a counit
covector trade places.  :func:`dual` does this for all four structure kinds:
a bialgebra swaps its two sides and a hopf antipode transposes.  The dual
algebra's associator is the coalgebra's beta-coassociator (the same two
contraction networks), so their G1-G6 defects are equal tensors at every dim:
equal on the generic coalgebra of dim 3, which decides every dim.
:func:`duality_defect_correspondence` checks the boolean agreement as well.
"""

from __future__ import annotations

from .algebra import HomAlgebra, check_G_hom_associative
from .bialgebra import HomBialgebra, HomHopf
from .coalgebra import HomCoalgebra, check_G_hom_coalgebra
from .structio import Structure, parts
from .tensors import ComulTensor, MulTensor


def dual_algebra_of_coalgebra(coalgebra: HomCoalgebra) -> HomAlgebra:
    """C_{ij}^k := D_k^{ij}, alpha := beta transposed, unit := counit weights."""
    return HomAlgebra(
        mul=MulTensor.contracted("kij->ijk", coalgebra.comul),
        alpha=coalgebra.beta.transpose(),
        unit=coalgebra.counit,
    )


def dual_coalgebra_of_algebra(algebra: HomAlgebra) -> HomCoalgebra:
    """D_k^{ij} := C_{ij}^k, beta := alpha transposed, counit := unit coords."""
    return HomCoalgebra(
        comul=ComulTensor.contracted("ijk->kij", algebra.mul),
        beta=algebra.alpha.transpose(),
        counit=algebra.unit,
    )


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

    This is always True; it is exposed as a checked correspondence (rather
    than assumed) so the test suites exercise it on random structures.
    """
    coalg_ok = check_G_hom_coalgebra(coalgebra, group).ok
    alg_ok = check_G_hom_associative(dual_algebra_of_coalgebra(coalgebra), group).ok
    return coalg_ok == alg_ok
