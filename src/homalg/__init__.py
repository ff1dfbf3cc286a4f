"""Exact-arithmetic library for finite-dimensional Hom-algebraic structures.

Construct, verify, and transform Hom-associative algebras, Hom-coassociative
coalgebras, G-Hom structures, Hom-bialgebras, and Hom-Hopf algebras over the
rationals, with every check exact.
"""

__version__ = "0.1.0"

from .algebra import (
    HomAlgebra,
    alpha_associator,
    check_algebra_morphism,
    check_G_hom_associative,
    check_hom_associative,
    check_hom_jacobi,
    check_hom_leibniz,
    check_module,
    check_skew,
    check_twist_multiplicative,
    check_unital,
    commutator_bracket,
    multiply,
    tensor_product,
)
from .bialgebra import (
    AntipodeResult,
    HomBialgebra,
    HomHopf,
    antipode_certificate,
    antipode_defect,
    bullet,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_convolution_hom_associative,
    convolution,
    convolution_twist,
    convolution_unit,
    generalized_primitive_subspace,
    primitive_subspace,
    solve_antipode,
)
from .coalgebra import (
    AdmissibilityReport,
    HomCoalgebra,
    admissibility_defects,
    beta_coassociator,
    check_coalgebra_morphism,
    check_comodule,
    check_counital,
    check_G_hom_coalgebra,
    check_hom_coassociative,
    check_hom_lie_admissible,
    coassociator_expansion_check,
    comultiply,
    delta_L,
    delta_op,
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
    generic_coalgebra,
    lemma_identities_check,
)
from .linsolve import LinearSolution, inconsistency_certificate, linear_solve
from .polysolve import (
    GroebnerResult,
    Poly,
    SystemVerdict,
    buchberger,
    enumerate_rational_points,
    rational_roots,
    search_bialgebra_extension,
    verify_certificate,
)
from .rational import rat, rat_str
from .reports import DefectReport, Witness
from .structio import (
    ParseError,
    RegistryEntry,
    dual,
    parse_structure,
    parse_structure_file,
    registry,
    serialize_structure,
)
from .tensors import (
    ComulTensor,
    LinearMap,
    MulTensor,
    Perm3,
    PERMS,
    S3,
    SUBGROUPS,
    Tensor2,
    Tensor3,
    Vector,
    phi_apply,
    subgroup,
)
