"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (zero tolerance).  Run with `pytest -s` to see the
per-criterion lines.
"""

import random
from fractions import Fraction
from itertools import product

from homalg import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    LinearMap,
    Vector,
    admissibility_defects,
    check_bialgebra_weak,
    check_convolution_hom_associative,
    check_counital,
    check_G_hom_associative,
    check_G_hom_coalgebra,
    check_hom_associative,
    check_hom_coassociative,
    check_hom_jacobi,
    check_hom_leibniz,
    check_hom_lie_admissible,
    check_skew,
    check_unital,
    coassociator_expansion_check,
    commutator_bracket,
    convolution,
    convolution_twist,
    dual_algebra_of_coalgebra,
    dual_coalgebra_of_algebra,
    lemma_identities_check,
    parse_structure_file,
    primitive_subspace,
    generalized_primitive_subspace,
    registry,
    search_bialgebra_extension,
    serialize_structure,
    solve_antipode,
    verify_certificate,
)
from homalg.cli import cli_main
from homalg.sampling import random_comul_tensor, random_linear_map, random_scalar

from conftest import bialgebra_row, mu1_algebra, mu2_algebra, reference_G_defect, \
    truncated_primitive_bialgebra


def _report(number: int, description: str, ok: bool) -> None:
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number}: {description}"


def _random_coalgebras(dim: int, count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield HomCoalgebra(
            comul=random_comul_tensor(dim, rng),
            beta=random_linear_map(dim, rng),
        )


SUITE_SEEDS = {2: 1201, 3: 1301}
SUITE_COUNT = 200


def test_criterion_01_universal_identity_suite():
    ok = True
    for dim in (2, 3):
        for c in _random_coalgebras(dim, SUITE_COUNT, SUITE_SEEDS[dim]):
            if lemma_identities_check(c) != (True,) * 5:
                ok = False
                break
            if coassociator_expansion_check(c) != (True, True):
                ok = False
                break
            cyclic, alternating = admissibility_defects(c)
            if any((cyc - Fraction(2) * alt).is_zero() is False
                   for cyc, alt in zip(cyclic, alternating)):
                ok = False
                break
        if not ok:
            break
    _report(1, "universal identities (five lemma relations, two expansions, "
               "cyclic = 2 x alternating) on 200 seeded instances at dims 2 and 3",
            ok)


def test_criterion_02_corollary_equivalence():
    ok = True
    for dim in (2, 3):
        for c in _random_coalgebras(dim, SUITE_COUNT, SUITE_SEEDS[dim]):
            report = check_hom_lie_admissible(c)
            if not report.methods_agree:
                ok = False
                break
            cyclic, alternating = admissibility_defects(c)
            if any(not (cyc - Fraction(2) * alt).is_zero()
                   for cyc, alt in zip(cyclic, alternating)):
                ok = False
                break
        if not ok:
            break
    _report(2, "cyclic-cocommutator and alternating-S3 admissibility checkers "
               "agree (boolean and defect up to the factor 2) on the same suites",
            ok)


def test_criterion_03_duality_correspondence():
    ok = True
    for dim in (2, 3):
        rng = random.Random(1400 + dim)
        for group_index in range(1, 7):
            group = f"G{group_index}"
            for _ in range(50):
                c = HomCoalgebra(
                    comul=random_comul_tensor(dim, rng),
                    beta=random_linear_map(dim, rng),
                )
                dual = dual_algebra_of_coalgebra(c)
                # the reference: c_beta(Delta) expanded directly, not through the dual
                direct = all(t.is_zero() for t in reference_G_defect(c, group))
                if check_G_hom_coalgebra(c, group).ok != direct or \
                        check_G_hom_associative(dual, group).ok != direct:
                    ok = False
                if dual_coalgebra_of_algebra(dual) != c:
                    ok = False
    # double dual with (co)units carried through
    b = bialgebra_row(2, b1=2, b2=0, b3=5)
    if dual_algebra_of_coalgebra(dual_coalgebra_of_algebra(b.algebra)) != b.algebra:
        ok = False
    if dual_coalgebra_of_algebra(dual_algebra_of_coalgebra(b.coalgebra)) != \
            b.coalgebra:
        ok = False
    _report(3, "G-defect booleans of 50 random coalgebras per subgroup at dims 2-3 "
               "and of their duals agree with the direct expansion of c_beta(Delta); "
               "double dual is the identity", ok)


def test_criterion_04_two_dim_classification():
    rng = random.Random(77)
    pairs = [(Fraction(0), Fraction(0))]
    while len(pairs) < 10:
        pairs.append((random_scalar(rng), random_scalar(rng)))
    ok = True
    for a1, a2 in pairs:
        for algebra in (mu1_algebra(a1, a2), mu2_algebra(a1, a2)):
            if not check_hom_associative(algebra).ok:
                ok = False
            if check_unital(algebra) is not True:
                ok = False
    _report(4, "both 2-dim multiplication/twist classes are Hom-associative "
               "and unital for 10 random rational parameter pairs "
               "(degenerate zero twist included)", ok)


def test_criterion_05_bialgebra_table():
    rng = random.Random(88)
    ok = True
    for row in (1, 2, 3):
        for _ in range(5):
            b1, b2, b3 = (random_scalar(rng) for _ in range(3))
            b = bialgebra_row(row, b1=b1, b2=b2, b3=b3)
            if not check_hom_coassociative(b.coalgebra).ok:
                ok = False
            if check_counital(b.coalgebra) is not True:
                ok = False
            if not check_bialgebra_weak(b).ok:
                ok = False
    _report(5, "table bialgebras (1)-(3) pass twisted coassociativity, "
               "counitality, and weak compatibility for 5 random parameter "
               "triples each", ok)


def test_criterion_06_hopf_result():
    result2 = solve_antipode(bialgebra_row(2, b1=3, b2=0, b3=-2))
    ok = (result2.status == "unique"
          and result2.antipode == LinearMap.identity(2)
          and result2.unit_fixed is True
          and result2.counit_compatible is True)
    for row in (1, 3):
        if solve_antipode(bialgebra_row(row)).status != "none":
            ok = False
    _report(6, "antipode solve: identity matrix (unique) for bialgebra (2), "
               "no solution for (1) and (3); S fixes the unit and preserves "
               "the counit", ok)


def test_criterion_07_convolution_proposition():
    b = bialgebra_row(2, b1=1, b2=0, b3=1)
    ok = check_convolution_hom_associative(b) is True
    # plus a direct pass over all 64 basis-matrix triples with explicit maps
    mats = [LinearMap.basis_matrix(2, i, j) for i in range(2) for j in range(2)]
    for f, g, h in product(mats, repeat=3):
        lhs = convolution(b, convolution_twist(b, f), convolution(b, g, h))
        rhs = convolution(b, convolution(b, f, g), convolution_twist(b, h))
        if lhs != rhs:
            ok = False
    _report(7, "twisted convolution associativity over bialgebra (2): the checked "
               "premises, plus all 64 basis-matrix triples", ok)


def test_criterion_08_primitive_structure():
    ok = primitive_subspace(bialgebra_row(2)) == ()
    b3 = truncated_primitive_bialgebra()
    # the constructed structure is verified by the checkers before use
    ok &= check_hom_associative(b3.algebra).ok
    ok &= check_hom_coassociative(b3.coalgebra).ok
    ok &= check_unital(b3.algebra) is True
    ok &= check_counital(b3.coalgebra) is True
    basis = primitive_subspace(b3)  # raises if eps or closure fails
    ok &= len(basis) == 1 and basis[0] == Vector.basis(3, 1)
    eps = b3.counit
    ok &= all(sum((v[k] * eps[k] for k in range(3)), Fraction(0)) == 0
              for v in basis)
    gprim = generalized_primitive_subspace(b3)  # asserts Prim subset GPrim
    ok &= len(gprim) == 3
    _report(8, "primitive subspace of bialgebra (2) is zero; the dim-3 "
               "truncated structure has the one-dimensional primitive space "
               "span{e2} with vanishing counit, commutator closure, and "
               "Prim inside GPrim", ok)


def test_criterion_09_hom_lie_layer():
    reg = registry()
    bindings = {
        "algebra-mu1": {"a1": 2, "a2": 5},
        "algebra-mu2": {"a1": "1/2", "a2": 7},
        "bialgebra-1": {"b1": 1, "b2": 2, "b3": 0, "a1": 3, "a2": 4},
        "bialgebra-2": {"b1": 1, "b2": 0, "b3": 1, "a1": 2, "a2": 2},
        "bialgebra-3": {"b1": 2, "b2": 0, "b3": 3},
        "hopf-2": {"b1": 1, "b2": 0, "b3": 1},
    }
    ok = True
    for name, entry in reg.items():
        structure = entry.build(bindings[name])
        if isinstance(structure, HomAlgebra):
            algebra = structure
        elif isinstance(structure, HomBialgebra):
            algebra = structure.algebra
        else:
            algebra = structure.bialgebra.algebra
        lie = commutator_bracket(algebra)
        if not check_skew(lie):
            ok = False
        if not check_hom_jacobi(lie).ok:
            ok = False
        # skew + Hom-Leibniz together imply Hom-Jacobi
        if check_skew(lie) and check_hom_leibniz(lie).ok:
            if not check_hom_jacobi(lie).ok:
                ok = False
    _report(9, "commutator brackets of every registry algebra are skew and "
               "Hom-Jacobi; skew + Hom-Leibniz implies Hom-Jacobi on the set",
            ok)


def test_criterion_10_nonexistence_certificate():
    verdict2 = search_bialgebra_extension(mu2_algebra(1, 2), degree_cap=6)
    ok = (verdict2.status == "inconsistent"
          and verdict2.certificate is not None
          and verify_certificate(verdict2.generators, verdict2.certificate))
    verdict1 = search_bialgebra_extension(mu1_algebra(1, 2), degree_cap=6)
    ok &= verdict1.status == "solutions"
    row1 = {"x11": Fraction(0), "x12": Fraction(0), "x21": Fraction(0),
            "x22": Fraction(1), "y": Fraction(1)}
    row2 = {"x11": Fraction(0), "x12": Fraction(1), "x21": Fraction(1),
            "x22": Fraction(-2), "y": Fraction(0)}
    row3 = {"x11": Fraction(0), "x12": Fraction(1), "x21": Fraction(1),
            "x22": Fraction(-1), "y": Fraction(0)}
    ok &= row1 in verdict1.points and row2 in verdict1.points
    ok &= row3 in verdict1.points  # enumeration reaches the third row too
    _report(10, "extension search: inconsistency certificate for the nilsquare "
                "class recombines to 1 within degree cap 6; the idempotent "
                "class yields the table rows among its rational points", ok)


def test_criterion_11_cli_and_round_trip(tmp_path, capsys):
    reg = registry()
    b2_path = tmp_path / "bialgebra-2.json"
    b2_path.write_text(serialize_structure(
        reg["bialgebra-2"].build({"b1": 1, "b2": 0, "b3": 1})))
    b1_path = tmp_path / "bialgebra-1.json"
    b1_path.write_text(serialize_structure(
        reg["bialgebra-1"].build({"b1": 1, "b2": 2, "b3": 0})))

    ok = cli_main(["check", str(b2_path), "--suite", "bialgebra-weak"]) == 0
    ok &= cli_main(["antipode", str(b1_path)]) == 1
    ok &= cli_main(["identities", "--dim", "2"]) == 0

    bindings = {
        "algebra-mu1": {"a1": "2", "a2": "1/3"},
        "algebra-mu2": {"a1": "-1", "a2": "4"},
        "bialgebra-1": {"b1": "1", "b2": "2", "b3": "0"},
        "bialgebra-2": {"b1": "1", "b2": "0", "b3": "1"},
        "bialgebra-3": {"b1": "3/2", "b2": "0", "b3": "-5"},
        "hopf-2": {"b1": "1", "b2": "0", "b3": "1"},
    }
    for name, entry in reg.items():
        structure = entry.build(bindings[name])
        params = {k: Fraction(v) for k, v in bindings[name].items()}
        text = serialize_structure(structure, params=params)
        parsed, parsed_params = parse_structure_file(text)
        if parsed != structure or parsed_params != params:
            ok = False
        if serialize_structure(parsed, params=parsed_params) != text:
            ok = False
    capsys.readouterr()  # swallow CLI output; the criterion line follows
    _report(11, "CLI example command lines return exit codes 0/1/0 and the "
                "full registry round-trips losslessly through structure files",
            ok)
