"""Tests of the benchmark's own checking code.

    python3 -m pytest bench/test_oracle.py -q

The oracle is tested on hand-computed cases and on the theorems the
workloads rely on; the workload checks are tested to reject outputs that
were tampered with.
"""

from __future__ import annotations

import random
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import homalg as H  # noqa: E402
import oracle as O  # noqa: E402
import workloads as W  # noqa: E402

F = Fraction


def test_phi_index_moves_legs():
    a, b, c = 4, 5, 6
    assert O.phi_index((1, 2, 3), (a, b, c)) == (a, b, c)
    assert O.phi_index((2, 1, 3), (a, b, c)) == (b, a, c)
    assert O.phi_index((3, 2, 1), (a, b, c)) == (c, b, a)
    # (213): 2 -> 1 -> 3 -> 2, so Phi(x1 x2 x3) = x2 x3 x1
    assert O.phi_index((3, 1, 2), (a, b, c)) == (b, c, a)
    assert O.phi_index((2, 3, 1), (a, b, c)) == (c, a, b)


def test_associator_by_hand():
    # e1.e1 = e2, e2.e1 = e1, every other product 0, alpha = id
    C = [[[0, 1], [0, 0]], [[1, 0], [0, 0]]]
    alpha = [[1, 0], [0, 1]]
    got = O.algebra_g_witnesses(O.associator(C, alpha), "G1")
    assert got == [((0, 0, 0, 0), 1), ((0, 1, 0, 1), -1),
                   ((1, 0, 0, 1), 1), ((1, 1, 0, 0), -1)]


def test_coassociator_by_hand():
    # Delta(e1) = e2 (x) e2, Delta(e2) = e1 (x) e2, beta = id
    D = [[[0, 0], [0, 1]], [[0, 1], [0, 0]]]
    beta = [[1, 0], [0, 1]]
    # (Delta (x) id) Delta(e1) = e1 e2 e2; (id (x) Delta) Delta(e1) = e2 e1 e2
    # (Delta (x) id) Delta(e2) = e2 e2 e2; (id (x) Delta) Delta(e2) = e1 e1 e2
    got = O.coalgebra_g_witnesses(O.coassociator(D, beta), "G1")
    assert got == [((0, 0, 1, 1), 1), ((0, 1, 0, 1), -1),
                   ((1, 0, 0, 1), -1), ((1, 1, 1, 1), 1)]


def test_scaled_arithmetic_matches_fractions():
    rng = random.Random(3)
    C = [[[F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(2)] for _ in range(2)]
         for _ in range(2)]
    alpha = [[F(rng.randint(-3, 3), rng.randint(1, 5)) for _ in range(2)] for _ in range(2)]
    table, den = O.associator(C, alpha)
    for p, q, s, k in product(range(2), repeat=4):
        left = sum(C[p][q][m] * alpha[t][s] * C[m][t][k] for m in range(2) for t in range(2))
        right = sum(alpha[m][p] * C[q][s][t] * C[m][t][k] for m in range(2) for t in range(2))
        assert F(table[p][q][s][k], den) == left - right


def test_g6_contains_the_other_subgroups_sums():
    # the S3 alternating sum is G4 + (G5 - id) with (12), (23) added back
    rng = random.Random(1)
    D = [[[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    beta = [[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
    K = O.coassociator(D, beta)
    g = {name: dict(O.coalgebra_g_witnesses(K, name)) for name in O.SUBGROUPS}
    for idx in product(range(2), repeat=4):
        total = (g["G2"].get(idx, 0) + g["G3"].get(idx, 0) + g["G4"].get(idx, 0)
                 + g["G5"].get(idx, 0) - 3 * g["G1"].get(idx, 0))
        assert g["G6"].get(idx, 0) == total


@pytest.mark.parametrize("monoid", sorted(W.MONOIDS))
def test_monoid_tables_are_commutative_monoids(monoid):
    t = W.MONOIDS[monoid]
    for x, y, z in product(range(3), repeat=3):
        assert t[t[x][y]][z] == t[x][t[y][z]]
        assert t[x][y] == t[y][x]
    assert all(t[0][x] == x for x in range(3))


@pytest.mark.parametrize("monoid", sorted(W.MONOIDS))
@pytest.mark.parametrize("c", [1, 2])
def test_yes_construction_passes_every_suite(monoid, c):
    rng = random.Random(hash((monoid, c)) % 1000)
    for consts in (W.monoid_hom_bialgebra(W.MONOIDS[monoid], c, [F(2), F(-1, 3), F(3, 2)]),
                   W.dense_yes_instance(rng, monoid, c)):
        C, alpha, u, D, beta, eps = consts
        A, K = O.associator(C, alpha), O.coassociator(D, beta)
        assert all(not O.algebra_g_witnesses(A, g) for g in O.SUBGROUPS)
        assert all(not O.coalgebra_g_witnesses(K, g) for g in O.SUBGROUPS)
        assert O.is_unital(C, u) and O.is_counital(D, eps)
        assert not O.weak_witnesses(C, u, D, eps)
        assert not O.strict_extra_witnesses(alpha, D, eps)


def test_dense_yes_instance_is_dense():
    consts = W.dense_yes_instance(random.Random(0), "Z3", 1)
    assert W._dense(consts)


def test_inverse_and_basis_change():
    P = [[1, 2, 0], [-1, -1, 1], [2, 3, 1]]
    Q = O.inverse(P)
    assert O.matmul(P, Q) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    base = W.monoid_hom_bialgebra(W.MONOIDS["chain"], 1, [F(1), F(2), F(3)])
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert O.change_basis(*base, ident, ident) == base
    back = O.change_basis(*O.change_basis(*base, P, Q), Q, P)
    assert back == base


def test_weak_witnesses_on_the_paper_rows():
    reg = H.registry()
    for row in (1, 2, 3):
        b = reg[f"bialgebra-{row}"].build({"b1": 2, "b2": 0, "b3": 1})
        C, alpha, u, D, beta, eps = W._bialg_consts(b)
        assert not O.weak_witnesses(C, u, D, eps)
    # Delta(e2) = e1(x)e2 + e2(x)e1 + t e2(x)e2 is multiplicative iff t^2 + 3t + 2 = 0
    D[1][1][1] = F(-3)
    labels = {lab for lab, _, _ in O.weak_witnesses(C, u, D, eps)}
    assert labels == {"comul-mult"}


def test_rank_and_certificates():
    assert O.rank([[1, 2], [2, 4]]) == 1
    assert O.rank([[1, 2], [0, 1], [1, 3]]) == 2
    x, one = {(1,): F(1)}, {(0,): F(1)}
    x_minus_1 = {(1,): F(1), (0,): F(-1)}
    assert O.combination_is_one([x, x_minus_1], [one, {(0,): F(-1)}], 1)
    assert not O.combination_is_one([x, x_minus_1], [one, one], 1)


def test_antipode_and_primitive_systems():
    # k[Z2] with grouplike Delta: S = identity (g^-1 = g), no primitives
    C = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    D = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    u, eps = [F(1), F(0)], [F(1), F(1)]
    assert not any(O.antipode_residual(C, u, D, eps, [[1, 0], [0, 1]]))
    assert any(O.antipode_residual(C, u, D, eps, [[1, 0], [0, -1]]))
    assert O.rank(O.primitive_rows(D, u)) == 2
    # k[x]/(x^2), Delta(x) = 1 (x) x + x (x) 1: x is primitive
    Dx = [[[1, 0], [0, 0]], [[0, 1], [1, 0]]]
    assert O.in_kernel(O.primitive_rows(Dx, u), [0, 1])
    assert not O.in_kernel(O.primitive_rows(Dx, u), [1, 0])


# -- the workload checks reject wrong outputs --------------------------------


def test_decide_check_rejects_a_changed_witness(tmp_path):
    w = W.DecideDense()
    op = w.make_ops(5, 1, tmp_path)[0]
    out = w.run(op)
    assert w.check(op, out) is None
    reports, flags, texts = out[1]
    r = reports["hom-assoc"]
    first = r.witnesses[0]
    bad = replace(r, witnesses=(replace(first, value=first.value + 1),) + r.witnesses[1:])
    assert w.check(op, (out[0], ({**reports, "hom-assoc": bad}, flags, texts))) is not None
    assert w.check(op, (out[0], (reports, {**flags, "unital": True}, texts))) is not None


def test_solve_check_rejects_a_wrong_point(tmp_path):
    w = W.SolveExtension()
    op = w.make_ops(2, 1, tmp_path)[0]
    searches, solves = w.run(op)
    assert w.check(op, (searches, solves)) is None
    mu1 = searches[("mu1", False)]
    pts = list(mu1.points)
    pts[0] = {**pts[0], "y": pts[0]["y"] + 1}
    bad = {**searches, ("mu1", False): replace(mu1, points=tuple(pts))}
    assert w.check(op, (bad, solves)) is not None
    mu2 = searches[("mu2", False)]
    cert = list(mu2.certificate)
    i = next(i for i, c in enumerate(cert) if not c.is_zero())
    cert[i] = cert[i] + cert[i]
    bad = {**searches, ("mu2", False): replace(mu2, certificate=tuple(cert))}
    assert w.check(op, (bad, solves)) is not None


def test_cli_checks_know_the_answers(tmp_path):
    w = W.CliMix()
    ops = w.make_ops(1, 17, tmp_path)
    kinds = {kind for kind, _ in ops}
    assert len(ops) == w.round_size and len(kinds) == w.round_size
    assert set(w.KNOWN_FAULTS) <= kinds
    by_kind = dict(ops)
    wrong = W.CliResult(0, "no antipode\n", "", 0)
    assert w.check(("antipode-none", by_kind["antipode-none"]), wrong) is not None
    assert w.check(("identities-dim0", by_kind["identities-dim0"]),
                   W.CliResult(2, "", "", 0)) is None
