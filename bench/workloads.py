"""The benchmark's three workloads.

Each workload turns a seed into a fixed list of operations of roughly equal
size (``make_ops``), runs one operation the way a user would (``run``), and
checks the output against ``oracle`` or against a property the method must
have (``check``, outside the timed region).  ``check`` returns None when the
output is right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import homalg as H
from homalg import sampling

import oracle as O

GROUPS = ("G1", "G2", "G3", "G4", "G5", "G6")


def _frac(rng: random.Random) -> Fraction:
    """A nonzero small rational."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))


# ---------------------------------------------------------------------------
# decide-dense


# Commutative monoids of order 3 with identity 0; the monoid algebra with
# grouplike Delta(m) = m (x) m and eps = 1 is a bialgebra for each of them.
MONOIDS = {
    "Z3": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "Z2+zero": [[0, 1, 2], [1, 0, 2], [2, 2, 2]],
    "nilpotent": [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
    "chain": [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
    "cyclic(1,2)": [[0, 1, 2], [1, 2, 1], [2, 1, 2]],
}
DIM = 3


def monoid_hom_bialgebra(table, c: int, weights):
    """Constants (C, alpha, u, D, beta, eps) of a Hom-bialgebra on k[M].

    alpha is left multiplication by the monoid element c and beta(m) =
    weights[m] * m.  Theorem: mu is associative, commutative and unital, so
    mu(mu(x, y), c z) = c x y z = mu(c x, mu(y, z)) and the algebra is
    Hom-associative with its true unit; Delta is grouplike, so both sides of
    Hom-coassociativity are weights[m] m (x) m (x) m and eps stays a counit;
    c is grouplike, so Delta o alpha = (alpha (x) alpha) o Delta and
    eps o alpha = eps.  Every check suite therefore passes, and a change of
    basis preserves all of them.  Entries other than the weights are ints.
    """
    n = len(table)
    R = range(n)
    C = [[[int(table[i][j] == k) for k in R] for j in R] for i in R]
    D = [[[int(i == k and j == k) for j in R] for i in R] for k in R]
    alpha = [[int(table[c][j] == i) for j in R] for i in R]
    beta = [[weights[i] if i == j else 0 for j in R] for i in R]
    u = [int(i == 0) for i in R]
    eps = [1] * n
    return C, alpha, u, D, beta, eps


def _dense(consts) -> bool:
    C, alpha, _u, D, beta, _eps = consts
    cells = [v for cube in (C, D) for plane in cube for row in plane for v in row]
    cells += [v for m in (alpha, beta) for row in m for v in row]
    return all(v != 0 for v in cells)


def _as_fractions(x):
    return [_as_fractions(y) for y in x] if isinstance(x, list) else Fraction(x)


def _unimodular(n: int, rng: random.Random):
    """P = L U with unit-triangular L, U and off-diagonal entries in
    {-2, -1, 1, 2}; P and its inverse are integral."""
    vals = (-2, -1, 1, 2)
    L = [[1 if i == j else (rng.choice(vals) if i > j else 0) for j in range(n)]
         for i in range(n)]
    U = [[1 if i == j else (rng.choice(vals) if i < j else 0) for j in range(n)]
         for i in range(n)]
    P = O.matmul(L, U)
    return P, [[int(v) for v in row] for row in O.inverse(P)]


def dense_yes_instance(rng: random.Random, monoid: str, c: int):
    """A monoid Hom-bialgebra after a random change of basis, redrawn until
    every structure constant and twist entry is nonzero.  The beta weights
    are distinct (equal weights make beta scalar on a subspace, and some
    entries then vanish in every basis)."""
    while True:
        weights = [_frac(rng)]
        while len(weights) < DIM:
            w = _frac(rng)
            if w not in weights:
                weights.append(w)
        P, Q = _unimodular(DIM, rng)
        consts = O.change_basis(*monoid_hom_bialgebra(MONOIDS[monoid], c, weights), P, Q)
        if _dense(consts):
            return tuple(_as_fractions(x) for x in consts)


def random_no_instance(rng: random.Random):
    """Structure constants, twists, unit and counit drawn by homalg.sampling."""
    return (
        [list(map(list, plane)) for plane in sampling.random_mul_tensor(DIM, rng).c],
        [list(row) for row in sampling.random_linear_map(DIM, rng).entries],
        list(sampling.random_vector(DIM, rng).coords),
        [list(map(list, plane)) for plane in sampling.random_comul_tensor(DIM, rng).d],
        [list(row) for row in sampling.random_linear_map(DIM, rng).entries],
        list(sampling.random_vector(DIM, rng).coords),
    )


@dataclass
class Member:
    consts: tuple
    bialgebra: H.HomBialgebra
    gamma: list
    rho: list
    yes: bool


def _member(consts, yes: bool) -> Member:
    C, alpha, u, D, beta, eps = consts
    b = H.HomBialgebra(
        H.HomAlgebra(H.MulTensor(C), H.LinearMap(alpha), H.Vector(u)),
        H.HomCoalgebra(H.ComulTensor(D), H.LinearMap(beta), H.Vector(eps)),
    )
    n = len(C)
    gamma = [[list(C[i][m]) for m in range(n)] for i in range(n)]
    rho = [[[D[m][q][i] for i in range(n)] for q in range(n)] for m in range(n)]
    return Member(consts, b, gamma, rho, yes)


class DecideDense:
    """Each operation decides one yes-instance and one no-instance of dim 3
    on every check suite and renders the reports."""

    name = "decide-dense"
    round_size = 10   # one yes-instance per (monoid, c) shape
    nominal_op_s = 0.47
    calibration = "fraction"

    def make_ops(self, seed: int, n_ops: int, workdir: Path):
        rng = random.Random(seed)
        shapes = [(m, c) for m in MONOIDS for c in (1, 2)]
        ops = []
        while len(ops) < n_ops:
            block = list(shapes)
            rng.shuffle(block)
            for monoid, c in block[: n_ops - len(ops)]:
                yes = _member(dense_yes_instance(rng, monoid, c), True)
                no = _member(random_no_instance(rng), False)
                ops.append((yes, no))
        return ops

    @staticmethod
    def _decide(m: Member):
        b = m.bialgebra
        a, c = b.algebra, b.coalgebra
        n = b.dim
        reports = {"hom-assoc": H.check_hom_associative(a),
                   "coassoc": H.check_hom_coassociative(c)}
        for g in GROUPS:
            reports[f"{g}-alg"] = H.check_G_hom_associative(a, g)
            reports[f"{g}-coalg"] = H.check_G_hom_coalgebra(c, g)
        adm = H.check_hom_lie_admissible(c)
        reports["cyclic"], reports["alternating"] = adm.cyclic, adm.alternating
        reports["weak"] = H.check_bialgebra_weak(b)
        reports["strict"] = H.check_bialgebra_strict(b)
        flags = {
            "unital": H.check_unital(a),
            "counital": H.check_counital(c),
            "module": H.check_module(a, n, a.alpha, m.gamma),
            "comodule": H.check_comodule(c, n, c.beta, m.rho),
            "methods_agree": adm.methods_agree,
        }
        texts = {k: r.render(limit=8) for k, r in reports.items()}
        return reports, flags, texts

    def run(self, op):
        return tuple(self._decide(m) for m in op)

    def check(self, op, out):
        for m, (reports, flags, texts) in zip(op, out):
            reason = self._check_member(m, reports, flags, texts)
            if reason:
                return f"{'yes' if m.yes else 'no'}-instance: {reason}"
        return None

    @staticmethod
    def _check_member(m: Member, reports, flags, texts):
        C, alpha, u, D, beta, eps = m.consts
        A = O.associator(C, alpha)
        K = O.coassociator(D, beta)
        want = {
            "hom-assoc": [(i, v, "") for i, v in O.algebra_g_witnesses(A, "G1")],
            "coassoc": [(i, v, "") for i, v in O.coalgebra_g_witnesses(K, "G1")],
            "alternating": [(i, v, "") for i, v in O.coalgebra_g_witnesses(K, "G6")],
            # the cyclic Delta_L route is exactly twice the alternating one
            "cyclic": [(i, v, "") for i, v in O.coalgebra_g_witnesses(K, "G6", scale=2)],
        }
        for g in GROUPS:
            want[f"{g}-alg"] = [(i, v, "") for i, v in O.algebra_g_witnesses(A, g)]
            want[f"{g}-coalg"] = [(i, v, "") for i, v in O.coalgebra_g_witnesses(K, g)]
        weak = [(i, v, lab) for lab, i, v in O.weak_witnesses(C, u, D, eps)]
        want["weak"] = weak
        want["strict"] = weak + [(i, v, lab) for lab, i, v in
                                 O.strict_extra_witnesses(alpha, D, eps)]
        for key, expected in want.items():
            got = [(w.indices, w.value, w.label) for w in reports[key].witnesses]
            if got != expected:
                return f"{key} witnesses differ from the direct evaluation"
            r = reports[key]
            head = f"{r.check}: ok" if not expected else \
                f"{r.check}: {len(expected)} nonzero defect(s): "
            if not texts[key].startswith(head):
                return f"{key} renders as {texts[key][:60]!r}"
        want_flags = {
            "unital": O.is_unital(C, u),
            "counital": O.is_counital(D, eps),
            "module": not want["hom-assoc"],
            "comodule": not want["coassoc"],
            "methods_agree": True,
        }
        if flags != want_flags:
            return f"flags {flags} != {want_flags}"
        if m.yes and (any(want.values()) or not all(want_flags.values())):
            return "a yes-instance fails a suite the theorem says it passes"
        return None


# ---------------------------------------------------------------------------
# solve-extension


EXT_VARS = ("x11", "x12", "x21", "x22", "y")
# Delta(e2) and eps(e2) of the paper's three weak Hom-bialgebras over mu1
# (the bialgebra-1..3 rows): grouplike, and e1(x)e2 + e2(x)e1 + t e2(x)e2 for
# t = -2, -1.
MU1_TABLE = (
    {"x11": 0, "x12": 0, "x21": 0, "x22": 1, "y": 1},
    {"x11": 0, "x12": 1, "x21": 1, "x22": -2, "y": 0},
    {"x11": 0, "x12": 1, "x21": 1, "x22": -1, "y": 0},
)


def _alg_consts(algebra):
    return ([[list(row) for row in plane] for plane in algebra.mul.c],
            [list(row) for row in algebra.alpha.entries],
            list(algebra.unit.coords))


def _bialg_consts(b):
    C, alpha, u = _alg_consts(b.algebra)
    co = b.coalgebra
    return (C, alpha, u, [[list(row) for row in plane] for plane in co.comul.d],
            [list(row) for row in co.beta.entries], list(co.counit.coords))


def extension_point_ok(C, alpha, u, point, strict: bool) -> bool:
    """Plug Delta(e1) = e1 (x) e1, Delta(e2) = sum x_ij e_i (x) e_j,
    eps = (1, y) back into the compatibility and counit equations."""
    x = {k: Fraction(v) for k, v in point.items()}
    D = [[[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
         [[x["x11"], x["x12"]], [x["x21"], x["x22"]]]]
    eps = [Fraction(1), x["y"]]
    if O.weak_witnesses(C, u, D, eps) or not O.is_counital(D, eps):
        return False
    return not (strict and O.strict_extra_witnesses(alpha, D, eps))


def _certificate_ok(verdict) -> bool:
    gens = [dict(g.terms) for g in verdict.generators]
    cofs = [dict(c.terms) for c in verdict.certificate]
    return O.combination_is_one(gens, cofs, len(EXT_VARS))


def check_extension(algebra, name: str, strict: bool, verdict):
    if verdict.status == "inconsistent":
        if verdict.certificate is None or not _certificate_ok(verdict):
            return f"{name}: certificate does not recombine to 1"
        if name == "mu1" and not strict:
            return "mu1: the paper's comultiplication table exists, yet inconsistent"
        return None
    if name == "mu2":   # the nilsquare class has no extension (paper)
        return f"mu2 (strict={strict}): status {verdict.status}, expected inconsistent"
    if verdict.status != "solutions" or verdict.positive_dimensional:
        return f"{name} (strict={strict}): status {verdict.status}"
    for pt in verdict.points:
        if not extension_point_ok(*_alg_consts(algebra), pt, strict):
            return f"{name} (strict={strict}): point {pt} fails the equations"
    if not strict:
        got = [{k: Fraction(v) for k, v in pt.items()} for pt in verdict.points]
        for known in MU1_TABLE:
            if {k: Fraction(v) for k, v in known.items()} not in got:
                return f"mu1: known comultiplication {known} missing"
    return None


def check_antipode(consts, status, S, kernel_dim):
    C, _alpha, u, D, _beta, eps = consts
    n = len(C)
    rows, rhs = O.antipode_system(C, u, D, eps)
    r = O.rank(rows)
    if r < O.rank([row + [v] for row, v in zip(rows, rhs)]):
        expected = "none"
    else:
        expected = "unique" if r == n * n else "family"
    if status != expected:
        return f"antipode status {status}, expected {expected}"
    if expected == "family" and kernel_dim != n * n - r:
        return f"antipode kernel dimension {kernel_dim}, expected {n * n - r}"
    if S is not None and any(O.antipode_residual(C, u, D, eps, S)):
        return "antipode fails the antipode equations"
    return None


def check_subspace(rows, basis, label):
    n = len(rows[0])
    dim = n - O.rank(rows)
    if len(basis) != dim:
        return f"{label}: {len(basis)} vectors, kernel dimension is {dim}"
    if basis and O.rank(basis) != len(basis):
        return f"{label}: basis vectors are dependent"
    for v in basis:
        if not O.in_kernel(rows, v):
            return f"{label}: {v} fails the defining equations"
    return None


def _generic_binding(rng: random.Random):
    """Twist parameters away from the degenerate values a1 = 1 and a2 = a1,
    where the strict systems collapse to much smaller ones: a mix of both
    would make operation latencies bimodal."""
    while True:
        a1, a2 = _frac(rng), _frac(rng)
        if a1 != 1 and a2 != a1:
            return a1, a2


class SolveExtension:
    """Each operation takes one seeded twist binding: four extension
    searches (mu1, mu2; weak, strict) and the antipode, primitive and
    generalized primitive solves on bialgebra-1..3."""

    name = "solve-extension"
    round_size = 1
    nominal_op_s = 0.37
    calibration = "fraction"

    def make_ops(self, seed: int, n_ops: int, workdir: Path):
        rng = random.Random(seed)
        reg = H.registry()
        ops = []
        for _ in range(n_ops):
            a1, a2 = _generic_binding(rng)
            algebras = {name: reg[f"algebra-{name}"].build({"a1": a1, "a2": a2})
                        for name in ("mu1", "mu2")}
            bialgebras = [
                reg[f"bialgebra-{row}"].build(
                    {"b1": _frac(rng), "b2": _frac(rng), "b3": _frac(rng),
                     "a1": a1, "a2": a2})
                for row in (1, 2, 3)
            ]
            ops.append((algebras, bialgebras))
        return ops

    def run(self, op):
        algebras, bialgebras = op
        searches = {(name, strict): H.search_bialgebra_extension(alg, strict_alpha=strict)
                    for name, alg in algebras.items() for strict in (False, True)}
        solves = [(H.solve_antipode(b), H.primitive_subspace(b),
                   H.generalized_primitive_subspace(b)) for b in bialgebras]
        return searches, solves

    def check(self, op, out):
        algebras, bialgebras = op
        searches, solves = out
        for (name, strict), verdict in searches.items():
            reason = check_extension(algebras[name], name, strict, verdict)
            if reason:
                return reason
        for row, (b, (anti, prim, gprim)) in enumerate(zip(bialgebras, solves), 1):
            consts = _bialg_consts(b)
            S = None if anti.antipode is None else [list(r) for r in anti.antipode.entries]
            reason = (
                check_antipode(consts, anti.status, S, anti.kernel_dim)
                or check_subspace(O.primitive_rows(consts[3], consts[2]),
                                  [list(v.coords) for v in prim], "primitives")
                or check_subspace(O.gprimitive_rows(consts[3], consts[4]),
                                  [list(v.coords) for v in gprim], "gprimitives")
            )
            if reason:
                return f"bialgebra-{row}: {reason}"
        return None


# ---------------------------------------------------------------------------
# cli-mix


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def _json_consts(data):
    q = lambda v: Fraction(v)   # noqa: E731
    C = [[[q(v) for v in row] for row in plane] for plane in data["mul"]]
    D = [[[q(v) for v in row] for row in plane] for plane in data["comul"]]
    return (C, [[q(v) for v in row] for row in data["alpha"]], [q(v) for v in data["unit"]],
            D, [[q(v) for v in row] for row in data["beta"]], [q(v) for v in data["counit"]])


_STATUS = re.compile(r"^\[(PASS|FAIL|SKIP)\] [^:]+: (.*)$")
_COUNT = re.compile(r": (\d+) nonzero defect\(s\)")


def _verdict_lines(stdout: str):
    """(status, defect count or None) per verdict line of `check`."""
    out = []
    for line in stdout.splitlines():
        m = _STATUS.match(line)
        if not m:
            return None
        c = _COUNT.search(m.group(2))
        out.append((m.group(1), int(c.group(1)) if c else None))
    return out


def _report_line(witnesses):
    return ("PASS", None) if not witnesses else ("FAIL", len(witnesses))


def _bool_line(ok):
    return ("PASS" if ok else "FAIL", None)


def _vectors(stdout: str):
    vecs = []
    for line in stdout.splitlines():
        line = line.strip()
        if line.startswith("(") and line.endswith(")"):
            vecs.append([Fraction(t) for t in line[1:-1].split(",")])
    return vecs


class CliMix:
    """Each operation is one `python -m homalg.cli` process on files written
    from the registry; a round covers every subcommand once or more."""

    name = "cli-mix"
    round_size = 17
    nominal_op_s = 0.17
    calibration = "interpreter"   # its operations are mostly process start-up
    # Program faults: both commands should exit 2 (usage / parse error) but
    # raise an uncaught exception and exit 1.
    KNOWN_FAULTS = ("identities-dim0", "check-deep-json")

    def __init__(self):
        self.env = dict(os.environ)
        src = str(Path(H.__file__).resolve().parent.parent)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.stderr_path = None

    def make_ops(self, seed: int, n_ops: int, workdir: Path):
        rng = random.Random(seed)
        reg = H.registry()
        self.stderr_path = workdir / "stderr.txt"
        deep = workdir / "deep.json"
        deep.write_text("[" * 10000 + "]" * 10000, encoding="utf-8")
        ops = []
        for r in range((n_ops + self.round_size - 1) // self.round_size):
            def write(name, structure):
                path = workdir / f"r{r}-{name}.json"
                path.write_text(H.serialize_structure(structure), encoding="utf-8")
                return str(path)

            a = {"a1": _frac(rng), "a2": _frac(rng)}
            bpar = lambda: {"b1": _frac(rng), "b2": _frac(rng), "b3": _frac(rng)}  # noqa: E731
            b1 = write("b1", reg["bialgebra-1"].build(bpar()))
            b2 = write("b2", reg["bialgebra-2"].build(bpar()))
            b3 = write("b3", reg["bialgebra-3"].build({**bpar(), **a}))
            mu1 = write("mu1", reg["algebra-mu1"].build(a))
            mu2 = write("mu2", reg["algebra-mu2"].build(a))
            rand_b = write("rand-b", H.HomBialgebra(
                H.HomAlgebra(sampling.random_mul_tensor(2, rng),
                             sampling.random_linear_map(2, rng),
                             sampling.random_vector(2, rng)),
                H.HomCoalgebra(sampling.random_comul_tensor(2, rng),
                               sampling.random_linear_map(2, rng),
                               sampling.random_vector(2, rng))))
            rand_c = write("rand-c", H.HomCoalgebra(sampling.random_comul_tensor(2, rng),
                                                    sampling.random_linear_map(2, rng)))
            d3 = str(workdir / f"r{r}-d3.json")
            emit = bpar()
            ops += [
                ("check-pass", ["check", b2]),
                ("check-fail", ["check", rand_b]),
                ("check-lie", ["check", rand_c, "--suite", "lie-admissible"]),
                ("check-strict", ["check", b3, "--suite", "bialgebra-strict"]),
                ("check-algebra", ["check", mu1]),
                ("dualize-file", ["dualize", b3, "-o", d3]),
                ("dualize-back", ["dualize", d3]),
                ("antipode-unique", ["antipode", b2]),
                ("antipode-none", ["antipode", b1]),
                ("primitives", ["primitives", b2]),
                ("gprimitives", ["gprimitives", b3]),
                ("search-mu2", ["search-extension", mu2]),
                ("search-mu1", ["search-extension", mu1]),
                ("examples-list", ["examples"]),
                ("examples-emit", ["examples", "bialgebra-2"]
                 + [f"--param={k}={v}" for k, v in emit.items()]),
                ("identities-dim0", ["identities", "--dim", "0"]),
                ("check-deep-json", ["check", str(deep)]),
            ]
        return ops

    def run(self, op):
        _kind, argv = op
        with open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "homalg.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env)
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _pid, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        stderr = Path(self.stderr_path).read_text(encoding="utf-8", errors="replace")
        return CliResult(proc.returncode, stdout.decode(), stderr, usage.ru_maxrss)

    def check(self, op, res: CliResult):
        kind, argv = op
        handler = getattr(self, "_check_" + kind.replace("-", "_"))
        return handler(argv, res)

    # -- one checker per operation kind -----------------------------------
    @staticmethod
    def _load(path):
        return json.loads(Path(path).read_text(encoding="utf-8"))

    def _check_suites(self, res, expected):
        want_code = 0 if all(s == "PASS" for s, _ in expected) else 1
        if res.code != want_code:
            return f"exit {res.code}, expected {want_code}"
        got = _verdict_lines(res.stdout)
        if got != expected:
            return f"verdict lines {got}, expected {expected}"
        return None

    def _check_check_pass(self, argv, res):
        return self._check_bialgebra_default(argv[1], res)

    def _check_check_fail(self, argv, res):
        return self._check_bialgebra_default(argv[1], res)

    def _check_bialgebra_default(self, path, res):
        C, alpha, u, D, beta, eps = _json_consts(self._load(path))
        expected = [
            _report_line(O.algebra_g_witnesses(O.associator(C, alpha), "G1")),
            _bool_line(O.is_unital(C, u)),
            _report_line(O.coalgebra_g_witnesses(O.coassociator(D, beta), "G1")),
            _bool_line(O.is_counital(D, eps)),
            _report_line(O.weak_witnesses(C, u, D, eps)),
        ]
        return self._check_suites(res, expected)

    def _check_check_lie(self, argv, res):
        data = self._load(argv[1])
        D = [[[Fraction(v) for v in row] for row in plane] for plane in data["comul"]]
        beta = [[Fraction(v) for v in row] for row in data["beta"]]
        alt = O.coalgebra_g_witnesses(O.coassociator(D, beta), "G6")
        expected = [_report_line(alt), _report_line(alt), _bool_line(True)]
        return self._check_suites(res, expected)

    def _check_check_strict(self, argv, res):
        C, alpha, u, D, beta, eps = _json_consts(self._load(argv[1]))
        defects = O.weak_witnesses(C, u, D, eps) + O.strict_extra_witnesses(alpha, D, eps)
        return self._check_suites(res, [_report_line(defects)])

    def _check_check_algebra(self, argv, res):
        data = self._load(argv[1])
        C = [[[Fraction(v) for v in row] for row in plane] for plane in data["mul"]]
        alpha = [[Fraction(v) for v in row] for row in data["alpha"]]
        u = [Fraction(v) for v in data["unit"]]
        assoc = O.algebra_g_witnesses(O.associator(C, alpha), "G1")
        expected = [_report_line(assoc), _bool_line(O.is_unital(C, u)), _bool_line(not assoc)]
        return self._check_suites(res, expected)

    def _check_dualize_file(self, argv, res):
        if res.code != 0 or res.stdout.strip() != f"wrote {argv[3]}":
            return f"exit {res.code}, stdout {res.stdout[:60]!r}"
        src, dual = self._load(argv[1]), self._load(argv[3])
        n = src["dim"]
        R = range(n)
        transpose = lambda m: [[m[j][i] for j in R] for i in R]  # noqa: E731
        ok = (
            dual["kind"] == src["kind"]
            and dual["mul"] == [[[src["comul"][k][i][j] for k in R] for j in R] for i in R]
            and dual["comul"] == [[[src["mul"][i][j][k] for j in R] for i in R] for k in R]
            and dual["alpha"] == transpose(src["beta"])
            and dual["beta"] == transpose(src["alpha"])
            and dual["unit"] == src["counit"] and dual["counit"] == src["unit"]
        )
        return None if ok else "dual file is not the transpose dual"

    def _check_dualize_back(self, argv, res):
        original = Path(argv[1].replace("-d3.json", "-b3.json")).read_text(encoding="utf-8")
        if res.code != 0 or res.stdout != original:
            return "dualizing twice does not give back the input"
        return None

    def _check_antipode_unique(self, argv, res):
        return self._check_antipode(argv, res)

    def _check_antipode_none(self, argv, res):
        return self._check_antipode(argv, res)

    def _check_antipode(self, argv, res):
        consts = _json_consts(self._load(argv[1]))
        lines = res.stdout.splitlines()
        if lines and lines[0] == "no antipode":
            status, S, code = "none", None, 1
        elif lines and lines[0] == "unique antipode:":
            status, code = "unique", 0
            S = [[Fraction(t) for t in ln.strip()[1:-1].split(",")] for ln in lines[1:-1]]
        else:
            return f"unexpected output {res.stdout[:60]!r}"
        if res.code != code:
            return f"exit {res.code} for {status}"
        return check_antipode(consts, status, S, 0)

    def _check_primitives(self, argv, res):
        C, alpha, u, D, beta, eps = _json_consts(self._load(argv[1]))
        if res.code != 0:
            return f"exit {res.code}"
        return check_subspace(O.primitive_rows(D, u), _vectors(res.stdout), "primitives")

    def _check_gprimitives(self, argv, res):
        C, alpha, u, D, beta, eps = _json_consts(self._load(argv[1]))
        if res.code != 0:
            return f"exit {res.code}"
        return check_subspace(O.gprimitive_rows(D, beta), _vectors(res.stdout), "gprimitives")

    def _check_search_mu2(self, argv, res):
        lines = res.stdout.splitlines()
        if res.code != 0 or not lines or \
                lines[0] != "inconsistent: no Hom-bialgebra extension exists":
            return f"exit {res.code}, output {res.stdout[:60]!r}; expected inconsistent"
        return None

    def _check_search_mu1(self, argv, res):
        lines = res.stdout.splitlines()
        m = re.match(r"solutions: (\d+) rational point\(s\)$", lines[0] if lines else "")
        if res.code != 0 or not m or int(m.group(1)) != len(lines) - 1:
            return f"exit {res.code}, output {res.stdout[:60]!r}"
        data = self._load(argv[1])
        C = [[[Fraction(v) for v in row] for row in plane] for plane in data["mul"]]
        alpha = [[Fraction(v) for v in row] for row in data["alpha"]]
        u = [Fraction(v) for v in data["unit"]]
        points = []
        for ln in lines[1:]:
            pt = {k: Fraction(v) for k, v in (kv.split("=") for kv in ln.strip().split(", "))}
            if not extension_point_ok(C, alpha, u, pt, strict=False):
                return f"point {pt} fails the equations"
            points.append(pt)
        for known in MU1_TABLE:
            if {k: Fraction(v) for k, v in known.items()} not in points:
                return f"known comultiplication {known} missing"
        return None

    def _check_examples_list(self, argv, res):
        names = [ln.split(" ")[0] for ln in res.stdout.splitlines() if not ln.startswith(" ")]
        if res.code != 0 or names != sorted(H.registry()):
            return f"exit {res.code}, listed {names}"
        return None

    def _check_examples_emit(self, argv, res):
        if res.code != 0:
            return f"exit {res.code}"
        p = {a.split("=")[1]: Fraction(a.split("=")[2]) for a in argv[2:]}
        data = json.loads(res.stdout)
        b1, b3 = p["b1"], p["b3"]
        s = lambda v: str(Fraction(v).numerator) if Fraction(v).denominator == 1 \
            else f"{Fraction(v).numerator}/{Fraction(v).denominator}"  # noqa: E731
        expected = {
            "kind": "bialgebra", "dim": 2, "convention": "columns-are-images",
            "mul": [[["1", "0"], ["0", "1"]], [["0", "1"], ["0", "1"]]],
            "alpha": [["1", "0"], ["0", "1"]], "unit": ["1", "0"],
            # Delta(e2) = e1(x)e2 + e2(x)e1 - 2 e2(x)e2; beta = [[b1,(b1-b3)/2],[0,b3]]
            "comul": [[["1", "0"], ["0", "0"]], [["0", "1"], ["1", "-2"]]],
            "beta": [[s(b1), s((b1 - b3) / 2)], ["0", s(b3)]],
            "counit": ["1", "0"],
            "params": {k: s(v) for k, v in sorted(p.items())},
        }
        return None if data == expected else "emitted file differs from the paper's row 2"

    def _check_identities_dim0(self, argv, res):
        return None if res.code == 2 else f"exit {res.code}, expected 2 (usage error)"

    def _check_check_deep_json(self, argv, res):
        return None if res.code == 2 else f"exit {res.code}, expected 2 (parse error)"


WORKLOADS = {w.name: w for w in (DecideDense, SolveExtension, CliMix)}
