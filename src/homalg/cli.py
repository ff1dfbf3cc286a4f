"""Command-line interface.

Exit codes: 0 all checks passed / command succeeded; 1 a check failed (or no
antipode exists); 2 parse or usage error; 3 inconclusive (the polynomial
solver hit a cap, or its certificate failed its check); 141 stdout closed
before the output was written (128 + SIGPIPE, with no traceback).  Output
order is deterministic: witnesses are listed in basis-index lexicographic order.
A command decides before it prints: each handler returns its exit code and its
verdicts as records, which one text renderer prints after the handler returns,
so an exit-2 error leaves stdout empty.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .algebra import (
    check_G_hom_associative,
    check_hom_associative,
    check_module,
    check_unital,
)
from .bialgebra import (
    AntipodeResult,
    HomBialgebra,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_convolution_hom_associative,
    generalized_primitive_subspace,
    primitive_subspace,
    solve_antipode,
)
from .coalgebra import (
    check_comodule,
    check_counital,
    check_G_hom_coalgebra,
    check_hom_coassociative,
    check_hom_lie_admissible,
    coassociator_expansion_check,
    generic_coalgebra,
    lemma_identities_check,
    admissibility_defects,
)
from .polysolve import DEGREE_CAP, PAIR_CAP, SystemVerdict, search_bialgebra_extension
from .rational import rat, rat_str
from .reports import DefectReport
from .structio import (
    ParseError,
    RegistryEntry,
    dual,
    parts,
    registry,
    parse_structure,
    serialize_structure,
)
from .tensors import SUBGROUPS

CHECK_SUITES = ("hom-assoc", "coassoc", *SUBGROUPS, "lie-admissible", "bialgebra-weak",
                "bialgebra-strict", "module", "comodule")

# The eight identities' 48 terms are 12 contraction networks of (Delta, Delta, beta), independent
# on the generic coalgebra of dim 3 (not 2), which zero padding embeds in every dim n >= 3; the
# certificate is tests/test_coalgebra.py::test_dim_3_decides_the_identities_at_every_dimension.
PROOF_DIM = 3


class _Failure(Exception):
    """Usage-level failure; message printed to stderr, exit code 2."""


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(f"cannot read {path}: {exc}") from exc
    try:
        return parse_structure(text)
    except ParseError as exc:
        raise _Failure(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class Flag:
    """A yes/no check; ``None`` is skipped (for ``skip_reason``) and passes."""

    check: str
    value: bool | None
    skip_reason: str = ""

    @property
    def ok(self) -> bool:
        return self.value is not False


def _bialgebra(structure, message: str) -> HomBialgebra:
    """The structure's bialgebra; a usage error carrying ``message`` if it has none."""
    bialgebra = parts(structure).bialgebra
    if bialgebra is None:
        raise _Failure(message)
    return bialgebra


def _write(text: str, output: str | None) -> str:
    """``text`` to the ``-o`` file and a "wrote" line as the record; without
    ``-o``, ``text`` is the record (the renderer ends its last line).  An
    empty ``-o`` names no file, so it cannot be written either."""
    if output is None:
        return text.removesuffix("\n")
    try:
        with open(output, "w", encoding="utf-8") as out:
            out.write(text)
    except OSError as exc:
        raise _Failure(f"cannot write {output}: {exc}") from exc
    return f"wrote {output}"


_DEFAULT_SUITES = {
    "algebra": ("hom-assoc", "module"),
    "coalgebra": ("coassoc", "lie-admissible", "comodule"),
    "bialgebra": ("hom-assoc", "coassoc", "bialgebra-weak"),
    "hopf": ("hom-assoc", "coassoc", "bialgebra-weak"),
}


def _run_suite(structure, suite: str | None) -> list[DefectReport | Flag]:
    p = parts(structure)
    algebra, coalgebra = p.algebra, p.coalgebra
    verdicts: list[DefectReport | Flag] = []
    for s in (suite,) if suite else _DEFAULT_SUITES[p.kind]:
        if s in ("hom-assoc", "module") and algebra is None:
            raise _Failure(f"suite {s} needs an algebra side")
        if s in ("coassoc", "comodule") and coalgebra is None:
            raise _Failure(f"suite {s} needs a coalgebra side")
        if s == "hom-assoc":
            verdicts.append(check_hom_associative(algebra))
            if algebra.unit is not None:
                verdicts.append(Flag("unital", check_unital(algebra)))
        elif s == "coassoc":
            verdicts += (check_hom_coassociative(coalgebra),
                         Flag("counital", check_counital(coalgebra), "no counit declared"))
        elif s in SUBGROUPS:
            if algebra is not None:
                verdicts.append(check_G_hom_associative(algebra, s))
            if coalgebra is not None:
                verdicts.append(check_G_hom_coalgebra(coalgebra, s))
        elif s == "lie-admissible":
            if coalgebra is not None:
                rep = check_hom_lie_admissible(coalgebra)
                verdicts += (rep.cyclic, rep.alternating,
                             Flag("admissibility methods agree", rep.methods_agree))
            if algebra is not None:
                verdicts.append(check_G_hom_associative(algebra, "G6"))
        elif s in ("bialgebra-weak", "bialgebra-strict"):
            b = _bialgebra(structure, f"suite {s} needs a bialgebra or hopf structure")
            check = check_bialgebra_weak if s == "bialgebra-weak" else check_bialgebra_strict
            verdicts.append(check(b))
        elif s == "module":
            verdicts.append(Flag("self-module (M=V, f=alpha, gamma=mu)", check_module(
                algebra, algebra.dim, algebra.alpha, algebra.mul.c)))
        elif s == "comodule":
            verdicts.append(Flag("self-comodule (M=V, g=beta, rho=Delta)", check_comodule(
                coalgebra, coalgebra.dim, coalgebra.beta, coalgebra.comul.d)))
    if p.antipode is not None:
        # HomHopf verified the antipode equations when it was built
        verdicts.append(Flag("antipode equations", True))
    return verdicts


def _cmd_check(args) -> tuple[int, list]:
    verdicts = _run_suite(_load(args.file), args.suite)
    return 0 if all(v.ok for v in verdicts) else 1, [(args.file, v) for v in verdicts]


def _cmd_dualize(args) -> tuple[int, list]:
    return 0, [_write(serialize_structure(dual(_load(args.file))), args.output)]


def _cmd_antipode(args) -> tuple[int, list]:
    result = solve_antipode(
        _bialgebra(_load(args.file), "antipode needs a bialgebra or hopf structure file"))
    return 1 if result.status == "none" else 0, [result]


def _cmd_subspace(args, generalized: bool) -> tuple[int, list]:
    structure = _bialgebra(_load(args.file),
                           "primitive subspaces need a bialgebra or hopf structure file")
    try:
        basis = (generalized_primitive_subspace if generalized else primitive_subspace)(structure)
    except ValueError as exc:
        return 1, [f"premises not met: {exc}"]
    return 0, [("generalized primitive" if generalized else "primitive", basis)]


def _cmd_convolution_test(args) -> tuple[int, list]:
    structure = _bialgebra(_load(args.file),
                           "convolution-test needs a bialgebra or hopf structure file")
    if check_convolution_hom_associative(structure) is None:
        return 1, ["premises not met: the structure must be Hom-associative and "
                   "Hom-coassociative"]
    return 0, ["convolution Hom-associativity (exact, all basis-matrix triples): ok"]


def _cmd_identities(args) -> tuple[int, list]:
    n, m = args.dim, min(args.dim, PROOF_DIM)
    coalg = generic_coalgebra(m)
    failures = (lemma_identities_check(coalg) + coassociator_expansion_check(coalg)).count(False)
    cyclic, alternating = admissibility_defects(coalg)
    failures += not all(c == 2 * a for c, a in zip(cyclic, alternating))
    proof = "generic coalgebra" if n == m else f"implied by the generic coalgebra of dim {m}"
    return 0 if failures == 0 else 1, [
        f"identity suite: dim={n} exact ({proof}, {m ** 3 + m ** 2} variables): "
        f"failures={failures}"]


def _cmd_search_extension(args) -> tuple[int, list]:
    structure = _load(args.file)
    if parts(structure).kind != "algebra":
        raise _Failure("search-extension expects an algebra structure file")
    try:
        verdict = search_bialgebra_extension(
            structure,
            degree_cap=args.degree_cap,
            pair_cap=args.pair_cap,
            strict_alpha=args.strict_alpha,
        )
    except ValueError as exc:
        raise _Failure(str(exc)) from exc
    return 3 if verdict.status == "inconclusive" else 0, [verdict]


def _cmd_examples(args) -> tuple[int, list]:
    entries = registry()
    if not args.name:
        if args.output is not None or args.param:
            flag = "-o/--output" if args.output is not None else "--param"
            raise _Failure(f"{flag} needs an example name; the listing takes neither flag")
        return 0, [entries[name] for name in sorted(entries)]
    if args.name not in entries:
        raise _Failure(f"unknown example {args.name!r}; run `examples` to list")
    bindings: dict[str, Fraction] = {}
    for item in args.param or []:
        if "=" not in item:
            raise _Failure(f"--param expects name=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in bindings:
            raise _Failure(f"--param {key} given more than once")
        try:
            bindings[key] = rat(value.strip())
        except ValueError as exc:
            raise _Failure(f"--param {item!r}: {exc}") from exc
    try:
        structure = entries[args.name].build(bindings)
    except ValueError as exc:
        raise _Failure(str(exc)) from exc
    return 0, [_write(serialize_structure(structure, params=bindings), args.output)]


def _render_text(record):
    """The text lines of one record a handler returned."""
    match record:
        case str():
            yield record
        case (name, DefectReport() as report):
            yield f"[{'PASS' if report.ok else 'FAIL'}] {name}: {report.render(limit=8)}"
        case (name, Flag(check, None, reason)):
            yield f"[SKIP] {name}: {check}{f' ({reason})' if reason else ''}"
        case (name, Flag(check, value)):
            yield f"[{'PASS' if value else 'FAIL'}] {name}: {check}: " \
                  f"{'ok' if value else 'violated'}"
        case (label, ()):
            yield f"{label} subspace: zero"
        case (label, basis):
            yield f"{label} subspace basis ({len(basis)} vector(s)):"
            yield from (f"  {v}" for v in basis)
        case AntipodeResult(status="none"):
            yield "no antipode"
        case AntipodeResult(status=status):
            yield "unique antipode:" if status == "unique" else \
                f"affine family of antipodes (kernel dimension {record.kernel_dim}); one solution:"
            for row in record.antipode.entries:
                yield "  [" + ", ".join(rat_str(v) for v in row) + "]"
            if status == "unique":
                yield f"fixes unit: {record.unit_fixed}; " \
                      f"counit-compatible: {record.counit_compatible}"
        case SystemVerdict(status="inconclusive"):
            yield f"inconclusive: {record.reason}"
        case SystemVerdict(status="inconsistent"):
            yield "inconsistent: no Hom-bialgebra extension exists"
            yield "certificate cofactors (recombine with the generators to 1):"
            for gen, cof in zip(record.generators, record.certificate):
                if not cof.is_zero():
                    yield f"  ({cof}) * ({gen})"
        case SystemVerdict(positive_dimensional=True):
            yield "solutions exist (positive-dimensional); not enumerated"
        case SystemVerdict(points=points):
            yield f"solutions: {len(points)} rational point(s)"
            for pt in points:
                yield "  " + ", ".join(f"{k}={rat_str(pt[k])}" for k in sorted(pt))
        case RegistryEntry():
            defaults = ", ".join(f"{k}={rat_str(v)}" for k, v in record.defaults)
            params = ", ".join(record.required) + (f" [optional: {defaults}]" if defaults else "")
            yield f"{record.name} ({record.kind}; params: {params or 'none'})"
            yield f"  {record.description}"


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``; anything else is
    a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


class _Once(argparse.Action):
    """Store the option's value; a second use is a usage error (exit 2)."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("given", set())
        if self.dest in given:
            raise _Failure(f"{'/'.join(self.option_strings)} given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homalg",
        description="Exact checks and transforms for finite-dimensional "
                    "Hom-algebraic structures.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, summary: str, file: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if file:
            p.add_argument("file")
        return p

    command("check", _cmd_check, "run a check suite on a structure file").add_argument(
        "--suite", choices=CHECK_SUITES, action=_Once)
    command("dualize", _cmd_dualize, "write the dual structure file").add_argument(
        "-o", "--output", action=_Once)
    command("antipode", _cmd_antipode, "solve the antipode equations")
    command("primitives", lambda args: _cmd_subspace(args, generalized=False),
            "print the primitive subspace basis")
    command("gprimitives", lambda args: _cmd_subspace(args, generalized=True),
            "print the generalized primitive subspace basis")
    command("convolution-test", _cmd_convolution_test,
            "verify twisted associativity of the convolution product")
    command("identities", _cmd_identities,
            "prove the universal identity suites at every dimension", file=False).add_argument(
        "--dim", type=_int_at_least(1), default=2, action=_Once)

    p = command("search-extension", _cmd_search_extension,
                "certify (non)existence of a bialgebra extension")
    p.add_argument("--degree-cap", type=_int_at_least(0), default=DEGREE_CAP, action=_Once)
    p.add_argument("--pair-cap", type=_int_at_least(1), default=PAIR_CAP, action=_Once,
                   help="most S-pairs to reduce; only pairs that survive the Gebauer-Moller "
                        "criteria count, and coprime pairs never count")
    p.add_argument("--strict-alpha", action="store_true")

    p = command("examples", _cmd_examples, "list or emit built-in structures", file=False)
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--param", action="append", default=[])
    p.add_argument("-o", "--output", action=_Once)

    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, records = args.run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for record in records:
        for line in _render_text(record):
            print(line)
    return code


def main() -> None:
    try:
        code = cli_main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`homalg examples | head`): send what is
        # still buffered to devnull so the exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()
