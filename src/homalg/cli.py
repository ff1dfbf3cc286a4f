"""Command-line interface.

Exit codes: 0 all checks passed / command succeeded; 1 a check failed (or no
antipode exists); 2 parse or usage error; 3 inconclusive (the polynomial
solver hit a cap, or its certificate failed its check); 141 stdout closed
before the output was written (128 + SIGPIPE, with no traceback).  Output
order is deterministic: witnesses are listed in basis-index lexicographic order.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from . import __version__
from .algebra import (
    check_G_hom_associative,
    check_hom_associative,
    check_unital,
)
from .bialgebra import (
    HomBialgebra,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_convolution_hom_associative,
    generalized_primitive_subspace,
    primitive_subspace,
    solve_antipode,
)
from .coalgebra import (
    check_counital,
    check_G_hom_coalgebra,
    check_hom_coassociative,
    check_hom_lie_admissible,
    coassociator_expansion_check,
    generic_coalgebra,
    lemma_identities_check,
    admissibility_defects,
)
from .polysolve import DEGREE_CAP, PAIR_CAP, search_bialgebra_extension
from .rational import rat, rat_str
from .reports import DefectReport
from .structio import (
    ParseError,
    dual,
    parts,
    registry,
    parse_structure,
    serialize_structure,
)
from .tensors import SUBGROUPS

CHECK_SUITES = (
    "hom-assoc", "coassoc", "G1", "G2", "G3", "G4", "G5", "G6",
    "lie-admissible", "bialgebra-weak", "bialgebra-strict", "module", "comodule",
)

# The eight identities' 48 terms are 12 contraction networks of (Delta, Delta, beta), independent
# on the generic coalgebra of dim 3 (not 2), which zero padding embeds in every dim n >= 3; the
# certificate is tests/test_coalgebra.py::test_dim_3_decides_the_identities_at_every_dimension.
PROOF_DIM = 3


class _Failure(Exception):
    """Usage-level failure; message printed to stderr, exit code attached."""

    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(f"cannot read {path}: {exc}") from exc
    try:
        return parse_structure(text)
    except ParseError as exc:
        raise _Failure(f"{path}: {exc}") from exc


def _print_report(name: str, report: DefectReport) -> bool:
    status = "PASS" if report.ok else "FAIL"
    print(f"[{status}] {name}: {report.render(limit=8)}")
    return report.ok


def _print_bool(name: str, check: str, value: bool | None, skip_reason: str = "") -> bool:
    if value is None:
        print(f"[SKIP] {name}: {check}{f' ({skip_reason})' if skip_reason else ''}")
        return True
    print(f"[{'PASS' if value else 'FAIL'}] {name}: {check}: "
          f"{'ok' if value else 'violated'}")
    return value


def _bialgebra(structure, message: str) -> HomBialgebra:
    """The structure's bialgebra; a usage error carrying ``message`` if it has none."""
    bialgebra = parts(structure).bialgebra
    if bialgebra is None:
        raise _Failure(message)
    return bialgebra


def _write(text: str, output: str | None) -> None:
    """``text`` to the ``-o`` file, then a "wrote" line; to stdout without one.
    An empty ``-o`` names no file, so it cannot be written either."""
    if output is None:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as out:
            out.write(text)
    except OSError as exc:
        raise _Failure(f"cannot write {output}: {exc}") from exc
    print(f"wrote {output}")


_DEFAULT_SUITES = {
    "algebra": ("hom-assoc", "module"),
    "coalgebra": ("coassoc", "lie-admissible", "comodule"),
    "bialgebra": ("hom-assoc", "coassoc", "bialgebra-weak"),
    "hopf": ("hom-assoc", "coassoc", "bialgebra-weak"),
}


def _run_suite(name: str, structure, suite: str | None) -> bool:
    p = parts(structure)
    algebra, coalgebra = p.algebra, p.coalgebra
    ok = True
    for s in (suite,) if suite else _DEFAULT_SUITES[p.kind]:
        if s in ("hom-assoc", "module") and algebra is None:
            raise _Failure(f"suite {s} needs an algebra side")
        if s in ("coassoc", "comodule") and coalgebra is None:
            raise _Failure(f"suite {s} needs a coalgebra side")
        if s == "hom-assoc":
            ok &= _print_report(name, check_hom_associative(algebra))
            if algebra.unit is not None:
                ok &= _print_bool(name, "unital", check_unital(algebra))
        elif s == "coassoc":
            ok &= _print_report(name, check_hom_coassociative(coalgebra))
            ok &= _print_bool(name, "counital", check_counital(coalgebra),
                              skip_reason="no counit declared")
        elif s in SUBGROUPS:
            if algebra is not None:
                ok &= _print_report(name, check_G_hom_associative(algebra, s))
            if coalgebra is not None:
                ok &= _print_report(name, check_G_hom_coalgebra(coalgebra, s))
        elif s == "lie-admissible":
            if coalgebra is not None:
                rep = check_hom_lie_admissible(coalgebra)
                ok &= _print_report(name, rep.cyclic)
                ok &= _print_report(name, rep.alternating)
                ok &= _print_bool(name, "admissibility methods agree",
                                  rep.methods_agree)
            if algebra is not None:
                ok &= _print_report(name, check_G_hom_associative(algebra, "G6"))
        elif s in ("bialgebra-weak", "bialgebra-strict"):
            b = _bialgebra(structure, f"suite {s} needs a bialgebra or hopf structure")
            check = check_bialgebra_weak if s == "bialgebra-weak" else check_bialgebra_strict
            ok &= _print_report(name, check(b))
        elif s == "module":
            # the self-(co)module axiom is the Hom-(co)associativity equation
            ok &= _print_bool(name, "self-module (M=V, f=alpha, gamma=mu)",
                              check_hom_associative(algebra).ok)
        elif s == "comodule":
            ok &= _print_bool(name, "self-comodule (M=V, g=beta, rho=Delta)",
                              check_hom_coassociative(coalgebra).ok)
    if p.antipode is not None:
        # HomHopf verified the antipode equations when it was built
        ok &= _print_bool(name, "antipode equations", True)
    return bool(ok)


def _cmd_check(args) -> int:
    return 0 if _run_suite(args.file, _load(args.file), args.suite) else 1


def _cmd_dualize(args) -> int:
    _write(serialize_structure(dual(_load(args.file))), args.output)
    return 0


def _cmd_antipode(args) -> int:
    structure = _bialgebra(_load(args.file), "antipode needs a bialgebra or hopf structure file")
    result = solve_antipode(structure)
    if result.status == "none":
        print("no antipode")
        return 1
    if result.status == "unique":
        print("unique antipode:")
    else:
        print(f"affine family of antipodes (kernel dimension {result.kernel_dim}); "
              "one solution:")
    for row in result.antipode.entries:
        print("  [" + ", ".join(rat_str(v) for v in row) + "]")
    if result.status == "unique":
        print(f"fixes unit: {result.unit_fixed}; counit-compatible: "
              f"{result.counit_compatible}")
    return 0


def _cmd_subspace(args, generalized: bool) -> int:
    structure = _bialgebra(_load(args.file),
                           "primitive subspaces need a bialgebra or hopf structure file")
    try:
        basis = (generalized_primitive_subspace if generalized else primitive_subspace)(structure)
    except ValueError as exc:
        print(f"premises not met: {exc}")
        return 1
    label = "generalized primitive" if generalized else "primitive"
    if not basis:
        print(f"{label} subspace: zero")
    else:
        print(f"{label} subspace basis ({len(basis)} vector(s)):")
        for v in basis:
            print(f"  {v}")
    return 0


def _cmd_convolution_test(args) -> int:
    structure = _bialgebra(_load(args.file),
                           "convolution-test needs a bialgebra or hopf structure file")
    if check_convolution_hom_associative(structure) is None:
        print("premises not met: the structure must be Hom-associative and "
              "Hom-coassociative")
        return 1
    print("convolution Hom-associativity (exact, all basis-matrix triples): ok")
    return 0


def _cmd_identities(args) -> int:
    n, m = args.dim, min(args.dim, PROOF_DIM)
    coalg = generic_coalgebra(m)
    failures = (lemma_identities_check(coalg) + coassociator_expansion_check(coalg)).count(False)
    cyclic, alternating = admissibility_defects(coalg)
    failures += not all(c == 2 * a for c, a in zip(cyclic, alternating))
    proof = "generic coalgebra" if n == m else f"implied by the generic coalgebra of dim {m}"
    print(f"identity suite: dim={n} exact ({proof}, {m ** 3 + m ** 2} variables): "
          f"failures={failures}")
    return 0 if failures == 0 else 1


def _cmd_search_extension(args) -> int:
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
    if verdict.status == "inconclusive":
        print(f"inconclusive: {verdict.reason}")
        return 3
    if verdict.status == "inconsistent":
        print("inconsistent: no Hom-bialgebra extension exists")
        print("certificate cofactors (recombine with the generators to 1):")
        for gen, cof in zip(verdict.generators, verdict.certificate):
            if not cof.is_zero():
                print(f"  ({cof}) * ({gen})")
        return 0
    if verdict.positive_dimensional:
        print("solutions exist (positive-dimensional); not enumerated")
        return 0
    print(f"solutions: {len(verdict.points)} rational point(s)")
    for pt in verdict.points:
        rendered = ", ".join(f"{k}={rat_str(pt[k])}" for k in sorted(pt))
        print(f"  {rendered}")
    return 0


def _cmd_examples(args) -> int:
    entries = registry()
    if not args.name:
        if args.output is not None or args.param:
            flag = "-o/--output" if args.output is not None else "--param"
            raise _Failure(f"{flag} needs an example name; the listing takes neither flag")
        for name in sorted(entries):
            e = entries[name]
            required = ", ".join(e.required)
            defaults = ", ".join(f"{k}={rat_str(v)}" for k, v in e.defaults)
            params = required + (f" [optional: {defaults}]" if defaults else "")
            print(f"{name} ({e.kind}; params: {params or 'none'})")
            print(f"  {e.description}")
        return 0
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
    _write(serialize_structure(structure, params=bindings), args.output)
    return 0


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

    p = sub.add_parser("check", help="run a check suite on a structure file")
    p.add_argument("file")
    p.add_argument("--suite", choices=CHECK_SUITES, action=_Once)

    p = sub.add_parser("dualize", help="write the dual structure file")
    p.add_argument("file")
    p.add_argument("-o", "--output", action=_Once)

    p = sub.add_parser("antipode", help="solve the antipode equations")
    p.add_argument("file")

    p = sub.add_parser("primitives", help="print the primitive subspace basis")
    p.add_argument("file")

    p = sub.add_parser("gprimitives",
                       help="print the generalized primitive subspace basis")
    p.add_argument("file")

    p = sub.add_parser("convolution-test",
                       help="verify twisted associativity of the convolution product")
    p.add_argument("file")

    p = sub.add_parser("identities", help="prove the universal identity suites at every dimension")
    p.add_argument("--dim", type=_int_at_least(1), default=2, action=_Once)

    p = sub.add_parser("search-extension",
                       help="certify (non)existence of a bialgebra extension")
    p.add_argument("file")
    p.add_argument("--degree-cap", type=_int_at_least(0), default=DEGREE_CAP, action=_Once)
    p.add_argument("--pair-cap", type=_int_at_least(1), default=PAIR_CAP, action=_Once,
                   help="most S-pairs to reduce; only pairs that survive the Gebauer-Moller "
                        "criteria count, and coprime pairs never count")
    p.add_argument("--strict-alpha", action="store_true")

    p = sub.add_parser("examples", help="list or emit built-in structures")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--param", action="append", default=[])
    p.add_argument("-o", "--output", action=_Once)

    return parser


_COMMANDS = {
    "check": _cmd_check,
    "dualize": _cmd_dualize,
    "antipode": _cmd_antipode,
    "primitives": lambda args: _cmd_subspace(args, generalized=False),
    "gprimitives": lambda args: _cmd_subspace(args, generalized=True),
    "convolution-test": _cmd_convolution_test,
    "identities": _cmd_identities,
    "search-extension": _cmd_search_extension,
    "examples": _cmd_examples,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


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
