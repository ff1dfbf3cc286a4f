"""Byte-level parity of the CLI and the library reports with recorded digests.

Every subcommand and every ``--suite`` runs in-process through ``cli_main``
on 51 structure files: each registry entry at two bindings, the duals of
those, and seeded random algebras, coalgebras and bialgebras of dims 1-3.
``identities --dim 1..4`` and ``examples`` (the listing and one emit per
entry) run too.  Each invocation is recorded as its exit code and truncated
SHA-256 digests of its stdout and stderr, with the working directory set to
the files' directory, so file names print relative.  The full ``render()``
and witness tuples of every report checker on 36 seeded bialgebras and on
their commutator brackets are recorded beside them.

None of the invocations reaches argparse's usage or help text or an OS error
message, whose wording differs between Python versions.

``python tests/test_parity.py`` rewrites ``parity_digests.json`` from the
code as it stands; a change meant to keep every output must leave that file
unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # run as a script from a checkout: import the package beside this file
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from homalg import (
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    SUBGROUPS,
    check_bialgebra_strict,
    check_bialgebra_weak,
    check_G_hom_associative,
    check_G_hom_coalgebra,
    check_hom_associative,
    check_hom_coassociative,
    check_hom_jacobi,
    check_hom_leibniz,
    check_hom_lie_admissible,
    commutator_bracket,
    dual,
    registry,
    serialize_structure,
)
from homalg.cli import CHECK_SUITES, cli_main
from homalg.sampling import (
    random_comul_tensor,
    random_linear_map,
    random_mul_tensor,
    random_vector,
)

DIGESTS = Path(__file__).with_name("parity_digests.json")
BINDINGS = ({"a1": 3, "a2": -1, "b1": 2, "b2": 0, "b3": 5},
            {"a1": "1/2", "a2": 2, "b1": -1, "b2": 0, "b3": "1/3"})
FILE_COMMANDS = ([["check"]] + [["check", "--suite", s] for s in CHECK_SUITES]
                 + [["dualize"], ["dualize", "-o", "out.json"], ["antipode"], ["primitives"],
                    ["gprimitives"], ["convolution-test"], ["search-extension"]])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def _random_algebra(dim: int, rng: random.Random) -> HomAlgebra:
    return HomAlgebra(random_mul_tensor(dim, rng), random_linear_map(dim, rng),
                      random_vector(dim, rng))


def _random_coalgebra(dim: int, rng: random.Random) -> HomCoalgebra:
    return HomCoalgebra(random_comul_tensor(dim, rng), random_linear_map(dim, rng),
                        random_vector(dim, rng))


def _random_bialgebra(dim: int, rng: random.Random) -> HomBialgebra:
    return HomBialgebra(_random_algebra(dim, rng), _random_coalgebra(dim, rng))


def structures() -> dict[str, object]:
    """The 51 structures, by file name."""
    out = {}
    for number, values in enumerate(BINDINGS, 1):
        for name, entry in registry().items():
            structure = entry.build({p: values[p]
                                     for p in entry.required + tuple(dict(entry.defaults))})
            out[f"{name}-{number}.json"] = structure
            out[f"dual-{name}-{number}.json"] = dual(structure)
    builders = {"algebra": _random_algebra, "coalgebra": _random_coalgebra,
                "bialgebra": _random_bialgebra}
    for dim in (1, 2, 3):
        for kind, build in builders.items():
            for seed in range(3):
                out[f"{kind}-d{dim}-s{seed}.json"] = build(dim, random.Random(100 * dim + seed))
    return out


def _run(argv: list[str]) -> str:
    """Exit code and stdout and stderr digests of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return f"{code} {_digest(out.getvalue())} {_digest(err.getvalue())}"


def cli_records(directory: Path) -> dict[str, dict[str, str]]:
    """Every invocation's record, by file name (or "-") and command line;
    runs with ``directory`` as the working directory."""
    records: dict[str, dict[str, str]] = {}
    built = structures()
    for name, structure in built.items():
        (directory / name).write_text(serialize_structure(structure), encoding="utf-8")
    for name in sorted(built):
        records[name] = {" ".join(command): _run([command[0], name] + command[1:])
                         for command in FILE_COMMANDS}
    other = [["identities", "--dim", str(n)] for n in (1, 2, 3, 4)] + [["examples"]]
    for name, entry in sorted(registry().items()):
        values = BINDINGS[0]
        params = [f"{p}={values[p]}" for p in entry.required]
        other.append(["examples", name] + [arg for p in params for arg in ("--param", p)])
    records["-"] = {" ".join(command): _run(command) for command in other}
    return records


def _render(report) -> str:
    return f"{report.render()}\n{report.witnesses!r}"


def report_records() -> dict[str, str]:
    """Digest of every report checker's render() and witnesses, per seeded
    bialgebra: both sides' Hom-(co)associativity and G-conditions, Hom-Lie
    admissibility, the weak and strict compatibilities, and the commutator
    bracket's Hom-Jacobi, Hom-Leibniz and G-conditions."""
    records = {}
    for dim in (1, 2, 3):
        for seed in range(12):
            b = _random_bialgebra(dim, random.Random(1000 * dim + seed))
            a, c = b.algebra, b.coalgebra
            bracket = commutator_bracket(a)
            reports = [check_hom_associative(a), check_hom_coassociative(c)]
            for g in SUBGROUPS:
                reports += [check_G_hom_associative(a, g), check_G_hom_coalgebra(c, g),
                            check_G_hom_associative(bracket, g)]
            admissible = check_hom_lie_admissible(c)
            reports += [admissible.cyclic, admissible.alternating,
                        check_bialgebra_weak(b), check_bialgebra_strict(b),
                        check_hom_jacobi(bracket), check_hom_leibniz(bracket)]
            records[f"d{dim}-s{seed}"] = _digest("\n".join(map(_render, reports)))
    return records


def records(directory: Path) -> dict:
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return {"cli": cli_records(directory), "reports": report_records()}
    finally:
        os.chdir(cwd)


def test_outputs_match_the_recorded_digests(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = records(tmp_path)
    differ = [(name, command) for name in want["cli"] for command in want["cli"][name]
              if got["cli"].get(name, {}).get(command) != want["cli"][name][command]]
    assert not differ, f"{len(differ)} invocation(s) changed, first {differ[:5]}"
    assert got["cli"].keys() == want["cli"].keys()
    assert all(got["cli"][name].keys() == want["cli"][name].keys() for name in want["cli"])
    changed = [key for key in want["reports"] if got["reports"].get(key) != want["reports"][key]]
    assert not changed and got["reports"].keys() == want["reports"].keys(), changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        result = records(Path(directory))
    DIGESTS.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    count = sum(map(len, result["cli"].values())) + len(result["reports"])
    print(f"wrote {count} records to {DIGESTS}", file=sys.stderr)
