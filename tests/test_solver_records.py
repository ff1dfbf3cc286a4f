"""Recorded results of ``buchberger`` on the dim-2 extension systems and two
standard systems.

The systems are the 784 extension systems of the paper's question (mu1 and
mu2, each at the 196 bindings with a1 and a2 in +-{1/3, 1/2, 2/3, 1, 3/2, 2,
3}, weak and strict) in lex order, every 8th of them in grevlex, and
cyclic-4 and katsura-3 in both orders with degree_cap 8.  Each run is
recorded as a truncated SHA-256 digest of its status, cap, pair count,
reduced basis, cofactors and certificate, written out as text.

``python tests/test_solver_records.py`` rewrites ``solver_records.json``
from the code as it stands; a solver change meant to keep every result,
pair counts included, must leave that file unchanged.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

if __name__ == "__main__":
    # run as a script from a checkout: import the package beside this file
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from homalg import buchberger
from homalg.polysolve import bialgebra_extension_system

from conftest import mu1_algebra, mu2_algebra, standard_systems

RECORDS = Path(__file__).with_name("solver_records.json")
VALUES = [sign * Fraction(v) for v in ("1/3", "1/2", "2/3", 1, "3/2", 2, 3) for sign in (1, -1)]


def systems() -> list[tuple[str, list, str, dict]]:
    """(label, generators, order, caps) of every recorded run."""
    extension = [(f"{name} a1={a1} a2={a2} {'strict' if strict else 'weak'}",
                  bialgebra_extension_system(build(a1, a2), strict_alpha=strict))
                 for name, build in (("mu1", mu1_algebra), ("mu2", mu2_algebra))
                 for a1 in VALUES for a2 in VALUES for strict in (False, True)]
    runs = [(f"{label} lex", gens, "lex", {}) for label, gens in extension]
    runs += [(f"{label} grevlex", gens, "grevlex", {}) for label, gens in extension[::8]]
    runs += [(f"{name} {order}", gens, order, {"degree_cap": 8})
             for name, gens in standard_systems().items() for order in ("lex", "grevlex")]
    return runs


def record(result) -> str:
    certificate = result.certificate()
    text = repr((result.status, result.cap, result.pairs_processed,
                 [str(p) for p in result.basis],
                 [[str(c) for c in row] for row in result.cofactors],
                 None if certificate is None else [str(c) for c in certificate]))
    return hashlib.sha256(text.encode()).hexdigest()[:10]


def records() -> dict[str, str]:
    return {label: record(buchberger(gens, order=order, **caps))
            for label, gens, order, caps in systems()}


def test_solver_results_match_the_recorded_digests():
    want = json.loads(RECORDS.read_text(encoding="utf-8"))
    got = records()
    assert len(got) == 784 + 98 + 4 and got.keys() == want.keys()
    changed = [label for label in want if got[label] != want[label]]
    assert not changed, f"{len(changed)} run(s) changed, first {changed[:5]}"


if __name__ == "__main__":
    result = records()
    RECORDS.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(result)} records to {RECORDS}", file=sys.stderr)
