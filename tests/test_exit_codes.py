"""The exit-code contract under malformed input.

Registry structure files are mutated (values replaced by JSON atoms, keys
deleted, values wrapped in lists) and run through every file-reading
subcommand in-process: no exception may escape ``cli_main``, and the exit
code is always 0 (pass), 1 (check failed), 2 (parse or usage error) or
3 (inconclusive).
"""

import contextlib
import io
import json
import random

from hypothesis import given, settings, strategies as st

from homalg import registry, serialize_structure
from homalg.cli import cli_main

COMMANDS = ("check", "dualize", "antipode", "primitives", "gprimitives",
            "convolution-test", "search-extension")

BINDINGS = {"a1": 1, "a2": 2, "b1": 1, "b2": 0, "b3": 1}
DOCUMENTS = [
    json.loads(serialize_structure(entry.build(
        {k: BINDINGS[k] for k in entry.required})))
    for entry in registry().values()
]

# half the replacements are well-formed numbers, so that mutated files also
# get past the parser and reach the checkers and solvers
NUMBERS = ["0", "1", "-1", "1/2", 0, 2, -1]
JUNK = [
    None, True, False, 0.5, -0.0, 1e308, float("inf"), float("nan"),
    "", "x", "1/0", "1/2/3", "0x10", "1e400", "1e4400", " 1", "9" * 5000,
    [], [None], ["1", "0"], {}, {"kind": "algebra"},
]


def _paths(node, prefix=()):
    """The path of every value inside a JSON document, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(rng: random.Random, doc) -> None:
    """Replace, delete or wrap one value of ``doc``, drawn uniformly from all."""
    *parents, key = rng.choice(list(_paths(doc)))
    node = doc
    for step in parents:
        node = node[step]
    action = rng.choices(("replace", "delete", "wrap"), weights=(3, 1, 1))[0]
    if action == "replace":
        node[key] = rng.choice(NUMBERS if rng.random() < 0.5 else JUNK)
    elif action == "delete":
        del node[key]
    else:
        node[key] = [node[key]]


@settings(max_examples=100)
@given(doc=st.sampled_from(DOCUMENTS), rng=st.randoms(use_true_random=True))
def test_mutated_files_keep_the_exit_code_contract(doc, rng, tmp_path_factory):
    doc = json.loads(json.dumps(doc))
    for _ in range(rng.randint(1, 2)):
        _mutate(rng, doc)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([command, str(path)])
        assert code in (0, 1, 2, 3), (command, doc)
