import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import homalg
from homalg import (
    ComulTensor,
    HomAlgebra,
    HomBialgebra,
    HomCoalgebra,
    LinearMap,
    MulTensor,
    Vector,
    dual_coalgebra_of_algebra,
    parse_structure,
    registry,
    serialize_structure,
)
from homalg.cli import _build_parser, _render_text, cli_main

from conftest import bialgebra_row, cyclic_group_bialgebra, mu1_algebra


@pytest.fixture
def files(tmp_path):
    reg = registry()
    paths = {}
    specs = {
        "bialgebra-1.json": ("bialgebra-1", {"b1": 1, "b2": 2, "b3": 0}),
        "bialgebra-2.json": ("bialgebra-2", {"b1": 1, "b2": 0, "b3": 1}),
        "bialgebra-3.json": ("bialgebra-3", {"b1": 2, "b2": 0, "b3": 3}),
        "mu1.json": ("algebra-mu1", {"a1": 1, "a2": 2}),
        "mu2.json": ("algebra-mu2", {"a1": 1, "a2": 2}),
        "hopf-2.json": ("hopf-2", {"b1": 1, "b2": 0, "b3": 1}),
    }
    for fname, (entry, bindings) in specs.items():
        p = tmp_path / fname
        p.write_text(serialize_structure(reg[entry].build(bindings)))
        paths[fname] = str(p)
    return paths


def test_check_bialgebra2_weak_exit_zero(files, capsys):
    assert cli_main(["check", files["bialgebra-2.json"],
                     "--suite", "bialgebra-weak"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "bialgebra-weak" in out


def test_antipode_bialgebra1_no_solution_exit_one(files, capsys):
    assert cli_main(["antipode", files["bialgebra-1.json"]]) == 1
    assert "no antipode" in capsys.readouterr().out


def test_identities_exit_zero(capsys):
    assert cli_main(["identities", "--dim", "2"]) == 0
    assert "failures=0" in capsys.readouterr().out


def test_antipode_bialgebra2_unique(files, capsys):
    assert cli_main(["antipode", files["bialgebra-2.json"]]) == 0
    out = capsys.readouterr().out
    assert "unique antipode" in out


def test_check_default_suites(files):
    assert cli_main(["check", files["bialgebra-2.json"]]) == 0
    assert cli_main(["check", files["mu1.json"]]) == 0
    assert cli_main(["check", files["hopf-2.json"]]) == 0


def test_hopf_check_reads_the_constructors_antipode_verdict(files, monkeypatch, capsys):
    import homalg.bialgebra
    import homalg.cli

    calls = []
    original = homalg.bialgebra.antipode_defect

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(homalg.bialgebra, "antipode_defect", counted)
    monkeypatch.setattr(homalg.cli, "antipode_defect", counted, raising=False)
    assert cli_main(["check", files["hopf-2.json"]]) == 0
    # the parse builds the HomHopf, which verifies the antipode once
    assert len(calls) == 1
    assert f"[PASS] {files['hopf-2.json']}: antipode equations: ok\n" in capsys.readouterr().out


def test_a_wrong_antipode_names_its_basis_vector_from_one(files, tmp_path, capsys):
    data = json.loads(Path(files["hopf-2.json"]).read_text())
    data["antipode"] = [["1", "0"], ["0", "2"]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert _usage_error(["check", str(p)], capsys) == \
        f"error: {p}: antipode: antipode equations fail at basis indices 2\n"


def test_check_failure_exit_one(tmp_path, capsys):
    # corrupt the counit so the coassoc suite fails
    b = bialgebra_row(2)
    data = json.loads(serialize_structure(b))
    data["counit"] = ["1", "1"]
    p = tmp_path / "broken.json"
    p.write_text(json.dumps(data))
    assert cli_main(["check", str(p), "--suite", "coassoc"]) == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_parse_error_exit_two(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli_main(["check", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_file_exit_two(capsys):
    assert cli_main(["check", "/nonexistent/file.json"]) == 2


def test_usage_error_exit_two():
    assert cli_main(["check"]) == 2
    assert cli_main(["no-such-command"]) == 2


def test_dualize_round_trip(files, tmp_path, capsys):
    out_path = tmp_path / "dual.json"
    assert cli_main(["dualize", files["mu1.json"], "-o", str(out_path)]) == 0
    dual = parse_structure(out_path.read_text())
    assert dual.dim == 2
    # dual of a unital Hom-associative algebra is a counital coalgebra
    assert cli_main(["check", str(out_path), "--suite", "coassoc"]) == 0


def test_dualize_stdout(files, capsys):
    assert cli_main(["dualize", files["bialgebra-2.json"]]) == 0
    out = capsys.readouterr().out
    assert '"kind": "bialgebra"' in out


def test_primitives_and_gprimitives(files, capsys):
    assert cli_main(["primitives", files["bialgebra-2.json"]]) == 0
    assert "zero" in capsys.readouterr().out
    assert cli_main(["gprimitives", files["bialgebra-2.json"]]) == 0
    assert "2 vector(s)" in capsys.readouterr().out


def test_convolution_test_cli(files, capsys):
    assert cli_main(["convolution-test", files["bialgebra-2.json"]]) == 0
    assert "ok" in capsys.readouterr().out


def test_search_extension_mu2_inconsistent(files, capsys):
    assert cli_main(["search-extension", files["mu2.json"]]) == 0
    out = capsys.readouterr().out
    assert "inconsistent" in out and "certificate" in out


def test_search_extension_mu1_solutions(files, capsys):
    assert cli_main(["search-extension", files["mu1.json"]]) == 0
    out = capsys.readouterr().out
    assert "4 rational point(s)" in out
    assert "x22=-2" in out  # table row 2


def test_search_extension_capped_exit_three(files, capsys):
    assert cli_main(["search-extension", files["mu1.json"],
                     "--pair-cap", "1"]) == 3
    assert "inconclusive" in capsys.readouterr().out


def test_search_extension_strict_alpha(files, capsys):
    assert cli_main(["search-extension", files["mu2.json"],
                     "--strict-alpha"]) == 0
    assert "inconsistent" in capsys.readouterr().out


def test_search_extension_certificate_pinned(tmp_path, capsys):
    # the whole certificate, byte for byte: a change of solver arithmetic that
    # keeps the computation's path must print the same cofactors; the affine
    # generators alone are inconsistent here, so the certificate is linear
    path = tmp_path / "mu1-2-3.json"
    path.write_text(serialize_structure(registry()["algebra-mu1"].build({"a1": 2, "a2": 3})))
    assert cli_main(["search-extension", str(path), "--strict-alpha"]) == 0
    assert capsys.readouterr().out == (
        "inconsistent: no Hom-bialgebra extension exists\n"
        "certificate cofactors (recombine with the generators to 1):\n"
        "  (-1/2) * (x11 - 2)\n"
        "  (-1/2) * (-x11)\n"
    )


def test_examples_listing(capsys):
    assert cli_main(["examples"]) == 0
    out = capsys.readouterr().out
    for name in ("algebra-mu1", "algebra-mu2", "bialgebra-1", "bialgebra-2",
                 "bialgebra-3", "hopf-2"):
        assert name in out


def test_examples_emit_and_check(tmp_path, capsys):
    out_path = tmp_path / "b2.json"
    assert cli_main(["examples", "bialgebra-2", "--param", "b1=1",
                     "--param", "b2=0", "--param", "b3=1",
                     "-o", str(out_path)]) == 0
    assert cli_main(["check", str(out_path)]) == 0


def test_examples_missing_binding_exit_two(capsys):
    assert cli_main(["examples", "algebra-mu1", "--param", "a1=1"]) == 2
    assert "missing parameter" in capsys.readouterr().err


def test_examples_bad_param_syntax(capsys):
    assert cli_main(["examples", "algebra-mu1", "--param", "a1:1"]) == 2


def test_module_comodule_suites(files):
    assert cli_main(["check", files["mu1.json"], "--suite", "module"]) == 0
    assert cli_main(["check", files["bialgebra-2.json"],
                     "--suite", "comodule"]) == 0


@pytest.mark.parametrize("suite, structure, line", [
    ("module", HomAlgebra(MulTensor.from_entries(2, {(0, 1, 0): 1}), LinearMap.identity(2)),
     "self-module (M=V, f=alpha, gamma=mu): violated"),
    ("comodule", HomCoalgebra(ComulTensor.from_entries(2, {(0, 0, 1): 1}), LinearMap.identity(2)),
     "self-comodule (M=V, g=beta, rho=Delta): violated"),
], ids=["module", "comodule"])
def test_module_comodule_suites_fail_off_hom_associativity(tmp_path, capsys, suite, structure,
                                                          line):
    # e1.e2 = e1 has the associator (e1.e2).e2 - e1.(e2.e2) = e1; Delta(e1) = e1 (x) e2
    # has the coassociator e1 (x) e2 (x) e2
    p = tmp_path / f"{suite}.json"
    p.write_text(serialize_structure(structure))
    assert cli_main(["check", str(p), "--suite", suite]) == 1
    assert capsys.readouterr().out == f"[FAIL] {p}: {line}\n"


def test_G_suites(files):
    for g in ("G1", "G2", "G3", "G4", "G5", "G6"):
        assert cli_main(["check", files["bialgebra-2.json"], "--suite", g]) == 0


def test_lie_admissible_suite(files):
    assert cli_main(["check", files["bialgebra-2.json"],
                     "--suite", "lie-admissible"]) == 0


def test_identities_dim_zero_is_usage_error(capsys):
    assert cli_main(["identities", "--dim", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--dim" in captured.err


def test_convolution_test_negative_samples_is_usage_error(files, capsys):
    assert cli_main(["convolution-test", files["bialgebra-2.json"],
                     "--samples", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--samples" in captured.err


def test_check_deeply_nested_json_is_parse_error(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 10000 + "]" * 10000)
    assert cli_main(["check", str(p)]) == 2
    assert "nested too deeply" in capsys.readouterr().err


def _run_cli_process(args, timeout, **kwargs):
    """Run the CLI in a fresh interpreter that imports this checkout's homalg."""
    src = str(Path(homalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "homalg.cli", *args], env=env,
                          stderr=subprocess.PIPE, text=True, timeout=timeout, **kwargs)


def test_closed_stdout_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)   # every write to stdout now fails with EPIPE
    try:
        proc = _run_cli_process(["examples"], timeout=60, stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in proc.stderr


def test_search_extension_huge_constant_is_bounded(tmp_path):
    algebra = json.loads(serialize_structure(
        registry()["algebra-mu2"].build({"a1": 1, "a2": 2})))
    algebra["mul"][1][1][1] = str(10 ** 30)
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(algebra))
    start = time.monotonic()
    proc = _run_cli_process(["search-extension", str(p)], timeout=30,
                            stdout=subprocess.PIPE)
    assert time.monotonic() - start < 5
    assert proc.returncode in (0, 1, 3)
    assert "Traceback" not in proc.stderr


def test_search_extension_failing_certificate_exits_3(files, capsys, monkeypatch):
    import homalg.polysolve

    monkeypatch.setattr(homalg.polysolve, "verify_certificate", lambda gens, cert: False)
    assert cli_main(["search-extension", files["mu2.json"]]) == 3
    assert capsys.readouterr().out.startswith("inconclusive: solver found the system inconsistent")


def _run_optimized(prefix, args):
    """``python -O`` (asserts stripped) on this checkout's homalg."""
    src = str(Path(homalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-O", *prefix, *args], env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60)


def test_search_extension_under_python_O(files):
    proc = _run_optimized(["-m", "homalg.cli"], ["search-extension", files["mu2.json"]])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("inconsistent") and "certificate" in proc.stdout
    # the certificate is still checked when asserts are stripped
    patched = ("import homalg.polysolve as P; "
               "P.verify_certificate = lambda gens, cert: False; "
               "from homalg.cli import main; main()")
    proc = _run_optimized(["-c", patched], ["search-extension", files["mu2.json"]])
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.startswith("inconclusive:") and "Traceback" not in proc.stderr


def test_convolution_test_is_exact_at_dim_3(tmp_path, capsys):
    p = tmp_path / "z3.json"
    p.write_text(serialize_structure(cyclic_group_bialgebra()))
    assert cli_main(["convolution-test", str(p)]) == 0
    assert capsys.readouterr().out == \
        "convolution Hom-associativity (exact, all basis-matrix triples): ok\n"


@pytest.mark.parametrize("kind", [["algebra"], {"kind": "algebra"}])
def test_non_string_kind_exits_two_without_traceback(tmp_path, capsys, kind):
    p = tmp_path / "kind.json"
    p.write_text(json.dumps({"kind": kind, "dim": 2}))
    assert cli_main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "kind: expected one of" in err
    assert "Traceback" not in err


def test_huge_entry_exits_two_naming_the_digit_limit(files, tmp_path, capsys):
    data = json.loads(Path(files["mu1.json"]).read_text())
    data["mul"][0][0][0] = "1" * 5001
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(data))
    assert cli_main(["check", str(p)]) == 2
    err = capsys.readouterr().err
    assert "mul[0][0][0]" in err and "get_int_max_str_digits" in err
    assert len(err) < 300


@pytest.mark.parametrize("value", ["1e20000000", "1e-20000000"])
def test_huge_exponent_exits_two_at_once(files, tmp_path, capsys, value):
    data = json.loads(Path(files["mu1.json"]).read_text())
    data["mul"][0][0][0] = value
    p = tmp_path / "exponent.json"
    p.write_text(json.dumps(data))
    start = time.perf_counter()
    assert cli_main(["check", str(p)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "mul[0][0][0]" in err and "exponent" in err


def test_exponent_over_the_digit_limit_is_a_usage_error(files, tmp_path, capsys):
    data = json.loads(Path(files["mu2.json"]).read_text())
    data["mul"][0][0][0] = "1e4400"
    p = tmp_path / "exponent.json"
    p.write_text(json.dumps(data))
    for argv in (["check", str(p)], ["dualize", str(p)],
                 ["examples", "algebra-mu2", "--param", "a1=1e4400", "--param", "a2=1"]):
        assert "get_int_max_str_digits" in _usage_error(argv, capsys)
    data["mul"][0][0][0] = "1e400"
    p.write_text(json.dumps(data))
    assert cli_main(["dualize", str(p)]) == 0
    assert '"1' + "0" * 400 + '"' in capsys.readouterr().out


@pytest.fixture
def side_files(files, tmp_path):
    """The algebra, coalgebra, bialgebra and hopf files, by kind."""
    coalgebra = dual_coalgebra_of_algebra(
        registry()["algebra-mu1"].build({"a1": 1, "a2": 2}))
    p = tmp_path / "comu1.json"
    p.write_text(serialize_structure(coalgebra))
    return {"algebra": files["mu1.json"], "coalgebra": str(p),
            "bialgebra": files["bialgebra-2.json"], "hopf": files["hopf-2.json"]}


def _usage_error(argv, capsys) -> str:
    """Run the CLI in process; assert exit 2, empty stdout and no traceback;
    return stderr."""
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("kind", ["algebra", "coalgebra"])
@pytest.mark.parametrize("command, message", [
    ("antipode", "antipode needs a bialgebra or hopf structure file"),
    ("primitives", "primitive subspaces need a bialgebra or hopf structure file"),
    ("gprimitives", "primitive subspaces need a bialgebra or hopf structure file"),
    ("convolution-test", "convolution-test needs a bialgebra or hopf structure file"),
])
def test_bialgebra_commands_reject_one_sided_files(side_files, capsys, kind, command, message):
    assert _usage_error([command, side_files[kind]], capsys) == f"error: {message}\n"


@pytest.mark.parametrize("suite, message", [
    ("bialgebra-weak", "suite bialgebra-weak needs a bialgebra or hopf structure"),
    ("bialgebra-strict", "suite bialgebra-strict needs a bialgebra or hopf structure"),
    ("coassoc", "suite coassoc needs a coalgebra side"),
    ("comodule", "suite comodule needs a coalgebra side"),
])
def test_check_suites_reject_an_algebra_file(side_files, capsys, suite, message):
    err = _usage_error(["check", side_files["algebra"], "--suite", suite], capsys)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("suite", ["hom-assoc", "module"])
def test_check_suites_reject_a_coalgebra_file(side_files, capsys, suite):
    err = _usage_error(["check", side_files["coalgebra"], "--suite", suite], capsys)
    assert err == f"error: suite {suite} needs an algebra side\n"


def test_search_extension_rejects_a_coalgebra_file(side_files, capsys):
    err = _usage_error(["search-extension", side_files["coalgebra"]], capsys)
    assert err == "error: search-extension expects an algebra structure file\n"


@pytest.mark.parametrize("kind", ["algebra", "coalgebra", "bialgebra", "hopf"])
def test_dualize_twice_gives_back_the_input_bytes(side_files, tmp_path, capsys, kind):
    once, twice = tmp_path / "once.json", tmp_path / "twice.json"
    assert cli_main(["dualize", side_files[kind], "-o", str(once)]) == 0
    assert cli_main(["dualize", str(once), "-o", str(twice)]) == 0
    assert twice.read_bytes() == Path(side_files[kind]).read_bytes()
    assert capsys.readouterr().out == f"wrote {once}\nwrote {twice}\n"


@pytest.mark.parametrize("argv", [
    ["dualize", "{bialgebra}"],
    ["examples", "bialgebra-2", "--param", "b1=1", "--param", "b2=0", "--param", "b3=1"],
])
def test_unwritable_output_exits_two(side_files, tmp_path, capsys, argv):
    target = tmp_path / "no-such-dir" / "x.json"
    argv = [a.format(**side_files) for a in argv] + ["-o", str(target)]
    err = _usage_error(argv, capsys)
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_empty_output_path_exits_two_on_dualize(side_files, capsys):
    # an empty -o names no file: it is not the absent -o that writes to stdout
    err = _usage_error(["dualize", side_files["bialgebra"], "-o", ""], capsys)
    assert err.startswith("error: cannot write : ")


def test_empty_output_path_exits_two_on_examples(capsys):
    argv = ["examples", "bialgebra-2", "--param", "b1=1", "--param", "b2=0", "--param", "b3=1"]
    err = _usage_error(argv + ["-o", ""], capsys)
    assert err.startswith("error: cannot write : ")


def test_non_utf8_file_exits_two(tmp_path, capsys):
    p = tmp_path / "utf16.json"
    p.write_bytes(b"\xff\xfe{\x00}\x00")
    assert _usage_error(["check", str(p)], capsys).startswith(f"error: cannot read {p}: ")


@pytest.mark.parametrize("flag, value, minimum", [
    ("--pair-cap", "-5", 1), ("--pair-cap", "0", 1), ("--degree-cap", "-1", 0),
])
def test_search_extension_caps_below_their_minimum_are_usage_errors(
        files, capsys, flag, value, minimum):
    err = _usage_error(["search-extension", files["mu2.json"], flag, value], capsys)
    assert f"argument {flag}: must be at least {minimum}, got {value}" in err


def test_search_extension_non_integer_pair_cap_is_a_usage_error(files, capsys):
    err = _usage_error(["search-extension", files["mu2.json"], "--pair-cap", "abc"], capsys)
    assert "argument --pair-cap: invalid int value: 'abc'" in err


def test_unknown_example_is_a_usage_error(capsys):
    err = _usage_error(["examples", "nope"], capsys)
    assert err == "error: unknown example 'nope'; run `examples` to list\n"


def test_examples_listing_rejects_an_output_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    err = _usage_error(["examples", "-o", "out.json", "--param", "a1=1"], capsys)
    assert err == "error: -o/--output needs an example name; the listing takes neither flag\n"
    assert not (tmp_path / "out.json").exists()


def test_examples_listing_rejects_a_parameter(capsys):
    err = _usage_error(["examples", "--param", "a1=1"], capsys)
    assert err == "error: --param needs an example name; the listing takes neither flag\n"


def test_examples_rejects_a_repeated_parameter(capsys):
    err = _usage_error(["examples", "algebra-mu1", "--param", "a1=1", "--param", "a2=1",
                        "--param", " a1=5"], capsys)
    assert err == "error: --param a1 given more than once\n"


def test_check_rejects_a_repeated_suite(files, tmp_path, capsys):
    # hom-assoc fails on this file and coassoc passes, so a suite silently
    # dropped would turn a failure into exit 0
    data = json.loads(Path(files["bialgebra-2.json"]).read_text())
    data["mul"][0][1] = data["mul"][1][1] = ["1", "1"]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(data))
    assert cli_main(["check", str(p), "--suite", "hom-assoc"]) == 1
    assert "[FAIL]" in capsys.readouterr().out
    for suites in (["hom-assoc", "coassoc"], ["coassoc", "hom-assoc"], ["G1", "G1"]):
        argv = ["check", str(p)] + [arg for s in suites for arg in ("--suite", s)]
        assert _usage_error(argv, capsys) == "error: --suite given more than once\n"


@pytest.mark.parametrize("argv, option", [
    (["identities", "--dim", "1", "--dim", "2"], "--dim"),
    (["identities", "--dim=2", "--dim=2"], "--dim"),
    (["dualize", "{bialgebra}", "-o", "x1.json", "-o", "x2.json"], "-o/--output"),
    (["dualize", "{bialgebra}", "-o", "x1.json", "--output", "x2.json"], "-o/--output"),
    (["examples", "bialgebra-2", "--param", "b1=1", "--param", "b2=0", "--param", "b3=1",
      "-o", "x1.json", "-o", "x2.json"], "-o/--output"),
    (["search-extension", "{algebra}", "--degree-cap", "4", "--degree-cap", "5"],
     "--degree-cap"),
    (["search-extension", "{algebra}", "--pair-cap", "9", "--pair-cap", "9"], "--pair-cap"),
])
def test_repeated_single_valued_options_are_usage_errors(side_files, tmp_path, monkeypatch,
                                                         capsys, argv, option):
    # argparse would keep the last value silently: a second run or file, not an error
    workdir = tmp_path / "out"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    argv = [a.format(**side_files) for a in argv]
    assert _usage_error(argv, capsys) == f"error: {option} given more than once\n"
    assert list(workdir.iterdir()) == []


def test_bialgebra_file_without_unit_exits_two(files, tmp_path, capsys):
    data = json.loads(Path(files["bialgebra-2.json"]).read_text())
    data["unit"] = None
    p = tmp_path / "nounit.json"
    p.write_text(json.dumps(data))
    assert _usage_error(["check", str(p)], capsys) == f"error: {p}: bialgebra needs a unit\n"


def test_bialgebra_file_without_counit_exits_two(files, tmp_path, capsys):
    data = json.loads(Path(files["bialgebra-2.json"]).read_text())
    data["counit"] = None
    p = tmp_path / "nocounit.json"
    p.write_text(json.dumps(data))
    assert _usage_error(["check", str(p)], capsys) == f"error: {p}: bialgebra needs a counit\n"


@pytest.mark.parametrize("strict", [[], ["--strict-alpha"]], ids=["weak", "strict"])
def test_search_extension_positive_dimensional_exit_zero(tmp_path, capsys, monkeypatch, strict):
    # no unital dim-2 algebra is known to leave a curve of solutions, so the
    # consistent mu1 system at a1 = a2 = 1 stands in for one
    monkeypatch.setattr(homalg.polysolve, "is_zero_dimensional", lambda basis, order: False)
    homalg.polysolve._lex_solve.cache_clear()
    p = tmp_path / "mu1.json"
    p.write_text(serialize_structure(mu1_algebra(1, 1)))
    try:
        assert cli_main(["search-extension", str(p), *strict]) == 0
    finally:
        homalg.polysolve._lex_solve.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == "solutions exist (positive-dimensional); not enumerated\n"
    assert captured.err == ""


@pytest.mark.parametrize("strict", [[], ["--strict-alpha"]], ids=["weak", "strict"])
def test_search_extension_non_unital_exits_two(tmp_path, capsys, strict):
    # e1 . e1 = e1 is the only product: e1 is no unit for e2, so the search
    # exits 2 naming the unital premise
    algebra = HomAlgebra(MulTensor.from_entries(2, {(0, 0, 0): 1}), LinearMap.identity(2),
                         Vector.basis(2, 0))
    p = tmp_path / "idempotent.json"
    p.write_text(serialize_structure(algebra))
    assert cli_main(["search-extension", str(p), *strict]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: extension search requires a unital algebra: "
                            "the unit e1 is not two-sided\n")


def test_search_extension_degree_cap_zero_is_accepted(files, capsys):
    assert cli_main(["search-extension", files["mu2.json"], "--degree-cap", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith("inconclusive: solver capped: degree_cap=0 exceeded")
    assert captured.err == ""


def test_boolean_dim_exits_two_naming_dim(files, tmp_path, capsys):
    data = json.loads(Path(files["mu1.json"]).read_text())
    data["dim"] = True
    p = tmp_path / "booldim.json"
    p.write_text(json.dumps(data))
    err = _usage_error(["check", str(p)], capsys)
    assert err == f"error: {p}: dim: expected a positive integer, got True\n"


# --- output branches pinned byte for byte ---------------------------------------------

def test_antipode_affine_family_output(tmp_path, capsys):
    # zero comultiplication and counit: every antipode equation reads 0 = 0
    zero = HomBialgebra(
        algebra=bialgebra_row(2).algebra,
        coalgebra=HomCoalgebra(comul=ComulTensor.zero(2), beta=LinearMap.identity(2),
                               counit=Vector([0, 0])),
    )
    p = tmp_path / "zero.json"
    p.write_text(serialize_structure(zero))
    assert cli_main(["antipode", str(p)]) == 0
    assert capsys.readouterr().out == (
        "affine family of antipodes (kernel dimension 4); one solution:\n"
        "  [0, 0]\n"
        "  [0, 0]\n"
    )


def test_convolution_test_premises_not_met_output(files, tmp_path, capsys):
    data = json.loads(Path(files["bialgebra-2.json"]).read_text())
    data["beta"] = [["1", "1"], ["1", "1"]]
    p = tmp_path / "twisted.json"
    p.write_text(json.dumps(data))
    assert cli_main(["convolution-test", str(p)]) == 1
    assert capsys.readouterr().out == (
        "premises not met: the structure must be Hom-associative and Hom-coassociative\n"
    )


@pytest.mark.parametrize("command", ["primitives", "gprimitives"])
def test_primitives_premises_not_met_output(files, tmp_path, capsys, command):
    # a bialgebra file that parses but whose counit does not vanish on a primitive
    data = json.loads(Path(files["mu2.json"]).read_text())
    data.update(kind="bialgebra", alpha=[["1", "0"], ["0", "1"]],
                comul=[[["1", "0"], ["0", "0"]], [["0", "1"], ["1", "0"]]],
                beta=[["1", "0"], ["0", "1"]], counit=["1", "1"])
    p = tmp_path / "premises.json"
    p.write_text(json.dumps(data))
    assert cli_main([command, str(p)]) == 1
    assert capsys.readouterr() == (
        "premises not met: counit does not vanish on primitive element (0, 1)\n", "")


def test_check_coalgebra_without_counit_skips_counital(files, tmp_path, capsys):
    data = json.loads(serialize_structure(dual_coalgebra_of_algebra(
        parse_structure(Path(files["mu1.json"]).read_text()))))
    del data["counit"]
    p = tmp_path / "nocounit.json"
    p.write_text(json.dumps(data))
    assert cli_main(["check", str(p)]) == 0
    assert capsys.readouterr().out == "".join(f"[{status}] {p}: {check}\n" for status, check in [
        ("PASS", "hom-coassociative: ok"),
        ("SKIP", "counital (no counit declared)"),
        ("PASS", "hom-lie-admissible (cyclic): ok"),
        ("PASS", "hom-lie-admissible (alternating): ok"),
        ("PASS", "admissibility methods agree: ok"),
        ("PASS", "self-comodule (M=V, g=beta, rho=Delta): ok"),
    ])


# --- identities: one exact proof per dimension -------------------------------

@pytest.mark.parametrize("dim, variables", [(1, 2), (2, 12), (3, 36)])
def test_identities_exact_stdout(dim, variables, capsys):
    assert cli_main(["identities", "--dim", str(dim)]) == 0
    assert capsys.readouterr().out == (
        f"identity suite: dim={dim} exact (generic coalgebra, {variables} variables): "
        "failures=0\n")


def test_sampling_flags_are_usage_errors(files, capsys):
    # both checks are exact, so neither command takes --samples or --seed
    for command in (["convolution-test", files["bialgebra-2.json"]], ["identities"]):
        for flag in ("--samples", "--seed"):
            assert cli_main(command + [flag, "5"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and f"unrecognized arguments: {flag} 5" in captured.err


@pytest.mark.parametrize("dim", [4, 6, 50])
def test_identities_above_dim_3_follow_from_dim_3_at_once(dim, capsys):
    start = time.perf_counter()
    assert cli_main(["identities", "--dim", str(dim)]) == 0
    assert time.perf_counter() - start < 1
    out = capsys.readouterr()
    assert out.out == (f"identity suite: dim={dim} exact (implied by the generic coalgebra "
                       "of dim 3, 36 variables): failures=0\n")
    assert out.err == ""


def test_identities_hold_little_memory_afterwards(capsys):
    import tracemalloc

    tracemalloc.start()
    try:
        assert cli_main(["identities", "--dim", "50"]) == 0
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the generic coalgebra's Poly cubes and its compositions go with it
    assert held < 8 * 2 ** 20


def test_identities_counts_a_failing_identity(monkeypatch, capsys):
    import homalg.cli

    monkeypatch.setattr(homalg.cli, "lemma_identities_check",
                        lambda coalgebra: (True, False, True, True, True))
    assert cli_main(["identities", "--dim", "2"]) == 1
    assert capsys.readouterr().out.endswith("failures=1\n")


def test_repeated_calls_keep_their_own_params(capsys):
    for b1, b3 in (("1", "1"), ("2", "5")):
        assert cli_main(["examples", "bialgebra-2", "--param", f"b1={b1}",
                         "--param", "b2=0", "--param", f"b3={b3}"]) == 0
        params = json.loads(capsys.readouterr().out)["params"]
        assert params == {"b1": b1, "b2": "0", "b3": b3}
    assert cli_main(["examples", "bialgebra-2"]) == 2
    assert "b1" in capsys.readouterr().err


# --- the README's CLI section and the parser agree ------------------------------

def test_readme_library_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_readme_cli_section_matches_the_parser():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = set()
    for name, sub in [(None, parser)] + sorted(commands.choices.items()):
        assert name is None or f"homalg {name}" in section, name
        accepted |= {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert sorted(accepted - named) == [], "accepted, not in the README"
    assert sorted(named - accepted) == [], "in the README, not accepted"


def test_every_subcommand_has_a_handler(files, capsys):
    """Each subcommand is registered with the handler that runs it, in the
    order `homalg --help` lists them; one without a handler would end in an
    AttributeError traceback instead of an exit code.  A handler decides and
    prints nothing: it returns its exit code and records, and rendering those
    records gives cli_main's stdout byte for byte."""
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(commands.choices) == [
        "check", "dualize", "antipode", "primitives", "gprimitives", "convolution-test",
        "identities", "search-extension", "examples"]
    b2 = files["bialgebra-2.json"]
    argvs = {
        "check": [files["hopf-2.json"]], "dualize": [b2], "antipode": [b2],
        "primitives": [b2], "gprimitives": [b2], "convolution-test": [b2],
        "identities": ["--dim", "1"], "search-extension": [files["mu1.json"]], "examples": [],
    }
    for name, sub in commands.choices.items():
        assert callable(sub.get_default("run")), name
        assert cli_main([name, "--help"]) == 0, name
        assert f"usage: homalg {name}" in capsys.readouterr().out
        args = parser.parse_args([name, *argvs[name]])
        code, records = args.run(args)
        assert isinstance(code, int) and isinstance(records, list), name
        assert capsys.readouterr() == ("", ""), name
        rendered = "".join(f"{line}\n" for record in records for line in _render_text(record))
        assert rendered, name
        assert cli_main([name, *argvs[name]]) == code, name
        assert capsys.readouterr().out == rendered, name
