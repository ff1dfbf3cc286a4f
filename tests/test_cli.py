import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import homalg
from homalg import parse_structure, registry, serialize_structure
from homalg.cli import cli_main

from conftest import bialgebra_row, cyclic_group_bialgebra


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
    assert cli_main(["identities", "--dim", "2", "--samples", "40",
                     "--seed", "7"]) == 0
    assert "failures=0" in capsys.readouterr().out


def test_antipode_bialgebra2_unique(files, capsys):
    assert cli_main(["antipode", files["bialgebra-2.json"]]) == 0
    out = capsys.readouterr().out
    assert "unique antipode" in out


def test_check_default_suites(files):
    assert cli_main(["check", files["bialgebra-2.json"]]) == 0
    assert cli_main(["check", files["mu1.json"]]) == 0
    assert cli_main(["check", files["hopf-2.json"]]) == 0


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
    assert cli_main(["convolution-test", files["bialgebra-2.json"],
                     "--samples", "5"]) == 0
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
    assert cli_main(["convolution-test", str(p), "--samples", "0"]) == 0
    assert capsys.readouterr().out == \
        "convolution Hom-associativity (exact, all basis-matrix triples): ok\n"
