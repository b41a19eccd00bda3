import json
import os
import random
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from generators import boxed_doubling, perfbench_workloads, random_ast_program, rng
from pqc import cli
from pqc.algebras import ALGEBRAS, AssertValue, Cost, Effect
from pqc.circuits import WireType, deserialize
from pqc.cli import main
from pqc.effects import infer_program_effect, verify_dynamic
from pqc.errors import PqcError, ShapeMismatch, Stuck, UnsupportedWire
from pqc.gates import default_registry
from pqc.syntax import parse_program, parse_value, show_program
from pqc.typecheck import check_program

registry = default_registry()

HERE = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(HERE, os.pardir, "demos")


def demo(name: str) -> str:
    return os.path.join(DEMOS, name)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --------------------------------------------------------------------------
# check
# --------------------------------------------------------------------------

def test_check_ok(capsys):
    code, out, _ = run_cli(capsys, "check", demo("bell.pqc"))
    assert code == 0
    assert out.startswith("ok: ")


def test_check_metric_reports_effect(capsys):
    code, out, _ = run_cli(capsys, "check", demo("bell.pqc"),
                           "--metric", "gates")
    assert code == 0
    doc = json.loads(out)
    assert doc["metric"] == "gates"
    assert doc["value"] == 4


def test_check_bound_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, "check", demo("bell.pqc"),
                           "--metric", "gates", "--bound", "4")
    assert code == 0
    assert json.loads(out)["within_bound"] is True

    code, out, _ = run_cli(capsys, "check", demo("bell.pqc"),
                           "--metric", "gates", "--bound", "3")
    assert code == 1
    assert json.loads(out)["within_bound"] is False


def test_check_bound_without_metric(capsys):
    code, _, err = run_cli(capsys, "check", demo("bell.pqc"), "--bound", "3")
    assert code == 2
    assert "--metric" in err


def skip_checker(monkeypatch):
    # a well-typed program never gets stuck: let an ill-typed one through
    monkeypatch.setattr(cli, "check_program", lambda *args: None)


def fail_comparison(monkeypatch):
    # the static bounds are sound: make the comparison itself say no
    monkeypatch.setattr(ALGEBRAS["gates"], "leq", lambda a, b: False)


# a lifted function of 3000 binders as the result: readback walks its block
DEEP_CLOSURE = (r"inputs; let f = return (lift return (\x: Nat. "
                + "let y = return x in " * 3000 + "return y)) in return f\n")

BAD_INPUTS = {
    "parse.pqc": b"inputs q Qubit; return q",
    "illtyped.pqc": b"inputs q: Qubit; return (q, q)",
    "bits.pqc": b"inputs q: Qubit; let b = apply(@meas, q) in return b",
    "gate_as_function.pqc": b"inputs q: Qubit; @H q",
    "binary.pqc": b"\xff\xfe",
    "deep.pqc": (b"inputs q: Qubit;\n" + b"let q = apply(@H, q) in\n" * 3000
                 + b"return q\n"),
    "deep_closure.pqc": DEEP_CLOSURE.encode(),
    "deep_ifz.pqc": (b"inputs q: Qubit;\n" + b"ifz 0 then " * 3000 + b"return q"
                     + b" else return q" * 3000 + b"\n"),
    "wide.pqc": ("inputs " + ", ".join(f"a{i}: Qubit" for i in range(24))
                 + ";\nlet a0 = apply(@H, a0) in\nreturn ("
                 + ", ".join(f"a{i}" for i in range(24)) + ")\n").encode(),
    "costly.pqcg": (b'gate big : Qubit -> Qubit\n'
                    b'  assert "0" -> {"1"} cost 2147483648\n'
                    b'  assert "1" -> {"0"} cost 0\n'),
    "costly.pqc": b'inputs q: Qubit;\ngates "costly.pqcg";\napply(@big, q)\n',
    # 2^53 + 1: as a float it reads 2^53
    "deep_gate.pqcg": b'gate slow : Qubit -> Qubit\n  depth 9007199254740993\n',
    "deep_gate.pqc": b'inputs q: Qubit;\ngates "deep_gate.pqcg";\napply(@slow, q)\n',
    # a depth ascription too large for a float
    "huge_bound.pqc": ("inputs q: Qubit;\n"
                       r"let f = return (lift return (\x: Qubit. apply(@H, x))) in"
                       "\nlet h = return (\\g: !(Qubit -o[I; 1" + "0" * 400
                       + "] Qubit). let k = force g in return k) in\n"
                       "let k = h f in k q\n").encode(),
}


@pytest.mark.parametrize("argv, code, patch", [
    pytest.param(["check", "parse.pqc"], 2, None, id="parse-error"),
    pytest.param(["check", "illtyped.pqc"], 2, None, id="type-error"),
    pytest.param(["analyze", "bits.pqc", "--metric", "assert"], 2, None,
                 id="effect-error"),
    pytest.param(["run", "gate_as_function.pqc"], 2, skip_checker, id="stuck"),
    pytest.param(["verify", "bell.pqc", "--metric", "gates", "--fuel", "3"], 2,
                 None, id="fuel-exhausted"),
    pytest.param(["check", "missing.pqc"], 2, None, id="missing-file"),
    pytest.param(["check", "."], 2, None, id="directory"),
    pytest.param(["check", "binary.pqc"], 2, None, id="not-utf8"),
    pytest.param(["check", "deep.pqc"], 0, None, id="deep-let-chain"),
    pytest.param(["check", "deep_ifz.pqc"], 2, None, id="too-deep"),
    pytest.param(["run", "deep_closure.pqc"], 0, None, id="deep-closure-readback"),
    pytest.param(["verify", "wide.pqc", "--metric", "assert"], 2, None,
                 id="too-wide"),
    pytest.param(["analyze", "costly.pqc", "--metric", "assert"], 2, None,
                 id="cost-too-large"),
    pytest.param(["analyze", "deep_gate.pqc", "--metric", "depth"], 2, None,
                 id="depth-weight-too-large"),
    pytest.param(["check", "deep_gate.pqc", "--metric", "depth",
                  "--bound", "9007199254740992"], 2, None,
                 id="depth-weight-too-large-bound"),
    pytest.param(["analyze", "huge_bound.pqc", "--metric", "depth"], 2, None,
                 id="depth-bound-too-large"),
    pytest.param(["analyze", "interleave.pqc", "--metric", "assert",
                  "--precondition", "0x1"], 2, None, id="bad-precondition"),
    pytest.param(["analyze", "interleave.pqc", "--metric", "assert",
                  "--precondition", ","], 2, None, id="empty-precondition"),
    pytest.param(["analyze", "lnn.pqc", "--metric", "assert", "--restrict", "-1"],
                 2, None, id="restrict-negative"),
    pytest.param(["analyze", "lnn.pqc", "--metric", "assert", "--restrict", "5"],
                 2, None, id="restrict-too-wide"),
    pytest.param(["run", "bell.pqc", "--fuel", "-1"], 2, None, id="fuel-negative"),
    pytest.param(["verify", "bell.pqc", "--metric", "gates", "--fuel", "-1"], 2,
                 None, id="verify-fuel-negative"),
    pytest.param(["check", "bell.pqc", "--metric", "depth", "--bound", "-1"], 2,
                 None, id="bound-negative"),
    pytest.param(["check", "bell.pqc", "--metric", "gates", "--bound", "3"], 1,
                 None, id="bound-exceeded"),
    pytest.param(["verify", "bell.pqc", "--metric", "gates"], 1, fail_comparison,
                 id="verify-failed"),
    pytest.param(["verify", "lnn.pqc", "--metric", "assert"], 0, None,
                 id="success"),
])
def test_exit_codes(capsys, monkeypatch, tmp_path, argv, code, patch):
    """Exit 2 with one ``error:`` line on any failure, 1 when a requested
    check did not hold, 0 otherwise."""
    for name in os.listdir(DEMOS):
        shutil.copy(os.path.join(DEMOS, name), tmp_path)
    for name, data in BAD_INPUTS.items():
        (tmp_path / name).write_bytes(data)
    monkeypatch.chdir(tmp_path)
    if patch is not None:
        patch(monkeypatch)
    got, _, err = run_cli(capsys, *argv)
    assert got == code
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""
    if argv[1] == "deep_ifz.pqc":
        # a block's binders are read in loops; other nesting still recurses
        assert "nested too deeply" in err


def test_main_calls_share_no_options(capsys):
    # the parser is built once per process; each call parses afresh
    code, out, _ = run_cli(capsys, "analyze", demo("interleave.pqc"),
                           "--metric", "assert", "--precondition", "00")
    assert code == 0 and json.loads(out)["precondition"] == ["00"]
    code, out, _ = run_cli(capsys, "analyze", demo("interleave.pqc"),
                           "--metric", "gates")
    assert code == 0 and "precondition" not in json.loads(out)
    code, _, _ = run_cli(capsys, "check", demo("bell.pqc"), "--metric", "gates",
                         "--bound", "3")
    assert code == 1
    code, out, _ = run_cli(capsys, "check", demo("bell.pqc"))
    assert code == 0 and out.startswith("ok: ")
    assert cli._build_parser() is cli._build_parser()


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------

def test_run_draws_circuit(capsys):
    code, out, _ = run_cli(capsys, "run", demo("bell.pqc"))
    assert code == 0
    assert "[H]" in out
    assert "outputs:" in out
    assert "value:" in out


def test_run_json_and_emitted_circuit_agree(capsys, tmp_path):
    path = tmp_path / "bell.json"
    code, out, _ = run_cli(capsys, "run", demo("bell.pqc"),
                           "--json", "--emit-circuit", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["circuit"]["inputs"] == []
    assert doc["circuit"]["outputs"] == ["Qubit", "Qubit"]
    emitted = deserialize(path.read_bytes(), registry)
    assert json.loads(path.read_text()) == doc["circuit"]
    assert emitted.cod == (WireType.QUBIT, WireType.QUBIT)


def test_run_prints_a_long_closure_that_parses_back(capsys, tmp_path):
    path = tmp_path / "deep_closure.pqc"
    path.write_text(DEEP_CLOSURE)
    code, out, _ = run_cli(capsys, "run", "--json", str(path))
    assert code == 0
    lift = parse_program(DEEP_CLOSURE).term.binders[0].bound.value
    assert parse_value(json.loads(out)["value"]) == lift


@pytest.mark.parametrize("src, drawn, value", [
    ("inputs;\nlet c = box[Qubit] lift \\x: Qubit. apply(@H, x) in\nreturn (c, *)\n",
     "\noutputs: \n", "(<boxed circuit>, *)"),
    ("inputs;\nreturn (3, @H)\n", "\noutputs: \n", "(3, @H)"),
    ("inputs q: Qubit;\nreturn \\x: Qubit. return (x, q)\n",
     "Qubit -\noutputs: #0:Qubit\n", "\\x:Qubit. return (x, #0)"),
], ids=["boxed-and-unit", "number-and-gate", "closure-over-a-wire"])
def test_run_prints_values_that_are_not_wires(capsys, tmp_path, src, drawn, value):
    path = tmp_path / "p.pqc"
    path.write_text(src)
    assert run_cli(capsys, "run", str(path)) == (0, f"{drawn}value:   {value}\n", "")
    code, out, _ = run_cli(capsys, "run", "--json", str(path))
    assert code == 0 and json.loads(out)["value"] == value


def test_readme_library_block_runs_from_the_repo_root():
    root = os.path.join(HERE, os.pardir)
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        block = re.search(r"^## Library\n\n```python\n(.*?)^```", f.read(),
                          re.S | re.M).group(1)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", block], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "(#3, #4)\n", "")


@pytest.mark.parametrize("argv", [
    ["run", demo("lnn.pqc"), "--fuel", "-1"],
    ["verify", demo("lnn.pqc"), "--metric", "gates", "--fuel", "-1"],
    ["check", demo("lnn.pqc"), "--metric", "depth", "--bound", "-1"],
], ids=["run", "verify", "check"])
def test_a_negative_count_is_refused_by_its_option_name(capsys, argv):
    # not "evaluation fuel exhausted", nor a bound exceeded (exit 1)
    option = argv[-2]
    assert run_cli(capsys, *argv) == (
        2, "", f"error: {option} needs a natural number, got -1\n")


def test_run_fuel_exhaustion_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", demo("lnn.pqc"), "--fuel", "2")
    assert code == 2
    assert "fuel" in err


@pytest.mark.parametrize("command", ["run", "verify"])
def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch, command):
    # a circuit too big to build ends in one error line, not a traceback
    def exhausted(*args):
        raise MemoryError()
    monkeypatch.setattr("pqc.evaluator._run", exhausted)
    argv = [command, demo("bell.pqc")] + (["--metric", "gates"] if command == "verify" else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: out of memory\n")


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def test_analyze_depth_has_bound(capsys):
    code, out, _ = run_cli(capsys, "analyze", demo("interleave.pqc"),
                           "--metric", "depth")
    assert code == 0
    doc = json.loads(out)
    assert doc["depth_bound"] == 2


def test_depth_bound_of_a_closed_path_counts_its_gates(capsys, tmp_path):
    # H on the input beside init -> H -> H -> H -> discard: the longest
    # path runs from a created wire into a dead end, through 3 gates
    path = tmp_path / "closed.pqc"
    path.write_text("inputs q: Qubit; let q = apply(@H, q) in "
                    "let p = apply(@init, *) in let p = apply(@H, p) in "
                    "let p = apply(@H, p) in let p = apply(@H, p) in "
                    "let u = apply(@discard, p) in return q\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--metric", "depth")
    assert code == 0
    assert json.loads(out)["depth_bound"] == 3
    code, out, _ = run_cli(capsys, "verify", str(path), "--metric", "depth")
    assert code == 0
    assert json.loads(out)["dominated"] is True


def test_depth_prints_the_closed_path_as_its_corner(capsys, tmp_path):
    # the init -> H -> H -> H -> discard path touches neither the input nor
    # the output: only the corner "s" shows it, on both sides of verify
    path = tmp_path / "closed.pqc"
    path.write_text("inputs q: Qubit; let q = apply(@H, q) in "
                    "let p = apply(@init, *) in let p = apply(@H, p) in "
                    "let p = apply(@H, p) in let p = apply(@H, p) in "
                    "let u = apply(@discard, p) in return q\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--metric", "depth")
    assert code == 0
    assert json.loads(out)["value"] == {"A": [[1]], "v": ["-inf"], "w": ["-inf"], "s": 3}
    code, out, _ = run_cli(capsys, "verify", str(path), "--metric", "depth")
    doc = json.loads(out)
    assert code == 0
    assert doc["static"]["s"] == doc["dynamic"]["s"] == 3


def doubling(levels: int, tail: str) -> str:
    """H applied 2^levels times by doubling a lifted function, then ``tail``."""
    lines = ["inputs q: Qubit;",
             r"let f0 = return (lift return (\x: Qubit. let x = apply(@H, x) in return x)) in"]
    for i in range(1, levels + 1):
        lines.append(rf"let f{i} = return (lift return (\x: Qubit. let g = force f{i - 1} "
                     rf"in let y = g x in let h = force f{i - 1} in h y)) in")
    lines.append(f"let g = force f{levels} in let q = g q in {tail}")
    return "\n".join(lines) + "\n"


def test_depth_refuses_paths_of_2_to_the_53(capsys, tmp_path):
    # 2^53 + 1 gates on one wire: floats would report 2^53
    path = tmp_path / "deep.pqc"
    path.write_text(doubling(53, "apply(@X, q)"))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--metric", "gates")
    assert code == 0 and json.loads(out)["value"] == 2**53 + 1
    code, _, err = run_cli(capsys, "analyze", str(path), "--metric", "depth")
    assert code == 2 and "2^53" in err
    # one level less is still counted exactly
    path.write_text(doubling(52, "apply(@X, q)"))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--metric", "depth")
    assert code == 0 and json.loads(out)["depth_bound"] == 2**52 + 1


def test_assert_refuses_costs_of_2_to_the_63(capsys, tmp_path):
    # boxed doubling: H's cost adds up in one scalar, 2^k at k levels,
    # which an int64 counts only up to k = 62
    path = tmp_path / "boxed.pqc"
    path.write_text(boxed_doubling(62))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--metric", "assert",
                           "--precondition", "0")
    assert code == 0 and json.loads(out)["cost"] == 2**62
    path.write_text(boxed_doubling(63))
    code, out, err = run_cli(capsys, "analyze", str(path), "--metric", "assert",
                             "--precondition", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "2^63" in err


def test_analyze_assert_defaults_to_all_states(capsys):
    code, out, _ = run_cli(capsys, "analyze", demo("lnn.pqc"),
                           "--metric", "assert")
    assert code == 0
    doc = json.loads(out)
    assert doc["precondition"] == [""]  # no input qubits: one empty state
    assert doc["post"] == ["0000", "1100"]
    assert doc["cost"] == 3


def test_analyze_assert_restricted(capsys):
    code, out, _ = run_cli(capsys, "analyze", demo("lnn.pqc"),
                           "--metric", "assert", "--restrict", "2")
    doc = json.loads(out)
    assert doc["post"] == ["00", "11"]
    assert doc["cost"] == 3


def test_analyze_assert_precondition(capsys):
    code, out, _ = run_cli(capsys, "analyze", demo("interleave.pqc"),
                           "--metric", "assert", "--precondition", "00")
    assert code == 0
    doc = json.loads(out)
    assert doc["precondition"] == ["00"]
    assert set(doc["post"]) <= {"00", "01", "10", "11"}


def test_analyze_bad_precondition(capsys):
    # an empty precondition would print no post states and cost 0, as if
    # every gate could be removed
    for pre in ("0x1", ",", "", " , "):
        code, out, err = run_cli(capsys, "analyze", demo("interleave.pqc"),
                                 "--metric", "assert", "--precondition", pre)
        assert code == 2 and out == "" and "basis state" in err, pre


def test_bad_precondition_named_in_the_order_given():
    # the first bad state, whatever the string hash seed: under a set's
    # order, seed 1 named 'x' and seed 2 named '0'
    src = os.path.join(HERE, os.pardir, "src")
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "pqc.cli", "analyze", demo("interleave.pqc"),
             "--metric", "assert", "--precondition", "0,1,x"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr.startswith("error: precondition state '0' "), done.stderr


def test_a_reader_that_stops_early_ends_the_output_quietly(tmp_path):
    # a megabyte of rows, or a drawing of 8000 gates (well over a pipe's
    # buffer), into a pipe that is closed after 100 bytes: no traceback, no
    # error line, and the command's own exit code
    qs = [f"q{j}" for j in range(8)]
    for name, layers in (("dense", 1), ("long", 1000)):
        (tmp_path / f"{name}.pqc").write_text(
            "inputs " + ", ".join(f"{q}: Qubit" for q in qs) + ";\n"
            + "".join(f"let {q} = apply(@H, {q}) in\n" for _ in range(layers) for q in qs)
            + f"return ({', '.join(qs)})\n")
    src = os.path.join(HERE, os.pardir, "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for argv in (["analyze", "dense.pqc", "--metric", "assert"],
                 ["verify", "dense.pqc", "--metric", "assert"],
                 ["run", "long.pqc"]):
        with subprocess.Popen([sys.executable, "-m", "pqc.cli", *argv], env=env,
                              cwd=tmp_path, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as p:
            assert len(p.stdout.read(100)) == 100
            p.stdout.close()
            err = p.stderr.read()
            assert p.wait(timeout=60) == 0 and err == b"", (argv, err)


def test_analyze_precondition_needs_assert(capsys):
    code, _, err = run_cli(capsys, "analyze", demo("interleave.pqc"),
                           "--metric", "gates", "--precondition", "00")
    assert code == 2


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

@pytest.mark.parametrize("metric", ["gates", "depth-naive", "width", "depth",
                                    "assert"])
def test_verify_demo_programs(capsys, metric):
    for name in ("bell.pqc", "interleave.pqc", "boxing.pqc", "lnn.pqc"):
        code, out, _ = run_cli(capsys, "verify", demo(name),
                               "--metric", metric)
        assert code == 0, (name, metric)
        doc = json.loads(out)
        assert doc["dominated"] is True


SWAPPING_BOX = r"""inputs a: Qubit, b: Qubit, c: Qubit;
let s = box[Qubit * Qubit] lift \x: Qubit * Qubit.
  dest (p, q) = x in
  let p = apply(@H, p) in
  let r = apply(@CNOT, (p, q)) in
  dest (p, q) = r in
  let q = apply(@X, q) in
  return (q, p) in
let r = apply(s, (c, a)) in
dest (c, a) = r in
return (a, b, c)
"""


def test_box_returning_its_wires_swapped_verifies_exactly(capsys, tmp_path):
    # the box's outputs are its body's in reverse, and it is applied at the
    # non-adjacent wires c and a: each metric's static effect is the
    # dynamic one, and run prints what it always has
    path = tmp_path / "swap.pqc"
    path.write_text(SWAPPING_BOX)
    for metric in ALGEBRAS:
        code, out, _ = run_cli(capsys, "verify", str(path), "--metric", metric)
        doc = json.loads(out)
        assert code == 0 and doc["dominated"] is True, metric
        assert doc["static"] == doc["dynamic"], metric
    assert run_cli(capsys, "run", str(path)) == (0, (
        "Qubit -x--------[CNOT]--[X]--x---\n"
        "Qubit -x---------------------x---\n"
        "Qubit -x---[H]--[CNOT]-----------\n"
        "outputs: #9:Qubit, #1:Qubit, #10:Qubit\n"
        "value:   (#9, #1, #10)\n"), "")


@pytest.mark.parametrize("src, got", [
    ("inputs;\nreturn \\x: Qubit. return x\n", "\\x:Qubit. return x"),
    ("inputs q: Qubit;\nreturn (3, q)\n", "3"),
    ("inputs q: Qubit;\nlet c = box[Qubit] lift \\x: Qubit. apply(@H, x) in\n"
     "return (c, q)\n", "<boxed circuit>"),
], ids=["closure", "number", "boxed-circuit"])
def test_verify_needs_a_result_of_wires(capsys, tmp_path, src, got):
    # the result is checked as a bundle in its runtime form; the error
    # prints the offending part as syntax
    text = f"expected a wire bundle, got {got}"
    with pytest.raises(Stuck) as e:
        verify_dynamic(parse_program(src), ALGEBRAS["gates"], registry)
    assert str(e.value) == text
    path = tmp_path / "p.pqc"
    path.write_text(src)
    assert run_cli(capsys, "verify", str(path), "--metric", "gates") == \
        (2, "", f"error: {text}\n")


def test_repeated_dest_name_checks_runs_and_verifies_alike(capsys, tmp_path):
    # the right component wins in the checker and the evaluator alike
    path = tmp_path / "p.pqc"
    path.write_text("inputs q: Qubit;\ndest (x, x) = (3, q) in return x\n")
    assert run_cli(capsys, "check", str(path)) == (0, "ok: Qubit\n", "")
    code, out, _ = run_cli(capsys, "run", str(path), "--json")
    assert code == 0 and json.loads(out)["value"] == "#0"
    for metric in ALGEBRAS:
        code, out, _ = run_cli(capsys, "verify", str(path), "--metric", metric)
        assert code == 0 and json.loads(out)["dominated"] is True, metric


def test_gate_spec_loading_comes_from_program_header(capsys):
    # lnn.pqc names its gate file relative to its own directory
    code, out, _ = run_cli(capsys, "check", demo("lnn.pqc"),
                           "--metric", "gates")
    assert code == 0
    assert json.loads(out)["value"] == 5


def test_extra_gates_flag(capsys, tmp_path):
    spec = tmp_path / "extra.pqcg"
    spec.write_text("gate mygate : Qubit -> Qubit\ncount 3\n")
    prog = tmp_path / "use.pqc"
    prog.write_text("inputs q: Qubit; apply(@mygate, q)")
    code, out, _ = run_cli(capsys, "check", str(prog),
                           "--gates", str(spec), "--metric", "gates")
    assert code == 0
    assert json.loads(out)["value"] == 3


# --------------------------------------------------------------------------
# analyze runs the checker once
# --------------------------------------------------------------------------

# Inference over assert rejects the Bit wire before the application; the
# plain checker rejects the application, and analyze reports that error.
SHAPE_MISMATCH = "inputs; (\\f:Bit. return f) lift box[1] @CNOT\n"


def test_one_pass_reports_the_plain_checkers_error(capsys, tmp_path):
    path = tmp_path / "shape.pqc"
    path.write_text(SHAPE_MISMATCH)
    prog, reg = cli._load(str(path), None)
    with pytest.raises(UnsupportedWire):
        infer_program_effect(prog, ALGEBRAS["assert"], reg)
    with pytest.raises(ShapeMismatch) as want:
        check_program(prog, reg)
    code, out, err = run_cli(capsys, "analyze", str(path), "--metric", "assert")
    assert code == 2 and out == ""
    assert err == f"error: {want.value}\n"


def test_one_pass_raises_what_the_checker_raises(capsys, tmp_path):
    """Whenever the plain checker rejects a program, analyze under every
    metric fails with the same error class and message."""
    (tmp_path / "extra_gates.pqcg").write_text("gate g : Qubit -> Qubit\ncount 1\n")
    r = rng("cli-one-pass")
    rejected = 0
    for case in range(300):
        path = tmp_path / f"case{case}.pqc"
        path.write_text(show_program(random_ast_program(r)))
        prog, reg = cli._load(str(path), None)
        try:
            check_program(prog, reg)
            continue
        except PqcError as e:
            want = e
        rejected += 1
        for m in sorted(ALGEBRAS):
            with pytest.raises(PqcError) as got:
                cli._infer(prog, ALGEBRAS[m], reg)
            assert (type(got.value), str(got.value)) == (type(want), str(want))
            code, _, err = run_cli(capsys, "analyze", str(path), "--metric", m)
            assert code == 2 and err == f"error: {want}\n"
    assert rejected > 100


# --------------------------------------------------------------------------
# the JSON printer
# --------------------------------------------------------------------------

ODD_STRINGS = ['"', "\\", "a\nb", "\t", "\x7f", "\u00e9", "\u2028", "\ud800", "",
               "01", "-inf", "a b"]


def printed(capsys, doc) -> str:
    cli._print(doc)
    return capsys.readouterr().out


def random_doc(r: random.Random, depth: int = 3):
    kind = r.randrange(9 if depth else 5)
    if kind == 0:
        return r.choice(ODD_STRINGS + ["0110", "q"])
    if kind == 1:
        return r.choice([0, -3, 2**70, 1.5, -0.0, 1e300, float("inf")])
    if kind == 2:
        return r.choice([True, False, None])
    if kind == 3:  # basis strings, sometimes spoiled by one odd entry
        n = r.randint(0, 3)
        row = [format(r.randrange(1 << n), f"0{n}b") for _ in range(r.randint(0, 5))]
        if row and r.random() < 0.4:
            row[r.randrange(len(row))] = r.choice(ODD_STRINGS + [7, None, ["0"]])
        return row
    if kind == 4:
        return r.choice([[], {}, [""], ["", ""], ["0", 1, 2]])
    if kind in (5, 6):
        return [random_doc(r, depth - 1) for _ in range(r.randint(0, 4))]
    keys = [r.choice(ODD_STRINGS + ["rows", "00", "post"]) for _ in range(r.randint(0, 4))]
    if kind == 8:  # keys json.dumps turns into strings itself
        keys.append(r.choice([0, 5, True, False, None, 2.5]))
    return {k: random_doc(r, depth - 1) for k in keys}


@pytest.mark.parametrize("doc", [
    [""], [], {}, ["0", 1, 2], ["01", "", "10"], ["0", "\""], ["\u00e9"],
    [["0", "1"], ["1"]], [[1, "-inf"], [2, 3]], [[True, 1], [], [1.5, None]],
    [[["0"]], [2]], 7, 1.5, True, None, "x\ny",
    {1: ["0"]}, {True: 1, "a": 2}, {None: {}}, {"a": {2: ["01"]}},
    {"rows": {"00": ["00", "11"], "01": [], "10": [""]}, "cost": 3},
    {"\"": ["\t"], "\u00e9": {"x": [1, ["0"]]}}, ("0", "1"), {"t": (1, ["0"])},
])
def test_printer_is_json_dumps_on_edge_cases(capsys, doc):
    assert printed(capsys, doc) == json.dumps(doc, indent=2) + "\n"


def test_printer_is_json_dumps_on_random_documents(capsys):
    r = rng("cli-printer")
    for _ in range(2000):
        doc = random_doc(r)
        assert printed(capsys, doc) == json.dumps(doc, indent=2) + "\n", doc


def _assert_programs() -> list:
    return perfbench_workloads().assert_family(random.Random(1))


def rows_data(v: AssertValue) -> dict:
    return ALGEBRAS["assert"].value_json(Effect(v.dom, v.cod, v))["rows"]


def expanded(doc):
    """The document ``_print`` is given, with each ``AssertValue`` (which it
    prints as rows) replaced by those rows as ``value_json`` gives them."""
    if isinstance(doc, AssertValue):
        return rows_data(doc)
    if isinstance(doc, dict):
        return {k: expanded(v) for k, v in doc.items()}
    return doc


def spy_on_print(monkeypatch) -> list:
    """Record every document the CLI hands to ``_print``."""
    docs = []
    print_ = cli._print

    def spy(doc):
        docs.append(doc)
        print_(doc)
    monkeypatch.setattr(cli, "_print", spy)
    return docs


def test_printer_is_json_dumps_on_what_the_cli_prints(capsys, monkeypatch, tmp_path):
    docs = spy_on_print(monkeypatch)

    runs = []
    for name in ("bell.pqc", "interleave.pqc", "boxing.pqc", "lnn.pqc"):
        runs.append(["run", demo(name), "--json"])
        for m in sorted(ALGEBRAS):
            runs += [["check", demo(name), "--metric", m, "--bound", "3"],
                     ["analyze", demo(name), "--metric", m],
                     ["verify", demo(name), "--metric", m]]
    runs += [["analyze", demo("interleave.pqc"), "--metric", "assert",
              "--precondition", "00,11"],
             ["analyze", demo("lnn.pqc"), "--metric", "assert", "--restrict", "2"]]
    for c in _assert_programs():
        path = tmp_path / f"{c.name}.pqc"
        path.write_text(c.text)
        runs += [[cmd, str(path), "--metric", "assert"] for cmd, _ in c.ops]
        runs.append(["analyze", str(path), "--metric", "assert",
                     "--precondition", "0" * c.wires])
    longest = 0
    for argv in runs:
        n = len(docs)
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1) and len(docs) == n + 1, argv
        assert out == json.dumps(expanded(docs[-1]), indent=2) + "\n", argv
        longest = max(longest, len(out))
    assert longest > 5 * 10**6  # the dense 9-qubit rows


REACH_KINDS = ("dense", "sparse", "one", "half")


def random_reach(g: np.random.Generator, dom: int, cod: int, kind: str) -> np.ndarray:
    """A relation ``reach[y, b]`` of the given kind, reaching at least one
    output state from each input state."""
    shape = (1 << cod, 1 << dom)
    if kind == "dense":
        return np.ones(shape, dtype=bool)
    reach = g.random(shape) < {"sparse": 0.1, "half": 0.5, "one": 0.0}[kind]
    reach[g.integers(0, 1 << cod, 1 << dom), np.arange(1 << dom)] = True
    return reach


@pytest.mark.parametrize("block", [None, 8, 1])
def test_rows_are_json_dumps_of_value_json(monkeypatch, block):
    # 1: a block per input state; 8: blocks of 8 >> cod states, or of one
    # state when it has more output states than a block holds cells
    if block is not None:
        monkeypatch.setattr(cli, "_BLOCK", block)
    g = np.random.default_rng(20)
    for dom in range(7):
        for cod in range(7):
            for kind in REACH_KINDS:
                v = AssertValue(random_reach(g, dom, cod, kind), Cost())
                text = json.dumps(rows_data(v), indent=2)
                for outer in ("", "  ", "    "):  # "    ": where the CLI prints rows
                    pieces = list(cli._rows(v, outer))
                    assert len(pieces) == (1 << dom) + 2, (dom, cod, kind)
                    assert "".join(pieces) == text.replace("\n", "\n" + outer), (
                        dom, cod, kind, outer)


def gate_spec(reach: np.ndarray, costs) -> str:
    dom = reach.shape[1].bit_length() - 1
    cod = reach.shape[0].bit_length() - 1
    lines = [f"gate U : {' '.join(['Qubit'] * dom) or 'I'} -> "
             f"{' '.join(['Qubit'] * cod) or 'I'}"]
    for b in range(1 << dom):
        post = ", ".join(f'"{y:0{cod}b}"' if cod else '""'
                         for y in np.flatnonzero(reach[:, b]))
        bits = f"{b:0{dom}b}" if dom else ""
        lines.append(f'  assert "{bits}" -> {{{post}}} cost {costs[b]}')
    return "\n".join(lines) + "\n"


def test_cli_prints_rows_of_random_relations(capsys, monkeypatch, tmp_path):
    # one gate whose assert rows are a random relation, applied once: the
    # rows analyze, check and verify print are that relation, and the text
    # is json.dumps(indent=2) of value_json's data
    docs = spy_on_print(monkeypatch)
    g = np.random.default_rng(21)
    (tmp_path / "u.pqc").write_text("")
    for dom in range(5):  # verify compares exhaustively up to 4 input qubits
        for cod in range(5):
            for kind in REACH_KINDS:
                reach = random_reach(g, dom, cod, kind)
                (tmp_path / "u.pqcg").write_text(
                    gate_spec(reach, g.integers(0, 4, 1 << dom).tolist()))
                names = [f"a{i}" for i in range(dom)]
                arg = {0: "*", 1: "".join(names)}.get(dom, f"({', '.join(names)})")
                (tmp_path / "u.pqc").write_text(
                    f"inputs {', '.join(n + ': Qubit' for n in names)};\n"
                    f'gates "u.pqcg";\napply(@U, {arg})\n')
                want = rows_data(AssertValue(reach, Cost()))
                for cmd, key in (("analyze", "value"), ("check", "value"),
                                 ("verify", "static"), ("verify", "dynamic")):
                    code, out, err = run_cli(capsys, cmd, str(tmp_path / "u.pqc"),
                                             "--metric", "assert")
                    assert code == 0, (dom, cod, kind, cmd, err)
                    doc = expanded(docs[-1])
                    assert isinstance(docs[-1][key]["rows"], AssertValue)
                    assert doc[key]["rows"] == want, (dom, cod, kind, cmd)
                    assert out == json.dumps(doc, indent=2) + "\n", (dom, cod, kind, cmd)
