import json
import os
import shutil

import pytest

from pqc import cli
from pqc.algebras import ALGEBRAS
from pqc.circuits import WireType, deserialize
from pqc.cli import main
from pqc.gates import default_registry

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


BAD_INPUTS = {
    "parse.pqc": b"inputs q Qubit; return q",
    "illtyped.pqc": b"inputs q: Qubit; return (q, q)",
    "bits.pqc": b"inputs q: Qubit; let b = apply(@meas, q) in return b",
    "gate_as_function.pqc": b"inputs q: Qubit; @H q",
    "binary.pqc": b"\xff\xfe",
    "deep.pqc": (b"inputs q: Qubit;\n" + b"let q = apply(@H, q) in\n" * 3000
                 + b"return q\n"),
    "wide.pqc": ("inputs " + ", ".join(f"a{i}: Qubit" for i in range(24))
                 + ";\nlet a0 = apply(@H, a0) in\nreturn ("
                 + ", ".join(f"a{i}" for i in range(24)) + ")\n").encode(),
    "costly.pqcg": (b'gate big : Qubit -> Qubit\n'
                    b'  assert "0" -> {"1"} cost 2147483648\n'
                    b'  assert "1" -> {"0"} cost 0\n'),
    "costly.pqc": b'inputs q: Qubit;\ngates "costly.pqcg";\napply(@big, q)\n',
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
    pytest.param(["check", "deep.pqc"], 2, None, id="too-deep"),
    pytest.param(["verify", "wide.pqc", "--metric", "assert"], 2, None,
                 id="too-wide"),
    pytest.param(["analyze", "costly.pqc", "--metric", "assert"], 2, None,
                 id="cost-too-large"),
    pytest.param(["analyze", "interleave.pqc", "--metric", "assert",
                  "--precondition", "0x1"], 2, None, id="bad-precondition"),
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


def test_run_fuel_exhaustion_exits_2(capsys):
    code, _, err = run_cli(capsys, "run", demo("lnn.pqc"), "--fuel", "2")
    assert code == 2
    assert "fuel" in err


# --------------------------------------------------------------------------
# analyze
# --------------------------------------------------------------------------

def test_analyze_depth_has_bound(capsys):
    code, out, _ = run_cli(capsys, "analyze", demo("interleave.pqc"),
                           "--metric", "depth")
    assert code == 0
    doc = json.loads(out)
    assert doc["depth_bound"] == 2


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
    code, _, err = run_cli(capsys, "analyze", demo("interleave.pqc"),
                           "--metric", "assert", "--precondition", "0x1")
    assert code == 2 and "basis state" in err


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
