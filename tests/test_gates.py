import re

import numpy as np
import pytest

from generators import Q, B
from oracles import UNITARIES
from pqc.algebras import ALGEBRAS
from pqc.circuits import Gate, Layer
from pqc.errors import ParseError, UnknownGate, UnknownUnitary
from pqc.gates import GateDef, default_registry, parse_gate_spec

registry = default_registry()


def test_default_signatures():
    assert registry.gate("CNOT").dom == (Q, Q)
    assert registry.gate("meas").cod == (B,)
    assert registry.gate("init").dom == ()
    assert registry.gate("discard").cod == ()


def test_lookup_unknown():
    with pytest.raises(UnknownGate):
        registry.lookup("TOFFOLI")
    assert "H" in registry and "TOFFOLI" not in registry


def test_boxed_literal_is_single_layer():
    boxed = registry.boxed("CNOT")
    assert boxed.body.dom == (Q, Q)
    assert boxed.body.steps == (Layer(((registry.gate("CNOT"), 0),)),)


@pytest.mark.parametrize("name", sorted(UNITARIES))
def test_builtin_rows_are_exact_fixed_points(name):
    # the row at b has the support of U|b⟩ as its postset, and costs 0 iff
    # U|b⟩ = |b⟩ exactly: a phase, as in Z|1⟩ = −|1⟩, is a change
    gdef = registry.lookup(name)
    u = UNITARIES[name]
    n = len(gdef.gate.dom)
    assert set(gdef.rows) == {format(b, f"0{n}b") for b in range(1 << n)}
    for b in range(1 << n):
        image = u[:, b]
        post = frozenset(format(y, f"0{n}b") for y in np.flatnonzero(image))
        fixed = np.array_equal(image, np.eye(1 << n)[b])
        assert gdef.rows[format(b, f"0{n}b")] == (post, 0 if fixed else gdef.count)


def test_rowless_gate_raises():
    gdef = GateDef(Gate("U", (Q,), (Q,)))
    with pytest.raises(UnknownUnitary, match="gate U has no assertion row for input '0'"):
        ALGEBRAS["assert"].gate_effect(gdef)


SPEC = """
# two custom gates
gate tof : Qubit Qubit Qubit -> Qubit Qubit Qubit
  count 7
  depth 11

gate reset2 : Qubit Qubit -> Qubit Qubit   # trailing comment
  depth 0
  assert "00" -> {"00"} cost 0
  assert "01" -> {"00"} cost 1
  assert "10" -> {"00"} cost 1
  assert "11" -> {"00"} cost 2
"""


def test_parse_gate_spec_block_structure():
    defs = parse_gate_spec(SPEC)
    assert set(defs) == {"tof", "reset2"}
    assert defs["tof"].count == 7 and defs["tof"].depth == 11
    assert defs["tof"].gate.dom == (Q, Q, Q)
    assert defs["reset2"].rows["11"] == (frozenset({"00"}), 2)
    assert defs["reset2"].count == 1  # defaulted


def test_extended_registry_overrides():
    defs = parse_gate_spec('gate H : Qubit -> Qubit\n  count 3\n')
    r2 = registry.extended(defs)
    assert r2.lookup("H").count == 3
    assert registry.lookup("H").count == 1  # original untouched


@pytest.mark.parametrize("bad, fragment", [
    ("count 3", "before any"),
    ("gate g : Qubit -> Quibt", "bad wire type"),
    ("gate g : Qubit -> Qubit\n  assert \"00\" -> {\"0\"} cost 1", "bits"),
    ("gate g : Qubit -> Qubit\n  assert \"0\" -> {0} cost 1", "quoted"),
    ("gate g : Qubit -> Qubit\n  frobnicate 3", "unrecognized"),
    ("gate g : Qubit -> Qubit\n  count x", "bad count"),
    ("gate g : Qubit -> Qubit\n  count -3", "^2:.*bad count"),
    ("gate g : Qubit -> Qubit\n  depth -2", "^2:.*bad depth"),
    ("gate g : Qubit -> Qubit\n  depth +2", "bad depth"),
])
def test_gate_spec_errors(bad, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_gate_spec(bad)


def test_assert_cost_takes_ascii_digits_only():
    # int() would read the Arabic-Indic digit three as 3; a count weight
    # already refuses it, and so does an assert row's cost
    for line in ('assert "0" -> {"0"} cost ٣', "count ٣"):
        with pytest.raises(ParseError, match="^2:"):
            parse_gate_spec("gate g : Qubit -> Qubit\n  " + line)
    assert parse_gate_spec(
        'gate g : Qubit -> Qubit\n  assert "0" -> {"0"} cost 3')["g"].rows["0"][1] == 3


@pytest.mark.parametrize("name", ["2q", "é", "q-1"])
def test_gate_spec_names_are_names_a_program_can_write(name):
    # a program writes @name with an ASCII letter or _ first
    with pytest.raises(ParseError, match=f"^2:.*bad gate name {re.escape(repr(name))}"):
        parse_gate_spec(f"# a comment\ngate {name} : Qubit -> Qubit")
    assert set(parse_gate_spec("gate _q2 : Qubit -> Qubit")) == {"_q2"}


def test_gate_spec_refuses_a_second_assert_row_for_one_input():
    spec = ('gate g : Qubit -> Qubit\n  assert "0" -> {"0"} cost 0\n'
            '  assert "1" -> {"1"} cost 0\n  assert "0" -> {"1"} cost 1')
    with pytest.raises(ParseError, match="^4:.*second assert row for input '0' of gate g$"):
        parse_gate_spec(spec)


def test_gate_spec_refuses_a_second_block_for_one_name():
    # the second block used to replace the first, dropping its count
    spec = 'gate g : Qubit -> Qubit\n  count 3\n# again\ngate g : Qubit -> Qubit\n'
    with pytest.raises(ParseError, match="^4:.*second gate block for g$"):
        parse_gate_spec(spec)
    # a builtin name may still be declared, once
    assert parse_gate_spec("gate H : Qubit -> Qubit\n  count 3")["H"].count == 3


@pytest.mark.parametrize("postset, fragment", [
    ("{}", "row '0' has an empty postset"),
    ("{ }", "row '0' has an empty postset"),
    ('{"0",}', 'empty entry in postset {"0",}'),
    ('{, "1"}', 'empty entry in postset {, "1"}'),
])
def test_empty_postset_is_named(postset, fragment):
    with pytest.raises(ParseError, match="^2:.*" + re.escape(fragment)):
        parse_gate_spec(f'gate g : Qubit -> Qubit\n  assert "0" -> {postset} cost 0')
