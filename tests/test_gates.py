import pytest

from generators import Q, B
from pqc.circuits import Layer
from pqc.errors import ParseError, UnknownGate, UnknownUnitary
from pqc.gates import (
    GateDef, Registry, default_registry, derive_assert_row, parse_gate_spec,
)

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


def test_derived_rows_charge_only_when_state_changes():
    # Z fixes every basis state, so it is always removable
    assert derive_assert_row(registry.lookup("Z"), "0") == (frozenset({"0"}), 0)
    assert derive_assert_row(registry.lookup("Z"), "1") == (frozenset({"1"}), 0)
    # X moves them, so it always costs its weight
    assert derive_assert_row(registry.lookup("X"), "0") == (frozenset({"1"}), 1)
    # CNOT is free exactly on fixed points
    assert derive_assert_row(registry.lookup("CNOT"), "01") == (frozenset({"01"}), 0)
    assert derive_assert_row(registry.lookup("CNOT"), "10") == (frozenset({"11"}), 1)
    # H spreads
    assert derive_assert_row(registry.lookup("H"), "0") == (frozenset({"0", "1"}), 1)


def test_declared_rows_beat_derived_ones():
    gdef = GateDef(registry.gate("X"), basis={"0": frozenset({"1"})},
                   rows={"0": (frozenset({"0", "1"}), 7)})
    assert derive_assert_row(gdef, "0") == (frozenset({"0", "1"}), 7)


def test_rowless_gate_raises():
    with pytest.raises(UnknownUnitary):
        derive_assert_row(registry.lookup("meas"), "0")


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
