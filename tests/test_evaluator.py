import os
import random

import pytest

from generators import perfbench_workloads, rng, random_program
from pqc.cli import _load
from pqc.circuits import (
    BoxedCircuit, Circuit, CircuitBuilder, Label, Layer, WireType, flatten_bundle,
)
from pqc.errors import FuelExhausted, Stuck, WireTypeMismatch
from pqc.evaluator import (
    Closure, Env, evaluate_program, readback, subst_term, subst_value,
    value_to_bundle,
)
from pqc.gates import default_registry
from pqc.syntax import (
    Apply, App, Block, DestBinder, Force, GateRef, Ifz, Lam,
    LetBinder, Lift, NatVal, Program, QubitT, Ret, Var,
    parse_program, parse_term, parse_value, show_value,
)
from pqc.typecheck import check_program

registry = default_registry()

Q = WireType.QUBIT
B = WireType.BIT


def run(src: str, fuel=None):
    prog = parse_program(src)
    check_program(prog, registry)
    return evaluate_program(prog, registry, fuel=fuel)


def gate_sequence(circuit):
    return [(g.name, at)
            for step in circuit.steps if isinstance(step, Layer)
            for g, at in step.placements]


# --------------------------------------------------------------------------
# substitution (reading closures back into syntax)
# --------------------------------------------------------------------------

def test_subst_let_shadows_body_not_bound():
    m = Block((LetBinder("x", Ret(Var("x"))),), Ret(Var("x")))
    out = subst_term(m, Env({"x": NatVal(3)}))
    assert out == Block((LetBinder("x", Ret(NatVal(3))),), Ret(Var("x")))
    # each binder shadows the binders after it and the tail
    m = Block((LetBinder("y", Ret(Var("x"))), LetBinder("x", Ret(Var("x"))),
               LetBinder("z", Ret(Var("x")))), Ret(Var("y")))
    out = subst_term(m, Env({"x": NatVal(3), "y": NatVal(4)}))
    assert out == Block((LetBinder("y", Ret(NatVal(3))), LetBinder("x", Ret(NatVal(3))),
                         LetBinder("z", Ret(Var("x")))), Ret(Var("y")))


def test_subst_lambda_shadowing():
    lam = Lam("x", QubitT(), Ret(Var("x")))
    assert subst_value(lam, Env({"x": NatVal(1)})) == lam
    lam2 = Lam("y", QubitT(), Ret((Var("y"), Var("x"))))
    assert subst_value(lam2, Env({"x": NatVal(1)})) == \
        Lam("y", QubitT(), Ret((Var("y"), NatVal(1))))


def test_subst_dest_shadowing():
    body = Ret((Var("a"), Var("b")))
    m = Block((DestBinder("a", "b", Var("p")),), body)
    out = subst_term(m, Env({"a": NatVal(7)}))
    assert out.tail == body  # binder shadows
    out2 = subst_term(m, Env({"p": (NatVal(1), NatVal(2))}))
    assert out2.binders[0].value == (NatVal(1), NatVal(2))


# --------------------------------------------------------------------------
# bundles as values
# --------------------------------------------------------------------------

def test_bundle_value_round_trip():
    # a runtime bundle is its own bundle and its own syntax: it reads back
    # as itself and prints and parses as the same bundle
    l0, l1 = Label(0), Label(1)
    for b in ((), l0, (l0, l1), ((l0, ()), l1)):
        assert value_to_bundle(b) is b
        assert readback(b) == b
        assert parse_value(show_value(b)) == b
    assert readback(l0) is l0


def test_value_to_bundle_rejects_parameters():
    lam = Lam("x", QubitT(), Ret(Var("x")))
    for v in (NatVal(3), GateRef("H"), Closure(lam, Env()), (Label(0), NatVal(3))):
        with pytest.raises(Stuck):
            value_to_bundle(v)


# --------------------------------------------------------------------------
# whole programs
# --------------------------------------------------------------------------

def test_bell_program_builds_expected_circuit():
    c, outputs, v = run(
        "inputs;"
        " let q = apply(@init, *) in"
        " let p = apply(@init, *) in"
        " let q = apply(@H, q) in"
        " let qp = apply(@CNOT, (q, p)) in"
        " return qp")
    assert c.dom == ()
    assert c.cod == (Q, Q)
    assert gate_sequence(c) == [("init", 0), ("init", 1), ("H", 0), ("CNOT", 0)]
    assert flatten_bundle(value_to_bundle(v)) == [l for l, _ in outputs]


def test_inputs_become_wires_in_declaration_order():
    prog = parse_program("inputs a: Qubit, b: Bit; return (b, a)")
    c, outputs, v = evaluate_program(prog, registry)
    assert c.dom == tuple(t for _, t in outputs) == (Q, B)
    assert c.steps == ()  # no gates ran, outputs are the inputs
    (la, _), (lb, _) = outputs
    assert (la, lb) == (Label(0), Label(1))
    assert value_to_bundle(v) == (lb, la)
    # of two inputs with one name, the first is the one bound
    _, outputs, v = evaluate_program(parse_program("inputs a: Qubit, a: Bit; return a"))
    assert tuple(t for _, t in outputs) == (Q, B) and v == Label(0)


def test_outputs_pair_open_labels_with_types_and_a_box_mints_after_the_run(monkeypatch):
    """``evaluate_program``'s outputs are the open labels with the circuit's
    output types, in wire order. A ``box`` mints its inputs right after the
    labels the run has drawn so far, and its circuit reads them as body
    positions ``0 ... n-1``."""
    minted = []
    private = CircuitBuilder.private

    def spy(self, shape):
        inner = private(self, shape)
        minted.append(inner.inputs)
        return inner
    monkeypatch.setattr(CircuitBuilder, "private", spy)
    c, outputs, v = run(
        r"inputs q: Qubit, r: Bit;"
        r" let q = apply(@H, q) in"
        r" let c = box[Qubit * (Qubit * Qubit)] lift \p: Qubit * (Qubit * Qubit)."
        r"   dest (x, yz) = p in dest (y, z) = yz in"
        r"   let yz = apply(@CNOT, (y, z)) in return (x, yz) in"
        r" let q = apply(@H, q) in"
        r" return (c, (q, r))")
    # #0 q and #1 r; H draws #2; the box's inputs are #3, #4, #5 and its
    # CNOT draws #6, #7; the second H draws #8
    assert minted == [(Label(3), (Label(4), Label(5)))]
    assert outputs == tuple(zip([Label(8), Label(1)], c.cod)) == ((8, Q), (1, B))
    boxed, wires = v
    assert type(boxed) is BoxedCircuit and wires == (Label(8), Label(1))
    assert boxed.inputs == (0, (1, 2)) and boxed.outputs == (0, (1, 2))


def test_gate_changing_wire_type():
    c, outputs, v = run("inputs q: Qubit; let b = apply(@meas, q) in return b")
    assert c.cod == (B,)
    assert gate_sequence(c) == [("meas", 0)]


# --------------------------------------------------------------------------
# box and apply
# --------------------------------------------------------------------------

def test_box_runs_in_private_configuration():
    c, outputs, v = run(
        r"inputs;"
        r" let c = box[Qubit] lift \x: Qubit."
        r"   let x = apply(@H, x) in apply(@X, x) in"
        r" return *")
    assert c.steps == ()  # boxing leaves the outer circuit untouched
    assert outputs == ()


def test_boxed_circuit_value_has_the_function_body():
    prog = parse_program(
        r"inputs q: Qubit;"
        r" let c = box[Qubit] lift \x: Qubit."
        r"   let x = apply(@H, x) in apply(@X, x) in"
        r" apply(c, q)")
    check_program(prog, registry)
    c, outputs, v = evaluate_program(prog, registry)
    assert gate_sequence(c) == [("H", 0), ("X", 0)]
    assert c.dom == (Q,) and c.cod == (Q,)


def test_apply_boxed_away_from_wire_zero():
    c, outputs, v = run(
        r"inputs a: Qubit, b: Qubit;"
        r" let c = box[Qubit] lift \x: Qubit. apply(@H, x) in"
        r" let b = apply(c, b) in"
        r" return (a, b)")
    assert gate_sequence(c) == [("H", 1)]


def test_gate_literal_is_built_once_and_takes_no_run_labels():
    assert registry.boxed("H") is registry.boxed("H")
    c, outputs, v = run("inputs q: Qubit; let q = apply(@H, q) in apply(@H, q)")
    h = registry.gate("H")
    assert c == Circuit((Q,), (Layer(((h, 0),)), Layer(((h, 0),))))
    assert outputs == ((Label(2), Q),)  # #0 the input, #1 and #2 the two outputs


def test_boxed_value_reused_twice():
    c, outputs, v = run(
        r"inputs q: Qubit;"
        r" let c = box[Qubit] lift \x: Qubit. apply(@H, x) in"
        r" let q = apply(c, q) in"
        r" let q = apply(c, q) in"
        r" return q")
    assert gate_sequence(c) == [("H", 0), ("H", 0)]


def test_box_of_pair_shape():
    c, outputs, v = run(
        r"inputs a: Qubit, b: Qubit;"
        r" let c = box[Qubit * Qubit] lift \p: Qubit * Qubit."
        r"   dest (x, y) = p in"
        r"   let xy = apply(@CNOT, (x, y)) in"
        r"   return xy in"
        r" apply(c, (b, a))")
    # the argument bundle (b, a) routes input wires through a swap first
    assert gate_sequence(c) == [("CNOT", 0)]
    assert c.cod == (Q, Q)


@pytest.mark.parametrize("name", ["_boxed_arg", "_boxed_fn"])
def test_box_binds_no_name_a_program_can_write(name):
    # the lifted function's scope is the program's: a box's own bindings
    # must not shadow a variable it reads
    c, outputs, v = run(
        f"inputs q: Qubit;"
        f" let {name} = return 7 in"
        f" let c = box[Qubit] lift \\x: Qubit."
        f"   ifz {name} then return x else apply(@H, x) in"
        f" apply(c, q)")
    assert gate_sequence(c) == [("H", 0)]
    assert show_value(readback(v)) == str(outputs[0][0])


# --------------------------------------------------------------------------
# dest
# --------------------------------------------------------------------------

def test_nary_dest_captures_no_program_variable():
    c, outputs, v = run(
        "inputs a: Qubit, b: Qubit, c: Qubit, _yz: Qubit;"
        " dest (x, y, z) = (a, b, c) in"
        " return (x, y, z, _yz)")
    l0, l1, l2, l3 = (l for l, _ in outputs)
    assert v == (l0, (l1, (l2, l3)))


def test_repeated_dest_name_binds_the_right_component():
    # as in the checker, which types x as the right component (Qubit)
    prog = parse_program("inputs q: Qubit; dest (x, x) = (3, q) in return x")
    assert check_program(prog, registry) == QubitT()
    c, outputs, v = evaluate_program(prog, registry)
    assert v == outputs[0][0] and type(v) is Label
    c, outputs, v = run("inputs; dest (x, x) = (3, *) in return x")
    assert v == () and show_value(readback(v)) == "*"


# --------------------------------------------------------------------------
# control flow, fuel, stuck states
# --------------------------------------------------------------------------

def test_ifz_picks_branches():
    c, outputs, v = run(
        "inputs q: Qubit; ifz 0 then apply(@H, q) else apply(@X, q)")
    assert gate_sequence(c) == [("H", 0)]
    c, outputs, v = run(
        "inputs q: Qubit; ifz 2 then apply(@H, q) else apply(@X, q)")
    assert gate_sequence(c) == [("X", 0)]


def test_closures_see_the_scope_they_were_written_in():
    # f is written inside a nested let; rebinding x afterwards must not reach it
    c, outputs, v = run(
        "inputs q: Qubit;"
        " let x = return 0 in"
        " let f = let y = return 5 in return (lift return x) in"
        " let x = return 1 in"
        " let n = force f in"
        " ifz n then apply(@H, q) else apply(@X, q)")
    assert gate_sequence(c) == [("H", 0)]


def test_force_lift_cancel():
    c, outputs, v = run("inputs; let n = force lift return 4 in return n")
    assert v == NatVal(4)


def test_fuel_exhaustion():
    src = ("inputs; " +
           " ".join(f"let x{i} = return {i} in" for i in range(20)) +
           " return *")
    with pytest.raises(FuelExhausted):
        run(src, fuel=5)
    run(src, fuel=1000)  # plenty of fuel: runs fine


def test_gate_application_needs_apply():
    with pytest.raises(Stuck, match="apply"):
        evaluate_program(
            parse_program("inputs q: Qubit; @H q"), registry)


def test_stuck_shapes():
    bad = [
        App(NatVal(1), NatVal(2)),
        Block((DestBinder("a", "b", NatVal(1)),), Ret(())),
        Ifz((), Ret(()), Ret(())),
        Force(NatVal(1)),
        Apply(NatVal(1), ()),
    ]
    for term in bad:
        with pytest.raises(Stuck):
            evaluate_program(Program((), None, term), registry)


_WIRE, _PAIR = Var("a"), (Var("a"), Var("b"))
_CLOSURE = Lam("x", QubitT(), Ret((Var("x"), Var("b"))))
_CLOSURE_TEXT = r"\x:Qubit. return (x, #1)"
_BOXED = "let c = box[Qubit] lift \\x: Qubit. apply(@H, x) in "


@pytest.mark.parametrize("term, message", [
    (Force(_WIRE), "force needs a lifted term, got #0"),
    (Force(_PAIR), "force needs a lifted term, got (#0, #1)"),
    (Force(_CLOSURE), f"force needs a lifted term, got {_CLOSURE_TEXT}"),
    (Ifz(_WIRE, Ret(()), Ret(())), "ifz needs a number, got #0"),
    (Ifz(_PAIR, Ret(()), Ret(())), "ifz needs a number, got (#0, #1)"),
    (Ifz(_CLOSURE, Ret(()), Ret(())),
     f"ifz needs a number, got {_CLOSURE_TEXT}"),
    (Block((DestBinder("x", "y", _WIRE),), Ret(())), "dest needs a pair, got #0"),
    (Block((DestBinder("x", "y", _CLOSURE),), Ret(())),
     f"dest needs a pair, got {_CLOSURE_TEXT}"),
    (Apply(_WIRE, ()), "apply needs a circuit, got #0"),
    (Apply(_PAIR, ()), "apply needs a circuit, got (#0, #1)"),
    (Apply(_CLOSURE, ()), f"apply needs a circuit, got {_CLOSURE_TEXT}"),
    (Apply(GateRef("H"), _PAIR), "bundle of 2 wires applied to circuit expecting 1"),
    (Apply(GateRef("H"), _CLOSURE), f"expected a wire bundle, got {_CLOSURE_TEXT}"),
    (App(_PAIR, ()), "cannot apply non-function (#0, #1)"),
    (Ifz((_WIRE, Lift(Ret(_WIRE))), Ret(()), Ret(())),
     "ifz needs a number, got (#0, lift return #0)"),
    # unit is () at run time: a tuple, but not a pair and not a wire
    (Block((DestBinder("x", "y", ()),), Ret(())),
     "dest needs a pair, got *"),
    (Apply(GateRef("CNOT"), (_WIRE, NatVal(3))), "expected a wire bundle, got 3"),
    (Apply(GateRef("CNOT"), (_WIRE, ())),
     "bundle of 1 wires applied to circuit expecting 2"),
    (Force(()), "force needs a lifted term, got *"),
    (App((), ()), "cannot apply non-function *"),
    (parse_term(_BOXED + "force c"), "force needs a lifted term, got <boxed circuit>"),
    (parse_term(_BOXED + "ifz c then return * else return *"),
     "ifz needs a number, got <boxed circuit>"),
    (parse_term(_BOXED + "dest (x, y) = c in return *"),
     "dest needs a pair, got <boxed circuit>"),
    (parse_term(_BOXED + "c a"), "<boxed circuit> is a circuit; run it with apply(...)"),
    (parse_term(_BOXED + "apply(@H, c)"), "expected a wire bundle, got <boxed circuit>"),
], ids=["force-wire", "force-pair", "force-closure", "ifz-wire", "ifz-pair",
        "ifz-closure", "dest-wire", "dest-closure", "apply-wire", "apply-pair",
        "apply-closure", "apply-to-pair", "apply-to-closure", "app-pair",
        "ifz-pair-with-closure", "dest-unit", "apply-to-nat-component",
        "apply-to-unit-component", "force-unit", "app-unit", "force-boxed",
        "ifz-boxed", "dest-boxed", "app-boxed", "apply-to-boxed"])
def test_stuck_text_on_wire_values(term, message):
    # the programs are built directly: the checker rejects every one
    inputs = parse_program("inputs a: Qubit, b: Qubit; return *").inputs
    with pytest.raises((Stuck, WireTypeMismatch)) as err:
        evaluate_program(Program(inputs, None, term), registry)
    assert str(err.value) == message


# --------------------------------------------------------------------------
# random programs stay well-formed
# --------------------------------------------------------------------------

def test_random_programs_evaluate_cleanly():
    r = rng("evaluator-random")
    for _ in range(40):
        prog = random_program(r)
        check_program(prog, registry)
        c, outputs, v = evaluate_program(prog, registry, fuel=10_000)
        assert tuple(t for _, t in outputs) == c.cod
        assert sorted(flatten_bundle(value_to_bundle(v))) == \
            sorted(l for l, _ in outputs)


def _programs_to_print():
    """(program, registry) for the demos, every benchmark program of seeds
    1-3, two results that are not wires, and 200 random programs."""
    demos = os.path.join(os.path.dirname(__file__), os.pardir, "demos")
    out = [_load(os.path.join(demos, name), None)
           for name in sorted(os.listdir(demos)) if name.endswith(".pqc")]
    workloads = perfbench_workloads()
    out += [(parse_program(c.text), registry)
            for name, family in sorted(workloads.WORKLOADS.items())
            for seed in (1, 2, 3) for c in family(random.Random(f"{name}:{seed}"))]
    out += [(parse_program(src), registry) for src in (
        "inputs; return (3, @H)", r"inputs q: Qubit; return \x: Qubit. return (x, q)")]
    r = rng("printed-results")
    return out + [(random_program(r), registry) for _ in range(200)]


def test_printed_results_parse_back():
    not_wires = 0
    for prog, reg in _programs_to_print():
        _, _, v = evaluate_program(prog, reg)
        syntax = readback(v)
        assert parse_value(show_value(syntax)) == syntax
        try:
            value_to_bundle(v)
        except Stuck:
            not_wires += 1
            continue
        assert syntax == v  # a bundle of wires is its own syntax
    assert not_wires == 2


def test_deep_let_chain_evaluates_without_recursion():
    h = LetBinder("x", Apply(GateRef("H"), Var("x")))
    t = Block((h,) * 20_000, Ret(Var("x")))
    c, outputs, v = evaluate_program(Program((("x", QubitT()),), None, t), registry)
    assert tuple(t for _, t in outputs) == c.cod == (Q,)
    assert len(c.steps) == 20_000
    assert value_to_bundle(v) == outputs[0][0]
