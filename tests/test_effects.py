import pytest

from generators import rng, random_program
from pqc.algebras import (
    ALGEBRAS, TRIVIAL, Effect, GateCountAlgebra, WidthAlgebra, algebra,
)
from pqc.effects import infer_program_effect, verify_dynamic
from pqc.circuits import BoxedCircuit, Circuit, Layer, Perm, WireType
from pqc.errors import (
    EffectError, EndpointMismatch, LinearityViolation, WireTypeMismatch,
)
from pqc.evaluator import evaluate_program
from pqc.gates import default_registry
from pqc.syntax import (
    ArrowT, BangT, CircT, QubitT, TensorT, UnitT, parse_program,
    parse_term, parse_type,
)
from pqc.typecheck import EffectChecker, check_program, synthesize_bounds

registry = default_registry()
gates = algebra("gates")


def program(src: str):
    return parse_program(src)


BELL = ("inputs;"
        " let q = apply(@init, *) in"
        " let p = apply(@init, *) in"
        " let q = apply(@H, q) in"
        " let qp = apply(@CNOT, (q, p)) in"
        " return qp")


# --------------------------------------------------------------------------
# bound synthesis from ascriptions
# --------------------------------------------------------------------------

def test_synthesize_bounds_fills_arrow_and_circ():
    ty = parse_type("Qubit -o[1; 3] Qubit")
    out = synthesize_bounds(gates, ty)
    assert out.eff is not None
    assert gates.bound_of(out.eff) == 3

    ty = parse_type("Circ[2](Qubit, Qubit)")
    out = synthesize_bounds(gates, ty)
    assert gates.bound_of(out.eff) == 2


def test_synthesize_bounds_recurses_and_skips_unbounded():
    ty = parse_type("!(Qubit -o[1; 1] Qubit) * Nat")
    out = synthesize_bounds(gates, ty)
    assert out.left.inner.eff is not None
    assert out.right == ty.right

    plain = parse_type("Qubit -o[1] Qubit")
    assert synthesize_bounds(gates, plain).eff is None


@pytest.mark.parametrize("name", ["trivial", *sorted(ALGEBRAS)])
def test_synthesize_bounds_stores_the_identity_for_a_wire_free_thunk(name):
    # a thunk of a type holding no wires may emit no gates; one holding
    # wires is unknown without a bound, except in TRIVIAL
    alg = TRIVIAL if name == "trivial" else ALGEBRAS[name]
    unit = alg.identity_effect(alg.obj_of(()))
    for src in ("!Nat", "!(Qubit -o[I] Qubit)"):
        eff = synthesize_bounds(alg, parse_type(src)).eff
        assert eff is not None and alg.leq(eff, unit) and alg.leq(unit, eff), src
    eff = synthesize_bounds(alg, parse_type("!Qubit")).eff
    assert (eff is not None) == (alg is TRIVIAL)


# --------------------------------------------------------------------------
# straight-line programs: static effect is exact
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_straight_line_static_matches_dynamic_exactly(name):
    alg = algebra(name)
    report = verify_dynamic(program(BELL), alg, registry)
    assert report.dominated
    # no joins, no promises: the two sides must coincide
    assert alg.leq(report.static_effect, report.dynamic_effect)
    assert alg.leq(report.dynamic_effect, report.static_effect)


def test_gate_count_value():
    _, eff = infer_program_effect(program(BELL), gates, registry)
    assert gates.value_json(eff) == 4
    assert gates.bound_of(eff) == 4


def test_reordered_returns_still_verify():
    src = ("inputs a: Qubit, b: Qubit;"
           " let p = return (a, b) in"
           " dest (x, y) = p in"
           " let yx = apply(@CNOT, (y, x)) in"
           " return yx")
    for name in sorted(ALGEBRAS):
        alg = algebra(name)
        report = verify_dynamic(program(src), alg, registry)
        assert report.dominated, name
        assert alg.leq(report.static_effect, report.dynamic_effect), name


# --------------------------------------------------------------------------
# ifz joins both branches
# --------------------------------------------------------------------------

def test_ifz_effect_covers_both_branches():
    src = ("inputs q: Qubit;"
           " ifz 0 then apply(@H, q)"
           " else let q = apply(@X, q) in let q = apply(@X, q) in"
           " apply(@X, q)")
    _, eff = infer_program_effect(program(src), gates, registry)
    assert gates.value_json(eff) == 3  # worst branch wins

    report = verify_dynamic(program(src), gates, registry)
    assert report.dominated
    assert gates.value_json(report.dynamic_effect) == 1  # ran the short one


def test_ifz_join_dominates_for_every_algebra():
    src = ("inputs q: Qubit, p: Qubit;"
           " ifz 1 then apply(@CNOT, (q, p))"
           " else let q = apply(@H, q) in let p = apply(@X, p) in"
           " return (q, p)")
    for name in sorted(ALGEBRAS):
        report = verify_dynamic(program(src), algebra(name), registry)
        assert report.dominated, name


_LIGHT = r"\x: Qubit. return x"
_HEAVY = r"\x: Qubit. let x = apply(@H, x) in let x = apply(@H, x) in return x"

# Branches returning values that store an effect: the type of an ifz must
# store the join of its branches' effects, at every place one is stored.
IFZ_STORED = {
    "function": ("let f = ifz {c} then return ({a}) else return ({b}) in f q",
                 _LIGHT, _HEAVY),
    "forced-lift": ("let t = ifz {c} then return (lift return ({a}))"
                    " else return (lift return ({b})) in let f = force t in f q",
                    _LIGHT, _HEAVY),
    "lift-effect": ("let t = ifz {c} then return (lift {a}) else return (lift {b}) in"
                    " let r = force t in return (q, r)",
                    "apply(@init, *)",
                    "let r = apply(@init, *) in let r = apply(@H, r) in apply(@H, r)"),
    "applied-box": ("let k = ifz {c} then box[Qubit] lift {a}"
                    " else box[Qubit] lift {b} in apply(k, q)", _LIGHT, _HEAVY),
    "pair": ("let p = ifz {c} then return (0, {a}) else return (0, {b}) in"
             " dest (n, f) = p in f q", _LIGHT, _HEAVY),
    "function-result": (r"let g = ifz {c} then return (\n: Nat. return ({a}))"
                        r" else return (\n: Nat. return ({b})) in let f = g 0 in f q",
                        _LIGHT, _HEAVY),
}


@pytest.mark.parametrize("shape", sorted(IFZ_STORED))
def test_ifz_joins_the_effects_its_branches_store(shape):
    template, light, heavy = IFZ_STORED[shape]

    def prog(c, a, b):
        return program("inputs q: Qubit; " + template.format(c=c, a=a, b=b))

    for name in sorted(ALGEBRAS):
        alg = algebra(name)
        _, worse = infer_program_effect(prog(0, heavy, heavy), alg, registry)
        for c in (0, 1):
            for a, b in ((light, heavy), (heavy, light)):
                report = verify_dynamic(prog(c, a, b), alg, registry)
                assert report.dominated, (name, c)
                assert alg.value_json(report.static_effect) == alg.value_json(worse)


def test_ifz_counts_a_thunk_parameter_as_the_identity():
    # s stores no effect: it is a !Nat thunk, so it emits no gates
    src = (r"inputs q: Qubit;"
           r" let f = return (\s: !Nat."
           r" let g = ifz 1 then return s else return (lift let r = apply(@init, *) in"
           r" let u = apply(@discard, r) in return 0) in"
           r" let n = force g in return q) in"
           r" f (lift return 0)")
    for name in sorted(set(ALGEBRAS) - {"assert"}):  # discard has no assertion rows
        report = verify_dynamic(program(src), algebra(name), registry)
        assert report.dominated, name
    assert gates.value_json(verify_dynamic(program(src), gates, registry).static_effect) == 2


_EMITS = "let r = apply(@init, *) in let u = apply(@discard, r) in"

# A thunk emitting gates, passed where a thunk of a type holding no wires
# that stores no effect is expected: force and box charge that as the
# identity, so the application must refuse it.
THUNKS_BREAKING_A_PROMISE = {
    "forced": (r"inputs q: Qubit;"
               r" let t = return (lift {e} return 0) in"
               r" let f = return (\s: !Nat. let n = force s in return q) in f t"),
    "boxed": (r"inputs q: Qubit;"
              r" let t = return (lift {e} return (\x: Qubit. return x)) in"
              r" let f = return (\s: !(Qubit -o[I; 1] Qubit)."
              r" let c = box[Qubit] s in apply(c, q)) in f t"),
    "function-result": (r"inputs q: Qubit;"
                        r" let use = return (\f: Nat -o[I; 0] !Nat."
                        r" let t = f 0 in let n = force t in return q) in"
                        r" use (\x: Nat. return (lift {e} return 0))"),
}


@pytest.mark.parametrize("shape", sorted(THUNKS_BREAKING_A_PROMISE))
def test_thunk_emitting_gates_for_a_wireless_bang_parameter_is_rejected(shape):
    template = THUNKS_BREAKING_A_PROMISE[shape]
    src = template.format(e=_EMITS)
    check_program(program(src), registry)  # well typed
    for name in sorted(set(ALGEBRAS) - {"assert"}):  # discard has no assertion rows
        with pytest.raises(EffectError, match="must emit no gates"):
            infer_program_effect(program(src), algebra(name), registry)
    # a thunk that emits nothing keeps the promise
    for name in sorted(ALGEBRAS):
        report = verify_dynamic(program(template.format(e="")), algebra(name), registry)
        assert report.dominated, name


def test_function_argument_keeps_its_parameters_promise():
    # h's callers may pass f any function under 2, but k assumes one under 0
    src = (r"inputs q: Qubit;"
           r" let k = return (\g: Nat -o[I; 0] Nat. let n = g 0 in return q) in"
           r" let h = return (\f: (Nat -o[I; 2] Nat) -o[Qubit; 0] Qubit."
           r" f (\x: Nat. let r = apply(@init, *) in let u = apply(@discard, r) in"
           r" return 0)) in h k")
    check_program(program(src), registry)
    with pytest.raises(EffectError, match="the parameter of the argument must stay under 0"):
        infer_program_effect(program(src), gates, registry)


# --------------------------------------------------------------------------
# scalar ascriptions are promises
# --------------------------------------------------------------------------

def test_argument_breaking_its_promise_is_rejected():
    src = (r"inputs q: Qubit;"
           r" let use = return (\g: !(Qubit -o[1; 1] Qubit)."
           r" let h = force g in h q) in"
           r" use (lift return (\x: Qubit."
           r" let x = apply(@H, x) in apply(@X, x)))")
    with pytest.raises(EffectError, match="stay under 1"):
        infer_program_effect(program(src), gates, registry)


def test_argument_keeping_its_promise_passes():
    src = (r"inputs q: Qubit;"
           r" let use = return (\g: !(Qubit -o[1; 2] Qubit)."
           r" let h = force g in h q) in"
           r" use (lift return (\x: Qubit."
           r" let x = apply(@H, x) in apply(@X, x)))")
    ty, eff = infer_program_effect(program(src), gates, registry)
    # inside `use` only the promise is visible, so the bound is the promise
    assert gates.value_json(eff) == 2
    report = verify_dynamic(program(src), gates, registry)
    assert report.dominated


def test_check_ascription():
    _, eff = infer_program_effect(program(BELL), gates, registry)
    # a scalar ascription holds when the effect's bound stays under it
    assert gates.bound_of(eff) <= 4
    assert gates.bound_of(eff) <= 10
    assert not gates.bound_of(eff) <= 3


# --------------------------------------------------------------------------
# missing effect information
# --------------------------------------------------------------------------

def test_unannotated_opaque_function_cannot_be_applied():
    ctx = [("g", parse_type("!(Qubit -o[1] Qubit)")), ("q", QubitT())]
    with pytest.raises(EffectError, match="ascribe a bound"):
        EffectChecker(gates, registry).check_closed(
            ctx, parse_term("let h = force g in h q"))


def test_annotated_opaque_function_uses_its_bound():
    ctx = [("g", parse_type("!(Qubit -o[1; 5] Qubit)")), ("q", QubitT())]
    ty, eff = EffectChecker(gates, registry).check_closed(
        ctx, parse_term("let h = force g in h q"))
    assert gates.value_json(eff) == 5


def test_wrong_algebra_trips_the_endpoint_check():
    # a gate effect whose codomain has one wire too many: the checker's
    # invariant must catch it, also under python -O
    class BadWidth(WidthAlgebra):
        def gate_effect(self, gdef):
            e = super().gate_effect(gdef)
            return Effect(e.dom, e.cod + 1, e.value)

    with pytest.raises(EndpointMismatch, match="width effect 1→2 of Apply"):
        infer_program_effect(program("inputs q: Qubit; apply(@H, q)"),
                             BadWidth(), registry)


def off_by_one(name: str, gate: str, dom: int, cod: int):
    """The algebra ``name`` with ``dom`` more inputs and ``cod`` more outputs
    on the effect of ``gate``, its payload unchanged."""
    class Broken(type(algebra(name))):
        def gate_effect(self, gdef):
            e = super().gate_effect(gdef)
            if gdef.name != gate:
                return e
            return Effect(e.dom + dom, e.cod + cod, e.value)
    return Broken()


# a gate effect with an output too many, then one with an input too few, in
# programs that build a circuit on two wires; abstracting that circuit raises
# the error given last. When a permutation follows the extra output, routing
# would drop it and the image end on the circuit's wire count.
BROKEN = {
    "output": (("H", 0, 1),
               "inputs q: Qubit, p: Qubit; let q = apply(@H, q) in return (q, p)",
               "gate effects leave 3 wires where the circuit's end has 2"),
    "output-routed": (("H", 0, 1),
                      "inputs q: Qubit, p: Qubit; let q = apply(@H, q) in"
                      " let r = apply(@CNOT, (p, q)) in return r",
                      "gate effects leave 3 wires where a permutation has 2"),
    "input": (("CNOT", -1, 0),
              "inputs a: Qubit, b: Qubit; let p = apply(@CNOT, (a, b)) in return p",
              "effect 1→2 put on 2 wires"),
}


@pytest.mark.parametrize("name", ["width", "depth", "assert"])
@pytest.mark.parametrize("case", sorted(BROKEN))
def test_wrong_algebras_trip_the_checkers_folds(name, case):
    (gate, dom, cod), src, _ = BROKEN[case]
    with pytest.raises(EndpointMismatch, match=f"^{name} effect 1→2 "):
        infer_program_effect(program(src), off_by_one(name, gate, dom, cod), registry)


@pytest.mark.parametrize("name", ["width", "depth", "assert"])
@pytest.mark.parametrize("case", sorted(BROKEN))
def test_wrong_algebras_trip_abstract(name, case):
    (gate, dom, cod), src, error = BROKEN[case]
    circuit, _, _ = evaluate_program(program(src), registry)
    assert (len(circuit.dom), len(circuit.cod)) == (2, 2)
    with pytest.raises(EndpointMismatch, match=f"^{name} {error}"):
        off_by_one(name, gate, dom, cod).abstract(circuit, registry)


def test_unconsumed_inputs_are_rejected():
    with pytest.raises(LinearityViolation, match="unconsumed"):
        EffectChecker(gates, registry).check_closed(
            [("q", QubitT())], parse_term("return *"))


# --------------------------------------------------------------------------
# boxing keeps the body's effect
# --------------------------------------------------------------------------

def test_boxed_circuit_effect_flows_through_apply():
    src = (r"inputs q: Qubit;"
           r" let c = box[Qubit] lift \x: Qubit."
           r"   let x = apply(@H, x) in apply(@X, x) in"
           r" apply(c, q)")
    _, eff = infer_program_effect(program(src), gates, registry)
    assert gates.value_json(eff) == 2
    for name in sorted(ALGEBRAS):
        report = verify_dynamic(program(src), algebra(name), registry)
        assert report.dominated, name


def test_boxed_value_has_the_type_of_its_box():
    # the evaluator's boxed circuit lists its outputs (1, 0), the body's
    # second output first: the checker routes them into the bundle's order
    src = (r"inputs; let c = box[Qubit * Qubit] lift \x: Qubit * Qubit."
           r"   dest (a, b) = x in let p = apply(@CNOT, (b, a)) in"
           r"   dest (c, d) = p in let c = apply(@H, c) in return (d, c) in"
           r" return c")
    _, _, boxed = evaluate_program(program(src), registry)
    assert type(boxed) is BoxedCircuit  # a box evaluates to its circuit
    assert (boxed.inputs, boxed.outputs) == ((0, 1), (1, 0))
    for name in sorted(ALGEBRAS):
        alg = algebra(name)
        ct, _, _ = EffectChecker(alg, registry).infer_value(boxed)
        ty, _ = infer_program_effect(program(src), alg, registry)
        assert ct.eff == ty.eff, name


def test_boxed_value_routes_a_permuted_input_bundle():
    # a box's input bundle lists the body's positions in order, so the
    # bundle (1, 0) is refused; its routing is a Perm at the body's start
    q = WireType.QUBIT
    h, cnot = registry.gate("H"), registry.gate("CNOT")
    body = (Layer(((h, 0),)), Layer(((cnot, 0),)))
    with pytest.raises(WireTypeMismatch):
        BoxedCircuit((1, 0), Circuit((q, q), body), (0, 1))
    swapped = Circuit((q, q), (Perm((1, 0)),) + body)
    boxed = BoxedCircuit((0, 1), swapped, (0, 1))
    for name in sorted(ALGEBRAS):
        alg = algebra(name)
        ct, _, _ = EffectChecker(alg, registry).infer_value(boxed)
        assert ct.eff == alg.abstract(swapped, registry), name


def test_verify_report_json_shape():
    report = verify_dynamic(program(BELL), gates, registry)
    js = report.to_json(gates)
    assert js == {"metric": "gates", "dominated": True,
                  "static": 4, "dynamic": 4}


# --------------------------------------------------------------------------
# random programs: every metric's static bound dominates
# --------------------------------------------------------------------------

def test_random_programs_verify_on_scalar_metrics():
    r = rng("effects-random")
    for _ in range(30):
        prog = random_program(r)
        for name in ("gates", "depth-naive", "width", "depth"):
            report = verify_dynamic(prog, algebra(name), registry)
            assert report.dominated, name


def test_random_assert_safe_programs_verify():
    r = rng("effects-random-assert")
    for _ in range(30):
        prog = random_program(r, assert_safe=True)
        report = verify_dynamic(prog, algebra("assert"), registry)
        assert report.dominated
