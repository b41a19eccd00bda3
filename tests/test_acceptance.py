"""The acceptance gate: one test per shipped guarantee.

Part 1 pins exact numbers on known circuits (all tolerances are zero).
Part 2 re-runs the property suites at full scale: algebra laws, oracle
comparisons, preservation/soundness over random programs, boxing
coherence and the assert join law. Part 3 is the parser round-trip.

``pytest -v tests/test_acceptance.py`` gives one verdict line per
criterion; with ``-s`` each test also prints an explicit [PASS] line.
"""

import os

from generators import (
    random_ast_program, random_boxable, random_circuit, random_program,
    random_qubit_circuit, rng, tropical,
)
from oracles import depth_paths_oracle, width_cuts_oracle
from test_algebras import bitstrings, check_functor_laws, random_table_effect
from pqc.algebras import ALGEBRAS, TRIVIAL, algebra, depth_bound
from pqc.circuits import Circuit, Layer, WireType, equivalent
from pqc.effects import infer_program_effect, verify_dynamic
from pqc.evaluator import evaluate_program, readback
from pqc.gates import default_registry, load_gate_spec
from pqc.syntax import (
    Apply, App, BitT, Block, Box, Lift, LetBinder, Program, QubitT, Ret, TensorT,
    Var, parse_program, show_program,
)
from pqc.tropical import NEG_INF
from pqc.typecheck import EffectChecker, check_program, same_type

registry = default_registry()
DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "demos")

Q = WireType.QUBIT
WIRE_TYPES = {WireType.QUBIT: QubitT(), WireType.BIT: BitT()}
H = registry.gate("H")
X = registry.gate("X")
CNOT = registry.gate("CNOT")
INIT = registry.gate("init")

GATES = ALGEBRAS["gates"]
NAIVE = ALGEBRAS["depth-naive"]
WIDTH = ALGEBRAS["width"]
DEPTH = ALGEBRAS["depth"]
ASSERT = ALGEBRAS["assert"]

# Two H gates and an X interleaved across two wires, twice: once with every
# gate in its own layer, once with the trailing pair fused into one layer.
INTERLEAVED = Circuit((Q, Q), (
    Layer(((H, 1),)), Layer(((H, 0),)), Layer(((X, 1),))))
INTERLEAVED_FUSED = Circuit((Q, Q), (
    Layer(((H, 1),)), Layer(((H, 0), (X, 1)))))

# A block that grows: fresh wire, a Hadamard on an input, then an
# entangling gate between the new wire and that input.
GROWING = Circuit((Q, Q), (
    Layer(((INIT, 0),)), Layer(((H, 1),)), Layer(((CNOT, 0),))))


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def load_demo(name: str):
    path = os.path.join(DEMOS, name)
    with open(path, "r", encoding="utf-8") as f:
        prog = parse_program(f.read())
    reg = default_registry()
    if prog.gates_path is not None:
        reg = reg.extended(
            load_gate_spec(os.path.join(DEMOS, prog.gates_path)))
    return prog, reg


# --------------------------------------------------------------------------
# 1. pinned figures (zero tolerance)
# --------------------------------------------------------------------------

def test_gate_count_of_interleaved_blocks():
    got = (GATES.abstract(INTERLEAVED, registry).value,
           GATES.abstract(INTERLEAVED_FUSED, registry).value)
    verdict("gate count of the interleaved blocks", got == (3, 3),
            f"expected (3, 3), got {got}")


def test_naive_depth_of_interleaved_blocks():
    got = (NAIVE.abstract(INTERLEAVED, registry).value,
           NAIVE.abstract(INTERLEAVED_FUSED, registry).value)
    verdict("naive depth of the interleaved blocks", got == (3, 2),
            f"expected (3, 2), got {got}")


def test_depth_triple_of_interleaved_block():
    e = DEPTH.abstract(INTERLEAVED, registry)
    t = e.value
    ok = (t.a == tropical([[1, NEG_INF], [NEG_INF, 2]], (2, 2))
          and t.v == tropical([[NEG_INF, NEG_INF]], (1, 2))
          and t.w == tropical([[NEG_INF], [NEG_INF]], (2, 1))
          and depth_bound(e) == 2)
    verdict("depth triple of the interleaved block", ok,
            f"A={t.a.data.tolist()} v={t.v.data.tolist()} w={t.w.data.tolist()}, "
            f"bound {depth_bound(e):g} "
            f"(expected A=[[1,-inf],[-inf,2]], v,w all -inf, bound 2)")


def test_depth_triple_of_growing_block():
    t = DEPTH.abstract(GROWING, registry).value
    ok = (t.a == tropical([[2, 2, NEG_INF], [NEG_INF, NEG_INF, 0]], (2, 3))
          and t.v == tropical([[NEG_INF, NEG_INF]], (1, 2))
          and t.w == tropical([[1], [1], [NEG_INF]], (3, 1)))
    verdict("depth triple of the growing block", ok,
            f"A={t.a.data.tolist()} v={t.v.data.tolist()} w={t.w.data.tolist()} "
            f"(expected A=[[2,2,-inf],[-inf,-inf,0]], v=-inf, w=[1,1,-inf])")


def test_width_of_growing_block():
    got = WIDTH.abstract(GROWING, registry).value
    verdict("width of the growing block", got == 3,
            f"expected 3, got {got}")


def test_lnn_prefix_assertion_and_gate_count():
    prog, reg = load_demo("lnn.pqc")
    check_program(prog, reg)
    count = infer_program_effect(prog, GATES, reg)[1].value
    _, eff = infer_program_effect(prog, ASSERT, reg)
    post, cost = eff.value.apply(frozenset({""}))
    restricted = frozenset(s[:2] for s in post)
    ok = (restricted == frozenset({"00", "11"}) and cost == 3 and count == 5)
    verdict("LNN prefix: assertion on first two qubits and gate count",
            ok,
            f"expected ({{'00','11'}}, 3) and 5 gates (the chained-CNOT "
            f"definition counts 2 and the 4-wire init counts 1), got "
            f"({sorted(restricted)}, {cost}) and {count}")


# --------------------------------------------------------------------------
# 2. property suites
# --------------------------------------------------------------------------

def test_functor_laws_for_all_five_algebras():
    per = {}
    for name in ("gates", "depth-naive", "width", "depth"):
        per[name] = check_functor_laws(
            ALGEBRAS[name], rng(f"acceptance-laws-{name}"),
            lambda r: random_circuit(r, max_wires=6, max_steps=12), 200)
    per["assert"] = check_functor_laws(
        ASSERT, rng("acceptance-laws-assert"),
        lambda r: random_qubit_circuit(r), 200)
    ok = all(n == 200 for n in per.values())
    verdict("functor laws for all five algebras", ok,
            f"{sum(per.values())} circuits checked exactly "
            f"(200 per algebra; assert on qubit-only circuits)")


def test_depth_bound_equals_longest_path_oracle():
    r = rng("acceptance-depth-oracle")
    checked = 0
    for _ in range(200):
        c = random_circuit(r, max_wires=6, max_steps=12)
        a, v, w, s, bound = depth_paths_oracle(c, registry)
        e = DEPTH.abstract(c, registry)
        assert e.value.a == tropical(a, (len(c.dom), len(c.cod)))
        assert e.value.v == tropical([v], (1, len(c.dom)))
        assert e.value.w == tropical([[x] for x in w], (len(c.cod), 1))
        assert e.value.m[-1, -1] == s
        assert depth_bound(e) == bound
        checked += 1
    verdict("depth algebra vs longest-path oracle", checked == 200,
            f"{checked}/200 circuits matched exactly (full triple + bound)")


def test_width_equals_max_cut_oracle():
    r = rng("acceptance-width-oracle")
    checked = 0
    for _ in range(200):
        c = random_circuit(r, max_wires=6, max_steps=12)
        assert WIDTH.abstract(c, registry).value == width_cuts_oracle(c, registry)
        checked += 1
    verdict("width algebra vs max-over-cuts oracle", checked == 200,
            f"{checked}/200 circuits matched exactly")


def _program_suites():
    r1 = rng("acceptance-programs")
    r2 = rng("acceptance-programs-assert")
    general = [random_program(r1) for _ in range(100)]
    assert_safe = [random_program(r2, assert_safe=True) for _ in range(100)]
    return general, assert_safe


def test_type_preservation_on_random_programs():
    general, assert_safe = _program_suites()
    checked = 0
    for prog in general + assert_safe:
        ty1 = check_program(prog, registry)
        _, outputs, value = evaluate_program(prog, registry)
        # the result is typed over the open outputs, and must consume each
        ctx = [(label, WIRE_TYPES[wire]) for label, wire in outputs]
        ty2, _ = EffectChecker(TRIVIAL, registry).check_closed(ctx, Ret(readback(value)))
        assert same_type(ty1, ty2), show_program(prog)
        checked += 1
    verdict("type preservation on random programs", checked == 200,
            f"{checked}/200 programs re-typed at the same type after running")


def test_dynamic_soundness_for_every_algebra():
    general, assert_safe = _program_suites()
    runs = 0
    for name in sorted(ALGEBRAS):
        alg = algebra(name)
        suite = assert_safe if name == "assert" else general + assert_safe
        for prog in suite:
            report = verify_dynamic(prog, alg, registry)
            assert report.dominated, f"{name}: {show_program(prog)}"
            runs += 1
    verdict("dynamic soundness for every algebra", runs == 900,
            f"{runs}/900 static bounds dominated the built circuit "
            f"(assert runs only programs whose gates all carry assertion rows)")


def test_boxing_coherent_with_direct_application():
    r = rng("acceptance-boxing")
    checked = 0
    for _ in range(50):
        shape, lam = random_boxable(r)
        if isinstance(shape, TensorT):
            inputs = (("in0", QubitT()), ("in1", QubitT()))
            arg = (Var("in0"), Var("in1"))
        else:
            inputs = (("in0", QubitT()),)
            arg = Var("in0")
        boxed = Program(inputs, None, Block(
            (LetBinder("c", Box(shape, Lift(Ret(lam)))),), Apply(Var("c"), arg)))
        direct = Program(inputs, None, App(lam, arg))
        check_program(boxed, registry)
        check_program(direct, registry)
        c1, _, _ = evaluate_program(boxed, registry)
        c2, _, _ = evaluate_program(direct, registry)
        assert equivalent(c1, c2), show_program(boxed)
        checked += 1
    verdict("boxing coherent with direct application", checked == 50,
            f"{checked}/50 boxed-vs-direct circuit pairs equal after "
            f"canonicalization")


def test_assert_join_law_on_random_tables():
    r = rng("acceptance-assert-join")
    checked = 0
    for _ in range(500):
        k1, k2 = r.randint(1, 3), r.randint(0, 3)
        e = random_table_effect(r, k1, k2)
        states = bitstrings(k1)
        l1 = frozenset(r.sample(states, r.randint(1, len(states))))
        l2 = frozenset(r.sample(states, r.randint(1, len(states))))
        p1, c1 = e.value.apply(l1)
        p2, c2 = e.value.apply(l2)
        assert e.value.apply(l1 | l2) == (p1 | p2, max(c1, c2))
        checked += 1
    verdict("assert join law on random tables", checked == 500,
            f"{checked}/500 (table, L1, L2) instances exact")


# --------------------------------------------------------------------------
# 3. parser round-trip
# --------------------------------------------------------------------------

def test_parser_round_trip_on_generated_programs():
    r = rng("acceptance-roundtrip")
    checked = 0
    for _ in range(500):
        prog = random_ast_program(r)
        assert parse_program(show_program(prog)) == prog
        checked += 1
    verdict("parser round-trip on generated programs", checked == 500,
            f"{checked}/500 printed programs parsed back identically")
