"""The algebras' fold accumulators against the ``then_eff`` fold.

A circuit's image (``abstract``) and a block's effect (inference) are one
fold, run on each algebra's accumulator (``CircuitAlgebra.fold``). These
tests run the same inputs through ``oracles.ThenEffFold`` and
``oracles.then_eff_abstract``, which place every step with
``oracles.then_eff``, and ask for the same effect: the same endpoints and
value, and under ``depth`` the same matrix, its source→sink corner
included. ``assert``'s ``then_eff`` is itself one step of its accumulator,
so its fold is also checked against ``oracles.StringAssertAlgebra``, which
shares no code with it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from generators import (
    ASSERT_POOL, depth_triple, random_circuit, random_program, random_qubit_circuit, rng,
)
from oracles import (
    StringAssertAlgebra, ThenEffFold, ThenEffFolding, every_subset_costs, string_eval_cost,
    then_eff, then_eff_abstract,
)
from pqc.algebras import ALGEBRAS, TRIVIAL, DepthTriple, Effect, algebra, routing
from pqc.circuits import Gate, WireType
from pqc.errors import PqcError
from pqc.gates import GateDef, Registry, default_registry, parse_gate_spec
from pqc.syntax import parse_program, show_program
from pqc.tropical import NEG_INF
from pqc.typecheck import EffectChecker

registry = default_registry()
Q = WireType.QUBIT

ALL = sorted(ALGEBRAS) + ["trivial"]


def alg_of(name: str):
    return TRIVIAL if name == "trivial" else algebra(name)


def assert_same(a: Effect, b: Effect, where="") -> None:
    assert (a.dom, a.cod) == (b.dom, b.cod), where
    if isinstance(a.value, DepthTriple):
        assert np.array_equal(a.value.m, b.value.m), where  # corner included
    assert a.value == b.value, where


# gates of every shape and weight, so that placements start, end and carry
# paths of more than one length
SPEC = """
gate W0 : I -> Qubit
  depth 4
gate C3 : Qubit Qubit -> Qubit Qubit
  depth 3
gate fan : Qubit -> Qubit Qubit
  depth 2
gate drop2 : Qubit Qubit -> I
  depth 3
gate tick : I -> I
  depth 2
"""
WIDE = registry.extended(parse_gate_spec(SPEC))
POOL = ("H", "CNOT", "meas", "init", "discard", "W0", "C3", "fan", "drop2", "tick")


# --------------------------------------------------------------------------
# abstract
# --------------------------------------------------------------------------

@pytest.mark.parametrize("name", [n for n in ALL if n != "depth-naive"])
def test_abstract_matches_the_then_eff_fold(name):
    # depth-naive's image counts layers, not gates, so it is no gate fold
    alg = alg_of(name)
    r = rng(f"fold-abstract/{name}")
    if name == "assert":
        circuits = [random_qubit_circuit(r, max_wires=4, max_steps=10)
                    for _ in range(150)]
        reg = registry
    else:
        circuits = [random_circuit(r, max_wires=5, max_steps=12, pool=POOL,
                                   registry=WIDE) for _ in range(300)]
        reg = WIDE
    perms = 0
    for c in circuits:
        assert_same(alg.abstract(c, reg), then_eff_abstract(alg, c, reg), str(c))
        perms += sum(type(s).__name__ == "Perm" for s in c.steps)
    assert perms >= 50


@pytest.mark.parametrize("name", ALL)
def test_abstract_in_an_order_is_the_image_then_a_routing(name):
    # verify asks for the circuit's outputs in its bundle's order: the image
    # in the circuit's order, then the outputs routed into that one
    alg = alg_of(name)
    r = rng(f"fold-order/{name}")
    unit = alg.identity_effect(alg.obj_of(()))
    moved = 0
    for _ in range(150):
        if name == "assert":
            c, reg = random_qubit_circuit(r, max_wires=4, max_steps=10), registry
        else:
            c = random_circuit(r, max_wires=5, max_steps=12, pool=POOL, registry=WIDE)
            reg = WIDE
        perm = list(range(len(c.cod)))
        r.shuffle(perm)
        at = routing(tuple(perm))
        assert_same(alg.abstract(c, reg, list(at)),
                    then_eff(alg, alg.abstract(c, reg), at, unit), str(c))
        moved += at != tuple(sorted(at))
    assert moved >= 75, moved


# --------------------------------------------------------------------------
# inference
# --------------------------------------------------------------------------

def outcome(alg, prog):
    try:
        return EffectChecker(alg, registry).check_closed(prog.inputs, prog.term)
    except PqcError as e:
        return type(e), str(e)


def programs(salt: str, n: int):
    r = rng(salt)
    return [random_program(r, assert_safe=i % 2 == 0, steps=r.randint(1, 10),
                           ascribed=True) for i in range(n)]


PROGRAMS = programs("fold-infer", 160)


def test_programs_cover_joins_boxes_routes_and_small_ascriptions():
    texts = [show_program(p) for p in PROGRAMS]
    for needle in ("ifz", "box[", "-o[I; 1]", "Circ[0](Qubit, Qubit * Qubit)",
                   "Circ[1](Qubit, Qubit * Qubit)"):
        assert sum(needle in t for t in texts) >= 5, needle
    # dests whose wires the next step takes out of order, or apart
    folding = ThenEffFolding(ALGEBRAS["depth"])
    for p in PROGRAMS:
        outcome(folding, p)
    assert folding.routes >= 20


@pytest.mark.parametrize("name", ALL)
def test_inference_matches_the_then_eff_fold(name):
    alg = alg_of(name)
    ok = 0
    for p in PROGRAMS:
        got, want = outcome(alg, p), outcome(ThenEffFolding(alg), p)
        if isinstance(want[0], type):
            assert got == want, show_program(p)
            continue
        assert got[0] == want[0], show_program(p)  # types hold stored effects
        assert_same(got[1], want[1], show_program(p))
        ok += 1
    assert ok >= 60


def test_a_width_below_the_outputs_is_raised_to_them():
    # Circ[1] promises width 1 for a circuit with two outputs: the body's
    # effect counts both when it routes them and when it leaves them in order
    width = ALGEBRAS["width"]
    for tail in ("return (w, u)", "return (u, w)", "apply(c, y)"):
        tail_binders = "" if tail.startswith("apply") else \
            "let p = apply(c, y) in dest (u, w) = p in "
        prog = parse_program(
            "inputs;\nlet f = return (lift return (\\a: Circ[1](Qubit, Qubit * Qubit)"
            f" * Qubit. dest (c, y) = a in {tail_binders}{tail})) in return f")
        for alg in (width, ThenEffFolding(width)):
            ty, _ = outcome(alg, prog)
            assert ty.inner.eff == Effect(1, 2, 2), tail


# --------------------------------------------------------------------------
# the accumulators on their own, with effects no program writes
# --------------------------------------------------------------------------

def random_depth_effect(r, d: int, c: int) -> Effect:
    """Any matrix: paths from inputs and a source, into outputs and a sink."""
    def entry():
        return NEG_INF if r.random() < 0.4 else float(r.randint(0, 6))
    return Effect(d, c, depth_triple([[entry() for _ in range(c)] for _ in range(d)],
                                     [entry() for _ in range(d)],
                                     [entry() for _ in range(c)], entry()))


def random_gate_effect(r, alg, d: int, c: int) -> Effect:
    gate = Gate(f"g{d}{c}", (Q,) * d, (Q,) * c)
    return alg.gate_effect(GateDef(gate, depth=r.randint(0, 5)))


def run_script(fold, script, final):
    """Place each step on the live wires it picks, its outputs at ``at``
    among the rest; freeze in the order ``final`` picks."""
    live = list(fold.wires)
    for picks, e, at in script:
        taken = [live[p] for p in picks]
        rest = [w for p, w in enumerate(live) if p not in picks]
        live = rest[:at] + fold.place(taken, e) + rest[at:]
    return fold.freeze([live[p] for p in final])


def random_script(r, make_effect, n: int, steps: int):
    script = []
    for _ in range(steps):
        d = r.randint(0, min(n, 3))
        c = r.randint(0, 3)
        picks = r.sample(range(n), d)
        script.append((picks, make_effect(d, c), r.randint(0, n - d)))
        n += c - d
    final = list(range(n))
    r.shuffle(final)
    return script, final


@pytest.mark.parametrize("name", ["depth", "width"])
def test_accumulator_matches_the_then_eff_fold_on_any_effects(name):
    alg = algebra(name)
    r = rng(f"fold-any/{name}")
    for _ in range(300):
        if name == "depth":
            def make(d, c):
                if r.random() < 0.3:
                    return random_gate_effect(r, alg, d, c)
                return random_depth_effect(r, d, c)
        else:
            def make(d, c):
                return Effect(d, c, r.randint(0, 5))  # also below d or c
        n = r.randint(0, 4)
        script, final = random_script(r, make, n, r.randint(0, 8))
        dom = (Q,) * n
        assert_same(run_script(alg.fold(dom), script, final),
                    run_script(ThenEffFold(alg, dom), script, final), str(script))


def test_wide_depth_effects_match_the_then_eff_fold():
    # wide effects, sparse and dense, the first on the outer wires' own rows,
    # with more outputs than the accumulator has rows, so that it grows
    depth = algebra("depth")
    r = rng("fold-wide")
    for density in (0.02, 0.2, 1.0):
        def make(d, c):
            def entry():
                return float(r.randint(0, 9)) if r.random() < density else NEG_INF
            return Effect(d, c, depth_triple(
                [[entry() for _ in range(c)] for _ in range(d)],
                [entry() for _ in range(d)], [entry() for _ in range(c)], entry()))
        n = 70
        script = []
        for _ in range(3):
            picks = r.sample(range(n), r.randint(60, n))
            c = r.randint(60, 75)
            script.append((picks, make(len(picks), c), r.randint(0, n - len(picks))))
            n += c - len(picks)
        final = list(range(n))
        r.shuffle(final)
        dom = (Q,) * 70
        assert_same(run_script(depth.fold(dom), script, final),
                    run_script(ThenEffFold(depth, dom), script, final))


# --------------------------------------------------------------------------
# assert: the in-place accumulator against then_eff and the string algebra
# --------------------------------------------------------------------------

ASSERT = algebra("assert")
STRINGS = StringAssertAlgebra()


def bitstrings(n: int) -> list[str]:
    return [format(i, f"0{n}b") if n else "" for i in range(1 << n)]


def random_assert_gate(r, name: str, d: int, c: int, permuting=False) -> GateDef:
    """A gate-spec gate from d qubits to c with random rows: postsets of
    any size (one state each, all distinct, when ``permuting``) and costs
    that are all 0, all one constant, or mixed."""
    ins, outs = bitstrings(d), bitstrings(c)
    images = r.sample(outs, len(outs))
    weight = r.randint(1, 4)
    costs = r.choice((lambda: 0, lambda: weight, lambda: r.randint(0, 4)))
    rows = {b: (frozenset({images[i]}) if permuting
                else frozenset(r.sample(outs, r.randint(1, len(outs)))), costs())
            for i, b in enumerate(ins)}
    return GateDef(Gate(name, (Q,) * d, (Q,) * c), rows=rows)


def assert_matches_strings(new: Effect, old: Effect, where) -> None:
    """Same endpoints and rows, and the same cost on every single state and
    on all states, as the string algebra's effect; up to 3 input qubits,
    on every precondition too (at most 2^8 of them), so that costs whose
    stages differ but agree on those points are told apart."""
    assert (new.dom, new.cod) == (old.dom, old.cod), where
    assert ASSERT.value_json(new) == STRINGS.value_json(old), where
    states = bitstrings(new.dom)
    singles = string_eval_cost(old.value.cost, np.eye(len(states), dtype=bool))
    for b, cost in zip(states, singles.tolist()):
        assert new.value.apply({b})[1] == cost, (where, b)
    assert new.value.apply(states) == old.value.apply(states), where
    if new.dom <= 3:
        n = len(states)
        # row i: the subset holding state j when bit j of i is set
        pre = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
        assert np.array_equal(every_subset_costs(new.value.cost, n),
                              string_eval_cost(old.value.cost, pre)), where


def test_assert_accumulator_matches_the_then_eff_fold_and_the_strings():
    # routed placements of 0-3-qubit gates with arbitrary rows, wire counts
    # that grow and shrink, and permutations moved in place
    r = rng("fold-assert")
    kinds = {"perm": 0, "uniform": 0, "other": 0, "resized": 0}
    for i in range(250):
        n = r.randint(0, 4)
        live, script = n, []
        for j in range(r.randint(0, 8)):
            d = r.randint(0, min(live, 3))
            c = r.randint(0, 3) if live - d < 5 else r.randint(0, d)
            permuting = d == c and r.random() < 0.4
            gdef = random_assert_gate(r, f"u{i}_{j}", d, c, permuting)
            script.append((r.sample(range(live), d), gdef, r.randint(0, live - d)))
            live += c - d
            sources = ASSERT.gate_effect(gdef).value.plan()[0]
            kinds["resized" if d != c else "perm" if permuting
                  else "uniform" if all(xs == sources[0] for xs in sources)
                  else "other"] += 1
        final = list(range(live))
        r.shuffle(final)
        dom = (Q,) * n

        def effects(alg):
            return [(picks, alg.gate_effect(gdef), at) for picks, gdef, at in script]

        got = run_script(ASSERT.fold(dom), effects(ASSERT), final)
        assert_same(got, run_script(ThenEffFold(ASSERT, dom), effects(ASSERT), final), i)
        assert_matches_strings(
            got, run_script(ThenEffFold(STRINGS, dom), effects(STRINGS), final), i)
    assert min(kinds.values()) >= 50, kinds


def assert_registry(r) -> tuple[Registry, tuple[str, ...]]:
    """The default gates and random gate-spec gates on 1-3 qubits, some
    that permute their states and some that drop a wire."""
    shapes = {"u1": (1, 1, False), "u2": (2, 2, False), "u3": (3, 3, False),
              "p2": (2, 2, True), "p3": (3, 3, True), "m21": (2, 1, False),
              "d1": (1, 0, False)}
    defs = {name: random_assert_gate(r, name, d, c, p)
            for name, (d, c, p) in shapes.items()}
    return registry.extended(defs), ASSERT_POOL + tuple(shapes)


def test_assert_abstract_matches_the_then_eff_fold_and_the_strings():
    r = rng("fold-assert-abstract")
    perms = 0
    for i in range(120):
        reg, pool = assert_registry(r)
        c = random_circuit(r, max_wires=5, max_steps=10, pool=pool, registry=reg,
                           max_width=6)
        got = ASSERT.abstract(c, reg)
        assert_same(got, then_eff_abstract(ASSERT, c, reg), str(c))
        assert_matches_strings(got, then_eff_abstract(STRINGS, c, reg), str(c))
        perms += sum(type(s).__name__ == "Perm" for s in c.steps)
    assert perms >= 50


def test_a_relation_that_is_not_total_is_refused_under_python_O():
    # a cost's scalar relies on totality, so the check must not be
    # an assert statement, which -O strips
    code = ("import numpy as np\n"
            "from pqc.algebras import AssertValue, Cost\n"
            "from pqc.errors import EffectError\n"
            "try:\n"
            "    AssertValue(np.zeros((2, 2), dtype=bool), Cost())\n"
            "except EffectError:\n"
            "    print('refused')\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout == "refused\n", out.stderr
