"""The ``assert`` algebra on basis integers against the one on basis strings.

``oracles.StringAssertAlgebra`` builds every postset string by string;
``pqc.algebras.AssertAlgebra`` works on boolean matrices and int vectors.
Both must give the same ``value_json``, and the same postset and cost under
every single basis state and under all states, on circuits, on inferred
programs and on random folds of routed placements, joins and coarsest
effects, at 1-8 qubits.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from generators import ASSERT_POOL, Q, boxed_doubling, random_program, random_steps, rng
from oracles import (
    StringAssertAlgebra, ThenEffFolding, compose_eff, string_eval_cost, then_eff,
)
from pqc.algebras import ALGEBRAS, _ASSERT_MAX_QUBITS, Cost, Effect, MaxCost
from pqc.circuits import Circuit, Gate
from pqc.effects import infer_program_effect
from pqc.errors import PqcError
from pqc.gates import GateDef, default_registry
from pqc.syntax import parse_program, show_program

registry = default_registry()
ASSERT = ALGEBRAS["assert"]
STRINGS = StringAssertAlgebra()


def bitstrings(n: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def assert_same(new: Effect, old: Effect, where) -> None:
    """Equal endpoints, ``value_json``, and ``apply`` on every single state
    and on all states. The oracle's single-state costs are read in one
    evaluation over the identity matrix, which is ``apply`` state by state."""
    assert (new.dom, new.cod) == (old.dom, old.cod), where
    assert ASSERT.value_json(new) == STRINGS.value_json(old), where
    states = bitstrings(new.dom)
    singles = string_eval_cost(old.value.cost, np.eye(len(states), dtype=bool))
    for b, cost in zip(states, singles.tolist()):
        assert new.value.apply({b}) == (old.value.rows[b], cost), (where, b)
    assert new.value.apply(states) == old.value.apply(states), where
    assert ASSERT.bound_of(new) == STRINGS.bound_of(old), where


def outcome(run, alg):
    try:
        return run(alg)
    except PqcError as err:
        return type(err).__name__, str(err)


def test_circuits_match_the_string_algebra():
    r = rng("assert-oracle-circuits")
    for i in range(60):
        dom = (Q,) * r.randint(1, 8)
        steps, _ = random_steps(r, dom, 10, pool=ASSERT_POOL, max_width=8)
        c = Circuit(dom, steps)
        assert_same(ASSERT.abstract(c, registry), STRINGS.abstract(c, registry),
                    (i, str(c)))


def test_inferred_programs_match_the_string_algebra():
    # ifz joins branch costs (MaxCost), boxes compose whole effects, and dest
    # routes wires
    r = rng("assert-oracle-programs")
    for i in range(80):
        prog = random_program(r, assert_safe=True, max_inputs=8,
                              steps=r.randint(1, 12))
        new = outcome(lambda alg: infer_program_effect(prog, alg, registry)[1], ASSERT)
        old = outcome(lambda alg: infer_program_effect(prog, alg, registry)[1], STRINGS)
        if isinstance(new, Effect):
            assert_same(new, old, show_program(prog))
        else:
            assert new == old, show_program(prog)


def test_programs_with_joins_nested_boxes_and_repeated_calls_match_the_references():
    # calls repeat a function's cost, so equal items add up; ifz joins make
    # MaxCost items, which a later call reads back through a new relation.
    # The fold's costs against one then_eff per binder and against the
    # string algebra, on random preconditions (the empty one included)
    r = rng("assert-normal-form")
    seen = {"nested": 0, "repeat": 0, "ifz": 0}
    for i in range(120):
        prog = random_program(r, assert_safe=True, max_inputs=4,
                              steps=r.randint(1, 8), calls=True)
        text = show_program(prog)
        seen["nested"] += "apply(d, " in text
        seen["repeat"] += "force" in text
        seen["ifz"] += "ifz" in text
        effects = [outcome(lambda alg: infer_program_effect(prog, alg, registry)[1], alg)
                   for alg in (ASSERT, ThenEffFolding(ASSERT), STRINGS)]
        new, ref, old = effects
        if not isinstance(new, Effect):
            assert new == ref == old, text
            continue
        assert new.value == ref.value, text
        states = bitstrings(new.dom)
        for _ in range(8):
            pre = frozenset(r.sample(states, r.randint(0, len(states))))
            assert new.value.apply(pre) == old.value.apply(pre), (text, pre)
    assert min(seen.values()) >= 30, seen


def entries(cost: Cost) -> int:
    """The distinct items of a cost, those under its joins included."""
    return sum(1 + (sum(map(entries, x.children)) if isinstance(x, MaxCost) else 0)
               for x in cost.items)


@pytest.mark.parametrize("gate", ["H", "Z"])
def test_boxed_doubling_carries_a_cost_of_constant_size(gate):
    # 2^16 gates: H adds 1 to the scalar each time, Z one more copy of its
    # stage; neither makes a new entry
    prog = parse_program(boxed_doubling(16, gate))
    _, e = infer_program_effect(prog, ASSERT, registry)
    cost = e.value.cost
    assert entries(cost) == (gate == "Z")
    assert (cost.scalar, sorted(cost.items.values())) == (
        (2**16, []) if gate == "H" else (0, [2**16]))
    assert e.value.apply({"1"})[1] == 2**16
    assert e.value.apply({"0"})[1] == (2**16 if gate == "H" else 0)


def random_table(r) -> GateDef:
    """A one-qubit gate with random postsets and costs."""
    gate = Gate(f"t{r.randrange(10**6)}", (Q,), (Q,))
    return GateDef(gate, rows={
        b: (frozenset(r.sample(["0", "1"], r.randint(1, 2))), r.randint(0, 4))
        for b in "01"})


def random_piece(r, k: int, room: int):
    """A circuit on all k wires, a gate, a coarsest effect, or a join of two
    sequences of two random tables and a table after it, taking d <= k
    wires, with at most ``room`` more wires out than in, on both algebras."""
    if r.random() < 0.15:
        steps, _ = random_steps(r, (Q,) * k, 4, pool=("H", "X", "CNOT"))
        c = Circuit((Q,) * k, steps)
        return ASSERT.abstract(c, registry), STRINGS.abstract(c, registry)
    if r.random() < 0.2:
        tables = [random_table(r) for _ in range(5)]
        pair = []
        for alg in (ASSERT, STRINGS):
            g = [alg.gate_effect(gdef) for gdef in tables]
            pair.append(compose_eff(
                alg, alg.join(compose_eff(alg, g[0], g[1]), compose_eff(alg, g[2], g[3])),
                g[4]))
        return tuple(pair)
    if r.random() < 0.25:
        d = r.randint(0, min(k, 2))
        c = r.randint(0, min(2, d + room))
        n = r.randint(0, 3)
        return (ASSERT.coarsest((Q,) * d, (Q,) * c, n),
                STRINGS.coarsest((Q,) * d, (Q,) * c, n))
    names = [g for g in ASSERT_POOL
             if len(registry.gate(g).dom) <= k
             and len(registry.gate(g).cod) - len(registry.gate(g).dom) <= room]
    gdef = registry.lookup(r.choice(names))
    return ASSERT.gate_effect(gdef), STRINGS.gate_effect(gdef)


def random_at(r, k: int, d: int):
    if r.random() < 0.5:
        return r.randint(0, k - d)
    wires = list(range(k))
    r.shuffle(wires)
    return tuple(wires[:r.randint(d, k)])


def test_folds_with_routes_joins_and_coarsest_match_the_string_algebra():
    r = rng("assert-oracle-folds")
    for i in range(60):
        k = r.randint(1, 8)
        new, old = ASSERT.identity_effect(k), STRINGS.identity_effect(k)
        for _ in range(r.randint(1, 10)):
            e_new, e_old = random_piece(r, new.cod, 8 - new.cod)
            at = random_at(r, new.cod, e_new.dom)
            if r.random() < 0.3:
                # join with the prefix followed by one more qubit gate in place
                g = registry.lookup(r.choice(("H", "X", "Z")))
                w = r.randrange(new.cod)
                new = ASSERT.join(new, then_eff(ASSERT, new, w, ASSERT.gate_effect(g)))
                old = STRINGS.join(old, then_eff(STRINGS, old, w, STRINGS.gate_effect(g)))
            new = then_eff(ASSERT, new, at, e_new)
            old = then_eff(STRINGS, old, at, e_old)
            if new.cod == 0:
                break
        assert_same(new, old, i)
        if new.dom <= 3 and new.cod:
            # leq both ways between the fold, one more gate after it, and
            # their join
            g = registry.lookup(r.choice(("H", "X", "Z")))
            w = r.randrange(new.cod)
            more = then_eff(ASSERT, new, w, ASSERT.gate_effect(g))
            more_old = then_eff(STRINGS, old, w, STRINGS.gate_effect(g))
            pairs = [(new, more), (more, new),
                     (more, ASSERT.join(new, more))]
            pairs_old = [(old, more_old), (more_old, old),
                         (more_old, STRINGS.join(old, more_old))]
            for (a, b), (a_old, b_old) in zip(pairs, pairs_old):
                assert ASSERT.leq(a, b) == STRINGS.leq(a_old, b_old), i


def h_on_each(n: int) -> str:
    qs = [f"q{j}" for j in range(n)]
    lines = ["inputs " + ", ".join(f"{q}: Qubit" for q in qs) + ";"]
    lines += [f"let {q} = apply(@H, {q}) in" for q in qs]
    return "\n".join(lines + [f"return ({', '.join(qs)})"])


def ghz(n: int) -> str:
    qs = [f"q{j}" for j in range(n)]
    lines = ["inputs " + ", ".join(f"{q}: Qubit" for q in qs) + ";",
             "let q0 = apply(@H, q0) in"]
    for a, b in zip(qs, qs[1:]):
        lines.append(f"let p = apply(@CNOT, ({a}, {b})) in dest ({a}, {b}) = p in")
    return "\n".join(lines + [f"return ({', '.join(qs)})"])


@pytest.mark.parametrize("family", ["dense", "ghz"])
def test_assert_inference_at_the_qubit_cap(family):
    n = _ASSERT_MAX_QUBITS
    prog = parse_program(h_on_each(n) if family == "dense" else ghz(n))
    _, e = infer_program_effect(prog, ASSERT, registry)
    post, cost = e.value.apply({"0" * n})
    expected = set(bitstrings(n)) if family == "dense" else {"0" * n, "1" * n}
    assert post == expected and cost == n
    assert ASSERT.bound_of(e) == n
