import functools
import itertools
import json
import random

import numpy as np
import pytest

from generators import (
    ASSERT_POOL, Q, B, depth_triple, rng, random_circuit, random_program,
    random_qubit_circuit, random_steps, tropical, tropical_permutation,
)
from oracles import (
    assert_application_costs, assert_cost_oracle, assert_sim_oracle, compose_eff,
    dag_depth_oracle, depth_paths_oracle, every_subset_leq_oracle,
    perm_effect_oracle, statevector_oracle, then_eff, then_eff_abstract,
    width_cuts_oracle,
)
from pqc.algebras import (
    ALGEBRAS, TRIVIAL, AssertAlgebra, AssertValue, Cost, Effect,
    MaxCost, _decide, _max, _stage, _sum, algebra, depth_bound, routing,
)
from pqc.circuits import (
    Circuit, Gate, Layer, Perm, compose, identity, symmetry, whisker_left,
    whisker_right,
)
from pqc.effects import infer_program_effect, verify_dynamic
from pqc.errors import EffectError, EffectObjectMismatch, PqcError, UnsupportedWire
from pqc.evaluator import evaluate_program
from pqc.gates import GateDef, default_registry, parse_gate_spec
from pqc.syntax import parse_program
from pqc.tropical import NEG_INF

registry = default_registry()
H = registry.gate("H")
CNOT = registry.gate("CNOT")

GATES = ALGEBRAS["gates"]
NAIVE = ALGEBRAS["depth-naive"]
WIDTH = ALGEBRAS["width"]
DEPTH = ALGEBRAS["depth"]
ASSERT = ALGEBRAS["assert"]


# --------------------------------------------------------------------------
# functor laws (the shared checker; the acceptance gate reruns it at scale)
# --------------------------------------------------------------------------

def check_functor_laws(alg, r: random.Random, circuit_gen, rounds: int) -> int:
    """Asserts preservation of id/compose/whiskering/symmetry; returns count."""
    checked = 0
    for _ in range(rounds):
        c = circuit_gen(r)
        steps, _ = random_steps(r, c.cod, 4,
                                pool=("H", "X", "CNOT", "init"), max_width=7)
        d = Circuit(c.cod, steps)

        assert alg.abstract(identity(c.dom), registry) == \
            alg.identity_effect(alg.obj_of(c.dom))
        assert alg.abstract(compose(c, d), registry) == \
            compose_eff(alg, alg.abstract(c, registry), alg.abstract(d, registry))
        o = (Q,) * r.randint(0, 2)
        ec = alg.abstract(c, registry)

        def whiskered(above, below):
            return then_eff(
                alg, alg.identity_effect(alg.obj_of(above + c.dom + below)),
                len(above), ec)

        assert alg.abstract(whisker_left(o, c), registry) == whiskered(o, ())
        assert alg.abstract(whisker_right(c, o), registry) == whiskered((), o)
        assert alg.abstract(whisker_right(whisker_left(o, c), o), registry) == \
            whiskered(o, o)
        a, b = (Q,) * r.randint(0, 2), (Q,) * r.randint(0, 2)
        s = symmetry(a, b)
        perm = s.steps[0].perm if s.steps else tuple(range(len(a + b)))
        routed = then_eff(alg, alg.identity_effect(alg.obj_of(a + b)),
                          routing(perm), alg.identity_effect(alg.obj_of(())))
        assert alg.abstract(s, registry) == routed == perm_effect_oracle(alg, perm)
        # then_eff after a non-identity prefix, at a random offset
        lo = r.randint(0, len(c.cod))
        hi = r.randint(lo, len(c.cod))
        steps, _ = random_steps(r, c.cod[lo:hi], 4,
                                pool=("H", "X", "CNOT", "init"), max_width=7)
        d = Circuit(c.cod[lo:hi], steps)
        placed = whisker_right(whisker_left(c.cod[:lo], d), c.cod[hi:])
        assert alg.abstract(compose(c, placed), registry) == then_eff(
            alg, ec, lo, alg.abstract(d, registry))
        checked += 1
    return checked


@pytest.mark.parametrize("name", ["gates", "depth-naive", "width", "depth", "trivial"])
def test_functor_laws_general_pool(name):
    assert check_functor_laws(
        {**ALGEBRAS, TRIVIAL.name: TRIVIAL}[name], rng(f"laws-{name}"),
        lambda r: random_circuit(r, max_wires=4, max_steps=6), 40) == 40


def test_functor_laws_assert():
    assert check_functor_laws(
        ASSERT, rng("laws-assert"),
        lambda r: random_qubit_circuit(r, max_wires=3, max_steps=5), 40) == 40


@pytest.mark.parametrize("name", ["width", "depth", "assert"])
def test_routed_then_eff_is_a_permutation_then_a_placement(name):
    # then_eff with a tuple of positions against its definition: the
    # permutation routing the named wires to the top, multiplied in by the
    # general product, then e placed after no wires
    alg = ALGEBRAS[name]
    r = rng(f"routed-{name}")
    for _ in range(40):
        c = (random_qubit_circuit(r) if name == "assert"
             else random_circuit(r, max_wires=4, max_steps=6))
        k = len(c.cod)
        at = tuple(r.sample(range(k), r.randint(0, k)))
        route = at + tuple(p for p in range(k) if p not in at)
        perm = [0] * k
        for j, i in enumerate(route):
            perm[i] = j
        below = tuple(c.cod[i] for i in at[:r.randint(0, len(at))])
        steps, _ = random_steps(r, below, 3, pool=("H", "X", "CNOT", "init"),
                                max_width=6)
        e = alg.abstract(Circuit(below, steps), registry)
        ec = alg.abstract(c, registry)
        assert then_eff(alg, ec, at, e) == then_eff(
            alg, compose_eff(alg, ec, perm_effect_oracle(alg, tuple(perm))), 0, e)


# --------------------------------------------------------------------------
# scalar algebras
# --------------------------------------------------------------------------

def test_gate_count_weighs_gates():
    c = Circuit((Q, Q), (Layer(((H, 0), (H, 1))), Layer(((CNOT, 0),))))
    assert GATES.abstract(c, registry).value == 3
    heavy = registry.extended({"H": GateDef(H, count=10)})
    assert GATES.abstract(c, heavy).value == 21


def test_naive_depth_counts_layers_not_gates():
    c = Circuit((Q, Q), (Layer(((H, 0), (H, 1))), Layer(((CNOT, 0),))))
    assert NAIVE.abstract(c, registry).value == 2
    assert NAIVE.abstract(identity((Q, Q)), registry).value == 0


def test_scalar_perms_are_free():
    c = Circuit((Q, Q), (Perm((1, 0)), Perm((1, 0))))
    assert GATES.abstract(c, registry).value == 0
    assert NAIVE.abstract(c, registry).value == 0


# --------------------------------------------------------------------------
# width
# --------------------------------------------------------------------------

def test_width_identity_wires_are_not_free():
    assert WIDTH.identity_effect(3).value == 3
    assert WIDTH.abstract(identity((Q, Q, Q)), registry).value == 3


def test_width_peaks_inside_gates():
    # meas: Q->B has footprint 1; init grows the frontier
    c = Circuit((Q,), (Layer(((registry.gate("init"), 1),)),))
    assert WIDTH.abstract(c, registry).value == 2
    d = Circuit((Q,), (Layer(((registry.gate("discard"), 0),)),))
    assert WIDTH.abstract(d, registry).value == 1


def test_width_matches_cuts_oracle_spot():
    r = rng("width-spot")
    for _ in range(50):
        c = random_circuit(r)
        assert WIDTH.abstract(c, registry).value == width_cuts_oracle(c, registry)


# --------------------------------------------------------------------------
# depth triples
# --------------------------------------------------------------------------

def test_depth_identity_and_perm():
    e = DEPTH.identity_effect(2)
    assert e.value == depth_triple([[0, NEG_INF], [NEG_INF, 0]],
                                   [NEG_INF] * 2, [NEG_INF] * 2)
    p = then_eff(DEPTH, e, routing((1, 0)), DEPTH.identity_effect(0))
    assert p.value.a == tropical_permutation((1, 0))
    assert DEPTH.abstract(Circuit((Q, Q), (Perm((1, 0)),)), registry) == p


def test_depth_values_differing_in_an_entry_or_a_shape_are_unequal():
    # every depth comparison in the tests rests on DepthTriple.__eq__
    t = depth_triple([[0, 1], [2, NEG_INF]], [3, NEG_INF], [NEG_INF, 4])
    assert t == depth_triple([[0, 1], [2, NEG_INF]], [3, NEG_INF], [NEG_INF, 4])
    for other in (depth_triple([[0, 1], [2, 0]], [3, NEG_INF], [NEG_INF, 4]),
                  depth_triple([[0, 1], [2, NEG_INF]], [3, NEG_INF], [NEG_INF, 5]),
                  depth_triple([[0], [2]], [3, NEG_INF], [NEG_INF]),
                  depth_triple([[0, 1]], [3], [NEG_INF, 4])):
        assert t != other and not t == other
    assert t != t.m and DEPTH.identity_effect(1) != DEPTH.identity_effect(2)


def test_depth_gate_effect_orientations():
    g = DEPTH.gate_effect(registry.lookup("init"))
    assert g.value == depth_triple([], [], [0])  # 0×1 A, empty v, w=[0]
    d = DEPTH.gate_effect(registry.lookup("discard"))
    assert d.value.v == tropical([[0.0]])
    assert d.value.a.shape == (1, 0)


def test_depth_sequencing_adds_and_parallel_maxes():
    seq = Circuit((Q,), (Layer(((H, 0),)), Layer(((H, 0),))))
    assert depth_bound(DEPTH.abstract(seq, registry)) == 2
    par = Circuit((Q, Q), (Layer(((H, 0), (H, 1))),))
    assert depth_bound(DEPTH.abstract(par, registry)) == 1


def test_depth_dead_end_paths_tracked_by_vectors():
    # input -> H -> discard shows up in v, init -> H -> output in w
    c1 = Circuit((Q,), (Layer(((H, 0),)),
                        Layer(((registry.gate("discard"), 0),))))
    e1 = DEPTH.abstract(c1, registry)
    assert e1.value.v == tropical([[1.0]])
    c2 = Circuit((), (Layer(((registry.gate("init"), 0),)), Layer(((H, 0),))))
    e2 = DEPTH.abstract(c2, registry)
    assert e2.value.w == tropical([[1.0]])


CLOSED_PATH = ("inputs; let q = apply(@init, *) in let q = apply(@H, q) in "
               "apply(@discard, q)")


def test_depth_tracks_source_to_sink_paths():
    # init -> H -> discard runs from a created wire into a dead end: no
    # entry of A, v or w holds it, the matrix corner does, and so does the
    # bound, in abstract, in inference and in both oracles
    prog = parse_program(CLOSED_PATH)
    c, _, _ = evaluate_program(prog, registry)
    e = DEPTH.abstract(c, registry)
    _, inferred = infer_program_effect(prog, DEPTH, registry)
    assert depth_paths_oracle(c, registry) == ([], [], [], 1.0, 1.0)
    assert dag_depth_oracle(c, registry) == 1.0
    assert e.value == inferred.value == depth_triple([], [], [], corner=1.0)
    assert depth_bound(e) == depth_bound(inferred) == 1.0


def test_depth_ascription_bounds_a_closed_path():
    # -o[I; 1] promises every path of the body, the one from init into
    # discard included, so the coarsest effect's corner is the bound too
    prog = parse_program(
        "inputs q: Qubit;\n"
        "let k = return (\\x: Qubit. let p = apply(@init, *) in\n"
        "  let p = apply(@H, p) in let u = apply(@discard, p) in return x) in\n"
        "let run = return (\\a: (Qubit -o[I; 1] Qubit) * Qubit.\n"
        "  dest (f, y) = a in f y) in\n"
        "run (k, q)")
    report = verify_dynamic(prog, DEPTH, registry)
    assert depth_bound(report.dynamic_effect) == depth_bound(report.static_effect) == 1
    assert report.dominated


def test_depth_triple_compose_associative():
    r = rng("depth-assoc")
    for _ in range(50):
        c = random_circuit(r, max_wires=3, max_steps=4)
        steps, cod = random_steps(r, c.cod, 4)
        d = Circuit(c.cod, steps)
        steps2, _ = random_steps(r, cod, 4)
        e = Circuit(cod, steps2)
        ec, ed, ee = (DEPTH.abstract(x, registry) for x in (c, d, e))
        left = compose_eff(DEPTH, compose_eff(DEPTH, ec, ed), ee)
        right = compose_eff(DEPTH, ec, compose_eff(DEPTH, ed, ee))
        assert left == right


def check_paths_oracle(e, c, reg) -> None:
    a, v, w, s, bound = depth_paths_oracle(c, reg)
    assert e.value.a == tropical(a, shape=(len(c.dom), len(c.cod)))
    assert e.value.v == tropical([v], shape=(1, len(c.dom)))
    assert e.value.w == tropical([[x] for x in w], shape=(len(c.cod), 1))
    assert e.value.m[-1, -1] == s
    assert depth_bound(e) == bound == dag_depth_oracle(c, reg)


def test_depth_matches_paths_oracle_spot():
    r = rng("depth-spot")
    for _ in range(50):
        c = random_circuit(r)
        check_paths_oracle(DEPTH.abstract(c, registry), c, registry)


# spec gates beside the builtins: weights 0 and 3, a fan-out, a 2→0 sink
# and a 0→0 gate, a path of its own
DEPTH_FOLD_SPEC = """
gate W0 : Qubit -> Qubit
  depth 0
gate C3 : Qubit Qubit -> Qubit Qubit
  depth 3
gate fan : Qubit -> Qubit Qubit
  depth 2
gate drop2 : Qubit Qubit -> I
  depth 3
gate tick : I -> I
  depth 2
"""
DEPTH_FOLD_POOL = ("H", "CNOT", "meas", "init", "discard", "W0", "C3", "fan", "drop2")


def test_depth_fold_matches_generic_fold_and_paths_oracle():
    # DepthAlgebra.abstract folds in place; the one-then_eff-per-gate fold
    # and the path oracle are its references
    reg = registry.extended(parse_gate_spec(DEPTH_FOLD_SPEC))
    init, discard = reg.gate("init"), reg.gate("discard")
    closed = Circuit((Q,), (Layer(((init, 0),)), Layer(((H, 0),)), Layer(((H, 0),)),
                            Layer(((discard, 0),))))
    ticked = Circuit((Q,), (Layer(((reg.gate("tick"), 0), (H, 0))),))
    r = rng("depth-fold")
    circuits = [closed, ticked] + [random_circuit(r, max_wires=5, max_steps=12,
                                          pool=DEPTH_FOLD_POOL, registry=reg)
                           for _ in range(300)]
    for c in circuits:
        e = DEPTH.abstract(c, reg)
        generic = then_eff_abstract(DEPTH, c, reg)
        assert e == generic, str(c)
        assert json.dumps(DEPTH.value_json(e)) == json.dumps(DEPTH.value_json(generic))
        check_paths_oracle(e, c, reg)


def test_depth_weights_are_capped():
    heavy = GateDef(Gate("heavy", (Q,), (Q,)), depth=2**31)
    reg = registry.extended({"heavy": heavy})
    with pytest.raises(EffectError):
        DEPTH.gate_effect(heavy)
    with pytest.raises(EffectError):
        DEPTH.abstract(Circuit((Q,), (Layer(((heavy.gate, 0),)),)), reg)
    ok = GateDef(Gate("ok", (Q,), (Q,)), depth=2**31 - 1)
    assert depth_bound(DEPTH.gate_effect(ok)) == 2**31 - 1


def test_depth_join_is_pointwise_upper_bound():
    r = rng("depth-join")
    for _ in range(30):
        c = random_circuit(r, max_wires=3, max_steps=4)
        steps, _ = random_steps(r, c.dom, 4)
        d = Circuit(c.dom, steps)
        if d.cod != c.cod:
            continue
        e1, e2 = DEPTH.abstract(c, registry), DEPTH.abstract(d, registry)
        j = DEPTH.join(e1, e2)
        assert DEPTH.leq(e1, j) and DEPTH.leq(e2, j)


# --------------------------------------------------------------------------
# assert
# --------------------------------------------------------------------------

def bitstrings(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def random_table_effect(r: random.Random, k1: int, k2: int,
                        posts=None) -> Effect:
    """A single-stage assert effect with arbitrary rows (or the rows
    ``posts``) and arbitrary costs."""
    gate = Gate(f"t{r.randrange(10**6)}", (Q,) * k1, (Q,) * k2)
    codes = bitstrings(k2)
    rows = {}
    for b in bitstrings(k1):
        if posts is None:
            post = frozenset(r.sample(codes, r.randint(1, len(codes))))
        else:
            post = posts[b]
        rows[b] = (post, r.randint(0, 4))
    return ASSERT.gate_effect(GateDef(gate, rows=rows))


def test_assert_rejects_bits():
    with pytest.raises(UnsupportedWire):
        ASSERT.obj_of((Q, B))
    with pytest.raises(UnsupportedWire):
        ASSERT.abstract(Circuit((Q,), (Layer(((registry.gate("meas"), 0),)),)),
                        registry)


def test_assert_identity_and_perm_rows():
    e = ASSERT.identity_effect(2)
    assert e.value.rows["01"] == frozenset({"01"})
    assert assert_cost_oracle(e.value.cost, frozenset(bitstrings(2))) == 0
    p = then_eff(ASSERT, ASSERT.identity_effect(3), routing((2, 0, 1)),
                 ASSERT.identity_effect(0))
    assert p.value.rows["100"] == frozenset({"001"})  # bit 0 lands in slot 2


def test_assert_compose_unions_postsets_and_stages_costs():
    h = ASSERT.gate_effect(registry.lookup("H"))
    x = ASSERT.gate_effect(registry.lookup("X"))
    hx = compose_eff(ASSERT, h, x)
    assert hx.value.rows["0"] == frozenset({"0", "1"})
    # H costs 1 on {0}; X then costs 1 on {0,1}: stages sum to 2
    assert assert_cost_oracle(hx.value.cost, frozenset({"0"})) == 2


def test_assert_z_is_free_only_on_zero():
    # Z|1⟩ = −|1⟩ is not |1⟩, so Z is the identity only on the span of |0⟩
    z = ASSERT.gate_effect(registry.lookup("Z"))
    assert assert_cost_oracle(z.value.cost, frozenset({"0", "1"})) == 1
    assert assert_cost_oracle(z.value.cost, frozenset({"0"})) == 0


def test_assert_compose_associative_exactly():
    r = rng("assert-assoc")
    for _ in range(60):
        k1, k2, k3, k4 = (r.randint(0, 2) for _ in range(4))
        e1 = random_table_effect(r, k1, k2)
        e2 = random_table_effect(r, k2, k3)
        e3 = random_table_effect(r, k3, k4)
        left = compose_eff(ASSERT, compose_eff(ASSERT, e1, e2), e3)
        right = compose_eff(ASSERT, e1, compose_eff(ASSERT, e2, e3))
        assert left == right


def test_assert_join_law_on_single_tables():
    r = rng("assert-join")
    for _ in range(100):
        k1, k2 = r.randint(1, 3), r.randint(0, 3)
        e = random_table_effect(r, k1, k2)
        states = bitstrings(k1)
        l1 = frozenset(r.sample(states, r.randint(1, len(states))))
        l2 = frozenset(r.sample(states, r.randint(1, len(states))))
        p1, c1 = e.value.apply(l1)
        p2, c2 = e.value.apply(l2)
        pu, cu = e.value.apply(l1 | l2)
        assert pu == p1 | p2
        assert cu == max(c1, c2)


def test_assert_branch_join_upper_bounds_both():
    r = rng("assert-ub")
    for _ in range(40):
        k = r.randint(1, 3)
        e1 = random_table_effect(r, k, k)
        e2 = random_table_effect(r, k, k)
        j = ASSERT.join(e1, e2)
        assert ASSERT.leq(e1, j) and ASSERT.leq(e2, j)
        c1, c2 = e1.value.cost, e2.value.cost
        both = Cost(0, {MaxCost((c1, c2), max(c1.lo, c2.lo), max(c1.hi, c2.hi)): 1})
        assert j.value.cost in (c1, both, Cost(max(c1.scalar, c2.scalar)))


def leq_pairs(r: random.Random) -> list[tuple[Effect, Effect]]:
    """Single tables, and composites with equal rows, so that costs of
    several stages (and their joins) decide, not the rows."""
    pairs = []
    for _ in range(40):
        k = r.randint(1, 3)
        pairs.append((random_table_effect(r, k, k), random_table_effect(r, k, k)))
    for _ in range(60):
        k = r.randint(1, 3)
        tables = [random_table_effect(r, k, k) for _ in range(r.randint(2, 3))]

        def recosted():
            return functools.reduce(functools.partial(compose_eff, ASSERT), [
                random_table_effect(r, k, k, t.value.rows) for t in tables])

        e1, e2 = recosted(), recosted()
        if r.random() < 0.5:
            e2 = ASSERT.join(e2, recosted())
        pairs.append((e1, e2))
    return pairs


def test_assert_leq_is_extensional_on_costs():
    for e1, e2 in leq_pairs(rng("assert-leq")):
        k = e1.dom
        lo = ASSERT.leq(e1, e2)
        # reference: row containment plus cost dominance on every subset
        rows_ok = all(e1.value.rows[b] <= e2.value.rows[b]
                      for b in bitstrings(k))
        costs_ok = all(
            assert_cost_oracle(e1.value.cost, frozenset(L)) <=
            assert_cost_oracle(e2.value.cost, frozenset(L))
            for n in range(len(bitstrings(k)) + 1)
            for L in itertools.combinations(bitstrings(k), n))
        assert lo == (rows_ok and costs_ok)


def program_leq_pairs(r: random.Random) -> list[tuple[Effect, Effect]]:
    """Pairs as verify and ascriptions make them, at most 4 qubits: a run's
    effect and the static one (``ifz`` joins, ascribed calls), both ways;
    an effect and its join with one more gate after it, both ways; and an
    effect and ``coarsest`` bounds around its own."""
    pairs = []
    while len(pairs) < 400:
        prog = random_program(r, assert_safe=True, max_inputs=4,
                              steps=r.randint(1, 10), ascribed=r.random() < 0.5)
        try:
            rep = verify_dynamic(prog, ASSERT, registry)
        except PqcError:
            continue
        dyn, static = rep.dynamic_effect, rep.static_effect
        pairs += [(dyn, static), (static, dyn)]
        if static.cod:
            g = ASSERT.gate_effect(registry.lookup(r.choice(("H", "X", "Z", "CNOT"))))
            at = r.randint(0, static.cod - g.dom) if g.dom <= static.cod else None
            if at is not None:
                joined = ASSERT.join(static, then_eff(ASSERT, static, at, g))
                pairs += [(static, joined), (joined, static)]
        dom, cod = (Q,) * static.dom, (Q,) * static.cod
        b = ASSERT.bound_of(static)
        for n in (max(b - 1, 0), b, b + 1):
            top = ASSERT.coarsest(dom, cod, n)
            pairs += [(static, top), (top, static)]
    return pairs


def test_assert_leq_rules_agree_with_every_subset():
    # what the rules prove and the witnesses refute, the costs on every
    # precondition confirm; and leq says what rows and costs say together
    pairs = leq_pairs(rng("assert-leq")) + program_leq_pairs(rng("assert-leq-programs"))
    decided = {True: 0, False: 0, None: 0}
    for e1, e2 in pairs:
        c1, c2 = e1.value.cost, e2.value.cost
        want = every_subset_leq_oracle(c1, c2, e1.dom)
        known = _decide(c1, c2, 1 << e1.dom)
        decided[known] += 1
        assert known in (None, want)
        rows_ok = not np.any(e1.value.reach > e2.value.reach)
        assert ASSERT.leq(e1, e2) == (rows_ok and want)
    # every way of deciding is exercised
    assert min(decided.values()) >= 20, decided


def stage(n: int, costs: dict[int, int]) -> Cost:
    """The cost of a stage on n qubits: these costs at these states, 0
    elsewhere."""
    g = np.zeros(1 << n, dtype=np.int64)
    g[list(costs)] = list(costs.values())
    return _stage(g)


def costed(n: int, *items: Cost) -> Effect:
    """The identity on n qubits with the sum of these costs."""
    return Effect(n, n, AssertValue(np.eye(1 << n, dtype=bool), _sum((c, 1) for c in items)))


def test_assert_leq_decides_by_rules_above_the_enumeration_cap():
    e = ASSERT.identity_effect(5)
    assert ASSERT.leq(e, e)  # equal costs
    # each item under its own item of the right side: a stage under a
    # larger one, a join under the branch it sits in
    s, big = stage(5, {0: 1, 7: 2}), stage(5, {0: 1, 7: 3})
    t = stage(5, {1: 1})
    assert ASSERT.leq(costed(5, s, t), costed(5, big, stage(5, {3: 1}), t))
    assert ASSERT.leq(costed(5, t), costed(5, _max((s, t))))
    assert ASSERT.leq(costed(5, _max((s, stage(5, {7: 3})))), costed(5, big))
    # no stage of the right side covers two of the left: s + s is 4 at 7
    assert not ASSERT.leq(costed(5, s, s), costed(5, big))
    # at most 3 anywhere, at least 3 on every non-empty precondition
    assert ASSERT.leq(costed(5, s, t), costed(5, stage(5, dict.fromkeys(range(32), 3))))


def test_assert_items_are_keyed_by_their_values():
    # [0, 1] and [1, 0] have the same largest entry and the same sum, and
    # are still two items: on {0} and on {1} the sum costs 1, where two
    # copies of either would cost 0 on one and 2 on the other
    a, b = stage(1, {1: 1}), stage(1, {0: 1})
    both = _sum(((a, 1), (b, 1)))
    assert len(both.items) == 2 and set(both.items.values()) == {1}
    e = costed(1, a, b)
    assert [e.value.apply(L)[1] for L in ({"0"}, {"1"}, {"0", "1"}, set())] == [1, 1, 2, 0]
    # equal stages made apart are one item of multiplicity 2
    twice = _sum(((a, 1), (stage(1, {1: 1}), 1)))
    assert list(twice.items.values()) == [2] and twice == _sum(((a, 2),))


def test_assert_leq_refutes_by_a_witness_above_the_enumeration_cap():
    s, big = stage(5, {0: 1, 7: 2}), stage(5, {0: 1, 7: 3})
    assert not ASSERT.leq(costed(5, big), costed(5, s))  # the state 7
    # no single state tells these apart: the full set costs 2 against 1
    assert not ASSERT.leq(costed(5, stage(5, {0: 1}), stage(5, {1: 1})),
                          costed(5, stage(5, {0: 1, 1: 1})))


def test_assert_leq_enumerates_only_up_to_4_qubits():
    # {0, 1} costs 2 on the left and 1 on the right, but every single state
    # and the full set agree, and no rule applies: only a proper subset of
    # two states refutes
    for n in (2, 3, 4, 5):
        e1 = costed(n, stage(n, {0: 1}), stage(n, {1: 1}))
        e2 = costed(n, stage(n, {0: 1, 1: 1}), stage(n, {2: 1}))
        if n <= 4:
            assert not ASSERT.leq(e1, e2)
        else:
            with pytest.raises(EffectObjectMismatch, match="cannot decide"):
                ASSERT.leq(e1, e2)


def test_assert_relations_must_be_total():
    # a cost's scalar reads the same before any step, which is sound only
    # when every input state reaches some output state
    with pytest.raises(EffectError, match="total"):
        AssertValue(np.array([[True, False], [False, False]]), Cost())
    gate = Gate("void", (Q,), (Q,))
    with pytest.raises(EffectError, match="total"):
        ASSERT.gate_effect(GateDef(gate, rows={"0": (frozenset({"0"}), 1),
                                               "1": (frozenset(), 1)}))


def test_assert_matches_simulation_oracle_spot():
    r = rng("assert-spot")
    for _ in range(40):
        c = random_qubit_circuit(r)
        e = ASSERT.abstract(c, registry)
        full = frozenset(bitstrings(len(c.dom)))
        assert e.value.apply(full) == assert_sim_oracle(c, registry, full)


def test_assert_free_applications_are_removable():
    # cost 0 means an optimizer may drop the application: dropping every
    # unitary of cost 0 from |0…0⟩ must leave the output state exactly equal,
    # not equal up to a global phase
    r = rng("assert-removable")
    dropped = 0
    for _ in range(300):
        # inits stop at 3 wires, so a layer of them ends at 5 at most
        dom = (Q,) * r.randint(1, 5)
        c = Circuit(dom, random_steps(r, dom, 12, pool=ASSERT_POOL, max_width=3)[0])
        _, costs = assert_application_costs(c, registry, frozenset({"0" * len(c.dom)}))
        gates = [g for step in c.steps if isinstance(step, Layer)
                 for g, _ in step.placements]
        free = frozenset(k for k, (g, cost) in enumerate(zip(gates, costs))
                         if cost == 0 and g.dom)
        dropped += len(free)
        assert np.allclose(statevector_oracle(c, free), statevector_oracle(c),
                           rtol=0, atol=1e-9), str(c)
    assert dropped > 300  # the test drops something to compare


def test_assert_bound_and_from_bound():
    e = ASSERT.gate_effect(registry.lookup("H"))
    assert ASSERT.bound_of(e) == 1
    top = ASSERT.from_bound((Q,), (Q,), 1)
    assert ASSERT.leq(e, top)
    assert not ASSERT.leq(top, ASSERT.from_bound((Q,), (Q,), 0))


# --------------------------------------------------------------------------
# shared plumbing
# --------------------------------------------------------------------------

def random_layer(r: random.Random, pool, max_wires: int) -> Circuit:
    """One layer of at least two gates from ``pool``, inits stacked at will."""
    gates = [registry.gate(name) for name in pool]
    while True:
        dom = (Q,) * r.randint(0, max_wires)
        placements, pos = [], 0
        while pos <= len(dom):
            g = r.choice(gates)
            take = len(g.dom)
            if dom[pos:pos + take] == g.dom and r.random() < 0.6:
                placements.append((g, pos))
                pos += take or r.randint(0, 1)
            else:
                pos += 1
        if len(placements) >= 2:
            return Circuit(dom, (Layer(tuple(placements)),))


def sequenced(layer: Circuit) -> Circuit:
    """The layer's gates one after another, each whiskered by its neighbours.

    Wires are tracked by name, not by position arithmetic: a gate at input
    position ``at`` sits just before input wire ``at`` (or at the end).
    """
    wires = [("in", i) for i in range(len(layer.dom))]
    out = identity(layer.dom)
    for n, (g, at) in enumerate(layer.steps[0].placements):
        lo = wires.index(("in", at)) if at < len(layer.dom) else len(wires)
        hi = lo + len(g.dom)
        single = Circuit(g.dom, (Layer(((g, 0),)),))
        out = compose(out, whisker_right(
            whisker_left(out.cod[:lo], single), out.cod[hi:]))
        wires[lo:hi] = [("gate", n, j) for j in range(len(g.cod))]
    return out


def test_layer_image_equals_whisker_decomposition():
    # a two-gate layer must equal (g1 ⋉ rest); (done ⋊ g2)
    joint = Circuit((Q, Q, Q), (Layer(((H, 0), (CNOT, 1))),))
    split = compose(
        whisker_right(Circuit((Q,), (Layer(((H, 0),)),)), (Q, Q)),
        whisker_left((Q,), Circuit((Q, Q), (Layer(((CNOT, 0),)),))))
    assert sequenced(joint) == split
    r = rng("layer-split")
    cases = [joint] + [random_layer(r, ("H", "CNOT", "init", "discard", "meas"), 5)
                       for _ in range(60)]
    qubit_cases = [joint] + [random_layer(r, ASSERT_POOL, 3) for _ in range(40)]
    for name, alg in ALGEBRAS.items():
        if name == "depth-naive":
            continue  # the naive count is the one metric that sees layers
        for c in qubit_cases if name == "assert" else cases:
            assert alg.abstract(c, registry) == \
                alg.abstract(sequenced(c), registry), (name, str(c))


def test_algebra_lookup():
    assert algebra("gates") is GATES
    with pytest.raises(EffectObjectMismatch):
        algebra("nonsense")


def test_endpoint_mismatches_raise():
    # the order compares effects between the same wires only
    for alg in (WIDTH, DEPTH, ASSERT):
        for op in (alg.leq, alg.join):
            with pytest.raises(EffectObjectMismatch):
                op(alg.identity_effect(1), alg.identity_effect(2))
