import functools
import itertools
import random

import pytest

from generators import (
    ASSERT_POOL, Q, B, rng, random_circuit, random_qubit_circuit, random_steps,
    tropical,
)
from oracles import (
    assert_cost_oracle, assert_sim_oracle, depth_paths_oracle, width_cuts_oracle,
)
from pqc.algebras import (
    ALGEBRAS, TRIVIAL, AssertAlgebra, AssertValue, DepthTriple, Effect,
    MaxCost, algebra, depth_bound,
)
from pqc.circuits import (
    Circuit, Gate, Layer, Perm, compose, identity, symmetry, whisker_left,
    whisker_right,
)
from pqc.errors import EffectObjectMismatch, UnsupportedWire
from pqc.gates import GateDef, default_registry
from pqc.tropical import NEG_INF, TropicalMatrix

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
            alg.compose_eff(alg.abstract(c, registry), alg.abstract(d, registry))
        o = (Q,) * r.randint(0, 2)
        k, none = alg.obj_of(o), alg.obj_of(())
        assert alg.abstract(whisker_left(o, c), registry) == \
            alg.whisker_eff(k, alg.abstract(c, registry), none)
        assert alg.abstract(whisker_right(c, o), registry) == \
            alg.whisker_eff(none, alg.abstract(c, registry), k)
        assert alg.abstract(whisker_right(whisker_left(o, c), o), registry) == \
            alg.whisker_eff(k, alg.abstract(c, registry), k)
        a, b = (Q,) * r.randint(0, 2), (Q,) * r.randint(0, 2)
        s = symmetry(a, b)
        perm = s.steps[0].perm if s.steps else tuple(range(len(a + b)))
        assert alg.abstract(s, registry) == alg.perm_effect(perm, a + b)
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

def triple(a_rows, v_row, w_col) -> DepthTriple:
    k1 = len(a_rows)
    k2 = len(a_rows[0]) if a_rows else len(w_col)
    return DepthTriple(
        tropical(a_rows, shape=(k1, k2)),
        tropical([v_row], shape=(1, k1)),
        tropical([[x] for x in w_col], shape=(k2, 1)))


def test_depth_identity_and_perm():
    e = DEPTH.identity_effect(2)
    assert e.value == triple([[0, NEG_INF], [NEG_INF, 0]],
                             [NEG_INF] * 2, [NEG_INF] * 2)
    p = DEPTH.perm_effect((1, 0), (Q, Q))
    assert p.value.a == TropicalMatrix.permutation((1, 0))


def test_depth_gate_effect_orientations():
    g = DEPTH.gate_effect(registry.lookup("init"))
    assert g.value == triple([[]] * 0 or [], [], [0])  # 0×1 A, empty v, w=[0]
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


def test_depth_triple_compose_associative():
    r = rng("depth-assoc")
    for _ in range(50):
        c = random_circuit(r, max_wires=3, max_steps=4)
        steps, cod = random_steps(r, c.cod, 4)
        d = Circuit(c.cod, steps)
        steps2, _ = random_steps(r, cod, 4)
        e = Circuit(cod, steps2)
        ec, ed, ee = (DEPTH.abstract(x, registry) for x in (c, d, e))
        left = DEPTH.compose_eff(DEPTH.compose_eff(ec, ed), ee)
        right = DEPTH.compose_eff(ec, DEPTH.compose_eff(ed, ee))
        assert left == right


def test_depth_matches_paths_oracle_spot():
    r = rng("depth-spot")
    for _ in range(50):
        c = random_circuit(r)
        a, v, w, bound = depth_paths_oracle(c, registry)
        e = DEPTH.abstract(c, registry)
        assert e.value.a == tropical(a, shape=(len(c.dom), len(c.cod)))
        assert e.value.v == tropical([v], shape=(1, len(c.dom)))
        assert e.value.w == tropical([[x] for x in w], shape=(len(c.cod), 1))
        assert depth_bound(e) == bound


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
    p = ASSERT.perm_effect((2, 0, 1), (Q, Q, Q))
    assert p.value.rows["100"] == frozenset({"001"})  # bit 0 lands in slot 2


def test_assert_compose_unions_postsets_and_stages_costs():
    h = ASSERT.gate_effect(registry.lookup("H"))
    x = ASSERT.gate_effect(registry.lookup("X"))
    hx = ASSERT.compose_eff(h, x)
    assert hx.value.rows["0"] == frozenset({"0", "1"})
    # H costs 1 on {0}; X then costs 1 on {0,1}: stages sum to 2
    assert assert_cost_oracle(hx.value.cost, frozenset({"0"})) == 2


def test_assert_z_is_free_after_known_states():
    z = ASSERT.gate_effect(registry.lookup("Z"))
    assert assert_cost_oracle(z.value.cost, frozenset({"0", "1"})) == 0


def test_assert_compose_associative_exactly():
    r = rng("assert-assoc")
    for _ in range(60):
        k1, k2, k3, k4 = (r.randint(0, 2) for _ in range(4))
        e1 = random_table_effect(r, k1, k2)
        e2 = random_table_effect(r, k2, k3)
        e3 = random_table_effect(r, k3, k4)
        left = ASSERT.compose_eff(ASSERT.compose_eff(e1, e2), e3)
        right = ASSERT.compose_eff(e1, ASSERT.compose_eff(e2, e3))
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
        assert j.value.cost in (e1.value.cost,
                                (MaxCost((e1.value.cost, e2.value.cost)),))


def test_assert_leq_is_extensional_on_costs():
    r = rng("assert-leq")
    pairs = []
    for _ in range(40):
        k = r.randint(1, 3)
        pairs.append((random_table_effect(r, k, k), random_table_effect(r, k, k)))
    # composites with equal rows, so that costs of several stages (and their
    # joins) decide, not the rows
    for _ in range(60):
        k = r.randint(1, 3)
        tables = [random_table_effect(r, k, k) for _ in range(r.randint(2, 3))]

        def recosted():
            return functools.reduce(ASSERT.compose_eff, [
                random_table_effect(r, k, k, t.value.rows) for t in tables])

        e1, e2 = recosted(), recosted()
        if r.random() < 0.5:
            e2 = ASSERT.join(e2, recosted())
        pairs.append((e1, e2))
    for e1, e2 in pairs:
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


def test_assert_leq_width_cap():
    e = ASSERT.identity_effect(5)
    with pytest.raises(EffectObjectMismatch):
        ASSERT.leq(e, e)


def test_assert_matches_simulation_oracle_spot():
    r = rng("assert-spot")
    for _ in range(40):
        c = random_qubit_circuit(r)
        e = ASSERT.abstract(c, registry)
        full = frozenset(bitstrings(len(c.dom)))
        assert e.value.apply(full) == assert_sim_oracle(c, registry, full)


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
    with pytest.raises(EffectObjectMismatch):
        WIDTH.compose_eff(WIDTH.identity_effect(1), WIDTH.identity_effect(2))
    with pytest.raises(EffectObjectMismatch):
        DEPTH.leq(DEPTH.identity_effect(1), DEPTH.identity_effect(2))
    with pytest.raises(EffectObjectMismatch):
        ASSERT.compose_eff(ASSERT.identity_effect(1), ASSERT.identity_effect(2))
