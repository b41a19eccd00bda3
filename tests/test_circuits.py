import pytest

from generators import GENERAL_POOL, Q, B, rng, random_circuit, random_steps
from oracles import ValidatingBuilder
from pqc.circuits import (
    BoxedCircuit, Circuit, CircuitBuilder, Gate, Label, Layer, Perm, WireType,
    box_circuit, canonicalize, compose, deserialize, draw, equivalent,
    flatten_bundle, identity, label_supply, pad_perm, perm_then, qubits,
    serialize, show_bundle, spine, symmetry, whisker_left, whisker_right,
)
from pqc.errors import (
    CircuitError, LabelNotFound, ObjectMismatch, ParseError, WireTypeMismatch,
)
from pqc.evaluator import value_to_bundle
from pqc.gates import default_registry
from pqc.syntax import NatVal, parse_value, show_value

H = Gate("H", (Q,), (Q,))
X = Gate("X", (Q,), (Q,))
CNOT = Gate("CNOT", (Q, Q), (Q, Q))
MEAS = Gate("meas", (Q,), (B,))
INIT = Gate("init", (), (Q,))
DISCARD = Gate("discard", (Q,), ())

registry = default_registry()


def test_layer_cod_threads_signatures():
    layer = Layer(((MEAS, 0), (CNOT, 2)))
    assert layer.cod((Q, Q, Q, Q)) == (B, Q, Q, Q)


def test_layer_insertion_gate_with_empty_dom():
    layer = Layer(((INIT, 1),))
    assert layer.cod((Q, Q)) == (Q, Q, Q)


def test_layer_rejects_empty_and_overlap():
    with pytest.raises(ObjectMismatch):
        Layer(())
    with pytest.raises(ObjectMismatch):
        Layer(((CNOT, 0), (H, 1)))


def test_layer_rejects_wrong_wire_type():
    with pytest.raises(ObjectMismatch):
        Layer(((H, 0),)).cod((B,))


def test_perm_cod_and_validation():
    assert Perm((1, 2, 0)).cod((Q, B, Q)) == (Q, Q, B)
    with pytest.raises(ObjectMismatch):
        Perm((0, 0))
    with pytest.raises(ObjectMismatch):
        Perm((0, 1)).cod((Q,))


def test_perm_helpers():
    p, q = (2, 0, 1), (1, 2, 0)
    assert perm_then(p, q) == tuple(q[p[i]] for i in range(3))
    assert pad_perm((1, 0), 1, 2) == (0, 2, 1, 3, 4)


def test_circuit_cod_is_derived():
    c = Circuit((Q, Q), (Layer(((MEAS, 0),)), Layer(((DISCARD, 1),))))
    assert c.cod == (B,)


def test_a_repeated_step_is_derived_once_per_input_object(monkeypatch):
    calls = []
    cod = Layer.cod

    def spy(self, dom):
        calls.append(dom)
        return cod(self, dom)
    monkeypatch.setattr(Layer, "cod", spy)
    h = Layer(((H, 0),))
    c = Circuit((Q, Q), (h,) * 1000)
    assert c.cod == (Q, Q) and len(calls) <= 3
    # one meas object on both wires in turn: its input differs each time, so
    # each placement is derived, and the second finds a bit and raises
    calls.clear()
    meas, swap = Layer(((MEAS, 0),)), Perm((1, 0))
    assert Circuit((Q, Q), (meas, swap, meas)).cod == (B, B)
    assert calls == [(Q, Q), (Q, B)]
    with pytest.raises(ObjectMismatch, match="found"):
        Circuit((Q,), (meas, meas))


def test_a_repeated_step_that_finds_a_bit_is_refused_when_read():
    doc = serialize(Circuit((Q,), (Layer(((MEAS, 0),)),)))
    meas = b'{"layer": [{"gate": "meas", "at": 0}]}, '
    twice = doc.replace(b'"steps": [', b'"steps": [' + meas)
    with pytest.raises(ParseError, match="ill-typed"):
        deserialize(twice, registry)


def test_compose_requires_matching_endpoints():
    with pytest.raises(ObjectMismatch):
        compose(identity((Q,)), identity((Q, Q)))


def test_whiskering_shifts_layers_and_pads_perms():
    c = Circuit((Q,), (Layer(((H, 0),)),))
    left = whisker_left((Q, Q), c)
    assert left.dom == (Q, Q, Q)
    assert left.steps[0].placements == ((H, 2),)
    p = Circuit((Q, Q), (Perm((1, 0)),))
    padded = whisker_right(p, (Q,))
    assert padded.steps[0].perm == (1, 0, 2)


def test_no_interchange_law():
    ab = Circuit((Q, Q), (Layer(((H, 0),)), Layer(((H, 1),))))
    ba = Circuit((Q, Q), (Layer(((H, 1),)), Layer(((H, 0),))))
    joint = Circuit((Q, Q), (Layer(((H, 0), (H, 1))),))
    assert not equivalent(ab, ba)
    assert not equivalent(ab, joint)


def test_canonicalize_only_touches_perms():
    c = Circuit((Q, Q), (
        Perm((1, 0)),
        Perm((1, 0)),
        Layer(((H, 0),)),
        Perm((0, 1)),
    ))
    cc = canonicalize(c)
    assert cc.steps == (Layer(((H, 0),)),)
    assert equivalent(c, Circuit((Q, Q), (Layer(((H, 0),)),)))


def test_symmetry_self_inverse_up_to_canonicalization():
    s = symmetry((Q,), (Q, Q))
    back = symmetry((Q, Q), (Q,))
    assert equivalent(compose(s, back), identity((Q, Q, Q)))


def test_builder_mints_its_inputs():
    supply = label_supply(4)
    b = CircuitBuilder(((Q, B), Q), supply)
    assert b.inputs == ((Label(4), Label(5)), Label(6))
    assert b.outputs() == ((Label(4), Q), (Label(5), B), (Label(6), Q))
    assert b.circuit() == identity((Q, B, Q))
    assert next(supply) == Label(7)
    with pytest.raises(LabelNotFound):
        b.append(Label(999), registry.boxed("H"))


def test_label_order_hash_and_text():
    a, b = Label(3), Label(12)
    assert a < b and sorted([b, a]) == [a, b] and max(a, b) is b
    assert a == Label(3) and hash(a) == hash(Label(3)) and {a: 1}[Label(3)] == 1
    assert int(a) == 3 and a + 1 == 4 and type(a + 1) is int  # a label is its index
    assert str(a) == repr(a) == f"{a}" == "#3"
    assert str([a, b]) == "[#3, #12]" and str((a, ())) == "(#3, ())"
    assert next(label_supply(5)) == Label(5)
    # a wire is never a number in a program's syntax
    assert Label(3) != NatVal(3)
    assert parse_value("#3") == Label(3) and type(parse_value("#3")) is Label
    assert show_value(Label(3)) == "#3"


def test_box_circuit_spine_interface():
    body = Circuit((Q, Q, B), (Layer(((CNOT, 0),)),))
    boxed = box_circuit(body)
    assert boxed.body is body
    # right-nested spines over the body's positions, not labels
    assert boxed.inputs == boxed.outputs == (0, (1, 2))
    assert (registry.boxed("H").inputs, registry.boxed("H").outputs) == (0, 0)
    assert (registry.boxed("init").inputs, registry.boxed("init").outputs) == ((), 0)


def test_boxed_circuit_validates_interfaces():
    body = Circuit((Q, Q), (Layer(((CNOT, 0),)),))
    # inputs in order, nested in any way; outputs in any order
    assert BoxedCircuit(((0, 1), ()), body, (1, 0)).outputs == (1, 0)
    good = box_circuit(Circuit((Q,), (Layer(((H, 0),)),)))
    with pytest.raises(WireTypeMismatch):  # the interfaces of another body
        BoxedCircuit(good.inputs, body, good.outputs)


@pytest.mark.parametrize("inputs, outputs", [
    ((1, 0), (0, 1)),
    ((0, 1), (0, ())),
    ((0, 1), (0, 0)),
    ((0, (1, 2)), (0, 1)),
    ((0, 1), (1, 2)),
], ids=["inputs-out-of-order", "output-missing", "output-repeated",
        "input-past-the-body", "output-past-the-body"])
def test_boxed_circuit_refuses_bad_positions(inputs, outputs):
    body = Circuit((Q, Q), (Layer(((CNOT, 0),)),))
    with pytest.raises(WireTypeMismatch):
        BoxedCircuit(inputs, body, outputs)


def test_boxed_turns_a_private_builders_labels_into_positions():
    outer = CircuitBuilder((), label_supply())
    inner = outer.private((Q, (B, Q)))
    a, (b, c) = inner.inputs
    x, y = inner.append((c, a), registry.boxed("CNOT"))  # x lands on 0, y on 2
    boxed = inner.boxed((b, (y, x)))
    assert (boxed.inputs, boxed.outputs) == ((0, (1, 2)), (1, (2, 0)))
    assert boxed.body == inner.circuit()
    with pytest.raises(WireTypeMismatch):
        inner.boxed((b, x))       # y is left open
    with pytest.raises(WireTypeMismatch):
        inner.boxed((b, (y, a)))  # a is not open


def builder_on(o):
    """A builder over ``o`` on a new supply; returns (builder, input labels)."""
    b = CircuitBuilder(spine(o), label_supply())
    return b, flatten_bundle(b.inputs)


def labels_of(outputs):
    return [l for l, _ in outputs]


def test_append_attach_single_wire():
    b, ins = builder_on((Q,))
    out_bundle = b.append(ins[0], registry.boxed("H"))
    c, outputs = b.circuit(), b.outputs()
    assert c.steps == (Layer(((H, 0),)),)
    assert [t for _, t in outputs] == [Q]
    assert flatten_bundle(out_bundle) == labels_of(outputs)
    assert outputs[0][0] != ins[0]  # outputs are renamed fresh


def test_append_untouched_wire_passes_through():
    b, ins = builder_on((Q, Q))
    keep = ins[0]
    b.append(ins[1], registry.boxed("H"))
    c, outputs = b.circuit(), b.outputs()
    assert c.cod == (Q, Q)
    assert keep in labels_of(outputs)
    assert canonicalize(c).steps == (Layer(((H, 1),)),)


def test_append_gathers_scattered_wires():
    # attach (wire2, wire0) to CNOT: wires must be routed together, the
    # CNOT placed, and the bystander wire restored.
    b, ins = builder_on((Q, Q, Q))
    b.append((ins[2], ins[0]), registry.boxed("CNOT"))
    c, outputs = b.circuit(), b.outputs()
    assert c.cod == (Q, Q, Q)
    assert ins[1] in labels_of(outputs)
    assert sum(1 for s in c.steps if isinstance(s, Layer)) == 1


def test_append_type_mismatch_and_unknown_label():
    b, ins = builder_on((B,))
    with pytest.raises(WireTypeMismatch):
        b.append(ins[0], registry.boxed("H"))
    b2, _ = builder_on((Q,))
    with pytest.raises(LabelNotFound):
        b2.append(Label(424242), registry.boxed("H"))


def test_builder_checks_its_circuit_against_the_open_outputs():
    b, ins = builder_on((Q, Q))
    b.steps.append(Layer(((MEAS, 1),)))  # a step the open outputs do not know of
    b.append(ins[0], registry.boxed("H"))
    with pytest.raises(ObjectMismatch, match="open outputs"):
        b.circuit()


def random_nesting(r, labels):
    """A bundle over ``labels`` in this order, nested at random."""
    if not labels:
        return ()
    if len(labels) == 1 and r.random() < 0.8:
        return labels[0]
    cut = r.randint(0, len(labels))
    return (random_nesting(r, labels[:cut]), random_nesting(r, labels[cut:]))


def random_boxed(r) -> BoxedCircuit:
    """A gate literal, or a random multi-step body over qubit and bit wires
    boxed with its inputs randomly nested and its outputs listed in a
    shuffled, randomly nested order."""
    if r.random() < 0.5:
        return registry.boxed(r.choice(GENERAL_POOL))
    dom = tuple(r.choice((Q, Q, B)) for _ in range(r.randint(0, 4)))
    steps, _ = random_steps(r, dom, 6, max_width=6)
    boxed = box_circuit(Circuit(dom, steps))
    outs = flatten_bundle(boxed.outputs)
    r.shuffle(outs)
    return BoxedCircuit(random_nesting(r, flatten_bundle(boxed.inputs)), boxed.body,
                        random_nesting(r, outs))


def random_attach(r, entries, want):
    """Labels for ports of types ``want``: a contiguous or reversed run of
    positions when one fits (or, now and then, when it is ill-typed), else
    scattered positions, well typed when the context allows it."""
    n, m = len(entries), len(want)
    style = r.choice(("scattered", "contiguous", "reversed"))
    if style != "scattered" and m <= n:
        at = r.randint(0, n - m)
        run = entries[at:at + m]
        if style == "reversed":
            run = run[::-1]
        if tuple(t for _, t in run) == want or r.random() < 0.1:
            return [l for l, _ in run]
    by_type = {t: [l for l, u in entries if u == t] for t in (Q, B)}
    for pool in by_type.values():
        r.shuffle(pool)
    picked = [by_type[t].pop() if by_type[t] else None for t in want]
    if None not in picked:
        return picked
    return [l for l, _ in r.sample(entries, min(m, n))]


def test_append_matches_validating_builder_on_random_attachments():
    r = rng("append-oracle")
    appended, errors = 0, set()
    literals = [registry.boxed(name) for name in GENERAL_POOL]
    placed: dict = {}  # a gate literal's placements -> the one Layer placing them
    repeats = 0
    for _ in range(150):
        dom = tuple(r.choice((Q, Q, B)) for _ in range(r.randint(0, 6)))
        start = r.randint(0, 3)
        new = CircuitBuilder(spine(dom), label_supply(start))
        old = ValidatingBuilder(spine(dom), label_supply(start))
        assert new.inputs == old.inputs
        literal = False  # the last append placed a gate literal
        for _ in range(r.randint(1, 10)):
            entries = new.outputs()
            if literal and len(boxed.body.cod) == len(boxed.body.dom) and r.random() < 0.5:
                # the same gate literal again on the same wires (renamed by
                # the last application), so at the same offsets
                labels = flatten_bundle(got)
                repeats += 1
            else:
                boxed = random_boxed(r)
                while len(boxed.body.dom) > len(entries) and r.random() < 0.8:
                    boxed = random_boxed(r)
                labels = random_attach(r, entries, boxed.body.dom)
            literal = any(boxed is b for b in literals)
            fault = r.random()
            if fault < 0.04:
                labels = labels + [Label(10**6)]          # one wire too many
            elif fault < 0.08 and labels:
                labels = labels[:-1] + [labels[0]]        # a label twice
            elif fault < 0.12 and labels:
                labels[r.randrange(len(labels))] = Label(10**6)  # unknown label
            attach = random_nesting(r, labels)
            before = len(new.steps)
            try:
                got = new.append(attach, boxed)
            except CircuitError as e:
                with pytest.raises(type(e)) as want:
                    old.append(attach, boxed)
                assert str(want.value) == str(e)
                errors.add((type(e).__name__, str(e).split()[0]))
                literal = False
            else:
                assert got == old.append(attach, boxed)
                appended += 1
                if literal:
                    for step in new.steps[before:]:
                        if isinstance(step, Layer):
                            assert placed.setdefault(step.placements, step) is step
            assert new.outputs() == old.outputs()
            assert new.circuit().steps == old.circuit().steps
            assert serialize(new.circuit()) == serialize(old.circuit())
    assert appended > 300 and repeats > 50
    assert any(at > 0 for (_, at), in placed)  # shifted layers are shared too
    assert errors == {("WireTypeMismatch", "bundle"), ("WireTypeMismatch", "duplicate"),
                      ("LabelNotFound", "label"), ("WireTypeMismatch", "wire")}


def test_bundle_walks_at_5000_wires():
    """Every bundle and shape walk runs in one loop, so none of them meets
    the recursion limit on a 5000-wire right-nested bundle."""
    n = 5000
    shape = spine(qubits(n))
    assert flatten_bundle(shape) == list(qubits(n))
    b = CircuitBuilder(shape, label_supply())
    bundle = b.inputs
    assert labels_of(b.outputs()) == flatten_bundle(bundle) == list(range(n))
    assert show_bundle(bundle) == "".join(
        f"(#{i}, " for i in range(n - 1)) + f"#{n - 1}" + ")" * (n - 1)
    assert value_to_bundle(bundle) is bundle
    boxed = box_circuit(Circuit(qubits(n), (Layer(tuple((H, i) for i in range(n))),)))
    out = b.append(bundle, boxed)
    assert flatten_bundle(out) == labels_of(b.outputs()) == list(range(n, 2 * n))


KEEPS_WIDTH = ("H", "X", "Z", "CNOT", "meas")


def random_keeping_box(r) -> BoxedCircuit:
    """A gate literal, or a small box over qubits and bits, that keeps the
    wire count (``meas`` still turns a qubit into a bit)."""
    if r.random() < 0.5:
        return registry.boxed(r.choice(KEEPS_WIDTH))
    dom = tuple(r.choice((Q, Q, B)) for _ in range(r.randint(1, 3)))
    steps, _ = random_steps(r, dom, 4, pool=KEEPS_WIDTH)
    boxed = box_circuit(Circuit(dom, steps))
    return BoxedCircuit(random_nesting(r, flatten_bundle(boxed.inputs)), boxed.body,
                        random_nesting(r, flatten_bundle(boxed.outputs)[::-1]))


def test_record_replays_on_a_builder_alike():
    """Appends between a mark and a record that attach only the argument's
    wires and wires they made, replayed on a builder started alike, add the
    same steps, open the same wires, draw the same labels and return the
    same bundle."""
    r = rng("record-replay")
    replayed = set()
    for _ in range(150):
        dom = tuple(r.choice((Q, Q, B)) for _ in range(r.randint(1, 6)))
        start = r.randint(0, 3)
        first, second = (CircuitBuilder(spine(dom), label_supply(start)) for _ in range(2))
        live = r.sample(flatten_bundle(first.inputs), r.randint(1, len(dom)))
        arg = random_nesting(r, live)
        assert first.locate(arg) == second.locate(arg) is not None
        mark = first.mark(first.locate(arg))
        for _ in range(r.randint(0, 8)):
            boxed = random_keeping_box(r)
            types = dict(first.outputs())
            pools = {t: [l for l in live if types[l] == t] for t in (Q, B)}
            for pool in pools.values():
                r.shuffle(pool)
            if any(boxed.body.dom.count(t) > len(pools[t]) for t in (Q, B)):
                continue
            attach = [pools[t].pop() for t in boxed.body.dom]
            out = first.append(random_nesting(r, attach), boxed)
            live = [l for l in live if l not in attach] + flatten_bundle(out)
            replayed.add(next((g for g in KEEPS_WIDTH if registry.boxed(g) is boxed),
                              "box"))
        result = random_nesting(r, r.sample(live, r.randint(0, len(live))))
        record = first.record(mark, result)
        assert record is not None
        assert second.replay(record) == result
        assert second.steps == first.steps
        assert second.outputs() == first.outputs()
        assert next(second.supply) == next(first.supply)
    assert replayed >= {*KEEPS_WIDTH, "box"}


def test_record_refuses_a_changed_width_or_a_closed_wire():
    a, b = CircuitBuilder((Q, Q), label_supply()).inputs
    for boxed, attach in ((registry.boxed("init"), ()),
                          (registry.boxed("discard"), a)):
        builder = CircuitBuilder((Q, Q), label_supply())
        mark = builder.mark(builder.locate(a))
        out = builder.append(attach, boxed)
        assert builder.record(mark, out if out != () else b) is None
    builder = CircuitBuilder((Q, Q), label_supply())
    mark = builder.mark(builder.locate(a))
    c = builder.append(a, registry.boxed("H"))
    assert builder.record(mark, (c, b)) is not None
    assert builder.record(mark, (c, a)) is None  # a is neither new nor open
    assert builder.record(mark, (c, NatVal(0))) is None


def test_serialize_round_trip_on_random_circuits():
    r = rng("serialize")
    for _ in range(60):
        c = random_circuit(r)
        raw = serialize(c)
        again = deserialize(raw, registry)
        assert again.dom == c.dom and again.steps == c.steps


@pytest.mark.parametrize("doc", [
    '{"inputs": ["Qubit"], "steps": 5}',
    '{"inputs": 5, "steps": []}',
    '{"inputs": ["Qubit"], "steps": [], "outputs": 5}',
    '{"inputs": ["Qubit"], "steps": [], "outputs": null}',
    '{"inputs": ["Qubit"], "steps": [{"layer": [{"gate": "H", "at": 0.5}]}]}',
    '{"inputs": ["Qubit", "Qubit"], "steps": [{"layer": [{"gate": "H", "at": true}]}]}',
    '{"inputs": ["Qubit", "Qubit"], "steps": [{"perm": [1.7, 0]}]}',
    '{"inputs": ["Qubit", "Qubit"], "steps": [{"perm": [true, false]}]}',
], ids=["steps-int", "inputs-int", "outputs-int", "outputs-null", "at-float",
        "at-bool", "perm-float", "perm-bool"])
def test_deserialize_rejects_wrong_json_types(doc):
    # lists where lists are meant, and exact integers (no bool, no float)
    # for positions: nothing is truncated into a valid circuit
    with pytest.raises(ParseError):
        deserialize(doc, registry)


def test_serialize_identity_shape():
    import json
    doc = json.loads(serialize(identity((Q,))))
    assert doc == {"inputs": ["Qubit"], "steps": [], "outputs": ["Qubit"]}


def test_draw_mentions_every_gate_once():
    c = Circuit((Q, Q), (Layer(((H, 0),)), Layer(((CNOT, 0),))))
    pic = draw(c)
    assert pic.count("[H]") == 1
    assert pic.count("[CNOT]") == 2  # one box per occupied wire
