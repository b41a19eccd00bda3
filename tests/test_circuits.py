import pytest

from generators import Q, B, rng, random_circuit
from pqc.circuits import (
    BoxedCircuit, Circuit, CircuitBuilder, Gate, Label, LabelContext, Layer,
    Perm, WireType, box_circuit, canonicalize, compose, deserialize, draw,
    equivalent, flatten_bundle, freshlabels, identity, label_supply, pad_perm,
    perm_then, serialize, spine, symmetry, whisker_left, whisker_right,
)
from pqc.errors import (
    CircuitError, LabelNotFound, ObjectMismatch, WireTypeMismatch,
)
from pqc.gates import default_registry

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


def test_freshlabels_and_context():
    ctx, bundle = freshlabels(((Q, B), Q), label_supply())
    assert ctx.obj == (Q, B, Q)
    assert flatten_bundle(bundle) == list(ctx.labels)
    assert ctx.position(ctx.labels[2]) == 2
    with pytest.raises(LabelNotFound):
        ctx.position(Label(999))


def test_label_context_rejects_duplicates():
    l = Label(7)
    with pytest.raises(CircuitError):
        LabelContext(((l, Q), (l, Q)))


def test_box_circuit_spine_interface():
    body = Circuit((Q, Q), (Layer(((CNOT, 0),)),))
    boxed = box_circuit(body)
    assert boxed.body is body
    assert boxed.in_ctx.obj == (Q, Q)
    assert flatten_bundle(boxed.inputs) == list(boxed.in_ctx.labels)


def test_boxed_circuit_validates_interfaces():
    body = Circuit((Q,), (Layer(((H, 0),)),))
    good = box_circuit(body)
    with pytest.raises(ObjectMismatch):
        BoxedCircuit(good.inputs, good.in_ctx,
                     Circuit((Q, Q)), good.out_ctx, good.outputs)


def builder_on(o):
    """A builder over ``o`` with fresh input labels; returns (builder, ctx)."""
    ctx, _ = freshlabels(spine(o), label_supply())
    return CircuitBuilder(identity(o), ctx), ctx


def test_append_attach_single_wire():
    b, ctx = builder_on((Q,))
    out_bundle = b.append(ctx.labels[0], registry.boxed("H"))
    c, out_ctx = b.circuit(), b.context()
    assert c.steps == (Layer(((H, 0),)),)
    assert out_ctx.obj == (Q,)
    assert flatten_bundle(out_bundle) == list(out_ctx.labels)
    assert out_ctx.labels[0] != ctx.labels[0]  # outputs are renamed fresh


def test_append_untouched_wire_passes_through():
    b, ctx = builder_on((Q, Q))
    keep = ctx.labels[0]
    b.append(ctx.labels[1], registry.boxed("H"))
    c, out_ctx = b.circuit(), b.context()
    assert c.cod == (Q, Q)
    assert keep in out_ctx.labels
    assert canonicalize(c).steps == (Layer(((H, 1),)),)


def test_append_gathers_scattered_wires():
    # attach (wire2, wire0) to CNOT: wires must be routed together, the
    # CNOT placed, and the bystander wire restored.
    b, ctx = builder_on((Q, Q, Q))
    b.append((ctx.labels[2], ctx.labels[0]), registry.boxed("CNOT"))
    c, out_ctx = b.circuit(), b.context()
    assert c.cod == (Q, Q, Q)
    assert ctx.labels[1] in out_ctx.labels
    assert sum(1 for s in c.steps if isinstance(s, Layer)) == 1


def test_append_type_mismatch_and_unknown_label():
    b, ctx = builder_on((B,))
    with pytest.raises(WireTypeMismatch):
        b.append(ctx.labels[0], registry.boxed("H"))
    b2, _ = builder_on((Q,))
    with pytest.raises(LabelNotFound):
        b2.append(Label(424242), registry.boxed("H"))


def test_serialize_round_trip_on_random_circuits():
    r = rng("serialize")
    for _ in range(60):
        c = random_circuit(r)
        raw = serialize(c)
        again = deserialize(raw, registry)
        assert again.dom == c.dom and again.steps == c.steps


def test_serialize_identity_shape():
    import json
    doc = json.loads(serialize(identity((Q,))))
    assert doc == {"inputs": ["Qubit"], "steps": [], "outputs": ["Qubit"]}


def test_draw_mentions_every_gate_once():
    c = Circuit((Q, Q), (Layer(((H, 0),)), Layer(((CNOT, 0),))))
    pic = draw(c)
    assert pic.count("[H]") == 1
    assert pic.count("[CNOT]") == 2  # one box per occupied wire
