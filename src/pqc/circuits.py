"""Wire-typed circuit IR.

A circuit is a morphism of a free strict symmetric premonoidal category:
objects are finite lists of wire types, morphisms are sequences of primitive
steps. A step is either a ``Layer`` (one or more gates applied in parallel at
disjoint wire positions) or a ``Perm`` (a rewiring). There is deliberately no
interchange law: ``[H@0]; [H@1]`` and ``[H@1]; [H@0]`` are *different*
circuits, because gate placement in time is meaningful for the resource
analyses built on top. The only identifications made by ``canonicalize`` are
fusing adjacent permutations and dropping identity permutations.

Labels name the open output wires of a circuit under construction. Wire
bundles (nested pairs of labels) connect the name-based world of programs
with the positional world of circuits, and only ``CircuitBuilder`` knows
where each label sits. Labels are minted from a supply (``label_supply``)
that belongs to one run: an evaluation numbers its wires from its own
supply, so there is no process-global label counter. A boxed circuit holds
no labels: its interfaces are bundles of body positions.

Bundles and bundle shapes are plain nested tuples:

* a bundle is ``()`` (empty), a ``Label``, or a pair ``(bundle, bundle)``
  (a boxed circuit's bundles have positions where labels would be);
* a shape is ``()``, a ``WireType``, or a pair ``(shape, shape)``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from .errors import (
    LabelNotFound,
    ObjectMismatch,
    ParseError,
    UnknownGate,
    WireTypeMismatch,
)


class WireType(Enum):
    QUBIT = "Qubit"
    BIT = "Bit"

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return self.value


Obj = tuple[WireType, ...]
"""A circuit object: an ordered list of wire types."""


def obj(*types: WireType) -> Obj:
    return tuple(types)


def qubits(n: int) -> Obj:
    return (WireType.QUBIT,) * n


# --------------------------------------------------------------------------
# labels
# --------------------------------------------------------------------------

class Label(int):
    """A totally ordered wire name, printed ``#n``: a label is its index.

    An ``int`` underneath, so hashing, equality and order are the C ones
    (``Label(3) == 3``). It is the one form of a wire, in a program's syntax
    (``#3``) and at run time; it never equals a ``NatVal``.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return f"#{int(self)}"

    __repr__ = __str__


class LabelSupply:
    """A fresh supply of labels ``#start, #start+1, ...``: ``next`` mints one,
    and ``n`` is the number of the next.

    Every evaluation draws from a supply of its own, so no label state is
    shared between runs.
    """

    __slots__ = ("n",)

    def __init__(self, start: int = 0):
        self.n = start

    def __next__(self) -> Label:
        self.n += 1
        return Label(self.n - 1)


label_supply = LabelSupply


Bundle = Union[tuple, Label]
Shape = Union[tuple, WireType]


def flatten_bundle(b: Bundle) -> list[Label]:
    """A bundle's wires (any leaf but ``()``), left to right."""
    out, todo = [], [b]
    while todo:
        b = todo.pop()
        while type(b) is tuple and b:  # down the left parts, parking the right
            b, r = b
            todo.append(r)
        if type(b) is not tuple:
            out.append(b)
    return out


def map_bundle(b, leaf):
    """``b`` with each leaf ``x`` (anything but a tuple) replaced by
    ``leaf(x)``, in left-to-right order; None if some ``leaf(x)`` is None."""
    # down each right spine, mapping its left parts into lefts; a left part
    # that is a pair parks the spine until it is mapped
    parked, lefts = [], []
    while True:
        if type(b) is tuple and b:
            l, b = b
            if type(l) is tuple and l:
                parked.append((lefts, b))
                lefts, b = [], l
                continue
            lefts.append(l if type(l) is tuple else leaf(l))
            if lefts[-1] is None:
                return None
            continue
        v = b if type(b) is tuple else leaf(b)
        if v is None:
            return None
        for l in reversed(lefts):
            v = (l, v)
        if not parked:
            return v
        lefts, b = parked.pop()
        lefts.append(v)


def show_bundle(b: Bundle) -> str:
    out, todo = [], [b]  # a str on the stack is printed as it is
    while todo:
        x = todo.pop()
        if type(x) is tuple:
            todo += (")", x[1], ", ", x[0], "(") if x else ("*",)
        else:
            out.append(str(x))
    return "".join(out)


# --------------------------------------------------------------------------
# gates and steps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Gate:
    """A primitive gate with a typed signature (dom may be empty)."""

    name: str
    dom: Obj
    cod: Obj

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Layer:
    """Parallel gates at disjoint, increasing wire positions.

    A placement ``(gate, at)`` consumes ``gate.dom`` starting at input
    position ``at`` and emits ``gate.cod`` in its place; positions not
    covered by any placement pass through unchanged. A gate with empty dom
    inserts its outputs just before position ``at``.
    """

    placements: tuple[tuple[Gate, int], ...]

    def __post_init__(self):
        if not self.placements:
            raise ObjectMismatch("a layer must contain at least one gate")
        end = 0
        for gate, at in self.placements:
            if at < end:
                raise ObjectMismatch(
                    f"overlapping or unordered placement of {gate.name} at {at}")
            end = at + len(gate.dom)

    def cod(self, dom: Obj) -> Obj:
        out: list[WireType] = []
        pos = 0
        for gate, at in self.placements:
            take = len(gate.dom)
            if at + take > len(dom):
                raise ObjectMismatch(
                    f"gate {gate.name} at {at} overruns object of size {len(dom)}")
            out.extend(dom[pos:at])
            if dom[at:at + take] != gate.dom:
                raise ObjectMismatch(
                    f"gate {gate.name} expects {gate.dom} at position {at}, "
                    f"found {dom[at:at + take]}")
            out.extend(gate.cod)
            pos = at + take
        out.extend(dom[pos:])
        return tuple(out)

    def shifted(self, offset: int) -> "Layer":
        """The same gates ``offset >= 0`` wires further down.

        Shifting keeps the placements disjoint and in order, so the copy is
        not re-validated.
        """
        if offset == 0:
            return self
        out = object.__new__(Layer)
        object.__setattr__(
            out, "placements", tuple((g, at + offset) for g, at in self.placements))
        return out

    def __str__(self) -> str:
        return "[" + " ".join(f"{g.name}@{at}" for g, at in self.placements) + "]"


@dataclass(frozen=True)
class Perm:
    """A rewiring step: input wire ``i`` moves to output slot ``perm[i]``."""

    perm: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ObjectMismatch(f"not a permutation: {self.perm}")

    def cod(self, dom: Obj) -> Obj:
        if len(dom) != len(self.perm):
            raise ObjectMismatch(
                f"permutation on {len(self.perm)} wires applied to {len(dom)}")
        out: list[WireType | None] = [None] * len(dom)
        for i, j in enumerate(self.perm):
            out[j] = dom[i]
        return tuple(out)  # type: ignore[arg-type]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.perm))

    def __str__(self) -> str:
        return "<" + " ".join(map(str, self.perm)) + ">"


Step = Union[Layer, Perm]


def perm_then(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation 'first p, then q'."""
    return tuple(q[p[i]] for i in range(len(p)))


def pad_perm(p: tuple[int, ...], left: int, right: int) -> tuple[int, ...]:
    n = len(p)
    return tuple(
        list(range(left))
        + [left + j for j in p]
        + [left + n + i for i in range(right)]
    )


# --------------------------------------------------------------------------
# circuits
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Circuit:
    """A step sequence with a fixed input object; cod is derived.

    Steps and objects are immutable, so the cod is derived (and checked)
    once for each distinct pair of step object and input object, by
    ``Layer.cod`` or ``Perm.cod``. Replayed calls and gate literals placed
    at one offset share their step objects, and a step that keeps its
    input's wire types keeps its input object, so a circuit built from them
    costs a lookup per step.
    """

    dom: Obj
    steps: tuple[Step, ...] = ()
    cod: Obj = field(init=False, compare=False)

    def __post_init__(self):
        # seen[id(input)][id(step)] is the step's output on that input. Keyed
        # by id: self.steps holds every step, and every object is self.dom
        # or a value in seen, so no id is reused during the loop
        cur = self.dom
        row: dict[int, Obj] = {}
        seen = {id(cur): row}
        for step in self.steps:
            nxt = row.get(id(step))
            if nxt is None:
                nxt = step.cod(cur)
                if nxt == cur:
                    nxt = cur
                row[id(step)] = nxt
            if nxt is not cur:
                cur = nxt
                row = seen.setdefault(id(cur), {})
        object.__setattr__(self, "cod", cur)

    def __str__(self) -> str:
        body = "; ".join(str(s) for s in self.steps) or "id"
        return f"{list(map(str, self.dom))} {body}"


def identity(o: Obj) -> Circuit:
    return Circuit(o, ())


def compose(c: Circuit, d: Circuit) -> Circuit:
    """Run ``c`` then ``d``; endpoints must agree."""
    if c.cod != d.dom:
        raise ObjectMismatch(f"cannot compose: {c.cod} vs {d.dom}")
    return Circuit(c.dom, c.steps + d.steps)


def _whisker_steps(steps: tuple[Step, ...], left: int, right: int) -> tuple[Step, ...]:
    out: list[Step] = []
    for step in steps:
        if isinstance(step, Layer):
            out.append(step.shifted(left))
        else:
            out.append(Perm(pad_perm(step.perm, left, right)))
    return tuple(out)


def whisker_left(o: Obj, c: Circuit) -> Circuit:
    """``o`` wires pass above an unchanged copy of ``c``."""
    return Circuit(o + c.dom, _whisker_steps(c.steps, len(o), 0))


def whisker_right(c: Circuit, o: Obj) -> Circuit:
    """``o`` wires pass below an unchanged copy of ``c``."""
    return Circuit(c.dom + o, _whisker_steps(c.steps, 0, len(o)))


def symmetry(a: Obj, b: Obj) -> Circuit:
    """Swap an ``a`` block past a ``b`` block (a single Perm step)."""
    m, n = len(a), len(b)
    perm = tuple([n + i for i in range(m)] + list(range(n)))
    step = Perm(perm)
    return Circuit(a + b, () if step.is_identity() else (step,))


def canonicalize(c: Circuit) -> Circuit:
    """Fuse adjacent Perm steps and drop identity Perms. Nothing else.

    In particular gates never slide past each other: layer structure is
    intensional and preserved exactly.
    """
    steps: list[Step] = []
    for step in c.steps:
        if isinstance(step, Perm):
            if steps and isinstance(steps[-1], Perm):
                prev = steps.pop()
                step = Perm(perm_then(prev.perm, step.perm))  # type: ignore[union-attr]
            if not step.is_identity():
                steps.append(step)
        else:
            steps.append(step)
    return Circuit(c.dom, tuple(steps))


def equivalent(c: Circuit, d: Circuit) -> bool:
    """Structural equality after canonicalize."""
    cc, dd = canonicalize(c), canonicalize(d)
    return cc.dom == dd.dom and cc.steps == dd.steps


# --------------------------------------------------------------------------
# boxed circuits and the circuit builder
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxedCircuit:
    """A circuit packaged with bundle-shaped interfaces over its positions.

    ``inputs`` is a bundle over the body's dom positions ``0, 1, ...`` in
    order, nested in any way, so the k-th wire attached to the box feeds
    body input k. ``outputs`` is a bundle over the body's cod positions,
    each once, in any order. The interfaces are checked once, here.
    """

    inputs: Bundle
    body: Circuit
    outputs: Bundle
    _placed: dict | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if flatten_bundle(self.inputs) != list(range(len(self.body.dom))):
            raise WireTypeMismatch(
                "input bundle must list the body's input positions in order")
        if sorted(flatten_bundle(self.outputs)) != list(range(len(self.body.cod))):
            raise WireTypeMismatch(
                "output bundle must list each of the body's output positions once")
        layers_only = all(type(s) is Layer for s in self.body.steps)
        object.__setattr__(self, "_placed", {} if layers_only else None)

    def placed(self, left: int, right: int) -> tuple[Step, ...]:
        """The body's steps with ``left`` wires above and ``right`` below.

        A body of Layers alone (a gate literal, say) does not depend on
        ``right``: its steps are placed once per offset, and every
        application at that offset shares them. So every cached step is a
        step of some built circuit.
        """
        placed = self._placed
        if placed is None:
            return _whisker_steps(self.body.steps, left, right)
        out = placed.get(left)
        if out is None:
            out = placed[left] = _whisker_steps(self.body.steps, left, right)
        return out

    def __str__(self) -> str:
        return f"({show_bundle(self.inputs)}, {self.body}, {show_bundle(self.outputs)})"


def box_circuit(body: Circuit) -> BoxedCircuit:
    """Package a circuit with straight-through interfaces: each bundle is a
    right-nested pair spine over the body's positions, the inputs over its
    dom and the outputs over its cod."""
    return BoxedCircuit(spine(range(len(body.dom))), body, spine(range(len(body.cod))))


def spine(xs) -> Union[Shape, Bundle]:
    """Right-nested pairs over a sequence: x0 ⊗ (x1 ⊗ (...)); a shape over
    an object, a bundle over positions."""
    s = xs[-1] if xs else ()
    for x in reversed(xs[:-1]):
        s = (x, s)
    return s


class CircuitBuilder:
    """A circuit under construction, extended in place by ``append``.

    It starts as the identity on new wires of ``shape``: it mints one label
    per wire from ``supply``, the run's, and names them in the bundle
    ``inputs``. The builder holds the step list and the open outputs (an
    entry list plus a label -> position map). ``append`` checks the
    attach bundle against the body's dom and adds the body's steps, placed
    by index arithmetic: a body was validated when it was boxed, so its
    steps are not re-derived one by one. ``circuit()`` packages the result,
    deriving the cod in ``Circuit``, once per distinct step and input
    object, and checking it against the open outputs; ``outputs()`` lists
    the open outputs. ``private`` starts a box's builder on the same
    supply, and ``boxed`` packages what that builder built, its labels
    turned into positions. Where each wire sits is known only here: a
    repeated call ``locate``s its argument by positions, ``mark``s its
    start, ``record``s its appends, and is ``replay``ed at the same
    positions.
    """

    def __init__(self, shape: Shape, supply: LabelSupply):
        self.supply = supply
        self.start = supply.n  # the first input's label
        self.entries: list[tuple[Label, WireType]] = []

        def mint(t: WireType) -> Label:
            self.entries.append((next(supply), t))
            return self.entries[-1][0]
        self.inputs = map_bundle(shape, mint)
        self.dom = tuple(t for _, t in self.entries)
        self.pos = {l: i for i, (l, _) in enumerate(self.entries)}
        self.steps: list[Step] = []
        self.resized = 0  # appends that may have moved wires, for record
        self._circuit: Circuit | None = identity(self.dom)

    def circuit(self) -> Circuit:
        if self._circuit is None:
            c = Circuit(self.dom, tuple(self.steps))
            outs = tuple(t for _, t in self.entries)
            if c.cod != outs:
                raise ObjectMismatch(
                    f"built circuit ends in {c.cod}, open outputs are {outs}")
            self._circuit = c
        return self._circuit

    def outputs(self) -> tuple[tuple[Label, WireType], ...]:
        """The open outputs, in wire order, with their types."""
        return tuple(self.entries)

    def append(self, attach: Bundle, boxed: BoxedCircuit) -> Bundle:
        """Attach a boxed circuit to named wires among the open outputs.

        The k-th wire of the attach bundle (flattened) feeds body input k.
        Attached wires are gathered by a recorded Perm into that order, the
        body is whiskered into place at the smallest attached position (at
        the right end when the bundle is empty), and — when the body
        preserves wire count — a restore Perm scatters the outputs back over
        the original attached positions so that passthrough wires keep their
        exact positions. Identity perms are never emitted, nor built.

        Returns ``boxed.outputs`` over fresh labels, body output j getting
        the j-th. ``dom`` is unchanged.
        """
        attach_labels = [attach] if type(attach) is Label else flatten_bundle(attach)
        body = boxed.body
        m = len(body.dom)
        if len(attach_labels) != m:
            raise WireTypeMismatch(
                f"bundle of {len(attach_labels)} wires applied to circuit "
                f"expecting {m}")
        if m > 1 and len(set(attach_labels)) != m:
            raise WireTypeMismatch(f"duplicate label in bundle {show_bundle(attach)}")

        entries, pos, n = self.entries, self.pos, len(self.entries)
        positions = []
        for a in attach_labels:
            i = pos.get(a)
            if i is None:
                raise LabelNotFound(f"label {a} is not an open output")
            positions.append(i)
        for a, i, want in zip(attach_labels, positions, body.dom):
            got = entries[i][1]
            if want != got:
                raise WireTypeMismatch(f"wire {a} is {got}, circuit expects {want}")

        q = min(positions) if m else n
        steps = self.steps
        # gather: the k-th attached wire goes to block slot q + k;
        # passthrough wires fill the remaining slots in order. It is the
        # identity exactly when the attached wires are already there, in
        # order, as one wire always is.
        if m > 1 and positions != list(range(q, q + m)):
            dest: list[int | None] = [None] * n
            for k, i in enumerate(positions):
                dest[i] = q + k
            free = itertools.chain(range(q), range(q + m, n))
            steps.append(Perm(tuple(next(free) if d is None else d for d in dest)))
        steps.extend(boxed.placed(q, n - q - m))
        keep_slots = len(body.cod) == m and m > 0
        if keep_slots:
            # restore: block output j (now at q + j) goes to the j-th smallest
            # attached position, passthrough wires back to their own. It is
            # the identity exactly when the attached positions are contiguous.
            if max(positions) == q + m - 1:
                slots = range(q, q + m)
            else:
                slots = sorted(positions)
                attached = set(positions)
                rest = [i for i in range(q, n) if i not in attached]
                steps.append(Perm((*range(q), *slots, *rest)))
        self._circuit = None

        fresh = [(next(self.supply), t) for t in body.cod]
        if keep_slots:
            for a in attach_labels:
                del pos[a]
            for i, e in zip(slots, fresh):
                entries[i] = e
                pos[e[0]] = i
        else:
            self.resized += 1
            # only the wires from q on move: nothing before q is attached
            gone = set(attach_labels)
            for a in attach_labels:
                del pos[a]
            rest = [e for e in entries[q:] if e[0] not in gone]
            del entries[q:]
            entries += fresh
            entries += rest
            for i in range(q, len(entries)):
                pos[entries[i][0]] = i
        outputs = boxed.outputs
        if type(outputs) is not tuple:  # then it is the body's one output
            return fresh[0][0]
        return map_bundle(outputs, [l for l, _ in fresh].__getitem__)

    def private(self, shape: Shape) -> CircuitBuilder:
        """A builder for a ``box`` run inside this one, on new wires of
        ``shape`` from this builder's supply."""
        return CircuitBuilder(shape, self.supply)

    def boxed(self, outputs: Bundle) -> BoxedCircuit:
        """What a ``private`` builder built, boxed with ``outputs``: each
        label becomes its position. Its inputs were minted in order from
        ``start``; a wire in ``outputs`` that is not open becomes -1, which
        ``BoxedCircuit`` refuses."""
        pos, start = self.pos, self.start
        return BoxedCircuit(map_bundle(self.inputs, lambda l: l - start),
                            self.circuit(),
                            map_bundle(outputs, lambda l: pos.get(l, -1)))

    def locate(self, arg) -> tuple | None:
        """The width, and ``arg`` with each wire as 2 * its position, plus 1
        for a bit; None unless ``arg`` is a bundle of open wires."""
        pos, entries = self.pos, self.entries
        codes = map_bundle(arg, lambda a: None if type(a) is not Label or a not in pos
                           else 2 * pos[a] + (entries[pos[a]][1] is WireType.BIT))
        return None if codes is None else (len(entries), codes)

    def mark(self, where: tuple) -> tuple:
        """The start of a call on the argument ``locate``d at ``where``."""
        return where, len(self.steps), self.supply.n, self.resized

    def record(self, mark: tuple, result) -> tuple | None:
        """The appends since ``mark`` as a record for ``replay``; None if one
        changed the wire count or ``result`` holds a wire neither new nor open.
        It keeps the steps, the label count, the label and type left at each
        argument position, and ``result`` with a new label as 2 * its offset
        and an old one as 2 * its position + 1. It redoes the call only if the
        appends attached no wire but the located argument's and wires they
        created, as a lifted closure's do in a program that type-checked."""
        (_, arg), lo, start, resized = mark
        pos, entries = self.pos, self.entries
        codes = None if self.resized != resized else map_bundle(
            result, lambda b: None if type(b) is not Label else 2 * (b - start)
            if b >= start else 2 * pos[b] + 1 if b in pos else None)
        return None if codes is None else (
            self.steps, lo, len(self.steps), self.supply.n - start,
            [(i, entries[i][0] - start, entries[i][1])
             for i in {c >> 1 for c in flatten_bundle(arg)} if entries[i][0] >= start],
            codes)

    def replay(self, record: tuple) -> Bundle:
        """Redo a ``record``ed call on an argument at the same positions and
        return its result: add the steps, draw the labels from ``base`` on,
        and open ``#(base + k)`` of type ``t`` at each ``(position, k, t)``."""
        steps, lo, hi, count, writes, codes = record
        entries, pos = self.entries, self.pos
        base = self.supply.n
        v = map_bundle(codes, lambda c: entries[c >> 1][0] if c & 1
                       else Label(base + (c >> 1)))
        self.steps += steps[lo:hi]
        self.supply.n = base + count
        for i, k, t in writes:
            del pos[entries[i][0]]
            entries[i] = (Label(base + k), t)
            pos[entries[i][0]] = i
        self._circuit = None
        return v


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def circuit_doc(c: Circuit) -> dict:
    """A circuit as a JSON document (outputs included for readability)."""
    steps: list[dict] = []
    for step in c.steps:
        if isinstance(step, Layer):
            steps.append({
                "layer": [{"gate": g.name, "at": at} for g, at in step.placements]
            })
        else:
            steps.append({"perm": list(step.perm)})
    return {
        "inputs": [str(t) for t in c.dom],
        "steps": steps,
        "outputs": [str(t) for t in c.cod],
    }


def serialize(c: Circuit) -> bytes:
    """Encode a circuit as canonical JSON: ``circuit_doc``, indented."""
    return json.dumps(circuit_doc(c), indent=2).encode("utf-8")


def _wire_type(name: str) -> WireType:
    for t in WireType:
        if t.value == name:
            return t
    raise ParseError(f"unknown wire type {name!r}")


def _typed(x, t: type, what: str):
    """``x`` if its type is exactly ``t`` (a bool is no int), else ParseError."""
    if type(x) is not t:
        raise ParseError(f"{what} must be of type {t.__name__}, got {x!r}")
    return x


def deserialize(raw: bytes | str, registry) -> Circuit:
    """Decode ``serialize`` output, resolving gate names via a registry.

    Raises ParseError on any malformed input.
    """
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid circuit JSON: {e}") from e
    if not isinstance(doc, dict) or "inputs" not in doc or "steps" not in doc:
        raise ParseError("circuit JSON must have 'inputs' and 'steps'")
    dom = tuple(_wire_type(t) for t in _typed(doc["inputs"], list, "'inputs'"))
    steps: list[Step] = []
    for i, entry in enumerate(_typed(doc["steps"], list, "'steps'")):
        try:
            if "layer" in entry:
                placements = tuple(
                    (registry.gate(p["gate"]), _typed(p["at"], int, "'at'"))
                    for p in _typed(entry["layer"], list, "'layer'"))
                steps.append(Layer(placements))
            elif "perm" in entry:
                perm = _typed(entry["perm"], list, "'perm'")
                steps.append(Perm(tuple(_typed(x, int, "a perm entry") for x in perm)))
            else:
                raise ParseError("neither 'layer' nor 'perm'")
        except (KeyError, TypeError, ValueError, UnknownGate, ObjectMismatch,
                ParseError) as e:
            raise ParseError(f"step {i}: {e}") from e
    try:
        circuit = Circuit(dom, tuple(steps))
    except ObjectMismatch as e:
        raise ParseError(f"ill-typed circuit: {e}") from e
    if "outputs" in doc:
        outs = tuple(_wire_type(t) for t in _typed(doc["outputs"], list, "'outputs'"))
        if outs != circuit.cod:
            raise ParseError(
                f"declared outputs {doc['outputs']} disagree with derived "
                f"{[str(t) for t in circuit.cod]}")
    return circuit


# --------------------------------------------------------------------------
# drawing
# --------------------------------------------------------------------------

def draw(c: Circuit) -> str:
    """Plain-text rendering: one row per wire, one column per step.

    Wires keep their row for their whole lifetime; gate names are printed on
    every wire they cover, a ``x`` marks wires moved by a Perm step, and
    wires created mid-circuit are slotted between their neighbours.
    """
    wires: list[dict] = []   # key (row sort key), segs {col: token}, bb, db
    boundary: list[int] = []
    for i, t in enumerate(c.dom):
        wires.append({"key": float(i), "segs": {}, "bb": 0, "db": None})
        boundary.append(i)

    for ci, step in enumerate(c.steps):
        if isinstance(step, Layer):
            new_boundary: list[int] = []
            pos = 0
            for gate, at in step.placements:
                d, cn = len(gate.dom), len(gate.cod)
                token = f"[{gate.name}]"
                new_boundary.extend(boundary[pos:at])
                covered = boundary[at:at + d]
                for w in covered:
                    wires[w]["segs"][ci] = token
                produced = list(covered[:min(d, cn)])
                for w in covered[cn:]:
                    wires[w]["db"] = ci + 1
                for _ in range(d, cn):
                    lo = (wires[produced[-1]]["key"] if produced
                          else wires[new_boundary[-1]]["key"] if new_boundary
                          else min((w["key"] for w in wires), default=0.0) - 1.0)
                    rest = boundary[at + d:]
                    hi = wires[rest[0]]["key"] if rest else lo + 2.0
                    w = len(wires)
                    wires.append({"key": (lo + hi) / 2.0, "segs": {ci: token},
                                  "bb": ci + 1, "db": None})
                    produced.append(w)
                new_boundary.extend(produced)
                pos = at + d
            new_boundary.extend(boundary[pos:])
            boundary = new_boundary
        else:
            moved = [boundary[i] for i, j in enumerate(step.perm) if i != j]
            for w in moved:
                wires[w]["segs"][ci] = "x"
            out: list[int] = [0] * len(boundary)
            for i, j in enumerate(step.perm):
                out[j] = boundary[i]
            boundary = out

    ncols = len(c.steps)
    widths = [
        max([2] + [len(w["segs"][ci]) for w in wires if ci in w["segs"]]) + 2
        for ci in range(ncols)
    ]
    prefix = {i: f"{t} " for i, t in enumerate(c.dom)}
    margin = max((len(p) for p in prefix.values()), default=0)

    lines = []
    for w in sorted(range(len(wires)), key=lambda w: wires[w]["key"]):
        info = wires[w]
        db = info["db"] if info["db"] is not None else ncols
        line = prefix.get(w, "").rjust(margin)
        for ci in range(ncols):
            if ci in info["segs"]:
                line += info["segs"][ci].center(widths[ci], "-")
            elif info["bb"] <= ci < db:
                line += "-" * widths[ci]
            else:
                line += " " * widths[ci]
        line += "-" if db == ncols else " "
        lines.append(line.rstrip() or "-")
    return "\n".join(lines)
