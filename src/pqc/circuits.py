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
bundles (nested pairs of labels) and label contexts connect the positional
world of circuits with the name-based world of programs. Labels are minted
from a supply (``label_supply``) that belongs to one run: an evaluation
numbers its wires from its own supply, and a boxed circuit's interface
labels are local to the box, so there is no process-global label counter.

Bundles and bundle shapes are plain nested tuples:

* a bundle is ``()`` (empty), a ``Label``, or a pair ``(bundle, bundle)``;
* a shape is ``()``, a ``WireType``, or a pair ``(shape, shape)``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Union

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

@dataclass(frozen=True, order=True)
class Label:
    """An opaque, totally ordered wire name."""

    ix: int

    def __str__(self) -> str:
        return f"#{self.ix}"

    __repr__ = __str__


def label_supply(start: int = 0) -> Iterator[Label]:
    """A fresh supply of labels ``#start, #start+1, ...``.

    Every evaluation draws from a supply of its own, so no label state is
    shared between runs.
    """
    return map(Label, itertools.count(start))


Bundle = Union[tuple, Label]
Shape = Union[tuple, WireType]


def flatten_bundle(b: Bundle) -> list[Label]:
    if isinstance(b, Label):
        return [b]
    if b == ():
        return []
    l, r = b
    return flatten_bundle(l) + flatten_bundle(r)


def rename_bundle(b: Bundle, mapping: dict[Label, Label]) -> Bundle:
    if isinstance(b, Label):
        return mapping[b]
    if b == ():
        return ()
    l, r = b
    return (rename_bundle(l, mapping), rename_bundle(r, mapping))


def show_bundle(b: Bundle) -> str:
    if isinstance(b, Label):
        return str(b)
    if b == ():
        return "*"
    l, r = b
    return f"({show_bundle(l)}, {show_bundle(r)})"


@dataclass(frozen=True)
class LabelContext:
    """An ordered list of distinctly-labelled, typed wires."""

    entries: tuple[tuple[Label, WireType], ...] = ()

    def __post_init__(self):
        index = {l: i for i, (l, _) in enumerate(self.entries)}
        if len(index) != len(self.entries):
            raise WireTypeMismatch(f"duplicate labels in context {self}")
        object.__setattr__(self, "_index", index)

    @property
    def labels(self) -> list[Label]:
        return [l for l, _ in self.entries]

    @property
    def obj(self) -> Obj:
        return tuple(t for _, t in self.entries)

    def position(self, label: Label) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise LabelNotFound(f"label {label} not in context {self}") from None

    def type_of(self, label: Label) -> WireType:
        return self.entries[self.position(label)][1]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[tuple[Label, WireType]]:
        return iter(self.entries)

    def __str__(self) -> str:
        return ", ".join(f"{l}:{t}" for l, t in self.entries) or "(empty)"


def freshlabels(shape: Shape, supply: Iterator[Label]) -> tuple[LabelContext, Bundle]:
    """Mint labels from ``supply`` for every wire position of a bundle shape.

    Returns the label context (in left-to-right shape order) and the bundle
    of the same shape holding the new labels.
    """
    entries: list[tuple[Label, WireType]] = []

    def go(s: Shape) -> Bundle:
        if isinstance(s, WireType):
            l = next(supply)
            entries.append((l, s))
            return l
        if s == ():
            return ()
        a, b = s
        return (go(a), go(b))

    bundle = go(shape)
    return LabelContext(tuple(entries)), bundle


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
        return Layer(tuple((g, at + offset) for g, at in self.placements))

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
    """A step sequence with a fixed input object; cod is derived."""

    dom: Obj
    steps: tuple[Step, ...] = ()
    cod: Obj = field(init=False, compare=False)

    def __post_init__(self):
        cur = self.dom
        for step in self.steps:
            cur = step.cod(cur)
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
    """A circuit packaged with named, bundle-shaped interfaces.

    ``in_ctx``/``out_ctx`` name the body's dom/cod positions in positional
    order; ``inputs``/``outputs`` are bundles over exactly those labels (the
    bundle may list them in any order — the port order is given by the
    contexts).
    """

    inputs: Bundle
    in_ctx: LabelContext
    body: Circuit
    out_ctx: LabelContext
    outputs: Bundle

    def __post_init__(self):
        if self.in_ctx.obj != self.body.dom:
            raise ObjectMismatch("boxed input context does not match body dom")
        if self.out_ctx.obj != self.body.cod:
            raise ObjectMismatch("boxed output context does not match body cod")
        if sorted(flatten_bundle(self.inputs)) != sorted(self.in_ctx.labels):
            raise WireTypeMismatch("input bundle must enumerate the input ports")
        if sorted(flatten_bundle(self.outputs)) != sorted(self.out_ctx.labels):
            raise WireTypeMismatch("output bundle must enumerate the output ports")

    def __str__(self) -> str:
        return f"({show_bundle(self.inputs)}, {self.body}, {show_bundle(self.outputs)})"


def box_circuit(body: Circuit, in_shape: Shape | None = None) -> BoxedCircuit:
    """Package a circuit with fresh straight-through interfaces.

    The input bundle shape defaults to a right-nested pair spine over the
    body's dom; same for outputs over cod. The interface labels are local to
    the box: ``#0, #1, ...`` over the inputs, then the outputs.
    """
    supply = label_supply()
    in_ctx, in_bundle = freshlabels(
        in_shape if in_shape is not None else spine(body.dom), supply)
    out_ctx, out_bundle = freshlabels(spine(body.cod), supply)
    return BoxedCircuit(in_bundle, in_ctx, body, out_ctx, out_bundle)


def spine(o: Obj) -> Shape:
    """Right-nested bundle shape over an object: w0 ⊗ (w1 ⊗ (...))."""
    if not o:
        return ()
    if len(o) == 1:
        return o[0]
    return (o[0], spine(o[1:]))


class CircuitBuilder:
    """A circuit under construction, extended in place by ``append``.

    The builder holds the step list, the current cod, and the open outputs
    as a label context (an entry list plus a label -> position map). Each
    appended step's cod is derived once, from the current cod, so every
    placement check runs once per step; ``circuit()`` and ``context()``
    package the result. Output labels come from ``supply``, which by default
    continues after the largest label of the starting context.
    """

    def __init__(self, start: Circuit, ctx: LabelContext,
                 supply: Iterator[Label] | None = None):
        self.dom = start.dom
        self.cod = start.cod
        self.steps: list[Step] = list(start.steps)
        self.entries = list(ctx.entries)
        self.pos = {l: i for i, (l, _) in enumerate(self.entries)}
        self.supply = supply if supply is not None else label_supply(
            1 + max((l.ix for l in self.pos), default=-1))
        self._circuit: Circuit | None = start
        self._ctx: LabelContext | None = ctx

    def circuit(self) -> Circuit:
        if self._circuit is None:
            self._circuit = Circuit(self.dom, tuple(self.steps))
        return self._circuit

    def context(self) -> LabelContext:
        """The open outputs, in wire order."""
        if self._ctx is None:
            self._ctx = LabelContext(tuple(self.entries))
        return self._ctx

    def append(self, attach: Bundle, boxed: BoxedCircuit) -> Bundle:
        """Attach a boxed circuit to named wires among the open outputs.

        The attach bundle pairs up with ``boxed.inputs`` position-for-position
        (flattened). Attached wires are gathered by a recorded Perm so they
        feed the body in its port order, the body is whiskered into place at
        the smallest attached position (at the right end when the bundle is
        empty), and — when the body preserves wire count — a restore Perm
        scatters the outputs back over the original attached positions so
        that passthrough wires keep their exact positions. Identity perms are
        never emitted.

        Returns the output bundle, over fresh labels. ``dom`` is unchanged.
        """
        attach_labels = flatten_bundle(attach)
        port_labels = flatten_bundle(boxed.inputs)
        if len(attach_labels) != len(port_labels):
            raise WireTypeMismatch(
                f"bundle of {len(attach_labels)} wires applied to circuit "
                f"expecting {len(port_labels)}")
        if len(set(attach_labels)) != len(attach_labels):
            raise WireTypeMismatch(f"duplicate label in bundle {show_bundle(attach)}")

        entries, n = self.entries, len(self.entries)
        positions = []
        for a in attach_labels:
            if a not in self.pos:
                raise LabelNotFound(f"label {a} not in context {self.context()}")
            positions.append(self.pos[a])
        ports = [boxed.in_ctx.position(p) for p in port_labels]
        for a, i, j in zip(attach_labels, positions, ports):
            want, got = boxed.in_ctx.entries[j][1], entries[i][1]
            if want != got:
                raise WireTypeMismatch(f"wire {a} is {got}, circuit expects {want}")

        m = len(positions)
        m2 = len(boxed.body.cod)
        q = min(positions) if m else n

        # gather: attached wire j goes to block slot q + (port position of its
        # partner label); passthrough wires fill the remaining slots in order.
        dest: list[int | None] = [None] * n
        for i, j in zip(positions, ports):
            dest[i] = q + j
        free = itertools.chain(range(q), range(q + m, n))
        gather = Perm(tuple(next(free) if d is None else d for d in dest))

        steps: list[Step] = []
        if not gather.is_identity():
            steps.append(gather)
        steps.extend(_whisker_steps(boxed.body.steps, q, n - q - m))
        keep_slots = m2 == m and m > 0
        if keep_slots:
            # restore: block output j (now at q + j) goes to the j-th smallest
            # attached position, passthrough wires back to their own.
            slots = sorted(positions)
            attached = set(positions)
            rest = [i for i in range(q, n) if i not in attached]
            restore = Perm((*range(q), *slots, *rest))
            if not restore.is_identity():
                steps.append(restore)

        cod = self.cod
        for step in steps:
            cod = step.cod(cod)
        self.cod = cod
        self.steps.extend(steps)
        self._circuit = self._ctx = None

        fresh = [(next(self.supply), t) for _, t in boxed.out_ctx.entries]
        if keep_slots:
            for a in attach_labels:
                del self.pos[a]
            for i, e in zip(slots, fresh):
                entries[i] = e
                self.pos[e[0]] = i
        else:
            gone = set(attach_labels)
            passthrough = [e for e in entries if e[0] not in gone]
            self.entries = passthrough[:q] + fresh + passthrough[q:]
            self.pos = {l: i for i, (l, _) in enumerate(self.entries)}
        mapping = {
            old: new for (old, _), (new, _) in zip(boxed.out_ctx.entries, fresh)
        }
        return rename_bundle(boxed.outputs, mapping)


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def serialize(c: Circuit) -> bytes:
    """Encode a circuit as canonical JSON (outputs included for readability)."""
    steps: list[dict] = []
    for step in c.steps:
        if isinstance(step, Layer):
            steps.append({
                "layer": [{"gate": g.name, "at": at} for g, at in step.placements]
            })
        else:
            steps.append({"perm": list(step.perm)})
    doc = {
        "inputs": [str(t) for t in c.dom],
        "steps": steps,
        "outputs": [str(t) for t in c.cod],
    }
    return json.dumps(doc, indent=2).encode("utf-8")


def _wire_type(name: str) -> WireType:
    for t in WireType:
        if t.value == name:
            return t
    raise ParseError(f"unknown wire type {name!r}")


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
    dom = tuple(_wire_type(t) for t in doc["inputs"])
    steps: list[Step] = []
    for i, entry in enumerate(doc["steps"]):
        try:
            if "layer" in entry:
                placements = tuple(
                    (registry.gate(p["gate"]), int(p["at"])) for p in entry["layer"]
                )
                steps.append(Layer(placements))
            elif "perm" in entry:
                steps.append(Perm(tuple(int(x) for x in entry["perm"])))
            else:
                raise ParseError(f"step {i}: neither 'layer' nor 'perm'")
        except (KeyError, TypeError, ValueError) as e:
            raise ParseError(f"step {i}: {e}") from e
        except UnknownGate as e:
            raise ParseError(f"step {i}: {e}") from e
        except ObjectMismatch as e:
            raise ParseError(f"step {i}: {e}") from e
    try:
        circuit = Circuit(dom, tuple(steps))
    except ObjectMismatch as e:
        raise ParseError(f"ill-typed circuit: {e}") from e
    if "outputs" in doc:
        outs = tuple(_wire_type(t) for t in doc["outputs"])
        if outs != circuit.cod:
            raise ParseError(
                f"declared outputs {doc['outputs']} disagree with derived "
                f"{[str(t) for t in circuit.cod]}")
    return circuit


# --------------------------------------------------------------------------
# drawing
# --------------------------------------------------------------------------

def draw(c: Circuit, in_ctx: LabelContext | None = None) -> str:
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
    if in_ctx is not None:
        prefix = {i: f"{l}:{t} " for i, (l, t) in enumerate(in_ctx.entries)}
    else:
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
