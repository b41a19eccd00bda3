"""Independent reference computations the algebras are tested against.

These deliberately avoid the algebra code paths: they walk the concrete
circuit step by step (sequentializing the gates of a layer left to right,
matching the whisker decomposition) and measure paths, live wires, or basis
states directly. ``statevector_oracle`` runs a qubit circuit on amplitudes,
outside the basis-state picture every ``assert`` row lives in, so it can
tell whether an application the rows charge 0 is really the identity
there. ``assert_cost_oracle`` reads an ``assert`` cost one
precondition at a time, without the matrix evaluator. ``perm_effect_oracle``
builds a permutation's effect directly, not by routing wires with
``then_eff``.

``then_eff(alg, eff, at, e)`` is sequencing in functional form: ``eff``,
then ``e`` on some wires of ``eff.cod``, the others passing by.
``compose_eff`` is the case with no wires beside ``e``; ``_placement``
reads and checks ``at``, and ``maxplus`` is the product ``depth``'s case
multiplies by. The library sequences effects only by the algebras' fold
accumulators, so ``then_eff`` is the reference they are checked against:
a sum for the scalar algebras, a max of counts for ``width``, a max-plus
product over the consumed columns for ``depth``, and for ``assert`` one
``AssertFold`` step on a copy of the relation, which is why ``assert`` is
also checked against ``StringAssertAlgebra``. ``then_eff_abstract`` and
``ThenEffFold`` are the folds the algebras' accumulators replaced: one
``then_eff`` per gate, per permutation and per binder, wires found by
position. ``RightFoldChecker`` infers ``let`` and ``dest`` by the rules the
checker's left fold replaced. ``StringAssertAlgebra`` is the ``assert``
algebra on basis strings and dicts, one state at a time, that the algebra
on basis integers replaced. ``ValidatingBuilder`` is the circuit builder
whose ``append`` looks every port up by label, builds both permutations
before asking whether they are identities, and derives the cod of every
step it adds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from generators import depth_triple, tropical_permutation
from pqc.algebras import (
    _ASSERT_LEQ_MAX_BITS, _ASSERT_MAX_COST, AssertAlgebra, AssertFold, AssertValue,
    CircuitAlgebra, Cost, DepthAlgebra, Effect, MaxCost, WidthAlgebra, _depth,
    _require_qubits, _subsets, routing,
)
from pqc.circuits import (
    BoxedCircuit, Bundle, Circuit, Layer, Perm, Step,
    WireType, flatten_bundle, map_bundle, pad_perm, show_bundle,
)
from pqc.errors import (
    EffectError, EffectObjectMismatch, EndpointMismatch, LabelNotFound, ShapeMismatch,
    WireTypeMismatch,
)
from pqc.gates import GateDef, Registry
from pqc.syntax import Block, LetBinder, TensorT, Term, show_type
from pqc.typecheck import EffectChecker

NEG_INF = float("-inf")


def _tadd(x: float, d: float) -> float:
    return NEG_INF if x == NEG_INF else x + d


def depth_paths_oracle(c: Circuit, registry: Registry):
    """Longest anchored gate-weight paths, by forward dynamic programming.

    Returns (A, v, w, s, bound): A[i][j] over input→output paths, v[i] over
    input→dead-end paths, w[j] over created-wire→output paths, s over
    created-wire→dead-end paths, and the max entry (−∞ when there are no
    such paths).
    """
    n0 = len(c.dom)
    # per live wire: longest path from each circuit input, and from any
    # wire-creating gate
    wires = [{"inp": [0.0 if i == j else NEG_INF for i in range(n0)],
              "src": NEG_INF} for j in range(n0)]
    v_acc = [NEG_INF] * n0
    s_acc = NEG_INF

    for step in c.steps:
        if isinstance(step, Perm):
            out = [None] * len(wires)
            for i, j in enumerate(step.perm):
                out[j] = wires[i]
            wires = out
            continue
        if not isinstance(step, Layer):
            raise TypeError(f"not a circuit step: {step!r}")
        new_wires = []
        pos = 0
        for gate, at in step.placements:
            new_wires.extend(wires[pos:at])
            taken = wires[at:at + len(gate.dom)]
            d = float(registry.lookup(gate.name).depth)
            r_in = [max((w["inp"][i] for w in taken), default=NEG_INF)
                    for i in range(n0)]
            s_in = max((w["src"] for w in taken), default=NEG_INF)
            out_state = {
                "inp": [_tadd(x, d) for x in r_in],
                "src": d if not gate.dom else _tadd(s_in, d),
            }
            if not gate.cod:
                v_acc = [max(a, b) for a, b in zip(v_acc, out_state["inp"])]
                s_acc = max(s_acc, out_state["src"])
            new_wires.extend(dict(out_state) for _ in gate.cod)
            pos = at + len(gate.dom)
        new_wires.extend(wires[pos:])
        wires = new_wires

    a = [[wires[j]["inp"][i] for j in range(len(wires))] for i in range(n0)]
    w = [wire["src"] for wire in wires]
    entries = [x for row in a for x in row] + v_acc + w + [s_acc]
    return a, v_acc, w, s_acc, max(entries)


def dag_depth_oracle(c: Circuit, registry: Registry) -> float:
    """The heaviest path through the circuit's gate DAG.

    One node per gate application, weighted by its depth, and one edge per
    wire from the gate that made it to the gate that takes it. A path may
    begin at an input or at any gate and end at an output or at any gate;
    a circuit input is a node of weight 0. −∞ when there are no nodes.
    """
    weight = [0.0] * len(c.dom)  # the inputs come first
    preds: list[list[int]] = [[] for _ in c.dom]
    maker = list(range(len(c.dom)))  # per live wire: the node that made it
    for step in c.steps:
        if isinstance(step, Perm):
            moved = [0] * len(maker)
            for i, j in enumerate(step.perm):
                moved[j] = maker[i]
            maker = moved
            continue
        shift = 0  # a layer's positions are those before it, as it reads them
        for gate, at in step.placements:
            lo = at + shift
            node = len(weight)
            weight.append(float(registry.lookup(gate.name).depth))
            preds.append(maker[lo:lo + len(gate.dom)])
            maker[lo:lo + len(gate.dom)] = [node] * len(gate.cod)
            shift += len(gate.cod) - len(gate.dom)
    heaviest: list[float] = []  # per node, the heaviest path ending at it
    for node, w in enumerate(weight):  # nodes are made in topological order
        heaviest.append(w + max((heaviest[p] for p in preds[node]), default=0.0))
    return max(heaviest, default=NEG_INF)


def width_cuts_oracle(c: Circuit, registry: Registry) -> int:
    """Max live wires over every cut, counting a gate's larger side."""
    live = len(c.dom)
    peak = live
    for step in c.steps:
        if isinstance(step, Perm):
            continue
        for gate, _ in step.placements:
            d, k = len(gate.dom), len(gate.cod)
            peak = max(peak, live - d + max(d, k))
            live = live - d + k
        peak = max(peak, live)
    return peak


def assert_application_costs(c: Circuit, registry: Registry, states: frozenset[str]
                             ) -> tuple[frozenset[str], list[int]]:
    """Forward basis-state simulation over the declared rows.

    Returns the reachable output strings and, for each gate application in
    circuit order (a layer's placements left to right), its cost: the
    largest row cost over the states that reach it.
    """
    cur = set(states)
    costs = []
    for step in c.steps:
        if isinstance(step, Perm):
            nxt = set()
            for b in cur:
                out = [""] * len(step.perm)
                for i, j in enumerate(step.perm):
                    out[j] = b[i]
                nxt.add("".join(out))
            cur = nxt
            continue
        shift = 0  # earlier placements already resized the strings
        for gate, at in step.placements:
            rows = registry.lookup(gate.name).rows
            d = len(gate.dom)
            at_adj = at + shift
            nxt = set()
            stage = 0
            for b in cur:
                post, cost = rows[b[at_adj:at_adj + d]]
                stage = max(stage, cost)
                nxt |= {b[:at_adj] + y + b[at_adj + d:] for y in post}
            cur = nxt
            costs.append(stage)
            shift += len(gate.cod) - d
    return frozenset(cur), costs


def assert_sim_oracle(c: Circuit, registry: Registry,
                      states: frozenset[str]) -> tuple[frozenset[str], int]:
    """Forward basis-state simulation with per-gate surviving-cost maxima."""
    post, costs = assert_application_costs(c, registry, states)
    return post, sum(costs)


# The builtin unitaries on basis states in the registry's order: the first
# wire is the most significant bit.
UNITARIES = {
    "H": np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}
STATEVECTOR_MAX_QUBITS = 5


def statevector_oracle(c: Circuit, drop: frozenset[int] = frozenset()) -> np.ndarray:
    """The state a qubit circuit of H, X, Z, CNOT, ``init`` and ``Perm``
    steps prepares from |0…0⟩, as amplitudes over its output basis states.

    The state is a numpy array with one axis per wire; a gate is a
    ``tensordot`` on its wires and ``init`` stacks a |0⟩ axis in. The gate
    applications numbered in ``drop`` (in ``assert_application_costs``
    order; unitaries only, as dropping ``init`` would remove a wire) are
    left out.
    """
    widths = itertools.accumulate(
        (len(g.cod) - len(g.dom) for step in c.steps if isinstance(step, Layer)
         for g, _ in step.placements), initial=len(c.dom))
    if max(widths) > STATEVECTOR_MAX_QUBITS:
        raise ValueError(f"statevector oracle: over {STATEVECTOR_MAX_QUBITS} qubits")
    psi = np.zeros((2,) * len(c.dom), dtype=complex)
    psi[(0,) * len(c.dom)] = 1
    k = 0
    for step in c.steps:
        if isinstance(step, Perm):
            axes = [0] * len(step.perm)  # output wire j is input wire i
            for i, j in enumerate(step.perm):
                axes[j] = i
            psi = psi.transpose(axes)
            continue
        shift = 0
        for gate, at in step.placements:
            lo = at + shift
            if gate.name == "init":
                psi = np.stack([psi, np.zeros_like(psi)], axis=lo)
            elif k not in drop:
                d = len(gate.dom)
                u = UNITARIES[gate.name].reshape((2,) * (2 * d))
                psi = np.tensordot(u, psi, axes=(range(d, 2 * d), range(lo, lo + d)))
                psi = np.moveaxis(psi, range(d), range(lo, lo + d))
            k += 1
            shift += len(gate.cod) - len(gate.dom)
    return psi.reshape(-1)


def assert_cost_oracle(cost, states: frozenset[str]) -> int:
    """An ``assert`` cost on one set of basis states, item by item.

    The scalar counts when ``states`` is not empty. A stage (a vector of
    costs indexed by basis state) costs its largest entry on ``states``, a
    ``MaxCost`` the largest of its children, and each item counts as many
    times as its multiplicity: the per-state reading that
    ``algebras.eval_cost`` makes on a whole matrix of preconditions at once.
    """
    total = cost.scalar if states else 0
    for item, m in cost.items.items():
        if isinstance(item, MaxCost):
            total += m * max(assert_cost_oracle(ch, states) for ch in item.children)
        else:
            total += m * max((int(item.g[int("0" + b, 2)]) for b in states), default=0)
    return total


def every_subset_costs(cost, n: int) -> np.ndarray:
    """An ``assert`` cost on every subset of n basis states, subset i
    holding state j when bit j of i is set. A stage's max grows one state
    at a time: the subsets that hold state j are those without it, each
    maxed with the stage at j. The scalar counts on every subset but the
    empty one, and each item as many times as its multiplicity."""
    total = np.full(1 << n, cost.scalar, dtype=np.int64)
    total[0] = 0
    for item, k in cost.items.items():
        if isinstance(item, MaxCost):
            total += k * np.maximum.reduce([every_subset_costs(ch, n) for ch in item.children])
            continue
        m = np.zeros(1, dtype=np.int64)
        for j in range(n):
            m = np.concatenate((m, np.maximum(m, item.g[j])))
        total += k * m
    return total


def every_subset_leq_oracle(c1, c2, dom: int) -> bool:
    """Is ``assert`` cost c1 at most c2 on every precondition over ``dom``
    qubits (2^(2^dom) of them, the empty one included)?"""
    n = 1 << dom
    return bool(np.all(every_subset_costs(c1, n) <= every_subset_costs(c2, n)))


def perm_effect_oracle(alg, perm: tuple[int, ...]) -> Effect:
    """The effect of wire i moving to position perm[i], on qubits: a 0/−∞
    permutation matrix under depth, one relabelled basis state per row under
    assert, and the identity under the algebras that ignore positions."""
    k = len(perm)
    if alg.name == "depth":
        return Effect(k, k, depth_triple(tropical_permutation(perm).data,
                                         [NEG_INF] * k, [NEG_INF] * k))
    if alg.name == "assert":
        rows = {}
        for bits in itertools.product("01", repeat=k):
            out = [""] * k
            for i, j in enumerate(perm):
                out[j] = bits[i]
            rows["".join(bits)] = frozenset({"".join(out)})
        reach = np.zeros((1 << k, 1 << k), dtype=bool)
        for b, (y,) in rows.items():
            reach[int("0" + y, 2), int("0" + b, 2)] = True
        return Effect(k, k, AssertValue(reach, Cost()))
    return alg.identity_effect(alg.obj_of((WireType.QUBIT,) * k))


# --------------------------------------------------------------------------
# then_eff: two effects in sequence, the reference for every fold
# --------------------------------------------------------------------------

def maxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The max-plus product of plain arrays (−∞ over an empty inner dimension)."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} ⊙ {b.shape}")
    if a.shape[0] == 0 or b.shape[1] == 0 or a.shape[1] == 0:
        return np.full((a.shape[0], b.shape[1]), NEG_INF)
    # entries are −∞ or finite, so no sum is −∞ + ∞
    return (a[:, :, None] + b[None, :, :]).max(axis=1)


def counts_wires(alg) -> bool:
    """Whether the algebra's objects count wires (the scalar algebras' one
    object is ``"*"``). Read off ``obj_of``, not ``fold``: ``ThenEffFold``
    asks this, and it is the fold of ``ThenEffFolding`` and
    ``StringAssertAlgebra``."""
    return alg.obj_of(()) != "*"


def _placement(alg, eff: Effect, at, e: Effect
               ) -> tuple[int, Optional[tuple[int, ...]], int]:
    """``then_eff``'s ``at``, for objects that count wires, as
    ``(left, route, right)``: ``route`` lists the wires of ``eff.cod`` in
    their new order (None: unchanged), then ``e`` takes the wires after
    the first ``left`` of them and ``right`` wires pass below it."""
    k = eff.cod
    route = None
    if isinstance(at, tuple):
        taken = set(at)
        if (len(taken) != len(at) or len(at) < e.dom
                or any(not 0 <= p < k for p in at)):
            raise EffectObjectMismatch(
                f"{alg.name}: cannot route {at} on {k} wires for {e.dom}")
        if at != tuple(range(len(at))):
            route = at + tuple(p for p in range(k) if p not in taken)
        at = 0
    if not 0 <= at <= k - e.dom:
        raise EffectObjectMismatch(
            f"{alg.name}: no {e.dom} wires after {at} of {k}")
    return at, route, k - at - e.dom


def then_eff(alg, eff: Effect, at, e: Effect) -> Effect:
    """``eff``, then ``e`` on the wires of ``eff.cod`` at ``at``.

    ``at`` is a count, the number of wires above ``e``: ``e`` takes the
    wires after them, its outputs take their place and the wires below
    pass by. Or ``at`` is a route, a tuple of distinct wire positions of
    ``eff.cod``, at least ``e.dom`` of them: those wires move to the top
    in that order, the others follow in theirs, and ``e`` takes the
    first ``e.dom`` wires. Algebras that ignore positions ignore ``at``.
    """
    if not counts_wires(alg):  # the scalar algebras: sequencing adds
        return Effect("*", "*", eff.value + e.value)
    left, route, right = _placement(alg, eff, at, e)
    if isinstance(alg, WidthAlgebra):
        return Effect(eff.dom, left + e.cod + right,
                      max(eff.value, left + e.value + right))
    if isinstance(alg, DepthAlgebra):
        # the wires beside e are identities that neither start nor end paths,
        # so only the columns e consumes change, and the sink column; a route
        # gathers the columns first
        hi, k = left + e.dom, eff.cod
        m, g = eff.value.m, e.value.m
        if route is not None:
            m = m[:, route + (k,)]
        # every row (inputs, then eff's sources) through e: into e's outputs,
        # and into e's sinks
        p = maxplus(m[:, left:hi], g[:-1])
        np.maximum(p[-1], g[-1], out=p[-1])  # sources born in e
        np.maximum(p[:, -1], m[:, k], out=p[:, -1])  # sinks already in eff
        return _depth(eff.dom, left + e.cod + right,
                      np.hstack((m[:, :left], p[:, :-1], m[:, hi:k], p[:, -1:])))
    if isinstance(alg, AssertAlgebra):
        # one step of a fold started on eff (its relation copied, since the
        # fold writes in place), the handles being eff.cod's positions
        t: AssertValue = eff.value
        fold = AssertFold(eff.dom, t.reach.copy(), t.cost)
        wires, hi = list(route or range(eff.cod)), left + e.dom
        return fold.freeze(wires[:left] + fold.place(wires[left:hi], e) + wires[hi:])
    if isinstance(alg, StringAssertAlgebra):
        return _string_then_eff(eff, left, route, right, e)
    raise TypeError(f"no then_eff for the {alg.name} algebra")


def compose_eff(alg, e1: Effect, e2: Effect) -> Effect:
    """``e1`` then ``e2``: ``then_eff`` with no wires beside ``e2``."""
    if e1.cod != e2.dom:
        raise EffectObjectMismatch(f"{alg.name} compose: {e1.cod} vs {e2.dom}")
    return then_eff(alg, e1, 0, e2)


def then_eff_abstract(alg: CircuitAlgebra, c: Circuit, registry: Registry,
                      order: Optional[list[int]] = None) -> Effect:
    """A circuit's image, one ``then_eff`` per gate and a routing with
    nothing placed per permutation, and into ``order`` at the end."""
    eff = alg.identity_effect(alg.obj_of(c.dom))
    unit = alg.identity_effect(alg.obj_of(()))
    for step in c.steps:
        if isinstance(step, Perm):
            eff = then_eff(alg, eff, routing(step.perm), unit)
            continue
        shift = 0
        for gate, at in step.placements:
            eff = then_eff(alg, eff, at + shift, alg.gate_effect(registry.lookup(gate.name)))
            shift += len(gate.cod) - len(gate.dom)
    return eff if order is None else then_eff(alg, eff, tuple(order), unit)


class ThenEffFold:
    """The fold accumulator's interface over ``then_eff``: each step's
    wires found by position, the step placed where it stands when they are
    adjacent and in order, else routed to the top; ``freeze`` always routes
    the outputs into their order, the identity route included. Algebras
    that ignore positions get no handles, as from ``CircuitAlgebra.fold``."""

    def __init__(self, alg: CircuitAlgebra, dom, folding=None):
        self.alg = alg
        self.folding = folding  # a ThenEffFolding to count routed steps on
        self.eff = alg.identity_effect(alg.obj_of(dom))
        self.cols = list(range(len(dom)))
        self.serial = len(dom)
        self.wires = list(self.cols) if counts_wires(alg) else None

    def _at(self, taken) -> tuple[int, ...]:
        return tuple(self.cols.index(w) for w in taken)

    def place(self, taken, e: Effect):
        alg = self.alg
        if self.wires is None:
            self.eff = then_eff(alg, self.eff, 0, e)
            return None
        at = self._at(taken)
        out = list(range(self.serial, self.serial + e.cod))
        self.serial += e.cod
        lo = at[0] if at else len(self.cols)
        if at == tuple(range(lo, lo + len(at))):
            self.eff = then_eff(alg, self.eff, lo, e)
            self.cols[lo:lo + len(at)] = out
        else:
            self.eff = then_eff(alg, self.eff, at, e)
            self.cols = out + [w for w in self.cols if w not in taken]
            if self.folding is not None:
                self.folding.routes += 1
        return out

    def freeze(self, order) -> Effect:
        alg = self.alg
        if self.wires is None:
            return self.eff
        return then_eff(alg, self.eff, self._at(order), alg.identity_effect(alg.obj_of(())))


class ThenEffFolding:
    """An algebra whose fold is ``ThenEffFold`` and whose ``abstract`` is
    ``then_eff_abstract`` (``depth-naive`` keeps its own: its image counts
    layers, not gates); everything else is ``alg``'s. ``routes`` counts
    the steps its folds routed to the top."""

    def __init__(self, alg: CircuitAlgebra):
        self.alg = alg
        self.routes = 0

    def __getattr__(self, name):
        return getattr(self.alg, name)

    def fold(self, dom) -> ThenEffFold:
        return ThenEffFold(self.alg, dom, self)

    def abstract(self, c: Circuit, registry: Registry,
                 order: Optional[list[int]] = None) -> Effect:
        if self.alg.name == "depth-naive":
            return self.alg.abstract(c, registry, order)
        return then_eff_abstract(self.alg, c, registry, order)


class RightFoldChecker(EffectChecker):
    """The checker with ``let`` and ``dest`` inferred as a right fold.

    A block is read one binder at a time: the first binder's bound term is
    inferred, then the whole rest of the block (a block again while
    binders remain), and the two are composed: the context is reordered
    (bound term's entries last) by a permutation effect, the bound term's
    effect is placed after the rest's wires, and the rest's effect is
    composed on. Linearity is checked as each binder's body returns,
    innermost first, and each composed effect's endpoints against the
    wires of the entries it consumes and of its result type, by this
    checker's own comparison (``_check_endpoints``), not the folds'. Every
    other term goes through ``EffectChecker``, whose sub-terms come back
    here.
    """

    def _blocks_obj(self, indices: Sequence[int]):
        return tuple(w for i in indices for w in self.ctx[i].wires)

    def _check_endpoints(self, m: Term, eff: Effect, consumed: Sequence[int],
                         cod, ty) -> None:
        """``eff`` runs from the wires of the ``consumed`` entries to the
        wires ``cod`` of its result type ``ty``."""
        alg = self.alg
        if (eff.dom != alg.obj_of(self._blocks_obj(consumed))
                or eff.cod != alg.obj_of(cod)):
            raise EndpointMismatch(
                f"{alg.name} effect {eff.dom}→{eff.cod} of {type(m).__name__} "
                f"does not run from its consumed wires to its result {show_type(ty)}")

    def _reorder(self, target: Sequence[int]) -> Effect:
        """Permutation effect from context order to the given entry order."""
        alg = self.alg
        unit = alg.identity_effect(alg.obj_of(()))
        if not counts_wires(alg):
            return unit
        ctx = self.ctx
        src = sorted(target)
        dom = self._blocks_obj(src)
        offset, acc = {}, 0
        for i in target:
            offset[i] = acc
            acc += len(ctx[i].wires)
        perm: list[int] = []
        for i in src:
            perm.extend(range(offset[i], offset[i] + len(ctx[i].wires)))
        return then_eff(alg, alg.identity_effect(alg.obj_of(dom)),
                        routing(tuple(perm)), unit)

    def _infer(self, m: Term):
        alg = self.alg
        if not isinstance(m, Block):
            return super()._infer(m)
        b = m.binders[0]
        rest = Block(m.binders[1:], m.tail) if len(m.binders) > 1 else m.tail
        if isinstance(b, LetBinder):
            binfo, bu, be = self._infer(b.bound)
            self._bind(b.var, binfo)
            info, tu, te = self._infer(rest)
            tu = self._pop(1, tu, f"the body of let {b.var}")
            used = self._merge(bu, tu, f"let {b.var}")
            g2 = sorted(tu)
            g1 = sorted(bu)
            eff = compose_eff(
                alg, then_eff(alg, self._reorder(g2 + g1), len(self._blocks_obj(g2)), be),
                te)
        else:
            vt, vu, vo = self.infer_value(b.value)
            if not isinstance(vt, TensorT):
                raise ShapeMismatch(f"dest needs a tensor, got {show_type(vt)}")
            self._bind(b.left, self._info(vt.left))
            self._bind(b.right, self._info(vt.right))
            info, bu, be = self._infer(rest)
            bu = self._pop(2, bu, f"the body of dest ({b.left}, {b.right})")
            used = self._merge(vu, bu, f"dest ({b.left}, {b.right})")
            g2 = sorted(bu)
            eff = compose_eff(alg, self._reorder(g2 + vo), be)
        self._check_endpoints(m, eff, sorted(used), info[1], info[0])
        return info, used, eff


# --------------------------------------------------------------------------
# a circuit builder that validates every step it adds
# --------------------------------------------------------------------------

class ValidatingBuilder:
    """``CircuitBuilder`` with an ``append`` that re-derives every step.

    Same interface and the same circuits, outputs, bundles and errors as
    ``pqc.circuits.CircuitBuilder``, computed without its shortcuts: each
    attached wire's body position is read off the input bundle, the gather
    and restore permutations are built and validated and then dropped when
    they are identities, and the running cod is derived step by step.
    """

    def __init__(self, shape, supply):
        self.supply = supply
        self.dom = self.cod = tuple(flatten_bundle(shape))
        self.entries = [(next(supply), t) for t in self.dom]
        labels = iter([l for l, _ in self.entries])
        self.inputs = map_bundle(shape, lambda t: next(labels))
        self.steps: list[Step] = []
        self.pos = {l: i for i, (l, _) in enumerate(self.entries)}

    def circuit(self) -> Circuit:
        return Circuit(self.dom, tuple(self.steps))

    def outputs(self) -> tuple:
        return tuple(self.entries)

    def append(self, attach: Bundle, boxed: BoxedCircuit) -> Bundle:
        attach_labels = flatten_bundle(attach)
        ports = flatten_bundle(boxed.inputs)
        if len(attach_labels) != len(ports):
            raise WireTypeMismatch(
                f"bundle of {len(attach_labels)} wires applied to circuit "
                f"expecting {len(ports)}")
        if len(set(attach_labels)) != len(attach_labels):
            raise WireTypeMismatch(f"duplicate label in bundle {show_bundle(attach)}")

        entries, n = self.entries, len(self.entries)
        positions = []
        for a in attach_labels:
            if a not in self.pos:
                raise LabelNotFound(f"label {a} is not an open output")
            positions.append(self.pos[a])
        for a, i, j in zip(attach_labels, positions, ports):
            want, got = boxed.body.dom[j], entries[i][1]
            if want != got:
                raise WireTypeMismatch(f"wire {a} is {got}, circuit expects {want}")

        m = len(positions)
        m2 = len(boxed.body.cod)
        q = min(positions) if m else n
        dest: list[Optional[int]] = [None] * n
        for i, j in zip(positions, ports):
            dest[i] = q + j
        free = itertools.chain(range(q), range(q + m, n))
        gather = Perm(tuple(next(free) if d is None else d for d in dest))

        steps: list[Step] = []
        if not gather.is_identity():
            steps.append(gather)
        for step in boxed.body.steps:
            if isinstance(step, Layer):
                steps.append(Layer(tuple((g, at + q) for g, at in step.placements)))
            else:
                steps.append(Perm(pad_perm(step.perm, q, n - q - m)))
        keep_slots = m2 == m and m > 0
        if keep_slots:
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

        fresh = [(next(self.supply), t) for t in boxed.body.cod]
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
        return map_bundle(boxed.outputs, lambda j: fresh[j][0])


# --------------------------------------------------------------------------
# assert on basis strings
# --------------------------------------------------------------------------

StringStage = tuple[tuple[str, int], ...]       # sorted (basis, cost>0) pairs


@dataclass(frozen=True)
class StringMaxCost:
    """The larger of the costs of two branches."""

    children: tuple["StringCost", ...]


StringCost = tuple[Union[StringStage, StringMaxCost], ...]  # items, summed


def _string_stage(costs: Mapping[str, int]) -> StringCost:
    stage = tuple(sorted((b, c) for b, c in costs.items() if c > 0))
    top = max((c for _, c in stage), default=0)
    if top > _ASSERT_MAX_COST:
        raise EffectError(f"assert costs are at most {_ASSERT_MAX_COST}, got {top}")
    return (stage,) if stage else ()


def string_eval_cost(cost: StringCost, pre: np.ndarray) -> np.ndarray:
    """The cost under each row of ``pre`` (one column per input state, by
    its binary value), stage strings parsed as they are read."""
    total = np.zeros(len(pre), dtype=np.int64)
    for item in cost:
        if isinstance(item, StringMaxCost):
            total += np.maximum.reduce(
                [string_eval_cost(ch, pre) for ch in item.children])
        else:
            g = np.zeros(pre.shape[1], dtype=np.int64)
            g[[int("0" + b, 2) for b, _ in item]] = [c for _, c in item]
            total += (pre * g).max(axis=1)
    return total


def _string_pullback(cost: StringCost,
                     evo: Mapping[str, frozenset[str]]) -> StringCost:
    """``cost`` read before ``evo``: a stage costs at b its max over evo[b]."""
    out: list = []
    for item in cost:
        if isinstance(item, StringMaxCost):
            out.append(StringMaxCost(
                tuple(_string_pullback(ch, evo) for ch in item.children)))
        else:
            lut = dict(item)
            zero = itertools.repeat(0)
            out.extend(_string_stage({b: max(map(lut.get, post, zero), default=0)
                                      for b, post in evo.items()}))
    return tuple(out)


class StringAssertValue:
    """Postset table on basis strings plus the staged cost profile."""

    def __init__(self, rows: Mapping[str, frozenset[str]], cost: StringCost):
        self.rows = rows
        self.cost = tuple(cost)

    def apply(self, states) -> tuple[frozenset[str], int]:
        states = frozenset(states)
        post = frozenset().union(*(self.rows[b] for b in states))
        pre = np.zeros((1, len(self.rows)), dtype=bool)
        pre[0, [int("0" + b, 2) for b in states]] = True
        return post, int(string_eval_cost(self.cost, pre)[0])


def _bitstrings(n: int) -> list[str]:
    _require_qubits(n)
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


class _Placed(dict):
    """``rows`` on the bits [lo, hi) of a state whose bits ``route`` reorders
    first (None: no reordering), the other bits passing by; built for a
    state when it is first looked up."""

    def __init__(self, rows: Mapping[str, frozenset[str]], lo: int, hi: int,
                 route: Optional[tuple[int, ...]]):
        self.rows, self.lo, self.hi, self.route = rows, lo, hi, route

    def routed(self, b: str) -> str:
        return b if self.route is None else "".join([b[i] for i in self.route])

    def __missing__(self, b: str) -> frozenset[str]:
        lo, hi = self.lo, self.hi
        r = self.routed(b)
        post = self[b] = frozenset(r[:lo] + y + r[hi:] for y in self.rows[r[lo:hi]])
        return post


def _string_then_eff(eff: Effect, left: int, route: Optional[tuple[int, ...]],
                     right: int, e: Effect) -> Effect:
    """``then_eff`` on basis strings, ``at`` placed by ``_placement``."""
    _require_qubits(eff.cod)
    t: StringAssertValue = eff.value
    v: StringAssertValue = e.value
    hi = left + e.dom
    whole = route is None and left == right == 0
    placed = v.rows if whole else _Placed(v.rows, left, hi, route)
    rows = {b: frozenset().union(*map(placed.__getitem__, post))
            for b, post in t.rows.items()}
    more: StringCost = ()
    if v.cost:
        reached = v.cost if whole else _string_pullback(
            v.cost, {y: frozenset({placed.routed(y)[left:hi]}) for y in placed})
        more = _string_pullback(reached, t.rows)
    return Effect(eff.dom, left + e.cod + right,
                  StringAssertValue(rows, t.cost + more))


class StringAssertAlgebra(CircuitAlgebra):
    """The ``assert`` algebra with rows as dicts from basis strings to sets
    of basis strings and stages as sorted (string, cost) pairs: each state's
    postset is built string by string."""

    name = "assert"
    obj_of = AssertAlgebra.obj_of

    def identity_effect(self, k: int) -> Effect:
        rows = {b: frozenset({b}) for b in _bitstrings(k)}
        return Effect(k, k, StringAssertValue(rows, ()))

    def leq(self, e1, e2) -> bool:
        self._require_endpoints(e1, e2, "assert leq")
        v1: StringAssertValue = e1.value
        v2: StringAssertValue = e2.value
        if any(not v1.rows[b] <= v2.rows[b] for b in v1.rows):
            return False
        if e1.dom > _ASSERT_LEQ_MAX_BITS:
            raise EffectObjectMismatch(
                f"assert leq is decided exhaustively and supports at most "
                f"{_ASSERT_LEQ_MAX_BITS} input qubits, got {e1.dom}")
        pre = _subsets(1 << e1.dom)
        return bool(np.all(string_eval_cost(v1.cost, pre)
                           <= string_eval_cost(v2.cost, pre)))

    def join(self, e1, e2) -> Effect:
        self._require_endpoints(e1, e2, "assert join")
        v1: StringAssertValue = e1.value
        v2: StringAssertValue = e2.value
        rows = {b: v1.rows[b] | v2.rows[b] for b in v1.rows}
        if v1.cost == v2.cost:
            cost = v1.cost
        else:
            cost = (StringMaxCost((v1.cost, v2.cost)),)
        return Effect(e1.dom, e1.cod, StringAssertValue(rows, cost))

    def gate_effect(self, gdef: GateDef) -> Effect:
        d = self.obj_of(gdef.gate.dom)
        c = self.obj_of(gdef.gate.cod)
        rows = {}
        costs = {}
        for b in _bitstrings(d):
            rows[b], costs[b] = gdef.rows[b]
        return Effect(d, c, StringAssertValue(rows, _string_stage(costs)))

    def fold(self, dom) -> ThenEffFold:
        return ThenEffFold(self, dom)

    def value_json(self, e: Effect):
        v: StringAssertValue = e.value
        return {"rows": {b: sorted(post) for b, post in sorted(v.rows.items())}}

    def bound_of(self, e) -> float:
        v: StringAssertValue = e.value
        return int(string_eval_cost(v.cost, np.ones((1, len(v.rows)), dtype=bool))[0])

    def coarsest(self, dom, cod, n: int) -> Effect:
        full = frozenset(_bitstrings(len(cod)))
        rows = {b: full for b in _bitstrings(len(dom))}
        return Effect(len(dom), len(cod),
                      StringAssertValue(rows, _string_stage({b: n for b in rows})))
