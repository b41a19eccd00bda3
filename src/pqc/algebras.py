"""Circuit algebras: compositional resource abstractions of circuits.

An algebra assigns to every circuit object an *algebra object* and to every
circuit a morphism between them (an ``Effect``), such that composition,
identities, whiskering and symmetry are preserved on the nose, and morphisms
carry a preorder (``leq``) with joins where the order is a lattice.

Whiskering is one two-sided primitive per algebra, ``whisker_eff(l, e, r)``:
``e`` with ``l`` wires passing above it and ``r`` below. There is no tensor
of effects: read premonoidally, a layer is its gates in sequence, each
whiskered by the wires beside it, and ``CircuitAlgebra.abstract`` folds it
that way.

Shipped algebras:

* ``gates``        — total gate count (single object, ℕ, +).
* ``depth-naive``  — number of layers (single object, ℕ, +; every layer maps
                     to 1 regardless of how many gates it holds).
* ``width``        — maximal number of simultaneously live wires; objects are
                     wire counts, composition is max, identity on k wires is k
                     (identity wires are not free), whiskering adds.
* ``depth``        — weighted-path depth as a max-plus triple (A, v, w):
                     A[i,j] bounds input-i→output-j paths, v[i] bounds paths
                     from input i into a dead end (e.g. discard), w[j] bounds
                     paths from an internal source (e.g. init) to output j.
                     ``depth_bound`` is the max entry over all three.
* ``assert``       — assertion-based post-optimization size: objects are
                     qubit counts, morphisms track for every input basis
                     state the set of reachable basis states plus the cost of
                     the gates that cannot be removed given that knowledge.

``TRIVIAL`` (one object, one morphism) is no metric and not in ``ALGEBRAS``:
it is the algebra plain type checking runs over (see ``typecheck``).

The assert cost is stored as a *stage profile* rather than a single number:
stage k remembers, for each input basis state b, the cost of original layer
k on the states reachable from b. Evaluating on a precondition L gives
``cost(L) = Σ_k max_{b∈L} g_k(b)``. On a single layer this collapses to the
familiar (postset, cost) pair with the join law
``e(L₁∪L₂) = (L₁'∪L₂', max(c₁,c₂))``; on composites it is what makes
sequential composition strictly associative (stage concatenation), which a
single running total is not. All-zero stages are dropped, so cost-free steps
(permutations, removable-everywhere gates) never perturb equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .circuits import Circuit, Layer, Obj, Perm, WireType
from .errors import EffectObjectMismatch, UnsupportedWire
from .gates import GateDef, Registry, derive_assert_row
from .tropical import NEG_INF, TropicalMatrix


@dataclass(frozen=True)
class Effect:
    """A morphism of some circuit algebra; the payload type is per-algebra."""

    dom: object
    cod: object
    value: object


class CircuitAlgebra:
    """Interface of a circuit algebra, plus the generic ``abstract`` fold.

    Per algebra: objects (``obj_of``), identities, ``compose_eff``, the one
    whiskering primitive ``whisker_eff``, gate and permutation effects, and
    the order (``leq``, ``join``). A layer needs nothing more: it is its
    gates in sequence, each whiskered by the wires beside it.
    """

    name = "?"
    # False when effects ignore wire positions (obj_of is constant and every
    # permutation's effect is the identity): the checker then skips the
    # wire bookkeeping behind endpoint checks and reorderings
    positional = True

    # --- primitive structure, per algebra --------------------------------
    def obj_of(self, o: Obj):
        raise NotImplementedError

    def identity_effect(self, o) -> Effect:
        raise NotImplementedError

    def compose_eff(self, e1: Effect, e2: Effect) -> Effect:
        raise NotImplementedError

    def whisker_eff(self, left, e: Effect, right) -> Effect:
        """``e`` with ``left`` wires passing above it and ``right`` below."""
        raise NotImplementedError

    def leq(self, e1: Effect, e2: Effect) -> bool:
        raise NotImplementedError

    def join(self, e1: Effect, e2: Effect) -> Effect:
        raise NotImplementedError

    def gate_effect(self, gdef: GateDef) -> Effect:
        raise NotImplementedError

    def perm_effect(self, perm: tuple[int, ...], o: Obj) -> Effect:
        raise NotImplementedError

    def value_json(self, e: Effect):
        """JSON-friendly rendering of the payload."""
        return e.value

    def bound_of(self, e: Effect) -> float:
        """Collapse an effect to the scalar it promises to stay under."""
        raise NotImplementedError

    def from_bound(self, dom: Obj, cod: Obj, n: Optional[int]) -> Optional[Effect]:
        """The coarsest effect between these endpoints with bound n.

        Used to give meaning to scalar ascriptions on function and circuit
        types: anything we later learn about the actual body must sit below
        this effect. Without a bound (n is None) nothing is known and the
        answer is None.
        """
        return None if n is None else self.coarsest(dom, cod, n)

    def coarsest(self, dom: Obj, cod: Obj, n: int) -> Effect:
        """``from_bound`` for a given bound."""
        raise NotImplementedError

    # --- derived ----------------------------------------------------------
    def _require_endpoints(self, e1: Effect, e2: Effect, what: str) -> None:
        if e1.dom != e2.dom or e1.cod != e2.cod:
            raise EffectObjectMismatch(
                f"{what} needs equal endpoints: "
                f"{e1.dom}→{e1.cod} vs {e2.dom}→{e2.cod}")

    def abstract(self, c: Circuit, registry: Registry) -> Effect:
        """The algebra's image of a circuit: a fold over its gates.

        ``cur`` is the object the next gate meets, and the gate is whiskered
        by the wires of ``cur`` beside it. Gates that change the wire count
        (init, discard) shift the later placements of their layer.
        """
        eff = self.identity_effect(self.obj_of(c.dom))
        cur = c.dom
        for step in c.steps:
            if isinstance(step, Perm):
                eff = self.compose_eff(eff, self.perm_effect(step.perm, cur))
                cur = step.cod(cur)
                continue
            shift = 0
            for gate, at in step.placements:
                lo = at + shift
                hi = lo + len(gate.dom)
                eff = self.compose_eff(eff, self.whisker_eff(
                    self.obj_of(cur[:lo]),
                    self.gate_effect(registry.lookup(gate.name)),
                    self.obj_of(cur[hi:])))
                cur = cur[:lo] + gate.cod + cur[hi:]
                shift += len(gate.cod) - len(gate.dom)
        return eff


# --------------------------------------------------------------------------
# scalar algebras: gate count and naive depth
# --------------------------------------------------------------------------

class _ScalarAlgebra(CircuitAlgebra):
    """Common carrier: single object "*", morphisms ℕ, compose = +."""

    positional = False

    def obj_of(self, o: Obj):
        return "*"

    def identity_effect(self, o) -> Effect:
        return Effect("*", "*", 0)

    def compose_eff(self, e1, e2) -> Effect:
        return Effect("*", "*", e1.value + e2.value)

    def whisker_eff(self, left, e, right) -> Effect:
        return e

    def leq(self, e1, e2) -> bool:
        return e1.value <= e2.value

    def join(self, e1, e2) -> Effect:
        return Effect("*", "*", max(e1.value, e2.value))

    def perm_effect(self, perm, o) -> Effect:
        return Effect("*", "*", 0)

    def bound_of(self, e) -> float:
        return e.value

    def coarsest(self, dom, cod, n: int) -> Effect:
        return Effect("*", "*", n)


class GateCountAlgebra(_ScalarAlgebra):
    name = "gates"

    def gate_effect(self, gdef: GateDef) -> Effect:
        return Effect("*", "*", gdef.count)


class NaiveDepthAlgebra(_ScalarAlgebra):
    name = "depth-naive"

    def gate_effect(self, gdef: GateDef) -> Effect:
        return Effect("*", "*", 1)

    def abstract(self, c, registry) -> Effect:
        # a layer is one time step however many gates it holds
        return Effect("*", "*", sum(isinstance(s, Layer) for s in c.steps))


class TrivialAlgebra(_ScalarAlgebra):
    """One object, one morphism: the algebra plain type checking runs over.

    Every effect is ``Effect("*", "*", 0)``, so effect inference over it is
    exactly linear typing. Unlike the resource algebras it answers
    ``from_bound`` without a bound, so unannotated arrows, circuits and
    thunks check. It measures nothing and is not in ``ALGEBRAS``.
    """

    name = "trivial"

    def gate_effect(self, gdef: GateDef) -> Effect:
        return Effect("*", "*", 0)

    def from_bound(self, dom, cod, n) -> Effect:
        return Effect("*", "*", 0)


# --------------------------------------------------------------------------
# width
# --------------------------------------------------------------------------

class WidthAlgebra(CircuitAlgebra):
    """Peak number of live wires. Identity on k wires costs k."""

    name = "width"

    def obj_of(self, o: Obj) -> int:
        return len(o)

    def identity_effect(self, o: int) -> Effect:
        return Effect(o, o, o)

    def compose_eff(self, e1, e2) -> Effect:
        if e1.cod != e2.dom:
            raise EffectObjectMismatch(f"width compose: {e1.cod} vs {e2.dom}")
        return Effect(e1.dom, e2.cod, max(e1.value, e2.value))

    def whisker_eff(self, left: int, e, right: int) -> Effect:
        return Effect(left + e.dom + right, left + e.cod + right,
                      left + e.value + right)

    def leq(self, e1, e2) -> bool:
        self._require_endpoints(e1, e2, "width leq")
        return e1.value <= e2.value

    def join(self, e1, e2) -> Effect:
        self._require_endpoints(e1, e2, "width join")
        return Effect(e1.dom, e1.cod, max(e1.value, e2.value))

    def gate_effect(self, gdef: GateDef) -> Effect:
        d, c = len(gdef.gate.dom), len(gdef.gate.cod)
        return Effect(d, c, max(d, c))

    def perm_effect(self, perm, o: Obj) -> Effect:
        return self.identity_effect(len(o))

    def bound_of(self, e) -> float:
        return e.value

    def coarsest(self, dom, cod, n: int) -> Effect:
        return Effect(len(dom), len(cod), n)


# --------------------------------------------------------------------------
# weighted depth (max-plus triples)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DepthTriple:
    """(A, v, w): path-weight bounds input→output, input→sink, source→output."""

    a: TropicalMatrix
    v: TropicalMatrix  # 1 × dom
    w: TropicalMatrix  # cod × 1

    def __post_init__(self):
        k1, k2 = self.a.shape
        if self.v.shape != (1, k1):
            raise EffectObjectMismatch(f"v must be 1×{k1}, got {self.v.shape}")
        if self.w.shape != (k2, 1):
            raise EffectObjectMismatch(f"w must be {k2}×1, got {self.w.shape}")

    def max_entry(self) -> float:
        return max(self.a.max_entry(), self.v.max_entry(), self.w.max_entry())


def depth_bound(e: Effect) -> float:
    """Max entry over all three components (−∞ for the empty triple)."""
    return e.value.max_entry()


class DepthAlgebra(CircuitAlgebra):
    name = "depth"

    def obj_of(self, o: Obj) -> int:
        return len(o)

    def identity_effect(self, k: int) -> Effect:
        return Effect(k, k, DepthTriple(
            TropicalMatrix.eye(k),
            TropicalMatrix.zeros(1, k),
            TropicalMatrix.zeros(k, 1)))

    def compose_eff(self, e1, e2) -> Effect:
        if e1.cod != e2.dom:
            raise EffectObjectMismatch(f"depth compose: {e1.cod} vs {e2.dom}")
        t1: DepthTriple = e1.value
        t2: DepthTriple = e2.value
        a = t1.a.matmul(t2.a)
        # longest path into a sink: already in the first part, or cross into
        # the second part and die there.
        v = t1.v.pointwise_max(
            TropicalMatrix(t1.a.matmul(TropicalMatrix(t2.v.data.T)).data.T))
        # longest path from a source: born in the second part, or born in the
        # first and threaded through the second.
        w = t2.w.pointwise_max(
            TropicalMatrix(TropicalMatrix(t1.w.data.T).matmul(t2.a).data.T))
        return Effect(e1.dom, e2.cod, DepthTriple(a, v, w))

    def whisker_eff(self, left: int, e, right: int) -> Effect:
        # passing wires are identity blocks; they neither start nor end paths
        t: DepthTriple = e.value
        a = TropicalMatrix.eye(left).direct_sum(t.a).direct_sum(TropicalMatrix.eye(right))
        v = np.full((1, left + e.dom + right), NEG_INF)
        v[0, left:left + e.dom] = t.v.data[0]
        w = np.full((left + e.cod + right, 1), NEG_INF)
        w[left:left + e.cod, 0] = t.w.data[:, 0]
        return Effect(left + e.dom + right, left + e.cod + right,
                      DepthTriple(a, TropicalMatrix(v), TropicalMatrix(w)))

    def leq(self, e1, e2) -> bool:
        self._require_endpoints(e1, e2, "depth leq")
        return (e1.value.a.leq(e2.value.a)
                and e1.value.v.leq(e2.value.v)
                and e1.value.w.leq(e2.value.w))

    def join(self, e1, e2) -> Effect:
        self._require_endpoints(e1, e2, "depth join")
        return Effect(e1.dom, e1.cod, DepthTriple(
            e1.value.a.pointwise_max(e2.value.a),
            e1.value.v.pointwise_max(e2.value.v),
            e1.value.w.pointwise_max(e2.value.w)))

    def gate_effect(self, gdef: GateDef) -> Effect:
        d, c = len(gdef.gate.dom), len(gdef.gate.cod)
        weight = float(gdef.depth)
        a = TropicalMatrix(np.full((d, c), weight))
        v = TropicalMatrix(np.full((1, d), weight if c == 0 else NEG_INF))
        w = TropicalMatrix(np.full((c, 1), weight if d == 0 else NEG_INF))
        return Effect(d, c, DepthTriple(a, v, w))

    def perm_effect(self, perm, o: Obj) -> Effect:
        k = len(o)
        return Effect(k, k, DepthTriple(
            TropicalMatrix.permutation(perm),
            TropicalMatrix.zeros(1, k),
            TropicalMatrix.zeros(k, 1)))

    def value_json(self, e: Effect):
        t: DepthTriple = e.value
        return {
            "A": t.a.tolists(),
            "v": t.v.tolists()[0] if t.v.data.size else [],
            "w": [row[0] for row in t.w.tolists()],
        }

    def bound_of(self, e) -> float:
        return depth_bound(e)

    def coarsest(self, dom, cod, n: int) -> Effect:
        d, c = len(dom), len(cod)
        return Effect(d, c, DepthTriple(
            TropicalMatrix(np.full((d, c), float(n))),
            TropicalMatrix(np.full((1, d), float(n))),
            TropicalMatrix(np.full((c, 1), float(n)))))


# --------------------------------------------------------------------------
# assertion-based size
# --------------------------------------------------------------------------

Stage = tuple[tuple[str, int], ...]       # sorted (basis, cost>0) pairs


@dataclass(frozen=True)
class StageCosts:
    stages: tuple[Stage, ...]


@dataclass(frozen=True)
class MaxCost:
    children: tuple["CostNode", ...]


@dataclass(frozen=True)
class SumCost:
    parts: tuple["CostNode", ...]


CostNode = Union[StageCosts, MaxCost, SumCost]


def _mk_stage(costs: Mapping[str, int]) -> Stage:
    return tuple(sorted((b, c) for b, c in costs.items() if c > 0))


def _mk_stages(stages) -> StageCosts:
    return StageCosts(tuple(s for s in stages if s))


def _mk_sum(parts: list[CostNode]) -> CostNode:
    flat: list[CostNode] = []
    for p in parts:
        if isinstance(p, SumCost):
            flat.extend(p.parts)
        else:
            flat.append(p)
    merged: list[CostNode] = []
    for p in flat:
        if (merged and isinstance(p, StageCosts)
                and isinstance(merged[-1], StageCosts)):
            merged[-1] = StageCosts(merged[-1].stages + p.stages)
        elif isinstance(p, StageCosts) and not p.stages:
            continue
        else:
            merged.append(p)
    if not merged:
        return StageCosts(())
    if len(merged) == 1:
        return merged[0]
    return SumCost(tuple(merged))


def _stage_value(stage: Stage, states: frozenset[str]) -> int:
    return max((c for b, c in stage if b in states), default=0)


def eval_cost(node: CostNode, states: frozenset[str]) -> int:
    if isinstance(node, StageCosts):
        return sum(_stage_value(s, states) for s in node.stages)
    if isinstance(node, MaxCost):
        return max((eval_cost(ch, states) for ch in node.children), default=0)
    return sum(eval_cost(p, states) for p in node.parts)


def _pullback(node: CostNode, evo: Mapping[str, frozenset[str]]) -> CostNode:
    if isinstance(node, StageCosts):
        stages = []
        for stage in node.stages:
            lut = dict(stage)
            stages.append(_mk_stage(
                {b: max((lut.get(y, 0) for y in post), default=0)
                 for b, post in evo.items()}))
        return _mk_stages(stages)
    if isinstance(node, MaxCost):
        return MaxCost(tuple(_pullback(ch, evo) for ch in node.children))
    return _mk_sum([_pullback(p, evo) for p in node.parts])


@dataclass(frozen=True, eq=False)
class AssertValue:
    """Singleton postset table plus the staged cost profile."""

    rows: Mapping[str, frozenset[str]]
    cost: CostNode

    def __eq__(self, other):
        return (isinstance(other, AssertValue)
                and dict(self.rows) == dict(other.rows)
                and self.cost == other.cost)

    def apply(self, states: frozenset[str] | set[str]) -> tuple[frozenset[str], int]:
        """Postset and cost on a precondition set of basis states."""
        states = frozenset(states)
        post = frozenset().union(*(self.rows[b] for b in states)) if states else frozenset()
        return post, eval_cost(self.cost, states)


def _bitstrings(n: int) -> list[str]:
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


_ASSERT_LEQ_MAX_BITS = 4


class AssertAlgebra(CircuitAlgebra):
    """Qubit-only: tracks reachable basis sets and non-removable gate cost."""

    name = "assert"

    def obj_of(self, o: Obj) -> int:
        for t in o:
            if t is not WireType.QUBIT:
                raise UnsupportedWire(f"assert algebra cannot track {t} wires")
        return len(o)

    def identity_effect(self, k: int) -> Effect:
        rows = {b: frozenset({b}) for b in _bitstrings(k)}
        return Effect(k, k, AssertValue(rows, StageCosts(())))

    def compose_eff(self, e1, e2) -> Effect:
        if e1.cod != e2.dom:
            raise EffectObjectMismatch(f"assert compose: {e1.cod} vs {e2.dom}")
        v1: AssertValue = e1.value
        v2: AssertValue = e2.value
        rows = {}
        for b, post in v1.rows.items():
            rows[b] = frozenset().union(*(v2.rows[y] for y in post)) if post else frozenset()
        cost = _mk_sum([v1.cost, _pullback(v2.cost, v1.rows)])
        return Effect(e1.dom, e2.cod, AssertValue(rows, cost))

    def whisker_eff(self, left: int, e, right: int) -> Effect:
        # the middle bits of b pick e's row and its costs; the passing bits
        # are copied around every state in that row
        v: AssertValue = e.value
        hi = left + e.dom
        rows = {}
        pull: dict[str, frozenset[str]] = {}
        for b in _bitstrings(hi + right):
            old = b[left:hi]
            rows[b] = frozenset(b[:left] + y + b[hi:] for y in v.rows[old])
            pull[b] = frozenset({old})
        return Effect(hi + right, left + e.cod + right,
                      AssertValue(rows, _pullback(v.cost, pull)))

    def _cost_table(self, node: CostNode, singles: list[str]) -> np.ndarray:
        """eval_cost over every subset of ``singles`` (index = bitmask)."""
        nmask = 1 << len(singles)
        if isinstance(node, StageCosts):
            out = np.zeros(nmask)
            for stage in node.stages:
                lut = dict(stage)
                g = [lut.get(b, 0) for b in singles]
                f = np.zeros(nmask)
                for mask in range(1, nmask):
                    low = mask & -mask
                    f[mask] = max(f[mask ^ low], g[low.bit_length() - 1])
                out += f
            return out
        if isinstance(node, MaxCost):
            tables = [self._cost_table(ch, singles) for ch in node.children]
            return np.maximum.reduce(tables) if tables else np.zeros(nmask)
        return sum((self._cost_table(p, singles) for p in node.parts),
                   np.zeros(nmask))

    def leq(self, e1, e2) -> bool:
        self._require_endpoints(e1, e2, "assert leq")
        v1: AssertValue = e1.value
        v2: AssertValue = e2.value
        if any(not v1.rows[b] <= v2.rows[b] for b in v1.rows):
            return False
        if e1.dom > _ASSERT_LEQ_MAX_BITS:
            raise EffectObjectMismatch(
                f"assert leq is decided exhaustively and supports at most "
                f"{_ASSERT_LEQ_MAX_BITS} input qubits, got {e1.dom}")
        singles = _bitstrings(e1.dom)
        t1 = self._cost_table(v1.cost, singles)
        t2 = self._cost_table(v2.cost, singles)
        return bool(np.all(t1 <= t2))

    def join(self, e1, e2) -> Effect:
        self._require_endpoints(e1, e2, "assert join")
        v1: AssertValue = e1.value
        v2: AssertValue = e2.value
        rows = {b: v1.rows[b] | v2.rows[b] for b in v1.rows}
        if v1.cost == v2.cost:
            cost: CostNode = v1.cost
        else:
            cost = MaxCost((v1.cost, v2.cost))
        return Effect(e1.dom, e1.cod, AssertValue(rows, cost))

    def gate_effect(self, gdef: GateDef) -> Effect:
        d = self.obj_of(gdef.gate.dom)
        c = self.obj_of(gdef.gate.cod)
        rows = {}
        costs = {}
        for b in _bitstrings(d):
            post, cost = derive_assert_row(gdef, b)
            rows[b] = post
            costs[b] = cost
        return Effect(d, c, AssertValue(rows, _mk_stages([_mk_stage(costs)])))

    def perm_effect(self, perm, o: Obj) -> Effect:
        k = self.obj_of(o)

        def route(b: str) -> str:
            out = [""] * k
            for i, j in enumerate(perm):
                out[j] = b[i]
            return "".join(out)

        rows = {b: frozenset({route(b)}) for b in _bitstrings(k)}
        return Effect(k, k, AssertValue(rows, StageCosts(())))

    def value_json(self, e: Effect):
        v: AssertValue = e.value
        return {
            "rows": {b: sorted(post) for b, post in sorted(v.rows.items())},
        }

    def bound_of(self, e) -> float:
        v: AssertValue = e.value
        return eval_cost(v.cost, frozenset(_bitstrings(e.dom)))

    def coarsest(self, dom, cod, n: int) -> Effect:
        full = frozenset(_bitstrings(len(cod)))
        rows = {b: full for b in _bitstrings(len(dom))}
        stage = _mk_stage({b: n for b in _bitstrings(len(dom))})
        return Effect(len(dom), len(cod),
                      AssertValue(rows, _mk_stages([stage])))


# --------------------------------------------------------------------------
# registry of algebras
# --------------------------------------------------------------------------

ALGEBRAS: dict[str, CircuitAlgebra] = {
    a.name: a
    for a in (GateCountAlgebra(), NaiveDepthAlgebra(), WidthAlgebra(),
              DepthAlgebra(), AssertAlgebra())
}


TRIVIAL = TrivialAlgebra()


def algebra(name: str) -> CircuitAlgebra:
    try:
        return ALGEBRAS[name]
    except KeyError:
        raise EffectObjectMismatch(
            f"unknown metric {name!r}; choose from {sorted(ALGEBRAS)}") from None
