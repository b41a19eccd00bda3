"""Circuit algebras: resource abstractions of circuits that compose.

An algebra assigns to every circuit object an *algebra object* and to every
circuit a morphism between them (an ``Effect``), such that composition,
identities, whiskering and symmetry are preserved on the nose, and morphisms
carry a preorder (``leq``) with joins where the order is a lattice.

Sequencing is one primitive per algebra, its fold accumulator (``fold``):
started on some wires, it hands out a handle per wire; ``place(taken, e)``
puts ``e`` on the wires of the handles ``taken``, the other wires passing
by, and returns handles for its outputs; ``freeze(order)`` ends the fold
with the outputs in that order. There is no tensor of effects: read
premonoidally, a layer is its gates in sequence.

A circuit's image and a program's effect are each one fold:
``CircuitAlgebra.abstract`` drives it over a circuit's gates, the checker
over a block's binders. The scalar algebras keep a running sum
(``ScalarFold``) and ``width`` a count; ``depth`` rewrites in place only the
rows of the wires a step consumes, and ``assert`` only the slices of its
relation that the states of those wires pick (``AssertFold``). The tests
check every fold against a functional sequencing of two effects, kept in
``tests/oracles.py`` as the reference.

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
                     The three are stored as one matrix; ``depth_bound`` is
                     its max entry.
* ``assert``       — assertion-based post-optimization size: objects are
                     qubit counts, morphisms track for every input basis
                     state the set of reachable basis states plus the cost of
                     the gates that cannot be removed given that knowledge.

``TRIVIAL`` (one object, one morphism) is no metric and not in ``ALGEBRAS``:
it is the algebra plain type checking runs over (see ``typecheck``).

An assert cost is one normal form (``Cost``): a scalar plus a multiset of
distinct items. A stage is one original gate's charge g(b) for each input
basis state b, read through the states reachable from b; a ``MaxCost`` is
the larger of two branch costs (a join). On a non-empty precondition L the
cost is ``scalar + Σ m·value(item)``, a stage's value being
``max_{b∈L} g(b)``, and on the empty one it is 0; ``eval_cost`` evaluates
many preconditions at once. A stage equal on every state adds to the
scalar, since every relation is total; equal items add to one item's
multiplicity. So an effect grows with the program's distinct charges, not
with its circuit: a boxed doubling of k levels carries a scalar of 2^k,
not 2^k stages. Sums are order-free, so sequential composition is strictly
associative, and cost-free steps (permutations, removable-everywhere
gates) never perturb equality.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .circuits import Circuit, Layer, Obj, Perm, WireType
from .errors import (EffectError, EffectObjectMismatch, EndpointMismatch, UnknownUnitary,
                     UnsupportedWire)
from .gates import GateDef, Registry
from .tropical import NEG_INF, TropicalMatrix


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Effect:
    """A morphism of some circuit algebra; the payload type is per-algebra."""

    dom: object
    cod: object
    value: object


def routing(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The wire each position takes after a permutation step: wire i moves
    to position ``perm[i]``, so position j is routed from wire ``perm⁻¹[j]``."""
    at = [0] * len(perm)
    for i, j in enumerate(perm):
        at[j] = i
    return tuple(at)


class CircuitAlgebra:
    """Interface of a circuit algebra, plus ``abstract``, a fold over gates.

    Per algebra: objects (``obj_of``), identities, gate effects, the order
    (``leq``, ``join``) and the one sequencing primitive, the fold
    accumulator (``fold``).
    """

    name = "?"

    # --- primitive structure, per algebra --------------------------------
    def obj_of(self, o: Obj):
        raise NotImplementedError

    def identity_effect(self, o) -> Effect:
        raise NotImplementedError

    def leq(self, e1: Effect, e2: Effect) -> bool:
        raise NotImplementedError

    def join(self, e1: Effect, e2: Effect) -> Effect:
        raise NotImplementedError

    def gate_effect(self, gdef: GateDef) -> Effect:
        raise NotImplementedError

    def value_json(self, e: Effect):
        """JSON-friendly rendering of the payload."""
        return e.value

    def bound_of(self, e: Effect) -> float:
        """Collapse an effect to the scalar it promises to stay under."""
        return e.value

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

    def _require_endpoints(self, e1: Effect, e2: Effect, what: str) -> None:
        if e1.dom != e2.dom or e1.cod != e2.cod:
            raise EffectObjectMismatch(
                f"{what} needs equal endpoints: "
                f"{e1.dom}→{e1.cod} vs {e2.dom}→{e2.cod}")

    def fold(self, dom: Obj):
        """A fold accumulator started on the wires ``dom``.

        ``wires`` holds handles of its wires (None in algebras that ignore
        positions, whose effects have no endpoints). ``place(taken, e)`` puts
        ``e`` on the wires of those handles, refusing other than ``e.dom`` of
        them, and returns handles for its outputs; ``freeze(order)`` ends
        the fold with the outputs in that order.
        """
        raise NotImplementedError

    def abstract(self, c: Circuit, registry: Registry,
                 order: Optional[list[int]] = None) -> Effect:
        """The algebra's image of a circuit: its gates placed one by one on
        the fold accumulator. ``wires`` holds the handle of the wire at each
        position, which a permutation only reorders. Gates that change the
        wire count (init, discard) shift the later placements of their layer.
        ``order`` lists the output positions in the order the image returns
        them (None: as the circuit leaves them). A gate effect with other
        outputs than its gate's leaves a wire count that the next
        permutation, or the circuit's end, refuses (``EndpointMismatch``).
        """
        fold = self.fold(c.dom)
        wires = fold.wires
        gate_effect = functools.cache(  # built once per gate name
            lambda name: self.gate_effect(registry.lookup(name)))
        for step in c.steps:
            if isinstance(step, Perm):
                if len(wires) != len(step.perm):
                    raise EndpointMismatch(f"{self.name} gate effects leave {len(wires)} "
                                           f"wires where a permutation has {len(step.perm)}")
                wires = [wires[i] for i in routing(step.perm)]
                continue
            shift = 0
            for gate, at in step.placements:
                lo, d = at + shift, len(gate.dom)
                wires[lo:lo + d] = fold.place(wires[lo:lo + d], gate_effect(gate.name))
                shift += len(gate.cod) - d
        if len(wires) != len(c.cod):
            raise EndpointMismatch(f"{self.name} gate effects leave {len(wires)} "
                                   f"wires where the circuit's end has {len(c.cod)}")
        return fold.freeze(wires if order is None else [wires[i] for i in order])


# --------------------------------------------------------------------------
# scalar algebras: gate count and naive depth
# --------------------------------------------------------------------------

class _ScalarAlgebra(CircuitAlgebra):
    """Common carrier: single object "*", morphisms ℕ, sequencing = +."""

    def obj_of(self, o: Obj):
        return "*"

    def identity_effect(self, o) -> Effect:
        return Effect("*", "*", 0)

    def leq(self, e1, e2) -> bool:
        return e1.value <= e2.value

    def join(self, e1, e2) -> Effect:
        return Effect("*", "*", max(e1.value, e2.value))

    def coarsest(self, dom, cod, n: int) -> Effect:
        return Effect("*", "*", n)

    def fold(self, dom) -> "ScalarFold":
        return ScalarFold()

    def abstract(self, c, registry, order=None) -> Effect:
        # positions do not matter, and sequencing adds: the gates' values
        value = functools.cache(  # read once per gate name
            lambda name: self.gate_effect(registry.lookup(name)).value)
        return Effect("*", "*", sum(value(gate.name) for step in c.steps
                                    if isinstance(step, Layer)
                                    for gate, _ in step.placements))


class ScalarFold:
    """The scalar algebras' fold accumulator: a running sum. Positions do
    not matter, so it hands out no handles."""

    wires = None

    def __init__(self):
        self.total = 0

    def place(self, taken, e: Effect) -> None:
        self.total += e.value

    def freeze(self, order) -> Effect:
        return Effect("*", "*", self.total)


class GateCountAlgebra(_ScalarAlgebra):
    name = "gates"

    def gate_effect(self, gdef: GateDef) -> Effect:
        return Effect("*", "*", gdef.count)


class NaiveDepthAlgebra(_ScalarAlgebra):
    name = "depth-naive"

    def gate_effect(self, gdef: GateDef) -> Effect:
        return Effect("*", "*", 1)

    def abstract(self, c, registry, order=None) -> Effect:
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

    def leq(self, e1, e2) -> bool:
        self._require_endpoints(e1, e2, "width leq")
        return e1.value <= e2.value

    def join(self, e1, e2) -> Effect:
        self._require_endpoints(e1, e2, "width join")
        return Effect(e1.dom, e1.cod, max(e1.value, e2.value))

    def gate_effect(self, gdef: GateDef) -> Effect:
        d, c = len(gdef.gate.dom), len(gdef.gate.cod)
        return Effect(d, c, max(d, c))

    def coarsest(self, dom, cod, n: int) -> Effect:
        return Effect(len(dom), len(cod), n)

    def fold(self, dom: Obj) -> "WidthFold":
        return WidthFold(dom)


class WidthFold:
    """Width's fold accumulator: the live-wire count and the running peak.
    Which wires a step takes does not matter, so handles are placeholders.
    Freezing routes the outputs, and a route counts them: a width under its
    wire count (a small ascribed bound) is raised to it.
    """

    def __init__(self, dom: Obj):
        self.dom = self.live = self.peak = len(dom)
        self.wires = [None] * len(dom)

    def place(self, taken: list, e: Effect) -> list:
        if len(taken) != e.dom:
            raise EndpointMismatch(f"width effect {e.dom}→{e.cod} put on {len(taken)} wires")
        rest = self.live - e.dom
        self.peak, self.live = max(self.peak, rest + e.value), rest + e.cod
        return [None] * e.cod

    def freeze(self, order: list) -> Effect:
        return Effect(self.dom, self.live, max(self.peak, self.live))


# --------------------------------------------------------------------------
# weighted depth (max-plus triples)
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DepthTriple:
    """(A, v, w) as one read-only max-plus matrix ``m`` of shape
    (dom+1)×(cod+1), floats with −∞ for "no path".

    ``m[:dom, :cod]`` is A (input→output), the last column is v
    (input→sink), the last row is w (source→output), and the corner holds
    the paths from a created wire into a dead end (source→sink). ``a``,
    ``v`` (1 × dom) and ``w`` (cod × 1) are rendered from ``m`` on read.
    ``weight`` is set on a gate's effect only: each of its inputs reaches
    each of its outputs with that weight (see ``DepthAlgebra``).
    """

    m: np.ndarray
    weight: Optional[float] = None

    def __eq__(self, other):
        return isinstance(other, DepthTriple) and np.array_equal(self.m, other.m)

    @property
    def a(self) -> TropicalMatrix:
        return TropicalMatrix(self.m[:-1, :-1])

    @property
    def v(self) -> TropicalMatrix:
        return TropicalMatrix(self.m[:-1, -1:].T)

    @property
    def w(self) -> TropicalMatrix:
        return TropicalMatrix(self.m[-1:, :-1].T)


# Finite entries are integers held in floats, which count exactly only below
# 2^53. Gate weights are capped like assert costs, and an effect holding an
# entry of 2^53 or more is refused, not reported rounded down.
_DEPTH_MAX_WEIGHT = 2**31 - 1
_DEPTH_EXACT = 2.0**53


def _depth_weight(gdef: GateDef) -> float:
    if gdef.depth > _DEPTH_MAX_WEIGHT:
        raise EffectError(
            f"depth weights are at most {_DEPTH_MAX_WEIGHT}, "
            f"got {gdef.depth} for gate {gdef.name}")
    return float(gdef.depth)


def depth_bound(e: Effect) -> float:
    """Max entry over A, v, w and the corner: the longest path, from an
    input or a created wire to an output or a dead end (−∞ when there are
    no paths).

    Raises ``EffectError`` when an entry is 2^53 or more: floats cannot
    count such a path exactly, so the bound could be too small.
    """
    b = float(e.value.m.max())  # m has its corner, so it is never empty
    if b >= _DEPTH_EXACT:
        raise EffectError(
            f"depth entries must stay below 2^53 to be counted exactly, got {b:.0f}")
    return b


def _depth(dom: int, cod: int, m: np.ndarray,
           weight: Optional[float] = None) -> Effect:
    return Effect(dom, cod, DepthTriple(_frozen(m), weight))


class DepthAlgebra(CircuitAlgebra):
    """Weighted-path depth as one max-plus matrix per effect.

    Every gate effect is uniform: each of the gate's inputs reaches each of
    its outputs with the same weight, ``GateDef.depth``. A gate without
    inputs starts paths of that weight at its outputs (the source row), a
    gate without outputs ends them in the sink column, and a gate with
    neither is a path of its own, in the corner. The fold (``DepthFold``)
    relies on this: a gate's outputs all get the max of the rows it
    consumes plus its weight.
    """

    name = "depth"

    def obj_of(self, o: Obj) -> int:
        return len(o)

    def identity_effect(self, k: int) -> Effect:
        m = np.full((k + 1, k + 1), NEG_INF)
        m[range(k), range(k)] = 0.0
        return _depth(k, k, m)

    def fold(self, dom: Obj) -> "DepthFold":
        return DepthFold(dom)

    def leq(self, e1, e2) -> bool:
        self._require_endpoints(e1, e2, "depth leq")
        return bool(np.all(e1.value.m <= e2.value.m))

    def join(self, e1, e2) -> Effect:
        self._require_endpoints(e1, e2, "depth join")
        return _depth(e1.dom, e1.cod, np.maximum(e1.value.m, e2.value.m))

    def gate_effect(self, gdef: GateDef) -> Effect:
        d, c = len(gdef.gate.dom), len(gdef.gate.cod)
        w = _depth_weight(gdef)
        m = np.full((d + 1, c + 1), w)
        if c:
            m[:, c] = NEG_INF  # paths end in the outputs, not in a sink
        if d:
            m[d] = NEG_INF  # paths start at the inputs, not at a source
        return _depth(d, c, m, w)

    def value_json(self, e: Effect):
        depth_bound(e)  # refuses entries that floats do not count exactly
        rows = [["-inf" if x == NEG_INF else int(x) for x in row]
                for row in e.value.m.tolist()]
        return {"A": [r[:-1] for r in rows[:-1]],
                "v": [r[-1] for r in rows[:-1]],
                "w": rows[-1][:-1],
                "s": rows[-1][-1]}

    def bound_of(self, e) -> float:
        return depth_bound(e)

    def coarsest(self, dom, cod, n: int) -> Effect:
        if n >= _DEPTH_EXACT:  # float(n) would round it, or overflow
            raise EffectError(
                "depth bounds must stay below 2^53 to be counted exactly")
        return _depth(len(dom), len(cod),
                      np.full((len(dom) + 1, len(cod) + 1), float(n)))


class DepthFold:
    """Depth's fold accumulator, in place.

    ``rows`` holds one row per live wire, and a wire's handle is its row:
    the longest paths into the wire from each outer wire and, last, from a
    source. Row n (n outer wires) is the sink's: the paths into a dead end.
    A step rewrites only the rows it consumes, and the sink: a gate's
    outputs all get the max of its rows plus its weight, and a one-wire
    gate only adds its weight to the row's ``lag``, which the row takes
    when it is next read. Any other effect's outputs and sink get the
    max-plus product of its rows with its matrix, which is the matrix
    itself while the rows are still outer wires' own (``unit``). Rows of
    consumed wires are reused.
    """

    def __init__(self, dom: Obj):
        n = self.n = len(dom)
        self.rows = np.full((n + 1, n + 1), NEG_INF)
        self.rows.flat[:n * (n + 2):n + 2] = 0.0  # each outer wire's own path
        self.lag = [0.0] * (n + 1)
        self.free, self.unit, self.wires = [], set(range(n)), list(range(n))

    def place(self, taken: list[int], e: Effect) -> list[int]:
        t: DepthTriple = e.value
        d, c, n, rows, lag = e.dom, e.cod, self.n, self.rows, self.lag
        if len(taken) != d:
            raise EndpointMismatch(f"depth effect {d}→{c} put on {len(taken)} wires")
        if t.weight is not None and d == c == 1:
            lag[taken[0]] += t.weight
            self.unit.discard(taken[0])
            return taken
        for r in taken:
            if lag[r]:
                rows[r] += lag[r]
                lag[r] = 0.0
        if t.weight is not None and d:
            q = rows[taken[0]].copy()
            for r in taken[1:]:
                np.maximum(q, rows[r], out=q)
            q += t.weight
            new, sink = [q] * c, None if c else q
        else:  # rows of the outputs, then of the sink
            if self.unit.issuperset(taken):  # so too when e takes no wires
                p = np.full((c + 1, n + 1), NEG_INF)
                p[:, taken] = t.m[:d].T
            else:
                p = t.m[0, :, None] + rows[taken[0]]
                for i in range(1, d):
                    np.maximum(p, t.m[i, :, None] + rows[taken[i]], out=p)
            np.maximum(p[:, n], t.m[d], out=p[:, n])  # sources born in e
            new, sink = p[:c], p[c]
        if sink is not None:
            np.maximum(rows[n], sink, out=rows[n])
        self.unit.difference_update(taken)
        self.free += taken[c:]
        out = taken[:c]
        while len(out) < c:
            if not self.free:  # twice the rows
                k = len(self.rows)
                self.rows = np.concatenate((self.rows, np.empty((k, n + 1))))
                self.lag += [0.0] * k
                self.free += range(k, 2 * k)
            out.append(self.free.pop())
        for r, row in zip(out, new):
            self.rows[r] = row
        return out

    def freeze(self, order: list[int]) -> Effect:
        m = self.rows.take(order + [self.n], axis=0)
        lag = [self.lag[r] for r in order]
        if any(lag):
            m[:-1] += np.array(lag)[:, None]
        return _depth(self.n, len(order), m.T)


# --------------------------------------------------------------------------
# assertion-based size
# --------------------------------------------------------------------------

# A basis state of n qubits is an integer below 2^n whose binary digits, the
# first wire's most significant, are the wires' states: numeric order is the
# order of the bitstrings. Strings appear only at the edges (gate rows,
# ``value_json``, ``AssertValue.rows`` and ``apply``).

# Outside weights (gate-spec costs, bounds) are capped, so that a stage's
# entries fit in an int32 and its product with a matrix of preconditions can
# be taken in a narrow type (``eval_cost``). A cost's total is not bounded by
# its size: multiplicities double with each level of a boxed doubling. So
# every ``Cost`` refuses a total of 2^63 or more, and every evaluation, a sum
# of non-negative terms at most that total, fits in an int64.
_ASSERT_MAX_COST = 2**31 - 1


def _weight(c: int) -> int:
    if c > _ASSERT_MAX_COST:
        raise EffectError(f"assert costs are at most {_ASSERT_MAX_COST}, got {c}")
    return c


@dataclass(frozen=True)
class Stage:
    """A cost per input basis state, not all equal: on a precondition it
    costs its largest entry on the precondition's states. Equal by value:
    ``key`` is the bytes of ``g``, a read-only int64 vector."""

    key: bytes
    g: np.ndarray = field(compare=False)
    lo: int = field(compare=False)
    hi: int = field(compare=False)


@dataclass(frozen=True)
class MaxCost:
    """The largest of two or more costs, not all scalars (a join), in the
    order the join was given them."""

    children: tuple["Cost", ...]
    lo: int = field(compare=False)
    hi: int = field(compare=False)


class Cost:
    """An assert cost in normal form: on a non-empty precondition, the
    ``scalar`` plus each distinct item's value times its multiplicity
    (``items`` maps item to multiplicity, all positive); 0 on the empty one.

    ``lo`` and ``hi`` are the least and the largest it reaches on a
    non-empty precondition, summed over its parts; ``hi`` is its cost on
    all input states. Immutable, and equal by its parts.
    """

    __slots__ = ("scalar", "items", "lo", "hi")

    def __init__(self, scalar: int = 0, items: Optional[dict[Stage | MaxCost, int]] = None):
        self.scalar, self.items = scalar, MappingProxyType(items or {})
        self.lo = scalar + sum(m * x.lo for x, m in self.items.items())
        self.hi = scalar + sum(m * x.hi for x, m in self.items.items())
        if self.hi >= 2**63:
            raise EffectError("assert costs must stay below 2^63 to be counted "
                              f"exactly, got {self.hi}")

    def __eq__(self, o):
        return isinstance(o, Cost) and (self.scalar, self.items) == (o.scalar, o.items)

    def __hash__(self):
        return hash((self.scalar, frozenset(self.items.items())))


def _merge(items: dict[Stage | MaxCost, int], c: Cost, m: int) -> int:
    """Add m copies of c's items to ``items``; return m copies of its scalar."""
    for x, k in c.items.items():
        items[x] = items.get(x, 0) + m * k
    return m * c.scalar


def _sum(terms, scalar: int = 0) -> Cost:
    """``scalar`` plus Σ m·c over the pairs (c, m) of ``terms``."""
    items: dict = {}
    return Cost(scalar + sum(_merge(items, c, m) for c, m in terms), items)


def _stage(g: np.ndarray) -> Cost:
    """The cost of one stage with these per-state costs: a scalar if they
    are all equal (every relation is total, so such a stage costs that
    value on every non-empty precondition)."""
    s = Stage(g.tobytes(), _frozen(g), int(g.min()), int(g.max()))
    return Cost(s.lo) if s.lo == s.hi else Cost(0, {s: 1})


def _max(costs) -> Cost:
    """The largest of these costs on each precondition."""
    cs = tuple(dict.fromkeys(costs))
    if len(cs) == 1:
        return cs[0]
    if not any(c.items for c in cs):
        return Cost(max(c.scalar for c in cs))
    return Cost(0, {MaxCost(cs, max(c.lo for c in cs), max(c.hi for c in cs)): 1})


def eval_cost(cost: Cost, pre: np.ndarray) -> np.ndarray:
    """The cost under each row of ``pre``.

    ``pre`` is a boolean matrix with one row per precondition and one column
    per input basis state. The scalar counts on every non-empty row; a
    stage costs its largest entry on the row's states, a ``MaxCost`` the
    largest of its children, each times its multiplicity.
    """
    total = pre.any(axis=1).astype(np.int64) * cost.scalar
    for x, m in cost.items.items():
        if isinstance(x, MaxCost):
            v = np.maximum.reduce([eval_cost(ch, pre) for ch in x.children])
        else:
            # the product in the narrowest type that holds the stage's values
            # (0 to _ASSERT_MAX_COST): in int64 it is eight times the size of
            # ``pre``, and leq's 2^16-row products then took five times as long
            v = (pre * x.g.astype(np.min_scalar_type(x.hi))).max(axis=1)
        total += m * v.astype(np.int64)
    return total


def _pull(x: Stage | MaxCost, hit: np.ndarray) -> Cost:
    """Item x read before the total relation ``hit``: a stage costs at b its
    largest entry on the states that row b of ``hit`` marks. In a cost,
    the scalar reads the same, and each distinct item is read once."""
    if isinstance(x, MaxCost):
        def pull(c: Cost) -> Cost:
            return _sum(((_pull(y, hit), m) for y, m in c.items.items()), c.scalar)
        return _max(map(pull, x.children))
    return _stage((hit * x.g).max(axis=1))


@functools.cache
def _bitstrings(n: int) -> np.ndarray:
    """The n-bit strings, indexed by the basis state they name: a
    read-only object array, so that ``take`` renders many at once."""
    return _frozen(np.array([format(i, f"0{n}b") for i in range(1 << n)]
                            if n else [""], dtype=object))


def basis_strings(states: np.ndarray, n: int) -> list[str]:
    """The n-bit strings of these basis states, in their order."""
    return _bitstrings(n).take(states).tolist()


def basis_row(strings, n: int) -> np.ndarray:
    """The indicator row of a set of n-bit basis strings."""
    row = np.zeros(1 << n, dtype=bool)
    row[[int("0" + b, 2) for b in strings]] = True
    return row


class AssertValue:
    """Reachability relation plus the cost.

    ``reach[y, b]`` says whether input basis state b can reach output basis
    state y: one row per output state, so that the slices a fold cuts by
    the bits of output states are runs of whole rows. ``rows`` renders it
    as basis strings, by input state. The value adopts the array it is
    given and makes it read-only.

    Every relation is total: each input state reaches some output state.
    Costs rely on it (a cost's scalar reads the same through any total
    relation), so a relation with an empty column is refused here.
    """

    __slots__ = ("reach", "cost", "_rows", "_plan")

    def __init__(self, reach: np.ndarray, cost: Cost):
        if not reach.any(axis=0).all():
            raise EffectError(
                "assert relations must be total: some input basis state "
                "reaches no output state")
        self.reach = _frozen(reach)
        self.cost = cost
        self._rows = self._plan = None

    def plan(self) -> tuple[list[list[int]], Optional[list[tuple[int, int]]]]:
        """What a fold needs to place this value, found once.

        For each output state, the input states that reach it. If the
        relation permutes the basis states, that permutation as swaps of
        two states, done in order (None if it does not).
        """
        if self._plan is None:
            ys, cols = np.nonzero(self.reach)  # row by row: split at each row's end
            ends = np.searchsorted(ys, np.arange(1, len(self.reach) + 1)).tolist()
            cols = cols.tolist()
            sources = [cols[i:j] for i, j in zip([0] + ends, ends)]
            take = [xs[0] for xs in sources if len(xs) == 1]
            swaps = None
            if len(take) == len(sources) == len(set(take)):
                # a cycle o ← take[o] ← take[take[o]] ← …: swapping each
                # state with the next leaves each one its source's slice
                swaps, seen = [], set()
                for x in range(len(take)):
                    while take[x] not in seen and take[x] != x:
                        seen.add(x)
                        swaps.append((x, take[x]))
                        x = take[x]
                    seen.add(x)
            self._plan = sources, swaps
        return self._plan

    @property
    def dom(self) -> int:
        return self.reach.shape[1].bit_length() - 1

    @property
    def cod(self) -> int:
        return self.reach.shape[0].bit_length() - 1

    def posts(self) -> list[list[str]]:
        """Each input basis state's reachable output strings, in order."""
        cod = self.cod
        pairs = np.flatnonzero(self.reach.T)  # b·2^cod + y, in order
        flat = _bitstrings(cod).take(pairs & ((1 << cod) - 1)).tolist()
        ends = np.searchsorted(pairs, np.arange(1, len(self.reach[0]) + 1) << cod).tolist()
        return [flat[i:j] for i, j in zip([0] + ends, ends)]

    @property
    def rows(self) -> Mapping[str, frozenset[str]]:
        """Each input basis string's set of reachable output strings."""
        if self._rows is None:
            self._rows = MappingProxyType(dict(zip(
                _bitstrings(self.dom), map(frozenset, self.posts()))))
        return self._rows

    def __eq__(self, other):
        return (isinstance(other, AssertValue)
                and np.array_equal(self.reach, other.reach)
                and self.cost == other.cost)

    def image(self, pre: np.ndarray) -> tuple[np.ndarray, int]:
        """Postset (an indicator row) and cost on the indicator row of a
        precondition."""
        post = self.reach[:, pre].any(axis=1)
        return post, int(eval_cost(self.cost, pre[None, :])[0])

    def apply(self, states) -> tuple[frozenset[str], int]:
        """Postset and cost on a precondition set of basis strings."""
        post, cost = self.image(basis_row(states, self.dom))
        return frozenset(basis_strings(np.flatnonzero(post), self.cod)), cost


# Rows take 4^n bytes at n qubits (16 MB at 12), and a fold whose steps
# cannot all work in place twice that.
_ASSERT_MAX_QUBITS = 12


def _require_qubits(n: int) -> None:
    if n > _ASSERT_MAX_QUBITS:
        raise EffectError(
            f"assert analysis supports at most {_ASSERT_MAX_QUBITS} qubits, "
            f"got {n}")


@functools.cache
def _slices(axes: tuple[int, ...], k: int) -> list[tuple]:
    """Indices into a relation read as k bit axes, then the input states:
    for each state x of the wires on ``axes`` (the first the most
    significant), the slice in which they hold x. Found once per shape."""
    d = len(axes)
    out = []
    for x in range(1 << d):
        idx: list = [slice(None)] * k
        for i, a in enumerate(axes):
            idx[a] = (x >> (d - 1 - i)) & 1
        out.append(tuple(idx))
    return out


def _gather(out: np.ndarray, dst: list[tuple], cube: np.ndarray,
            src: list[tuple], sources: list[list[int]]) -> None:
    """Each output state's slice of ``out`` (at ``dst``) is the OR of its
    sources' slices of ``cube`` (at ``src``), or empty if it has none."""
    for o, xs in enumerate(sources):
        slot = out[dst[o]]
        slot[...] = cube[src[xs[0]]] if xs else False
        for x in xs[1:]:
            slot |= cube[src[x]]


class AssertFold:
    """Assert's fold accumulator, in place.

    ``reach`` is the running relation, one row per output state, read as
    one bit axis per live wire (the first the most significant), then the
    input states. A wire's handle names its axis (``axis``), so a route
    moves no data, and the slices a step reads and writes, one per state of
    its wires, are views. A step that keeps the wire count works in place
    when it can: a permutation (X, CNOT) swaps slices, by three XORs each,
    and a step whose every output state is reached from every input state
    (H) ORs all slices into the first and that back into the others. A
    copy between two views of one buffer would pass through a temporary as
    large as the slice; these ufuncs need none. Any other step ORs each
    output state's sources into ``spare``, and the two buffers trade
    places. A step that changes the wire count builds a new ``reach``, its
    outputs the last axes.

    The two in-place forms pay off together: a fold of H, X and CNOT steps
    (every step of perfbench's ``assert`` programs) never allocates
    ``spare``. With the swaps alone, a fold with an H allocates it all the
    same, and paired perfbench runs found that no faster than gathering
    every step into ``spare``.

    The cost is summed as it goes: a step's scalar as it is (it reads the
    same through any total relation), and each of its distinct items read
    before the step, through the relation so far (``_pull``). ``pulled``
    keeps those readings until a step moves the relation, so a run of
    diagonal steps (Z) on the same wires reads each item once.
    """

    def __init__(self, dom: int, reach: np.ndarray, cost: Cost):
        k = reach.shape[0].bit_length() - 1
        self.dom, self.reach, self.spare = dom, reach, None
        self.scalar, self.items, self.pulled = cost.scalar, dict(cost.items), {}
        self.axis = {h: h for h in range(k)}  # handle -> axis
        self.wires = list(range(k))
        self._next = k

    def place(self, taken: list, e: Effect) -> list:
        v: AssertValue = e.value
        d, c, n, k = e.dom, e.cod, self.reach.shape[1], len(self.axis)
        if len(taken) != d:
            raise EndpointMismatch(f"assert effect {d}→{c} put on {len(taken)} wires")
        axes = tuple(self.axis[h] for h in taken)
        cube = self.reach.reshape((2,) * k + (n,))
        sources, swaps = v.plan()
        self.scalar += v.cost.scalar
        fresh = [x for x in v.cost.items if (x, axes) not in self.pulled]
        if fresh:
            # which states of e's wires the fold reaches from each input state
            hit = cube.any(axis=tuple(a for a in range(k) if a not in axes))
            ranked = sorted(axes)
            hit = hit.transpose([ranked.index(a) for a in axes] + [d])
            hit = hit.reshape(1 << d, n).T
            for x in fresh:
                self.pulled[x, axes] = _pull(x, hit)
        for x, m in v.cost.items.items():
            self.scalar += _merge(self.items, self.pulled[x, axes], m)
        if swaps != []:  # every step but an identity permutation moves the relation
            self.pulled = {}
        src = _slices(axes, k)
        if d != c:
            return self._resize(cube, axes, src, sources, c)
        if swaps is not None:
            for o, x in swaps:
                a, b = cube[src[o]], cube[src[x]]
                a ^= b
                b ^= a
                a ^= b
        elif all(len(xs) == 1 << d for xs in sources):
            head = cube[src[0]]
            for s in src[1:]:
                head |= cube[s]
            for s in src[1:]:
                cube[s] |= head
        else:
            if self.spare is None:
                self.spare = np.empty_like(self.reach)
            _gather(self.spare.reshape(cube.shape), src, cube, src, sources)
            self.reach, self.spare = self.spare, self.reach
        return taken

    def _resize(self, cube: np.ndarray, axes: tuple[int, ...], src: list[tuple],
                sources: list[list[int]], c: int) -> list:
        """``place`` for a step from ``len(axes)`` wires to c: the other
        wires keep their order, and the step's outputs come after them."""
        k, n = cube.ndim - 1, cube.shape[-1]
        m = k - len(axes) + c
        _require_qubits(m)
        out = np.empty((2,) * m + (n,), dtype=bool)
        _gather(out, _slices(tuple(range(m - c, m)), m), cube, src, sources)
        self.reach, self.spare = out.reshape(-1, n), None
        rest = {a: i for i, a in enumerate(sorted(set(range(k)) - set(axes)))}
        self.axis = {h: rest[a] for h, a in self.axis.items() if a in rest}
        new = list(range(self._next, self._next + c))
        self._next += c
        self.axis.update(zip(new, range(m - c, m)))
        return new

    def freeze(self, order: list) -> Effect:
        r, k = self.reach, len(order)
        axes = [self.axis[h] for h in order]
        if axes != list(range(k)):
            n = r.shape[1]
            r = r.reshape((2,) * k + (n,)).transpose(axes + [k]).reshape(1 << k, n)
        return Effect(self.dom, k, AssertValue(r, Cost(self.scalar, dict(self.items))))


# --------------------------------------------------------------------------
# the order on assert costs
# --------------------------------------------------------------------------

# Deciding c1 ≤ c2 means cost1(L) ≤ cost2(L) for every precondition L. The
# empty one costs 0 on both sides, and every item is non-negative. What
# both costs hold cancels; the rest is decided by pairing items (``_below``).
# What that does not prove, single states and the full set may refute
# (``_decide``); only then are all 2^(2^n) preconditions enumerated
# (``_subsets``), at most 4 input qubits.

def _item_below(x: Stage | MaxCost, y: Stage | MaxCost) -> bool:
    """Is item x at most item y on every precondition, by the rules? Stages
    compare state by state; a ``MaxCost`` on the right is at least each of
    its children, and one on the left is at most y if all of its are."""
    if isinstance(x, MaxCost):
        return all(_below(ch, Cost(0, {y: 1})) for ch in x.children)
    if isinstance(y, MaxCost):
        return any(_below(Cost(0, {x: 1}), ch) for ch in y.children)
    return bool((x.g <= y.g).all())


def _below(c1: Cost, c2: Cost) -> bool:
    """Is c1 ≤ c2 on every precondition, by a rule that enumerates none?
    False means only that no rule proves it.

    After cancelling, each copy of an item of c1, largest first, pairs off
    with a copy of an item of c2 it sits under (``_item_below``), least
    first, unless that copy is worth at least as much unpaired. Then the
    rest of c1 at its largest must be at most the rest of c2 at its least:
    equal costs leave nothing, and pairing nothing compares the extremes.
    """
    left = {x: m - c2.items.get(x, 0) for x, m in c1.items.items()
            if m > c2.items.get(x, 0)}
    right = {y: m - c1.items.get(y, 0) for y, m in c2.items.items()
             if m > c1.items.get(y, 0)}
    slack = c2.scalar - c1.scalar
    ys = sorted(right, key=lambda y: y.lo)
    for x in sorted(left, key=lambda x: -x.hi):
        m = left[x]
        for y in ys:
            if m and right[y] and y.lo < x.hi and _item_below(x, y):
                k = min(m, right[y])
                m, right[y] = m - k, right[y] - k
        slack -= m * x.hi
    return slack + sum(m * y.lo for y, m in right.items()) >= 0


def _decide(c1: Cost, c2: Cost, n: int) -> Optional[bool]:
    """c1 ≤ c2 on every precondition over n input states: True if a rule
    proves it, False if a single state or the full set refutes it, None
    if neither."""
    if _below(c1, c2):
        return True
    singles = np.eye(n, dtype=bool)  # the one-state preconditions
    if c1.hi > c2.hi or np.any(eval_cost(c1, singles) > eval_cost(c2, singles)):
        return False
    return None


_ASSERT_LEQ_MAX_BITS = 4


@functools.cache
def _subsets(n: int) -> np.ndarray:
    """One row per subset of n basis states: bit j of the row's index says
    whether state j is in it.

    Built once per n (at most 2^16 rows of 16, 1 MB), so ``leq`` allocates
    no matrix of this size per call: the page faults of such allocations
    made its time vary from run to run. Column-major, so a stage's max
    reads contiguous columns.
    """
    bits = np.arange(1 << n, dtype=np.uint16) >> np.arange(n, dtype=np.uint16)[:, None]
    bits &= 1
    pre = bits.astype(bool).T
    pre.flags.writeable = False
    return pre


class AssertAlgebra(CircuitAlgebra):
    """Qubit-only: tracks reachable basis sets and non-removable gate cost."""

    name = "assert"

    def obj_of(self, o: Obj) -> int:
        for t in o:
            if t is not WireType.QUBIT:
                raise UnsupportedWire(f"assert algebra cannot track {t} wires")
        return len(o)

    def identity_effect(self, k: int) -> Effect:
        _require_qubits(k)
        return Effect(k, k, AssertValue(np.eye(1 << k, dtype=bool), Cost()))

    def fold(self, dom: Obj) -> AssertFold:
        k = self.obj_of(dom)
        _require_qubits(k)
        return AssertFold(k, np.eye(1 << k, dtype=bool), Cost())

    def leq(self, e1, e2) -> bool:
        """Decided by the rules above, then by witnesses, then, at most 4
        input qubits, by every precondition; else ``EffectObjectMismatch``.
        """
        self._require_endpoints(e1, e2, "assert leq")
        if np.any(e1.value.reach > e2.value.reach):
            return False
        c1, c2, n = e1.value.cost, e2.value.cost, 1 << e1.dom
        known = _decide(c1, c2, n)
        if known is not None:
            return known
        if e1.dom > _ASSERT_LEQ_MAX_BITS:
            raise EffectObjectMismatch(
                f"assert leq cannot decide: no rule proves the costs ordered, "
                f"no single input state or the full set refutes it, and "
                f"every precondition is tried only up to "
                f"{_ASSERT_LEQ_MAX_BITS} input qubits, got {e1.dom}")
        pre = _subsets(n)
        return bool(np.all(eval_cost(c1, pre) <= eval_cost(c2, pre)))

    def join(self, e1, e2) -> Effect:
        self._require_endpoints(e1, e2, "assert join")
        v1: AssertValue = e1.value
        v2: AssertValue = e2.value
        return Effect(e1.dom, e1.cod,
                      AssertValue(v1.reach | v2.reach, _max((v1.cost, v2.cost))))

    def gate_effect(self, gdef: GateDef) -> Effect:
        d = self.obj_of(gdef.gate.dom)
        c = self.obj_of(gdef.gate.cod)
        _require_qubits(d)
        reach = np.zeros((1 << c, 1 << d), dtype=bool)
        g = np.zeros(1 << d, dtype=np.int64)
        rows = gdef.rows or {}
        for b, s in enumerate(_bitstrings(d)):
            if s not in rows:
                raise UnknownUnitary(
                    f"gate {gdef.name} has no assertion row for input {s!r}")
            post, cost = rows[s]
            reach[:, b] = basis_row(post, c)
            g[b] = _weight(cost)
        return Effect(d, c, AssertValue(reach, _stage(g)))

    def value_json(self, e: Effect):
        v: AssertValue = e.value
        return {"rows": dict(zip(_bitstrings(e.dom), v.posts()))}

    def bound_of(self, e) -> float:
        return e.value.cost.hi  # the cost on all input states

    def coarsest(self, dom, cod, n: int) -> Effect:
        d, c = self.obj_of(dom), self.obj_of(cod)
        _require_qubits(c)
        _require_qubits(d)
        return Effect(d, c, AssertValue(np.ones((1 << c, 1 << d), dtype=bool),
                                        Cost(_weight(n))))


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
