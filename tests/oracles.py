"""Independent reference computations the algebras are tested against.

These deliberately avoid the algebra code paths: they walk the concrete
circuit step by step (sequentializing the gates of a layer left to right,
matching the whisker decomposition) and measure paths, live wires, or basis
states directly. ``assert_cost_oracle`` reads an ``assert`` cost one
precondition at a time, without the matrix evaluator. ``perm_effect_oracle``
builds a permutation's effect directly, not by routing wires with
``then_eff``. ``RightFoldChecker`` infers ``let`` and ``dest`` by the rules
the checker's left fold replaced.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from generators import tropical_permutation
from pqc.algebras import AssertValue, DepthTriple, Effect, MaxCost
from pqc.circuits import Circuit, Layer, Perm, WireType
from pqc.errors import ShapeMismatch
from pqc.gates import Registry, derive_assert_row
from pqc.syntax import Dest, Let, TensorT, Term, show_type
from pqc.tropical import TropicalMatrix
from pqc.typecheck import EffectChecker

NEG_INF = float("-inf")


def _tadd(x: float, d: float) -> float:
    return NEG_INF if x == NEG_INF else x + d


def depth_paths_oracle(c: Circuit, registry: Registry):
    """Longest anchored gate-weight paths, by forward dynamic programming.

    Returns (A, v, w, bound): A[i][j] over input→output paths, v[i] over
    input→dead-end paths, w[j] over created-wire→output paths, and the max
    entry (−∞ when there are no such paths). Paths running from a created
    wire into a dead end are not tracked, matching the triple itself.
    """
    n0 = len(c.dom)
    # per live wire: longest path from each circuit input, and from any
    # wire-creating gate
    wires = [{"inp": [0.0 if i == j else NEG_INF for i in range(n0)],
              "src": NEG_INF} for j in range(n0)]
    v_acc = [NEG_INF] * n0

    for step in c.steps:
        if isinstance(step, Perm):
            out = [None] * len(wires)
            for i, j in enumerate(step.perm):
                out[j] = wires[i]
            wires = out
            continue
        assert isinstance(step, Layer)
        new_wires = []
        pos = 0
        for gate, at in step.placements:
            new_wires.extend(wires[pos:at])
            taken = wires[at:at + len(gate.dom)]
            d = float(registry.lookup(gate.name).depth)
            r_in = [max((w["inp"][i] for w in taken), default=NEG_INF)
                    for i in range(n0)]
            s_in = max((w["src"] for w in taken), default=NEG_INF)
            if not gate.cod:
                v_acc = [max(a, _tadd(b, d)) for a, b in zip(v_acc, r_in)]
            out_state = {
                "inp": [_tadd(x, d) for x in r_in],
                "src": d if not gate.dom else _tadd(s_in, d),
            }
            new_wires.extend(dict(out_state) for _ in gate.cod)
            pos = at + len(gate.dom)
        new_wires.extend(wires[pos:])
        wires = new_wires

    a = [[wires[j]["inp"][i] for j in range(len(wires))] for i in range(n0)]
    w = [wire["src"] for wire in wires]
    entries = [x for row in a for x in row] + v_acc + w
    bound = max(entries, default=NEG_INF)
    return a, v_acc, w, bound


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


def assert_sim_oracle(c: Circuit, registry: Registry,
                      states: frozenset[str]) -> tuple[frozenset[str], int]:
    """Forward basis-state simulation with per-gate surviving-cost maxima."""
    cur = set(states)
    total = 0
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
            gdef = registry.lookup(gate.name)
            d = len(gate.dom)
            at_adj = at + shift
            nxt = set()
            stage = 0
            for b in cur:
                post, cost = derive_assert_row(gdef, b[at_adj:at_adj + d])
                stage = max(stage, cost)
                nxt |= {b[:at_adj] + y + b[at_adj + d:] for y in post}
            cur = nxt
            total += stage
            shift += len(gate.cod) - d
    return frozenset(cur), total


def assert_cost_oracle(cost, states: frozenset[str]) -> int:
    """An ``assert`` cost on one set of basis states, item by item.

    A stage (sorted ``(basis, cost)`` pairs) costs its largest entry on
    ``states``, a ``MaxCost`` the largest of its children, and the items of
    a cost add up: the per-state reading that ``algebras.eval_cost`` makes
    on a whole matrix of preconditions at once.
    """
    total = 0
    for item in cost:
        if isinstance(item, MaxCost):
            total += max((assert_cost_oracle(ch, states) for ch in item.children),
                         default=0)
        else:
            total += max((c for b, c in item if b in states), default=0)
    return total


def perm_effect_oracle(alg, perm: tuple[int, ...]) -> Effect:
    """The effect of wire i moving to position perm[i], on qubits: a 0/−∞
    permutation matrix under depth, one relabelled basis state per row under
    assert, and the identity under the algebras that ignore positions."""
    k = len(perm)
    if alg.name == "depth":
        return Effect(k, k, DepthTriple(tropical_permutation(perm),
                                        TropicalMatrix.zeros(1, k),
                                        TropicalMatrix.zeros(k, 1)))
    if alg.name == "assert":
        rows = {}
        for bits in itertools.product("01", repeat=k):
            out = [""] * k
            for i, j in enumerate(perm):
                out[j] = bits[i]
            rows["".join(bits)] = frozenset({"".join(out)})
        return Effect(k, k, AssertValue(rows, ()))
    return alg.identity_effect(alg.obj_of((WireType.QUBIT,) * k))


class RightFoldChecker(EffectChecker):
    """The checker with ``let`` and ``dest`` inferred as a right fold.

    Each binder infers its bound term, then the whole rest of the program,
    and composes the two: the context is reordered (bound term's entries
    last) by a permutation effect, the bound term's effect is placed after
    the rest's wires, and the rest's effect is composed on. Linearity is
    checked as each binder's body returns, innermost first. Every other
    term goes through ``EffectChecker``, whose sub-terms come back here.
    """

    def _reorder(self, target: Sequence[int]) -> Effect:
        """Permutation effect from context order to the given entry order."""
        alg = self.alg
        if not alg.positional:
            return alg.perm_effect((), ())
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
        return alg.perm_effect(tuple(perm), dom)

    def _infer(self, m: Term):
        alg = self.alg
        if isinstance(m, Let):
            bt, bw, bu, be = self._infer(m.bound)
            self._bind(m.var, bt, bw)
            ty, wires, tu, te = self._infer(m.body)
            tu = self._pop(1, tu, f"the body of let {m.var}")
            used = self._merge(bu, tu, f"let {m.var}")
            g2 = sorted(self._linear(tu))
            g1 = sorted(self._linear(bu))
            eff = alg.compose_eff(
                alg.then_eff(self._reorder(g2 + g1),
                             alg.obj_of(self._blocks_obj(g2)), be),
                te)
        elif isinstance(m, Dest):
            vt, vu, vo = self.infer_value(m.value)
            if not isinstance(vt, TensorT):
                raise ShapeMismatch(f"dest needs a tensor, got {show_type(vt)}")
            self._bind(m.left, vt.left)
            self._bind(m.right, vt.right)
            ty, wires, bu, be = self._infer(m.body)
            bu = self._pop(2, bu, f"the body of dest ({m.left}, {m.right})")
            used = self._merge(vu, bu, f"dest ({m.left}, {m.right})")
            g2 = sorted(self._linear(bu))
            eff = alg.compose_eff(self._reorder(g2 + vo), be)
        else:
            return super()._infer(m)
        self._check_endpoints(m, eff, self._blocks_obj(sorted(self._linear(used))),
                              wires, ty)
        return ty, wires, used, eff
