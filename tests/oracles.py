"""Independent reference computations the algebras are tested against.

These deliberately avoid the algebra code paths: they walk the concrete
circuit step by step (sequentializing the gates of a layer left to right,
matching the whisker decomposition) and measure paths, live wires, or basis
states directly. ``assert_cost_oracle`` reads an ``assert`` cost one
precondition at a time, without the matrix evaluator.
"""

from __future__ import annotations

from pqc.algebras import MaxCost
from pqc.circuits import Circuit, Layer, Perm
from pqc.gates import Registry, derive_assert_row

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
