"""Seeded program generators for the four benchmark workloads.

Every generator writes pqc source text and, while it writes it, computes the
answer pqc must print. The expected answers never come from pqc itself: they
are closed forms for the structured families and per-wire counters for the
random corpus.

A ``Case`` is one generated program plus the operations the benchmark runs on
it. An operation is ``(command, metric)`` with command ``analyze`` or
``verify``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Scalar metrics every non-assert workload runs under both commands.
SCALAR_METRICS = ("gates", "depth-naive", "width", "depth")


@dataclass
class Expect:
    """What a correct pqc prints for one program."""

    gates: int
    naive: int
    width: int
    depth: int
    # assert metric, under the all-zero precondition
    post: frozenset[str] | None = None
    cost: int | None = None

    def scalar(self, metric: str) -> int:
        return {"gates": self.gates, "depth-naive": self.naive,
                "width": self.width, "depth": self.depth}[metric]


@dataclass
class Case:
    name: str
    text: str
    expect: Expect
    wires: int
    ops: list[tuple[str, str]] = field(default_factory=list)
    nodes: int = 0  # AST nodes, filled in by the runner


def _tuple(names: list[str]) -> str:
    return names[0] if len(names) == 1 else "(" + ", ".join(names) + ")"


def _qubits(n: int) -> str:
    return " * ".join(["Qubit"] * n)


def _inputs(names: list[str]) -> str:
    return "inputs " + ", ".join(f"{x}: Qubit" for x in names) + ";"


def _doubled(base_body: str, wires: list[str], levels: int, ty: str) -> list[str]:
    """``f_0 = lift base``, ``f_i = lift(force f_{i-1}; force f_{i-1})``,
    then ``force f_levels`` applied to the inputs: 2^levels copies of base."""
    arg = _tuple(wires)
    lines = [f"let f0 = return (lift return (\\x: {ty}. {base_body})) in"]
    for i in range(1, levels + 1):
        lines.append(
            f"let f{i} = return (lift return (\\x: {ty}. "
            f"let g = force f{i - 1} in let y = g x in "
            f"let h = force f{i - 1} in h y)) in")
    lines.append(f"let g = force f{levels} in g {arg}")
    return lines


def _unpack(names: list[str]) -> str:
    return f"dest {_tuple(names)} = x in " if len(names) > 1 else ""


# --------------------------------------------------------------------------
# doubling: k lines build w * 2^k gates
# --------------------------------------------------------------------------

DOUBLING_SHAPES = ((9, 1), (8, 2), (7, 4))  # (k, w); each builds 512 gates


def doubling_case(rng: random.Random, k: int, w: int) -> Case:
    wires = [f"q{j}" for j in range(w)]
    locals_ = [f"a{j}" for j in range(w)] if w > 1 else ["x"]
    body = _unpack(locals_) + "".join(
        f"let {a} = apply(@{rng.choice('HXZ')}, {a}) in " for a in locals_)
    body += f"return {_tuple(locals_)}"
    lines = [_inputs(wires)] + _doubled(body, wires, k, _qubits(w))
    n = w * 2 ** k
    return Case(f"doubling-k{k}-w{w}", "\n".join(lines) + "\n",
                Expect(gates=n, naive=n, width=w, depth=2 ** k), w)


def doubling(rng: random.Random) -> list[Case]:
    cases = [doubling_case(rng, k, w) for k, w in DOUBLING_SHAPES]
    for c in cases:
        c.ops = [(cmd, m) for cmd in ("analyze", "verify") for m in SCALAR_METRICS]
    return cases


# --------------------------------------------------------------------------
# brickwork: CNOT brickwork on K wires, R = 2^levels rounds
# --------------------------------------------------------------------------

BRICKWORK_SHAPES = ((24, 2), (32, 1), (40, 1))  # (K, levels)


def brickwork_case(rng: random.Random, k: int, levels: int) -> Case:
    wires = [f"q{j}" for j in range(k)]
    a = [f"a{j}" for j in range(k)]
    # The seed picks which of the two brick phases comes first.
    phases = [0, 1] if rng.random() < 0.5 else [1, 0]
    parts = [_unpack(a)]
    for phase in phases:
        for i in range(phase, k - 1, 2):
            parts.append(f"let p = apply(@CNOT, ({a[i]}, {a[i + 1]})) in "
                         f"dest ({a[i]}, {a[i + 1]}) = p in ")
    body = "".join(parts) + f"return {_tuple(a)}"
    lines = [_inputs(wires)] + _doubled(body, wires, levels, _qubits(k))
    rounds = 2 ** levels
    return Case(f"brickwork-K{k}-R{rounds}", "\n".join(lines) + "\n",
                Expect(gates=rounds * (k - 1), naive=rounds * (k - 1),
                       width=k, depth=2 * rounds), k)


def brickwork(rng: random.Random) -> list[Case]:
    cases = [brickwork_case(rng, k, lv) for k, lv in BRICKWORK_SHAPES]
    for c in cases:
        c.ops = [(cmd, m) for cmd in ("analyze", "verify") for m in SCALAR_METRICS]
    # Not timed: the family's narrowest instance, on which the traced run
    # measures the assert layers that are out of reach at K >= 24.
    return cases + [brickwork_case(rng, 3, 3)]


# --------------------------------------------------------------------------
# corpus: seeded straight-line programs with subroutines
# --------------------------------------------------------------------------

# (wires, binders): an even spread of sizes, the same in every seed.
CORPUS_SHAPES = ((2, 100), (3, 140), (4, 180), (5, 220), (6, 260), (4, 300))
# Subroutines: (kind, arity), each of SUB_GATES gates.
SUBS = (("lift", 1), ("lift", 2), ("box", 1), ("box", 2))
SUB_GATES = 3
# One block of moves: an int is a call of that subroutine. Binders: a unary
# gate 1, a CNOT 2 (let, dest), lifted calls 2 and 3 (force, let[, dest]),
# boxed calls 1 and 2 (let[, dest]).
CORPUS_BLOCK = ("unary",) * 4 + ("cnot",) * 2 + (0, 1, 2, 3)
CORPUS_BLOCK_BINDERS = 4 * 1 + 2 * 2 + 2 + 3 + 1 + 2


class _Wires:
    """Generator-side model of the circuit: per-wire depth and gate total.

    Every gate is its own apply, hence its own layer: depth-naive = gates.
    """

    def __init__(self, n: int):
        self.depth = [0] * n
        self.gates = 0

    def gate(self, *ws: int) -> None:
        d = max(self.depth[w] for w in ws) + 1
        for w in ws:
            self.depth[w] = d
        self.gates += 1


def _sub_body(rng: random.Random, arity: int) -> tuple[str, list[tuple]]:
    """A short subroutine body over ``x`` and the gate list it applies."""
    names = ["x"] if arity == 1 else ["s0", "s1"]
    text = _unpack(names)
    gates: list[tuple] = []
    for _ in range(SUB_GATES):
        if arity == 2 and rng.random() < 0.4:
            i, j = rng.sample((0, 1), 2)
            text += (f"let t = apply(@CNOT, ({names[i]}, {names[j]})) in "
                     f"dest ({names[i]}, {names[j]}) = t in ")
            gates.append((i, j))
        else:
            i = rng.randrange(arity)
            text += f"let {names[i]} = apply(@{rng.choice('HXZ')}, {names[i]}) in "
            gates.append((i,))
    return text + f"return {_tuple(names)}", gates


def corpus_case(rng: random.Random, n: int, binders: int, idx: int) -> Case:
    a = [f"a{j}" for j in range(n)]
    model = _Wires(n)
    lines = [_inputs(a)]
    subs = []  # (kind, name, arity, gate list)
    for s, (kind, arity) in enumerate(SUBS):
        body, gates = _sub_body(rng, arity)
        ty = _qubits(arity)
        if kind == "lift":
            lines.append(f"let u{s} = return (lift return (\\x: {ty}. {body})) in")
        else:
            lines.append(f"let u{s} = box[{ty}] lift \\x: {ty}. {body} in")
        subs.append((kind, f"u{s}", arity, gates))
    # A fixed multiset of moves, in seeded order: sizes do not vary by seed.
    moves = list(CORPUS_BLOCK * ((binders - len(SUBS)) // CORPUS_BLOCK_BINDERS))
    rng.shuffle(moves)
    for move in moves:
        if move == "unary":
            w = rng.randrange(n)
            lines.append(f"let {a[w]} = apply(@{rng.choice('HXZ')}, {a[w]}) in")
            model.gate(w)
        elif move == "cnot":
            i, j = rng.sample(range(n), 2)
            lines.append(f"let p = apply(@CNOT, ({a[i]}, {a[j]})) in "
                         f"dest ({a[i]}, {a[j]}) = p in")
            model.gate(i, j)
        else:
            kind, name, arity, gates = subs[move]
            ws = rng.sample(range(n), arity)
            args = [a[w] for w in ws]
            if kind == "lift":
                call = f"let g = force {name} in "
                app = f"g {_tuple(args)}"
            else:
                call = ""
                app = f"apply({name}, {_tuple(args)})"
            if arity == 1:
                call += f"let {args[0]} = {app} in"
            else:
                call += f"let p = {app} in dest {_tuple(args)} = p in"
            lines.append(call)
            for g in gates:
                model.gate(*(ws[i] for i in g))
    lines.append(f"return {_tuple(a)}")
    return Case(f"corpus-{idx}-n{n}-b{binders}", "\n".join(lines) + "\n",
                Expect(gates=model.gates, naive=model.gates, width=n,
                       depth=max(model.depth)), n)


def corpus(rng: random.Random) -> list[Case]:
    cases = [corpus_case(rng, n, b, i) for i, (n, b) in enumerate(CORPUS_SHAPES)]
    for c in cases:
        c.ops = [(cmd, m) for cmd in ("analyze", "verify") for m in SCALAR_METRICS]
    return cases


# --------------------------------------------------------------------------
# assert: dense (H on every qubit) and sparse (GHZ) postsets
# --------------------------------------------------------------------------

# (family, qubits, commands); pqc decides assert leq exhaustively and only
# up to 4 input qubits, so verify runs on programs of at most 4 qubits.
# An odd number of programs per command puts the median inside one
# program's cluster of times, not in the gap between two.
ASSERT_SHAPES = (("dense", 7, ("analyze",)), ("dense", 8, ("analyze",)),
                 ("dense", 9, ("analyze",)), ("ghz", 9, ("analyze",)),
                 ("ghz", 10, ("analyze",)),
                 ("dense", 3, ("verify",)), ("dense", 4, ("verify",)),
                 ("ghz", 4, ("verify",)))


def assert_case(rng: random.Random, family: str, n: int) -> Case:
    a = [f"a{j}" for j in range(n)]
    lines = [_inputs(a)]
    # The seed picks the order in which the wires are visited.
    order = list(range(n))
    rng.shuffle(order)
    if family == "dense":
        for j in order:
            lines.append(f"let {a[j]} = apply(@H, {a[j]}) in")
        post = frozenset(format(i, f"0{n}b") for i in range(2 ** n))
        depth = 1
    else:
        lines.append(f"let {a[order[0]]} = apply(@H, {a[order[0]]}) in")
        for c, t in zip(order, order[1:]):
            lines.append(f"let p = apply(@CNOT, ({a[c]}, {a[t]})) in "
                         f"dest ({a[c]}, {a[t]}) = p in")
        post = frozenset({"0" * n, "1" * n})
        depth = n
    lines.append(f"return {_tuple(a)}")
    return Case(f"assert-{family}-n{n}", "\n".join(lines) + "\n",
                Expect(gates=n, naive=n, width=n, depth=depth,
                       post=post, cost=n), n)


def assert_family(rng: random.Random) -> list[Case]:
    cases = []
    for family, n, cmds in ASSERT_SHAPES:
        c = assert_case(rng, family, n)
        c.ops = [(cmd, "assert") for cmd in cmds]
        cases.append(c)
    return cases


WORKLOADS = {
    "doubling": doubling,
    "brickwork": brickwork,
    "corpus": corpus,
    "assert": assert_family,
}
