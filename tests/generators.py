"""Seeded random generators shared by the property suites, plus the
tropical-matrix and depth-value constructors the tests use.

Every suite derives its own ``random.Random`` from ``PQC_SEED`` (env var,
default fixed) plus a salt string, so suites are independently reproducible
and adding cases to one suite does not shift another.
"""

from __future__ import annotations

import os
import random
import sys

import numpy as np

from pqc.algebras import DepthTriple
from pqc.circuits import Circuit, Gate, Layer, Perm, Step, WireType
from pqc.gates import Registry, default_registry
from pqc.syntax import (
    App, Apply, ArrowT, BangT, BitT, Block, Box, BundleUnitT, CircT,
    DestBinder, Force, GateRef, Ifz, Lam, LetBinder, Lift, NatT, NatVal,
    Program, QubitT, Ret, TensorT, Term, Type, UnitT, Value, Var,
)
from pqc.tropical import NEG_INF, TropicalMatrix

SEED = int(os.environ.get("PQC_SEED", "20260814"))

Q = WireType.QUBIT
B = WireType.BIT


def rng(salt: str) -> random.Random:
    return random.Random(f"{SEED}/{salt}")


def perfbench_workloads():
    """The benchmark's program generators, ``perfbench/workloads.py``."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads


def tropical(rows, shape=None) -> TropicalMatrix:
    """A max-plus matrix from nested lists, reshaped if ``shape`` is given."""
    a = np.asarray(rows, dtype=float)
    return TropicalMatrix(a if shape is None else a.reshape(shape))


def tropical_permutation(perm: tuple[int, ...]) -> TropicalMatrix:
    """The max-plus permutation matrix: row i has a single 0 in column perm[i]."""
    n = len(perm)
    m = np.full((n, n), NEG_INF)
    m[np.arange(n), list(perm)] = 0.0
    return TropicalMatrix(m)


def depth_triple(a, v, w, corner=NEG_INF) -> DepthTriple:
    """The depth value with dom × cod matrix ``a``, vectors ``v`` (one
    entry per input) and ``w`` (one per output), and ``corner`` (the
    created-wire→dead-end paths), in one matrix."""
    dom, cod = len(v), len(w)
    m = np.full((dom + 1, cod + 1), NEG_INF)
    m[:dom, :cod] = np.asarray(a, dtype=float).reshape(dom, cod)
    m[:dom, cod] = v
    m[dom, :cod] = w
    m[dom, cod] = corner
    m.flags.writeable = False
    return DepthTriple(m)


# --------------------------------------------------------------------------
# random circuits
# --------------------------------------------------------------------------

# name -> needs-adjacent-qubits; pulled from the default registry on demand
GENERAL_POOL = ("H", "X", "Z", "CNOT", "meas", "init", "discard")
ASSERT_POOL = ("H", "X", "Z", "CNOT", "init")   # every gate declares rows, no bits


def random_steps(r: random.Random, start: tuple[WireType, ...], max_steps: int,
                 pool=GENERAL_POOL, registry: Registry | None = None,
                 max_width: int = 8) -> tuple[tuple[Step, ...], tuple[WireType, ...]]:
    """A well-formed step sequence from ``start``; returns (steps, cod)."""
    registry = registry or default_registry()
    gates = {name: registry.gate(name) for name in pool}
    cur = list(start)
    steps: list[Step] = []
    for _ in range(r.randint(0, max_steps)):
        if len(cur) > 1 and r.random() < 0.2:
            perm = list(range(len(cur)))
            r.shuffle(perm)
            step: Step = Perm(tuple(perm))
        else:
            placements = []
            pos = 0
            while pos <= len(cur):
                name = r.choice(pool)
                g = gates[name]
                take = len(g.dom)
                fits = (tuple(cur[pos:pos + take]) == g.dom
                        and (take > 0 or len(cur) < max_width))
                if fits and r.random() < 0.4:
                    placements.append((g, pos))
                    pos += max(take, 1)
                else:
                    pos += 1
            if not placements:
                continue  # a layer must hold at least one gate
            step = Layer(tuple(placements))
        steps.append(step)
        cur = list(step.cod(tuple(cur)))
    return tuple(steps), tuple(cur)


def random_circuit(r: random.Random, max_wires: int = 6, max_steps: int = 12,
                   pool=GENERAL_POOL, **kw) -> Circuit:
    dom = (Q,) * r.randint(0, max_wires)
    steps, _ = random_steps(r, dom, max_steps, pool=pool, **kw)
    return Circuit(dom, steps)


def random_qubit_circuit(r: random.Random, max_wires: int = 3,
                         max_steps: int = 8) -> Circuit:
    """Assert-algebra-friendly: qubit wires only, every gate has rows."""
    return random_circuit(r, max_wires, max_steps, pool=ASSERT_POOL,
                          max_width=5)


# --------------------------------------------------------------------------
# random well-typed programs
# --------------------------------------------------------------------------

class _Builder:
    """Grows a program as one block of binders over a linear context."""

    def __init__(self, r: random.Random, assert_safe: bool, max_wires: int,
                 ascribed: bool = False, calls: bool = False):
        self.r = r
        self.assert_safe = assert_safe
        self.ascribed = ascribed
        self.calls = calls
        self.max_wires = max_wires
        self.fresh = 0
        self.binders: list = []     # the program's block, in order
        self.qubits: list[str] = []  # live qubit-typed variables
        self.bits: list[str] = []    # live bit-typed variables

    def name(self, base: str = "v") -> str:
        self.fresh += 1
        return f"{base}{self.fresh}"

    def take_qubit(self) -> str:
        i = self.r.randrange(len(self.qubits))
        return self.qubits.pop(i)

    def step(self) -> None:
        r = self.r
        moves = ["unary", "cnot", "ifz", "boxed"]
        if len(self.qubits) < self.max_wires:
            moves.append("init")
        if not self.assert_safe:
            moves += ["meas", "discard"]
        if self.ascribed:
            moves += ["arrow", "circuit"]
        if self.calls:
            moves += ["nested", "repeat"]
        move = r.choice(moves)
        if move in ("unary", "cnot", "ifz", "boxed", "meas", "discard",
                    "arrow", "nested", "repeat") and not self.qubits:
            move = "init" if len(self.qubits) < self.max_wires else "unary"
            if move == "unary":
                return
        if move == "cnot" and len(self.qubits) < 2:
            move = "unary"

        if move == "init":
            v = self.name("q")
            self.binders.append(LetBinder(v, Apply(GateRef("init"), ())))
            self.qubits.append(v)
        elif move == "unary":
            g = r.choice(("H", "X", "Z"))
            x = self.take_qubit()
            v = self.name("q")
            self.binders.append(LetBinder(v, Apply(GateRef(g), Var(x))))
            self.qubits.append(v)
        elif move == "cnot":
            a, b = self.take_qubit(), self.take_qubit()
            p, a2, b2 = self.name("p"), self.name("q"), self.name("q")
            self.binders += [LetBinder(p, Apply(GateRef("CNOT"), (Var(a), Var(b)))),
                             DestBinder(a2, b2, Var(p))]
            self.qubits += [a2, b2]
        elif move == "meas":
            x = self.take_qubit()
            v = self.name("b")
            self.binders.append(LetBinder(v, Apply(GateRef("meas"), Var(x))))
            self.bits.append(v)
        elif move == "discard":
            x = self.take_qubit()
            v = self.name("u")
            self.binders.append(LetBinder(v, Apply(GateRef("discard"), Var(x))))
        elif move == "ifz":
            x = self.take_qubit()
            v = self.name("q")
            n = r.randint(0, 2)
            g1, g2 = r.choice(("H", "X")), r.choice(("Z", "X"))
            self.binders.append(LetBinder(v, Ifz(NatVal(n),
                                                 Apply(GateRef(g1), Var(x)),
                                                 Apply(GateRef(g2), Var(x)))))
            self.qubits.append(v)
        elif move == "boxed":
            x = self.take_qubit()
            v, inner, inner2 = self.name("q"), self.name("x"), self.name("x")
            g1, g2 = r.choice(("H", "X", "Z")), r.choice(("H", "X", "Z"))
            fn = Lam(inner, QubitT(),
                     Block((LetBinder(inner2, Apply(GateRef(g1), Var(inner))),),
                           Apply(GateRef(g2), Var(inner2))))
            boxing = LetBinder("c", Box(QubitT(), Lift(Ret(fn))))
            self.binders.append(LetBinder(v, Block((boxing,), Apply(Var("c"), Var(x)))))
            self.qubits.append(v)
        elif move == "nested":
            # a box whose body applies another box twice
            x = self.take_qubit()
            v, a, b, y = self.name("q"), self.name("x"), self.name("x"), self.name("y")
            twice = Block((LetBinder(y, Apply(Var("c"), Var(b))),), Apply(Var("c"), Var(y)))
            boxes = (LetBinder("c", Box(QubitT(), Lift(Ret(Lam(a, QubitT(), self.body(a)))))),
                     LetBinder("d", Box(QubitT(), Lift(Ret(Lam(b, QubitT(), twice))))))
            self.binders.append(LetBinder(v, Block(boxes, Apply(Var("d"), Var(x)))))
            self.qubits.append(v)
        elif move == "repeat":
            # a lifted function forced and called two or three times in a row
            x, f, a = self.take_qubit(), self.name("f"), self.name("x")
            fn = Lam(a, QubitT(), self.body(a))
            self.binders.append(LetBinder(f, Ret(Lift(Ret(fn)))))
            for _ in range(r.randint(2, 3)):
                g, y = self.name("g"), self.name("q")
                self.binders += [LetBinder(g, Force(Var(f))),
                                 LetBinder(y, App(Var(g), Var(x)))]
                x = y
            self.qubits.append(x)

        elif move == "arrow":
            # a function ascribed a small bound, called on a gate's lambda:
            # its body places the bound's coarsest effect
            x = self.take_qubit()
            v, a, f, y, z = (self.name(b) for b in ("q", "a", "f", "y", "z"))
            arrow = ArrowT(QubitT(), QubitT(), BundleUnitT(), r.randint(1, 3))
            call = Lam(a, TensorT(arrow, QubitT()),
                       Block((DestBinder(f, y, Var(a)),), App(Var(f), Var(y))))
            gate = Lam(z, QubitT(), Apply(GateRef(r.choice(("H", "X", "Z"))), Var(z)))
            self.binders.append(LetBinder(v, App(call, (gate, Var(x)))))
            self.qubits.append(v)
        elif move == "circuit":
            # a lifted, unused function whose circuit argument is ascribed a
            # bound below its two output wires; it returns them in or out of
            # order
            f, a, c, y, p, u, w = (self.name(b) for b in "facypuw")
            outs = (Var(w), Var(u)) if r.random() < 0.5 else (Var(u), Var(w))
            circ = CircT(QubitT(), TensorT(QubitT(), QubitT()), r.randint(0, 1))
            body = Block((DestBinder(c, y, Var(a)),
                          LetBinder(p, Apply(Var(c), Var(y))),
                          DestBinder(u, w, Var(p))), Ret(outs))
            fn = Lam(a, TensorT(circ, QubitT()), body)
            self.binders.append(LetBinder(f, Ret(Lift(Ret(fn)))))

    def body(self, x: str) -> Term:
        """A function body on the qubit x: one gate, or an ``ifz`` of two."""
        r = self.r
        if r.random() < 0.5:
            return Apply(GateRef(r.choice(("H", "X", "Z"))), Var(x))
        return Ifz(NatVal(r.randint(0, 2)), Apply(GateRef(r.choice(("H", "X"))), Var(x)),
                   Apply(GateRef(r.choice(("Z", "X"))), Var(x)))

    def finish(self) -> Term:
        names = self.qubits + self.bits
        if not names:
            result: Value = ()
        else:
            result = Var(names[-1])
            for n in reversed(names[:-1]):
                result = (Var(n), result)
        if not self.binders:
            return Ret(result)
        return Block(tuple(self.binders), Ret(result))


def random_program(r: random.Random, assert_safe: bool = False,
                   max_inputs: int = 3, steps: int | None = None,
                   ascribed: bool = False, calls: bool = False) -> Program:
    """A random well-typed program; with ``ascribed``, it also calls
    functions and holds circuits whose types are ascribed small bounds;
    with ``calls``, it also applies boxes inside boxes and calls lifted
    functions several times in a row."""
    max_wires = 4 if assert_safe else 5
    b = _Builder(r, assert_safe, max_wires, ascribed, calls)
    n_in = r.randint(0, max_inputs)
    inputs = tuple((f"in{i}", QubitT()) for i in range(n_in))
    b.qubits = [name for name, _ in inputs]
    for _ in range(steps if steps is not None else r.randint(1, 6)):
        b.step()
    return Program(inputs, None, b.finish())


def random_boxable(r: random.Random) -> tuple[Type, Lam]:
    """A capture-free function fit for boxing, of shape Qubit or Qubit*Qubit."""
    two = r.random() < 0.5
    shape: Type = TensorT(QubitT(), QubitT()) if two else QubitT()
    x = "x"
    if not two:
        g1, g2 = r.choice(("H", "X", "Z")), r.choice(("H", "X", "Z"))
        body = Block((LetBinder("y", Apply(GateRef(g1), Var(x))),),
                     Apply(GateRef(g2), Var("y")))
        return shape, Lam(x, shape, body)
    g = r.choice(("H", "X", "Z"))
    body = Block((DestBinder("a", "b", Var(x)),
                  LetBinder("a2", Apply(GateRef(g), Var("a")))),
                 Apply(GateRef("CNOT"), (Var("a2"), Var("b"))))
    return shape, Lam(x, shape, body)


# --------------------------------------------------------------------------
# random ASTs (syntax only, for printer/parser round-trips)
# --------------------------------------------------------------------------

_NAMES = ("x", "y", "z", "f", "g", "acc", "tmp", "q0", "q1")


def random_type(r: random.Random, depth: int = 3) -> Type:
    atoms = [UnitT(), NatT(), QubitT(), BitT(), BundleUnitT()]
    if depth <= 0 or r.random() < 0.4:
        return r.choice(atoms)
    kind = r.choice(("tensor", "arrow", "bang", "circ"))
    if kind == "tensor":
        return TensorT(random_type(r, depth - 1), random_type(r, depth - 1))
    if kind == "arrow":
        bound = r.randint(0, 9) if r.random() < 0.4 else None
        return ArrowT(random_type(r, depth - 1), random_type(r, depth - 1),
                      random_type(r, depth - 1), bound)
    if kind == "bang":
        return BangT(random_type(r, depth - 1))
    bound = r.randint(0, 9) if r.random() < 0.4 else None
    return CircT(random_type(r, depth - 1), random_type(r, depth - 1), bound)


def random_value(r: random.Random, depth: int = 3) -> Value:
    simple = [(), NatVal(r.randint(0, 99)), Var(r.choice(_NAMES)),
              GateRef(r.choice(("H", "CNOT", "init", "myGate")))]
    if depth <= 0 or r.random() < 0.4:
        return r.choice(simple)
    kind = r.choice(("pair", "lam", "lift"))
    if kind == "pair":
        return (random_value(r, depth - 1), random_value(r, depth - 1))
    if kind == "lam":
        return Lam(r.choice(_NAMES), random_type(r, depth - 1),
                   random_term(r, depth - 1))
    return Lift(random_term(r, depth - 1))


def bind(binder, body: Term) -> Block:
    """``binder`` in front of ``body``'s binders, in one block."""
    if type(body) is Block:
        return Block((binder,) + body.binders, body.tail)
    return Block((binder,), body)


def random_term(r: random.Random, depth: int = 3) -> Term:
    if depth <= 0:
        return Ret(random_value(r, 0))
    kind = r.choice(("ret", "app", "let", "dest", "ifz", "force", "box",
                     "apply"))
    if kind == "ret":
        return Ret(random_value(r, depth - 1))
    if kind == "app":
        return App(random_value(r, depth - 1), random_value(r, depth - 1))
    if kind == "let":
        binder = LetBinder(r.choice(_NAMES), random_term(r, depth - 1))
        return bind(binder, random_term(r, depth - 1))
    if kind == "dest":
        binder = DestBinder(r.choice(_NAMES), r.choice(_NAMES),
                            random_value(r, depth - 1))
        return bind(binder, random_term(r, depth - 1))
    if kind == "ifz":
        return Ifz(random_value(r, depth - 1), random_term(r, depth - 1),
                   random_term(r, depth - 1))
    if kind == "force":
        return Force(random_value(r, depth - 1))
    if kind == "box":
        return Box(random_type(r, depth - 1), random_value(r, depth - 1))
    return Apply(random_value(r, depth - 1), random_value(r, depth - 1))


def random_ast_program(r: random.Random) -> Program:
    inputs = tuple((r.choice(_NAMES) + str(i), random_type(r, 1))
                   for i in range(r.randint(0, 3)))
    gates_path = "extra_gates.pqcg" if r.random() < 0.3 else None
    return Program(inputs, gates_path, random_term(r, 3))


def boxed_doubling(levels: int, gate: str = "H") -> str:
    """One qubit through ``gate`` 2^levels times: box c0 applies the gate,
    and each box c_i applies c_(i-1) twice."""
    lines = ["inputs q: Qubit;",
             rf"let c0 = box[Qubit] lift \x: Qubit. apply(@{gate}, x) in"]
    for i in range(1, levels + 1):
        lines.append(rf"let c{i} = box[Qubit] lift \x: Qubit. "
                     rf"let y = apply(c{i - 1}, x) in apply(c{i - 1}, y) in")
    return "\n".join(lines + [f"apply(c{levels}, q)"]) + "\n"
