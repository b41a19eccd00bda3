"""Evaluation of programs into circuits, by an environment machine.

``evaluate_program`` is the one entry point. A run starts from the
program's input wires, labelled ``#0, #1, ...`` in order: the circuit is
the identity on them, and the term is the program's. A machine state is
the circuit built so far, whose builder names its open outputs, and the
term still to run, with an environment giving the term's free variables
their values. Evaluation only ever extends the circuit — ``apply``
appends a boxed circuit at the wires named by its argument bundle, and
``box`` runs its function on a fresh private builder and captures the
result as a value. This is the configuration semantics of Proto-Quipper-M
(Rios & Selinger, QPL 2017), in which ``append`` is the only way a circuit
grows.

The machine is call-by-value and never substitutes into the program:

* ``\\x. M`` and ``lift M`` evaluate to closures over the scope they are
  written in; application and ``force`` run the body in that scope.
* A wire is a ``Label``, a pair a 2-tuple, unit ``()`` and a boxed
  circuit its ``BoxedCircuit``, in the program's syntax and at run time
  alike. So a bundle of wires is the builder's own form: ``apply`` hands
  its argument to the builder and returns the builder's result as it is,
  ``box`` binds its fresh bundle as it is and evaluates to the circuit it
  packages.
* A block's binders, application and ``force`` run in one loop over an
  explicit continuation stack, so deep programs use no Python recursion.
* Each circuit grows in one ``CircuitBuilder`` (the program's, plus one
  per ``box``), which mints its input labels and every later one from the
  run's supply.
  Validation happens in two places, once each: a ``BoxedCircuit`` checks
  its interfaces, bundles of its body's positions, when it is made, and
  the builder derives and checks the whole circuit's cod when it packages
  the circuit (at the end of the run, or of a ``box``), once per distinct
  step and input object (``Circuit``). In between, ``apply`` only checks
  its argument against the body's input types and places the body's steps
  by index arithmetic; a gate literal's layer is placed once per offset
  and shared.
* Every rule firing costs one unit of fuel.
* In a program that type-checked, a closure that is called again is a
  lifted one, and reaches no wire but its argument's (``_Memo``). It adds
  the same steps, labels and fuel whenever it is applied at the same typed
  positions of a circuit of the same width. So the builder records such a
  call, and replays it for a later call of the same closure at the same
  positions. The caller says that the program checked (``checked=True``);
  an unchecked run interprets every call.

``evaluate_program`` returns the result in its runtime form, which is its
syntax unless it holds a closure. ``readback`` substitutes each closure's
scope into it, only where a value is printed (``show_runtime``): by ``pqc
run`` or in an error message.
"""

from __future__ import annotations

from typing import AbstractSet, Optional, Union

from .circuits import (
    BoxedCircuit, Bundle, Circuit, CircuitBuilder, Label, WireType,
    flatten_bundle, label_supply, spine,
)
from .errors import FuelExhausted, Stuck
from .gates import Registry, default_registry
from .syntax import (
    App, Apply, Block, Box, DestBinder, Force, GateRef, Ifz, Lam, LetBinder,
    Lift, NatVal, Program, Ret, Term, Value, Var, show_value,
)
from .typecheck import input_wires, shape_of


# --------------------------------------------------------------------------
# scopes and closures
# --------------------------------------------------------------------------

class Env:
    """A scope: the variables bound in it, and the enclosing scope.

    A let-chain binds into one scope in place. A closure that captures a
    scope seals it and every enclosing scope; a binder in a sealed scope
    opens a child scope, so a closure never sees a binding made after it.
    """

    __slots__ = ("vars", "parent", "sealed")

    def __init__(self, vars: Optional[dict] = None, parent: Optional[Env] = None):
        self.vars = {} if vars is None else vars
        self.parent = parent
        self.sealed = False

    def lookup(self, name: str):
        env: Optional[Env] = self
        while env is not None:
            v = env.vars.get(name)
            if v is not None:
                return v
            env = env.parent
        return None

    def seal(self) -> None:
        env: Optional[Env] = self
        while env is not None and not env.sealed:
            env.sealed = True
            env = env.parent

    def bind(self, name: str, v) -> Env:
        env = Env(parent=self) if self.sealed else self
        env.vars[name] = v
        return env


class Closure:
    """``\\x. M`` or ``lift M`` with the scope it was written in."""

    __slots__ = ("value", "env")

    def __init__(self, value: Union[Lam, Lift], env: Env):
        self.value = value
        self.env = env

    def __str__(self) -> str:
        return show_runtime(self)


def _value(v: Value, env: Env):
    """A value's runtime form: its variables looked up, through pairs, and
    lambdas and lifts closed. An unbound variable stays a variable, as
    substitution would leave it.
    """
    t = type(v)
    if t is Var:
        w = env.lookup(v.name)
        return v if w is None else w
    if t is tuple and v:
        return (_value(v[0], env), _value(v[1], env))
    if t is Lam or t is Lift:
        env.seal()
        return Closure(v, env)
    return v


# --------------------------------------------------------------------------
# read-back: substituting a closure's scope into it
# --------------------------------------------------------------------------

def readback(v) -> Value:
    """The syntax value a runtime value stands for: its closures read back."""
    t = type(v)
    if t is Closure:
        return subst_value(v.value, v.env)
    if t is tuple and v:
        return (readback(v[0]), readback(v[1]))
    return v


def show_runtime(v) -> str:
    """A runtime value's source text."""
    return show_value(readback(v))


def subst_value(v: Value, env: Env, bound: AbstractSet[str] = frozenset()) -> Value:
    """``v`` with each free variable bound in ``env`` replaced by its value.

    ``bound`` holds the names bound between ``v`` and ``env``: binders
    shadow the scope.
    """
    match v:
        case Var(name):
            w = None if name in bound else env.lookup(name)
            return v if w is None else readback(w)
        case (left, right):
            return (subst_value(left, env, bound), subst_value(right, env, bound))
        case Lam(var, ty, body):
            return Lam(var, ty, subst_term(body, env, bound | {var}))
        case Lift(term):
            return Lift(subst_term(term, env, bound))
        case _:
            return v


def subst_term(m: Term, env: Env, bound: AbstractSet[str] = frozenset()) -> Term:
    match m:
        case Ret(v):
            return Ret(subst_value(v, env, bound))
        case App(fn, arg):
            return App(subst_value(fn, env, bound), subst_value(arg, env, bound))
        case Block(binders, tail):
            out = []
            bound = set(bound)  # grows binder by binder, in place
            for b in binders:
                if type(b) is LetBinder:
                    out.append(LetBinder(b.var, subst_term(b.bound, env, bound)))
                    bound.add(b.var)
                else:
                    value = subst_value(b.value, env, bound)
                    out.append(DestBinder(b.left, b.right, value))
                    bound.update((b.left, b.right))
            return Block(tuple(out), subst_term(tail, env, bound))
        case Ifz(cond, then, els):
            return Ifz(subst_value(cond, env, bound), subst_term(then, env, bound),
                       subst_term(els, env, bound))
        case Force(v):
            return Force(subst_value(v, env, bound))
        case Box(shape, v):
            return Box(shape, subst_value(v, env, bound))
        case Apply(circ, arg):
            return Apply(subst_value(circ, env, bound), subst_value(arg, env, bound))
    raise Stuck(f"cannot substitute in {m!r}")


# --------------------------------------------------------------------------
# bundles as values
# --------------------------------------------------------------------------

def value_to_bundle(v) -> Bundle:
    """A runtime value as a wire bundle: it is its own, once checked to hold
    only labels."""
    if type(v) is not Label:
        for x in flatten_bundle(v):
            if type(x) is not Label:
                raise Stuck(f"expected a wire bundle, got {show_runtime(x)}")
    return v


# --------------------------------------------------------------------------
# replaying calls
# --------------------------------------------------------------------------

class _Memo:
    """The recorded calls of one evaluation, keyed by the closure (its
    ``Lam``'s id and its sealed ``Env``) and where the builder ``locate``s
    the argument. A record is the builder's, with the fuel the call spent.

    Only a run of a program that type-checked keeps a memo, and the typing
    is what makes a replay sound. ``CircuitBuilder.record`` asks that a
    call attach no wire but its argument's and those it creates.
    A key repeats only when the same ``Lam`` is evaluated again in the same
    ``Env``. A function type is linear, so one closure is applied once. An
    application runs its body in a new scope, and a binder in a sealed scope
    opens a child scope, so a closure made in a body or after a ``let`` is
    new each time. What is left is ``force`` of a ``lift``, which runs its
    term in the one scope the lift was written in.
    The ``!`` rule types ``lift M`` only under a context with no linear
    variables, and labels are linear. So the lifted closure, and everything
    its scope holds (numbers, unit, boxed circuits and other lifts), reaches
    no wire. An unchecked run has no such guarantee and interprets every
    call.
    """

    def __init__(self):
        self.records: dict = {}

    def enter(self, fn: Closure, arg, builder: CircuitBuilder,
              fuel: Optional[int], stack: list):
        """Replay ``fn`` applied to ``arg`` if recorded, returning the value
        and the fuel spent. Else None: the caller runs the body, under a frame
        pushed here if the call may be recorded."""
        where = builder.locate(arg)
        if where is None:
            return None
        key = (id(fn.value), fn.env, *where)
        rec = self.records.get(key)
        if rec is None:
            stack.append([key, builder.mark(where), fuel])
            return None
        record, cost = rec
        if fuel is not None and fuel < cost:
            return None  # short of fuel, the body runs out at the same rule
        return builder.replay(record), cost

    def leave(self, call: list, v, builder: CircuitBuilder, fuel: Optional[int]):
        """Record the call that pushed ``call`` and returned ``v``, if it can."""
        key, mark, fuel0 = call
        record = builder.record(mark, v)
        if record is not None:
            self.records[key] = (record, 0 if fuel is None else fuel0 - fuel)


# --------------------------------------------------------------------------
# the machine
# --------------------------------------------------------------------------

_BOX_FN, _BOX_ARG = "%fn", "%arg"  # not identifiers: no program can shadow them
_BOX_CALL = App(Var(_BOX_FN), Var(_BOX_ARG))

# Terms that bind variables in the scope they run in: a block's binders, or
# those of a block in a branch. As the bound term of a let they run in a
# child scope, so their binders stay out of the rest of the let's block.
_BINDS_IN_SCOPE = (Block, Ifz)


def _run(builder: CircuitBuilder, env: Env, m: Term, registry: Registry,
         fuel: Optional[int], checked: bool):
    """Run ``m`` to a runtime value, extending ``builder``'s circuit; replay
    repeated calls if the program type-checked (``checked``, ``_Memo``)."""
    # (var, rest, next binder, env) for a let; the builder to resume after a
    # box; a list for a call being recorded (_Memo.enter)
    stack: list = []
    memo = _Memo() if checked else None
    i = 0  # the binder to run next while m is a block; 0 otherwise
    while True:
        if fuel is not None:
            if fuel <= 0:
                raise FuelExhausted("evaluation fuel exhausted")
            fuel -= 1
        t = type(m)
        if t is Block:  # one binder per step: the block itself costs no fuel
            b = m.binders[i]
            i += 1
            rest = m
            if i == len(m.binders):
                rest, i = m.tail, 0
            if type(b) is LetBinder:
                stack.append((b.var, rest, i, env))
                if type(b.bound) in _BINDS_IN_SCOPE:
                    env = Env(parent=env)
                m, i = b.bound, 0
            else:
                pair = _value(b.value, env)
                if type(pair) is not tuple or not pair:  # () is unit
                    raise Stuck(f"dest needs a pair, got {show_runtime(pair)}")
                # on a repeated name the right component wins, as in the checker
                env = env.bind(b.left, pair[0]).bind(b.right, pair[1])
                m = rest
            continue
        # a variable operand is one lookup; _value handles the rest (and an
        # unbound variable, which stays a variable)
        if t is Ret:
            x = m.value
            v = env.lookup(x.name) if type(x) is Var else None
            if v is None:
                v = _value(x, env)
        elif t is Apply:
            circ = m.circ
            if type(circ) is not GateRef:
                circ = _value(circ, env)
            if type(circ) is GateRef:
                boxed = registry.boxed(circ.name)
            elif type(circ) is BoxedCircuit:
                boxed = circ
            else:
                raise Stuck(f"apply needs a circuit, got {show_runtime(circ)}")
            v = builder.append(value_to_bundle(_value(m.arg, env)), boxed)
        elif t is App:
            x = m.fn
            fn = env.lookup(x.name) if type(x) is Var else None
            if fn is None:
                fn = _value(x, env)
            if type(fn) is not Closure or type(fn.value) is not Lam:
                if type(fn) is GateRef or type(fn) is BoxedCircuit:
                    raise Stuck(f"{show_runtime(fn)} is a circuit; run it with apply(...)")
                raise Stuck(f"cannot apply non-function {show_runtime(fn)}")
            x = m.arg
            arg = env.lookup(x.name) if type(x) is Var else None
            if arg is None:
                arg = _value(x, env)
            hit = memo and memo.enter(fn, arg, builder, fuel, stack)
            if hit is None:
                lam = fn.value
                env = Env({lam.var: arg}, fn.env)
                m = lam.body
                continue
            v, spent = hit
            if fuel is not None:
                fuel -= spent
        elif t is Ifz:
            cond = _value(m.cond, env)
            if type(cond) is not NatVal:
                raise Stuck(f"ifz needs a number, got {show_runtime(cond)}")
            m = m.then if cond.n == 0 else m.els
            continue
        elif t is Force:
            x = m.value
            v = env.lookup(x.name) if type(x) is Var else None
            if v is None:
                v = _value(x, env)
            if type(v) is not Closure or type(v.value) is not Lift:
                raise Stuck(f"force needs a lifted term, got {show_runtime(v)}")
            env, m = v.env, v.value.term
            continue
        elif t is Box:
            v = _value(m.value, env)
            if type(v) is not Closure or type(v.value) is not Lift:
                raise Stuck(f"box needs a lifted function, got {show_runtime(v)}")
            stack.append(builder)
            builder = builder.private(shape_of(m.shape))
            env = Env({_BOX_ARG: builder.inputs}, v.env)
            m = Block((LetBinder(_BOX_FN, v.value.term),), _BOX_CALL)
            continue
        else:
            raise Stuck(f"no rule for {m}")

        # hand v to the innermost let binder, packaging any boxes finished on
        # the way
        while True:
            if not stack:
                return v
            k = stack.pop()
            if type(k) is tuple:
                break
            if type(k) is list:
                memo.leave(k, v, builder, fuel)
                continue
            v = builder.boxed(value_to_bundle(v))
            builder = k
        var, m, i, env = k
        if env.sealed:  # env.bind, inlined
            env = Env(parent=env)
        env.vars[var] = v


def evaluate_program(prog: Program, registry: Optional[Registry] = None,
                     fuel: Optional[int] = None, *, checked: bool = False,
                     ) -> tuple[Circuit, tuple[tuple[Label, WireType], ...], object]:
    """Run a program to a runtime value; returns (circuit, outputs, value),
    where ``outputs`` pairs each open output's label with its type, in wire
    order. The inputs are labelled ``#0, #1, ...`` in order, and new labels
    are numbered after them.

    ``checked`` says that the program type-checked (``check_program``
    accepted it). Only then are repeated calls replayed (``_Memo``); an
    unchecked run interprets every call.
    """
    builder = CircuitBuilder(spine(input_wires(prog)), label_supply())
    env = Env()
    for (name, _), label in zip(prog.inputs, flatten_bundle(builder.inputs)):
        env.vars.setdefault(name, label)  # the first of two equal names wins
    v = _run(builder, env, prog.term, registry or default_registry(), fuel, checked)
    return builder.circuit(), builder.outputs(), v
