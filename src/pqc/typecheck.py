"""The checker: linear typing and effect inference, one set of rules.

The type system is linear: values of wire-carrying types (qubits, bits,
tensors containing them, functions) must be consumed exactly once, while
*parameter* types (1, Nat, !A, Circ(T,U), I, and tensors thereof) are
duplicable and discardable. Contexts are ordered; the order is what
connects variables to circuit wire positions.

``EffectChecker`` implements each typing rule once, refined by an effect: a
morphism of a circuit algebra from the wires a term consumes to the wires
its result holds (``effects`` runs it over the resource algebras). Plain
type checking is the same checker over ``TRIVIAL``, whose every effect is
``Effect("*", "*", 0)`` and whose ``from_bound`` answers even without a
bound, so unannotated arrows, circuits and thunks need no ascription.

A block of ``let`` and ``dest`` binders is inferred as a left fold, read in
a loop; in the paper's monadic reading a ``let`` is Kleisli composition.
It is the fold ``abstract`` runs over a circuit's gates, on the same
accumulator (``CircuitAlgebra.fold``): a running prefix effect from the
entries the block has consumed so far to the wires live now. Each binder
places its bound term's effect on the wires of the entries that term
consumes; a ``dest`` (or a ``let`` of a ``return``) only hands wires to new
names, and the block's tail puts the outputs in its result's order once. Only
bound terms recurse, so recursion goes as deep as terms nest, not as long
as chains run, and each algebra's laws holding on the nose, the effect is
the one a right fold (each binder composed with the whole rest) would give.

``sharp`` maps a type to the shape of the wires a value of that type holds:
parameters hold none (I), wires hold themselves, a function holds the wires
it captured, and tensors are pointwise; ``wires_of`` flattens it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebras import TRIVIAL, CircuitAlgebra, Effect
from .circuits import (
    BoxedCircuit, Circuit, Label, LabelContext, Obj, Shape, WireType,
    flatten_bundle,
)
from .errors import (
    BoxCapturesWires, EffectError, EndpointMismatch, LinearityViolation,
    MisplacedTerm, NotACircuit, NotAFunction, NotAParameter, ObjectMismatch,
    ShapeMismatch, UnboundName,
)
from .gates import Registry, default_registry
from .syntax import (
    App, Apply, ArrowT, BangT, BitT, Block, Box, BundleUnitT, CircT, Force,
    GateRef, Ifz, Lam, LetBinder, Lift, NatT, NatVal, Program, QubitT, Ret,
    TensorT, Term, Type, UnitT, Value, Var, show_type,
)

CtxKey = Union[str, Label]


# --------------------------------------------------------------------------
# type structure
# --------------------------------------------------------------------------

def is_parameter(ty: Type) -> bool:
    """Duplicable types: they hold no wires and escape linearity."""
    match ty:
        case UnitT() | NatT() | BangT() | CircT() | BundleUnitT():
            return True
        case TensorT(left, right):
            return is_parameter(left) and is_parameter(right)
        case _:
            return False


def is_shape_type(ty: Type) -> bool:
    """Types denoting bare wire bundles: I, wires, tensors of shapes."""
    match ty:
        case BundleUnitT() | QubitT() | BitT():
            return True
        case TensorT(left, right):
            return is_shape_type(left) and is_shape_type(right)
        case _:
            return False


def sharp(ty: Type) -> Type:
    """The shape of wires held by a value of this type."""
    if is_parameter(ty):
        return BundleUnitT()
    match ty:
        case QubitT() | BitT():
            return ty
        case TensorT(left, right):
            return TensorT(sharp(left), sharp(right))
        case ArrowT(_, _, captured, _, _):
            # the annotation may say 1 where the shape grammar wants I
            return sharp(captured)
        case _:
            raise ShapeMismatch(f"no wire shape for type {show_type(ty)}")


# Each wire type's written type, and back.
_TYPE_OF_WIRE = {WireType.QUBIT: QubitT(), WireType.BIT: BitT()}
_WIRE_OF_TYPE = {type(ty): wire for wire, ty in _TYPE_OF_WIRE.items()}


def shape_of(ty: Type) -> Shape:
    """Convert a shape type to a wire shape."""
    match ty:
        case BundleUnitT():
            return ()
        case TensorT(left, right):
            return (shape_of(left), shape_of(right))
    wire = _WIRE_OF_TYPE.get(type(ty))
    if wire is None:
        raise ShapeMismatch(f"{show_type(ty)} is not a wire shape")
    return wire


_NO_WIRES = (UnitT, NatT, BangT, CircT, BundleUnitT)


def wires_of(ty: Type) -> Obj:
    """The flat wire list behind a type, in positional order: ``sharp``
    flattened, in one pass."""
    out = []
    todo = [ty]
    while todo:
        t = todo.pop()
        cls = type(t)
        if cls is TensorT:
            todo.append(t.right)
            todo.append(t.left)
        elif cls in _WIRE_OF_TYPE:
            out.append(_WIRE_OF_TYPE[cls])
        elif cls is ArrowT:
            todo.append(t.captured)
        elif cls not in _NO_WIRES:
            raise ShapeMismatch(f"no wire shape for type {show_type(t)}")
    return tuple(out)


def bundle_type(bundle, o: Obj) -> Type:
    """The shape type of a bundle of positions in the object ``o``, read in
    a loop: a pair's parts are typed in turn, then None joins them."""
    todo, done = [bundle], []
    while todo:
        b = todo.pop()
        if b is None:
            right = done.pop()
            done.append(TensorT(done.pop(), right))
        elif type(b) is not tuple:
            done.append(_TYPE_OF_WIRE[o[b]])
        elif b:
            todo += (None, b[1], b[0])
        else:
            done.append(BundleUnitT())
    return done[0]


def tensor_of(parts: list[Type]) -> Type:
    """Right-nested tensor; I when empty."""
    if not parts:
        return BundleUnitT()
    ty = parts[-1]
    for p in reversed(parts[:-1]):
        ty = TensorT(p, ty)
    return ty


def same_type(a: Type, b: Type) -> bool:
    """Structural equality for checking purposes.

    The unit value's two types 1 and I agree, and scalar ascriptions are not
    part of the structure — they are promises about effects, compared in the
    effect layer, not shapes.
    """
    match (a, b):
        case (UnitT() | BundleUnitT(), UnitT() | BundleUnitT()):
            return True
        case (TensorT(al, ar), TensorT(bl, br)):
            return same_type(al, bl) and same_type(ar, br)
        case (ArrowT(ad, ac, acap, _, _), ArrowT(bd, bc, bcap, _, _)):
            return (same_type(ad, bd) and same_type(ac, bc)
                    and same_type(acap, bcap))
        case (CircT(ad, ac, _, _), CircT(bd, bc, _, _)):
            return same_type(ad, bd) and same_type(ac, bc)
        case (BangT(ai, _), BangT(bi, _)):
            return same_type(ai, bi)
        case _:
            return a == b


def synthesize_bounds(alg: CircuitAlgebra, ty: Type) -> Type:
    """Attach the stored effects a binder's annotation implies.

    A binder annotated ``A -o[T; n] B`` or ``Circ[n](T, U)`` promises its
    body stays under n; that is all we know about it, so its stored effect
    becomes the algebra's coarsest effect with that bound. Without a bound
    ``from_bound`` answers None (nothing is known) except in ``TRIVIAL``,
    which fills in every arrow, circuit and thunk.
    """
    match ty:
        case ArrowT(dom, cod, captured, bound, eff):
            if eff is None:
                eff = alg.from_bound(wires_of(captured) + wires_of(dom),
                                     wires_of(cod), bound)
            return ArrowT(synthesize_bounds(alg, dom), synthesize_bounds(alg, cod),
                          captured, bound, eff)
        case CircT(dom, cod, bound, eff):
            if eff is None:
                eff = alg.from_bound(wires_of(dom), wires_of(cod), bound)
            return CircT(dom, cod, bound, eff)
        case TensorT(left, right):
            return TensorT(synthesize_bounds(alg, left),
                           synthesize_bounds(alg, right))
        case BangT(inner, eff):
            if eff is None:
                eff = alg.from_bound((), wires_of(inner), None)
            return BangT(synthesize_bounds(alg, inner), eff)
        case _:
            return ty


# --------------------------------------------------------------------------
# the checker
# --------------------------------------------------------------------------

@dataclass(slots=True)
class _Binder:
    """A context entry; its wires and linearity are computed once, at push.
    ``shadows`` is the entry its key named before it, if any."""

    key: CtxKey
    ty: Type
    wires: Obj
    linear: bool
    shadows: Optional[int]


def _binder_text(b) -> str:
    """How errors name a binder: ``let x`` or ``dest (a, b)``."""
    return f"let {b.var}" if type(b) is LetBinder else f"dest ({b.left}, {b.right})"


class EffectChecker:
    """Types terms and infers their effects in one algebra.

    Each context entry contributes a block of wires (``wires_of`` its type).
    The invariant, checked where each effect is made: the effect runs from
    the wires of the linear entries the term uses (in context order) to the
    wires of its result type. ``used`` sets hold context indices, so
    shadowed entries stay distinct. ``scope`` maps each key to its latest
    entry, so a lookup costs the same however far the binding is; each
    entry remembers the one it shadows, and dropping entries gives the
    shadowed ones back their keys.

    A block's binders and its tail are read in a loop, and their effect is
    folded left to right (``_fold``); any other term is read as a block of
    no binders. Only bound terms and the terms inside values recurse, so
    the depth of recursion is the nesting of terms, not the length of a
    chain.
    """

    def __init__(self, alg: CircuitAlgebra, registry: Optional[Registry] = None):
        self.alg = alg
        self.registry = registry or default_registry()
        self.ctx: list[_Binder] = []
        self.scope: dict[CtxKey, int] = {}  # key -> index of its latest entry
        self._gates: dict[str, CircT] = {}  # gate name -> its circuit type

    # ---- context plumbing -------------------------------------------------

    def push(self, key: CtxKey, ty: Type) -> None:
        """Bind a name at an annotated (source) type."""
        self._bind(key, synthesize_bounds(self.alg, ty))

    def _bind(self, key: CtxKey, ty: Type, wires: Optional[Obj] = None) -> None:
        """Bind a name at an inferred type, whose stored effects are in place;
        ``wires`` are the type's, when the caller already has them."""
        ctx, scope = self.ctx, self.scope
        ctx.append(_Binder(key, ty, wires_of(ty) if wires is None else wires,
                           not is_parameter(ty), scope.get(key)))
        scope[key] = len(ctx) - 1

    def _truncate(self, base: int) -> None:
        """Drop the entries from ``base`` on, latest first, handing each key
        back to the entry it shadowed."""
        ctx, scope = self.ctx, self.scope
        for i in range(len(ctx) - 1, base - 1, -1):
            e = ctx[i]
            if e.shadows is None:
                del scope[e.key]
            else:
                scope[e.key] = e.shadows
        del ctx[base:]

    def check_closed(self, ctx: Sequence[tuple[CtxKey, Type]],
                     m: Term) -> tuple[Type, Effect]:
        """Type and effect of a term; all linear context entries must be consumed."""
        for key, ty in ctx:
            self.push(key, ty)
        ty, used, eff = self.infer_term(m)
        missing = [e.key for i, e in enumerate(self.ctx)
                   if e.linear and i not in used]
        if missing:
            raise LinearityViolation(
                f"unconsumed linear inputs: {', '.join(map(str, missing))}")
        return ty, eff

    def _lookup(self, key: CtxKey) -> int:
        i = self.scope.get(key)
        if i is not None:
            return i
        raise UnboundName(
            f"unbound {'label' if isinstance(key, Label) else 'variable'} {key}")

    def _linear(self, used: set[int]) -> set[int]:
        ctx = self.ctx
        return {i for i in used if ctx[i].linear}

    def _merge(self, a: set[int], b: set[int], what: str) -> set[int]:
        both = self._linear(a & b)
        if both:
            names = ", ".join(str(self.ctx[i].key) for i in sorted(both))
            raise LinearityViolation(f"{names} used more than once in {what}")
        return a | b

    def _pop(self, n: int, used: set[int], what: str) -> set[int]:
        """Drop the last n binders, insisting linear ones were consumed."""
        base = len(self.ctx) - n
        for i in range(base, len(self.ctx)):
            if self.ctx[i].linear and i not in used:
                raise LinearityViolation(
                    f"{self.ctx[i].key} is linear but never used in {what}")
        self._truncate(base)
        return {i for i in used if i < base}

    def _blocks_obj(self, indices: Sequence[int]) -> Obj:
        if len(indices) == 1:
            return self.ctx[indices[0]].wires
        return tuple(w for i in indices for w in self.ctx[i].wires)

    def _check_endpoints(self, m: Term, eff: Effect, consumed: Sequence[int],
                         cod: Obj, ty: Type) -> None:
        """The invariant: ``eff`` runs from the wires of the ``consumed``
        entries to the wires ``cod`` of its result type ``ty``. Only a
        positional algebra's effects have endpoints to check."""
        alg = self.alg
        if alg.positional and (eff.dom != alg.obj_of(self._blocks_obj(consumed))
                               or eff.cod != alg.obj_of(cod)):
            raise EndpointMismatch(
                f"{alg.name} effect {eff.dom}→{eff.cod} of {type(m).__name__} "
                f"does not run from its consumed wires to its result {show_type(ty)}")

    # ---- stored effects ---------------------------------------------------

    def _check_promise(self, actual: Type, expected: Type, what: str) -> None:
        """Enforce scalar ascriptions the expected type makes about functions."""
        match (actual, expected):
            case (TensorT(al, ar), TensorT(bl, br)):
                self._check_promise(al, bl, what)
                self._check_promise(ar, br, what)
            case (BangT(ai, _), BangT(bi, _)):
                self._check_promise(ai, bi, what)
            case ((ArrowT(), ArrowT()) | (CircT(), CircT())) if expected.bound is not None:
                if actual.eff is None:
                    raise EffectError(
                        f"cannot establish the promised bound {expected.bound} "
                        f"for {what}")
                reached = self.alg.bound_of(actual.eff)
                if reached > expected.bound:
                    raise EffectError(
                        f"{what} must stay under {expected.bound} "
                        f"but reaches {reached}")

    def _stored_effect(self, ty: ArrowT | CircT) -> Effect:
        """The effect a function or circuit type stores for its body."""
        if ty.eff is None:
            if isinstance(ty, ArrowT):
                what = "function"
                hint = f"{show_type(ty.dom)} -o[{show_type(ty.captured)}; n] ..."
            else:
                what, hint = "circuit", "Circ[n](...)"
            raise EffectError(f"no effect information for a {what} of type "
                              f"{show_type(ty)}; ascribe a bound: {hint}")
        return ty.eff

    def _boxed_type(self, boxed: BoxedCircuit) -> CircT:
        # the bundle's k-th wire feeds body input k; the body's outputs are
        # returned in the bundle's order
        body = boxed.body
        eff = self.alg.abstract(body, self.registry, flatten_bundle(boxed.outputs))
        return CircT(bundle_type(boxed.inputs, body.dom),
                     bundle_type(boxed.outputs, body.cod), None, eff)

    # ---- values -----------------------------------------------------------

    def infer_value(self, v: Value) -> tuple[Type, set[int], list[int]]:
        """Returns (type, used entries, linear entries in the value's wire order)."""
        match v:
            case Var(name):
                i = self._lookup(name)
                return self.ctx[i].ty, {i}, [i] if self.ctx[i].linear else []
            case Label():
                i = self._lookup(v)
                return self.ctx[i].ty, {i}, [i]
            case (left, right):
                lt, lu, lo = self.infer_value(left)
                rt, ru, ro = self.infer_value(right)
                return TensorT(lt, rt), self._merge(lu, ru, "a pair"), lo + ro
            case ():
                return UnitT(), set(), []
            case NatVal():
                return NatT(), set(), []
            case GateRef(name):
                ct = self._gates.get(name)
                if ct is None:
                    gdef = self.registry.lookup(name)
                    ct = self._gates[name] = CircT(
                        tensor_of([_TYPE_OF_WIRE[w] for w in gdef.gate.dom]),
                        tensor_of([_TYPE_OF_WIRE[w] for w in gdef.gate.cod]), None,
                        self.alg.gate_effect(gdef))
                return ct, set(), []
            case BoxedCircuit():
                return self._boxed_type(v), set(), []
            case Lam(var, ty0, body):
                self.push(var, ty0)
                dom = self.ctx[-1].ty
                bt, used, eff = self.infer_term(body)
                used = self._pop(1, used, f"the body of \\{var}")
                captured_ix = sorted(self._linear(used))
                captured = tensor_of([sharp(self.ctx[i].ty) for i in captured_ix])
                return ArrowT(dom, bt, captured, None, eff), used, captured_ix
            case Lift(term):
                ty, used, eff = self.infer_term(term)
                lin = self._linear(used)
                if lin:
                    names = ", ".join(str(self.ctx[i].key) for i in sorted(lin))
                    raise NotAParameter(
                        f"lift body must be duplicable but uses {names}")
                return BangT(ty, eff), used, []
        raise MisplacedTerm(f"not a value: {v!r}")

    # ---- terms ------------------------------------------------------------

    def infer_term(self, m: Term) -> tuple[Type, set[int], Effect]:
        """Type, used entries and effect of a term."""
        ty, _, used, eff = self._infer(m)
        return ty, used, eff

    def _infer(self, m: Term) -> tuple[Type, Obj, set[int], Effect]:
        """Type, its wires, used entries and effect of a term, by its block.

        Each binder and the tail is one step: the entries it consumes and
        the effect it places on their wires (none for ``dest`` and
        ``return``, which only hand wires on). Linearity is checked once
        the block is read, binder by binder from the last one, so an error
        is reported where a rule nested once per binder would find it first.
        """
        ctx = self.ctx
        base = len(ctx)
        # per step: linear entries consumed (in the order the effect takes
        # their wires), the effect or None, the first entry it binds and how
        # many; step k < len(binders) is binders[k]
        steps: list[tuple[list[int], Optional[Effect], int, int]] = []
        used: set[int] = set()
        last: dict[int, int] = {}         # linear entry -> step that last consumed it
        again: dict[int, list[int]] = {}  # step -> its entries a later step consumes

        def consume(u: set[int], order: list[int], e: Optional[Effect],
                    count: int) -> None:
            k = len(steps)
            used.update(u)
            for i in order:
                if i in last:
                    again.setdefault(last[i], []).append(i)
                last[i] = k
            steps.append((order, e, len(ctx), count))

        binders, tail = (m.binders, m.tail) if type(m) is Block else ((), m)
        for b in binders:
            if type(b) is LetBinder:
                ty, wires, u, order, e = self._leaf(b.bound)
                consume(u, order, e, 1)
                self._bind(b.var, ty, wires)
            else:
                vt, u, order = self.infer_value(b.value)
                if not isinstance(vt, TensorT):
                    raise ShapeMismatch(f"dest needs a tensor, got {show_type(vt)}")
                consume(u, order, None, 2)
                # the value's wires are its entries', in order: the right
                # half gets those the left half does not take
                left = wires_of(vt.left)
                self._bind(b.left, vt.left, left)
                self._bind(b.right, vt.right, self._blocks_obj(order)[len(left):])
        ty, wires, u, order, e = self._leaf(tail)
        consume(u, order, e, 0)

        for k in range(len(binders) - 1, -1, -1):
            _, _, first, count = steps[k]
            for i in range(first, first + count):
                if ctx[i].linear and i not in last:
                    raise LinearityViolation(
                        f"{ctx[i].key} is linear but never used in the body "
                        f"of {_binder_text(binders[k])}")
            if k in again:
                names = ", ".join(str(ctx[i].key) for i in sorted(again[k]))
                raise LinearityViolation(
                    f"{names} used more than once in {_binder_text(binders[k])}")

        outer = sorted(i for i in last if i < base)
        eff = self._fold(steps, outer)
        self._truncate(base)
        self._check_endpoints(m, eff, outer, wires, ty)
        return ty, wires, {i for i in used if i < base}, eff

    def _fold(self, steps, outer: list[int]) -> Effect:
        """The effect of a block's steps, folded left to right.

        The algebra's fold accumulator starts on the wires of ``outer``, the
        entries from outside the block that it consumes (in context order):
        an outer entry is an idle wire from the start of the block until a
        step consumes it, so width counts it beside every earlier step.
        ``live`` holds the handles of each live entry's wires; a step places
        its effect on its entries' handles and deals the handles it gets
        back to the entries it binds (a step without an effect passes its
        handles on). The fold freezes once, in the last step's output order.
        """
        ctx = self.ctx
        fold = self.alg.fold(self._blocks_obj(outer))
        wires = fold.wires
        if wires is None:
            for _, e, _, _ in steps:
                if e is not None:
                    fold.place(None, e)
            return fold.freeze(None)
        live: dict[int, list] = {}

        def deal(entries, handles: list) -> None:
            at = 0
            for i in entries:
                if ctx[i].linear:
                    live[i] = handles[at:at + len(ctx[i].wires)]
                    at += len(ctx[i].wires)

        deal(outer, wires)
        out: list = []
        for order, e, first, count in steps:
            taken = [w for i in order for w in live.pop(i)]
            out = taken if e is None else fold.place(taken, e)
            deal(range(first, first + count), out)
        return fold.freeze(out)

    def _leaf(self, m: Term) -> tuple[Type, Obj, set[int], list[int], Optional[Effect]]:
        """A bound term or the tail of a block: its type and that type's wires,
        the entries it uses, the linear ones in the order its effect takes
        their wires, and the effect (None for a ``return``)."""
        alg = self.alg
        order = None  # in the effect's wire order; by default, context order
        match m:
            case Ret(v):
                ty, used, order = self.infer_value(v)
                return ty, self._blocks_obj(order), used, order, None
            case Apply(circ, arg):
                ct, cu, _ = self.infer_value(circ)
                if not isinstance(ct, CircT):
                    raise NotACircuit(f"apply needs a circuit, got {show_type(ct)}")
                eff = self._stored_effect(ct)
                at, au, order = self.infer_value(arg)
                if not same_type(at, ct.dom):
                    raise ShapeMismatch(
                        f"circuit expects {show_type(ct.dom)}, got {show_type(at)}")
                ty = ct.cod
                wires = wires_of(ty)
                used = self._merge(cu, au, "apply")
            case App(fn, arg):
                ft, fu, fo = self.infer_value(fn)
                if not isinstance(ft, ArrowT):
                    raise NotAFunction(f"cannot apply a value of type {show_type(ft)}")
                eff = self._stored_effect(ft)
                at, au, ao = self.infer_value(arg)
                if not same_type(at, ft.dom):
                    raise ShapeMismatch(
                        f"function expects {show_type(ft.dom)}, got {show_type(at)}")
                self._check_promise(at, ft.dom, "the argument")
                ty = ft.cod
                wires = wires_of(ty)
                used = self._merge(fu, au, "an application")
                order = fo + ao
            case Block():
                ty, wires, used, eff = self._infer(m)
                return ty, wires, used, sorted(self._linear(used)), eff
            case Force(value):
                vt, used, _ = self.infer_value(value)
                if not isinstance(vt, BangT):
                    raise ShapeMismatch(f"force needs a !-type, got {show_type(vt)}")
                ty = vt.inner
                wires = wires_of(ty)
                if vt.eff is not None:
                    eff = vt.eff
                elif not wires:
                    eff = alg.identity_effect(alg.obj_of(()))
                else:
                    raise EffectError(
                        f"no effect information when forcing {show_type(vt)}")
            case Ifz(cond, then, els):
                ct, cu, _ = self.infer_value(cond)
                if not isinstance(ct, NatT):
                    raise ShapeMismatch(
                        f"ifz condition must be Nat, got {show_type(ct)}")
                ty, wires, tu, te = self._infer(then)
                et, _, eu, ee = self._infer(els)
                if ty != et:
                    raise ShapeMismatch(
                        f"ifz branches disagree: {show_type(ty)} vs {show_type(et)}")
                if self._linear(tu) != self._linear(eu):
                    raise LinearityViolation(
                        "ifz branches must consume the same wires")
                used = cu | tu | eu
                eff = alg.join(te, ee)
            case Box(shape_ty, value):
                if not is_shape_type(shape_ty):
                    raise ShapeMismatch(
                        f"box annotation must be a wire shape, got {show_type(shape_ty)}")
                vt, used, _ = self.infer_value(value)
                if not isinstance(vt, BangT) or not isinstance(vt.inner, ArrowT):
                    raise NotAFunction(
                        f"box needs a lifted function, got {show_type(vt)}")
                arrow = vt.inner
                if wires_of(arrow.captured):
                    raise BoxCapturesWires(
                        f"cannot box a function holding wires of shape "
                        f"{show_type(arrow.captured)}")
                if not same_type(arrow.dom, shape_ty):
                    raise ShapeMismatch(
                        f"box annotation {show_type(shape_ty)} does not match "
                        f"function input {show_type(arrow.dom)}")
                if not is_shape_type(arrow.cod):
                    raise ShapeMismatch(
                        f"boxed function must return a wire bundle, "
                        f"got {show_type(arrow.cod)}")
                fn_eff = self._stored_effect(arrow)
                unit = alg.identity_effect(alg.obj_of(()))
                fold = alg.fold(wires_of(arrow.dom))
                handles = fold.wires
                if vt.eff is not None:  # the lift's effect: no wires in or out
                    fold.place(None if handles is None else [], vt.eff)
                circ_eff = fold.freeze(fold.place(handles, fn_eff))
                ty = CircT(arrow.dom, arrow.cod, arrow.bound, circ_eff)
                wires = ()
                eff = unit
            case _:
                raise ShapeMismatch(f"not a term: {m!r}")
        if order is None:
            order = sorted(self._linear(used))
        self._check_endpoints(m, eff, order, wires, ty)
        return ty, wires, used, order, eff


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def input_wires(prog: Program) -> Obj:
    """The wire of each program input; every entry point refuses an input
    that is not a single wire."""
    wires = tuple(_WIRE_OF_TYPE.get(type(ty)) for _, ty in prog.inputs)
    if None in wires:
        name, ty = prog.inputs[wires.index(None)]
        raise ShapeMismatch(
            f"program inputs must be single wires; {name} has type {show_type(ty)}")
    return wires


def check_program(prog: Program, registry: Optional[Registry] = None) -> Type:
    """Type a whole program; every input wire must be consumed."""
    input_wires(prog)
    return EffectChecker(TRIVIAL, registry).check_closed(prog.inputs, prog.term)[0]


def check_configuration(
    in_ctx: LabelContext,
    circuit: Circuit,
    m: Term,
    out_ctx: Optional[LabelContext] = None,
    registry: Optional[Registry] = None,
) -> tuple[Type, LabelContext]:
    """Type a machine configuration (circuit under construction + term).

    The term's free labels must name outputs of the circuit, given by
    ``out_ctx`` (defaults to ``in_ctx`` for a circuit with no steps yet).
    Returns the term's type and the passthrough context of outputs the term
    leaves untouched.
    """
    if in_ctx.obj != circuit.dom:
        raise ObjectMismatch(
            f"input context types {in_ctx.obj} but circuit wants {circuit.dom}")
    if out_ctx is None:
        if circuit.steps:
            raise ObjectMismatch(
                "out_ctx is required once the circuit has steps")
        out_ctx = in_ctx
    if out_ctx.obj != circuit.cod:
        raise ObjectMismatch(
            f"output context types {out_ctx.obj} but circuit produces {circuit.cod}")
    checker = EffectChecker(TRIVIAL, registry)
    for label, wt in out_ctx:
        checker.push(label, _TYPE_OF_WIRE[wt])
    ty, used, _ = checker.infer_term(m)
    leftover = [out_ctx.entries[i] for i in range(len(out_ctx.entries))
                if i not in used]
    return ty, LabelContext(tuple(leftover))
