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

Rules sequence effects with the algebra's one primitive ``then_eff``: a
``let`` reorders the context, body wires first, places the bound term's
effect after the body's wires, and composes the body's effect onto that.

``sharp`` maps a type to the shape of the wires a value of that type holds:
parameters hold none (I), wires hold themselves, a function holds the wires
it captured, and tensors are pointwise; ``wires_of`` flattens it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebras import TRIVIAL, CircuitAlgebra, Effect
from .circuits import (
    Circuit, Label, LabelContext, Obj, Shape, WireType, flatten_bundle, spine,
)
from .errors import (
    BoxCapturesWires, EffectError, EndpointMismatch, LinearityViolation,
    MisplacedTerm, NotACircuit, NotAFunction, NotAParameter, ObjectMismatch,
    ShapeMismatch, UnboundName,
)
from .gates import Registry, default_registry
from .syntax import (
    App, Apply, ArrowT, BangT, BitT, Box, BoxedVal, BundleUnitT, CircT, Dest,
    Force, GateRef, Ifz, LabelVal, Lam, Let, Lift, NatT, NatVal, Pair,
    Program, QubitT, Ret, TensorT, Term, Type, UnitT, UnitVal, Value, Var,
    show_type,
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


def shape_of(ty: Type) -> Shape:
    """Convert a shape type to a wire shape."""
    match ty:
        case BundleUnitT():
            return ()
        case QubitT():
            return WireType.QUBIT
        case BitT():
            return WireType.BIT
        case TensorT(left, right):
            return (shape_of(left), shape_of(right))
        case _:
            raise ShapeMismatch(f"{show_type(ty)} is not a wire shape")


def type_of_shape(shape: Shape) -> Type:
    if shape == ():
        return BundleUnitT()
    if isinstance(shape, WireType):
        return QubitT() if shape is WireType.QUBIT else BitT()
    left, right = shape
    return TensorT(type_of_shape(left), type_of_shape(right))


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
        elif cls is QubitT:
            out.append(WireType.QUBIT)
        elif cls is BitT:
            out.append(WireType.BIT)
        elif cls is ArrowT:
            todo.append(t.captured)
        elif cls not in _NO_WIRES:
            raise ShapeMismatch(f"no wire shape for type {show_type(t)}")
    return tuple(out)


def bundle_type(bundle, ctx: LabelContext) -> Type:
    """The shape type of a label bundle, wire types read off the context."""
    if bundle == ():
        return BundleUnitT()
    if isinstance(bundle, Label):
        return type_of_shape(ctx.type_of(bundle))
    left, right = bundle
    return TensorT(bundle_type(left, ctx), bundle_type(right, ctx))


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
    """A context entry; its wires and linearity are computed once, at push."""

    key: CtxKey
    ty: Type
    wires: Obj
    linear: bool


class EffectChecker:
    """Types terms and infers their effects in one algebra.

    Each context entry contributes a block of wires (``wires_of`` its type),
    and every rule that reshuffles the context composes in a permutation
    effect. The invariant checked at every term node: the effect runs from
    the wires of the linear entries the term uses (in context order) to the
    wires of its result type. ``used`` sets hold context indices, so
    shadowed entries stay distinct.
    """

    def __init__(self, alg: CircuitAlgebra, registry: Optional[Registry] = None):
        self.alg = alg
        self.registry = registry or default_registry()
        self.ctx: list[_Binder] = []

    # ---- context plumbing -------------------------------------------------

    def push(self, key: CtxKey, ty: Type) -> None:
        """Bind a name at an annotated (source) type."""
        self._bind(key, synthesize_bounds(self.alg, ty))

    def _bind(self, key: CtxKey, ty: Type) -> None:
        """Bind a name at an inferred type, whose stored effects are in place."""
        self.ctx.append(_Binder(key, ty, wires_of(ty), not is_parameter(ty)))

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
        ctx = self.ctx
        for i in range(len(ctx) - 1, -1, -1):
            if ctx[i].key == key:
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
        del self.ctx[base:]
        return {i for i in used if i < base}

    def _blocks_obj(self, indices: Sequence[int]) -> Obj:
        return tuple(w for i in indices for w in self.ctx[i].wires)

    def _reorder(self, target: Sequence[int]) -> Effect:
        """Permutation effect from context order to the given entry order."""
        if not self.alg.positional:
            return self.alg.perm_effect((), ())
        ctx = self.ctx
        src = sorted(target)
        dom = self._blocks_obj(src)
        if src == target:
            return self.alg.perm_effect(tuple(range(len(dom))), dom)
        offset, acc = {}, 0
        for i in target:
            offset[i] = acc
            acc += len(ctx[i].wires)
        perm: list[int] = []
        for i in src:
            perm.extend(range(offset[i], offset[i] + len(ctx[i].wires)))
        return self.alg.perm_effect(tuple(perm), dom)

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
                    if actual.bound is not None and actual.bound <= expected.bound:
                        return
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

    def _boxed_type(self, bv: BoxedVal) -> CircT:
        boxed = bv.boxed
        alg = self.alg
        body_eff = alg.abstract(boxed.body, self.registry)
        flat_in = flatten_bundle(boxed.inputs)
        p_in = tuple(boxed.in_ctx.position(lbl) for lbl in flat_in)
        in_obj = tuple(boxed.in_ctx.type_of(lbl) for lbl in flat_in)
        flat_out = flatten_bundle(boxed.outputs)
        pos_out = {lbl: i for i, lbl in enumerate(flat_out)}
        p_out = tuple(pos_out[lbl] for lbl, _ in boxed.out_ctx)
        eff = alg.compose_eff(
            alg.compose_eff(alg.perm_effect(p_in, in_obj), body_eff),
            alg.perm_effect(p_out, boxed.body.cod))
        return CircT(bundle_type(boxed.inputs, boxed.in_ctx),
                     bundle_type(boxed.outputs, boxed.out_ctx), None, eff)

    # ---- values -----------------------------------------------------------

    def infer_value(self, v: Value) -> tuple[Type, set[int], list[int]]:
        """Returns (type, used entries, linear entries in the value's wire order)."""
        match v:
            case Var(name):
                i = self._lookup(name)
                return self.ctx[i].ty, {i}, [i] if self.ctx[i].linear else []
            case LabelVal(label):
                i = self._lookup(label)
                return self.ctx[i].ty, {i}, [i]
            case Pair(left, right):
                lt, lu, lo = self.infer_value(left)
                rt, ru, ro = self.infer_value(right)
                return TensorT(lt, rt), self._merge(lu, ru, "a pair"), lo + ro
            case UnitVal():
                return UnitT(), set(), []
            case NatVal():
                return NatT(), set(), []
            case GateRef(name):
                gdef = self.registry.lookup(name)
                return CircT(type_of_shape(spine(gdef.gate.dom)),
                             type_of_shape(spine(gdef.gate.cod)), None,
                             self.alg.gate_effect(gdef)), set(), []
            case BoxedVal():
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
        """Type, used entries and effect of a term (one frame per node)."""
        alg = self.alg
        match m:
            case Let(var, bound, body):
                bt, bu, be = self.infer_term(bound)
                self._bind(var, bt)
                ty, tu, te = self.infer_term(body)
                tu = self._pop(1, tu, f"the body of let {var}")
                used = self._merge(bu, tu, f"let {var}")
                g2 = sorted(self._linear(tu))
                g1 = sorted(self._linear(bu))
                eff = alg.compose_eff(
                    alg.then_eff(self._reorder(g2 + g1),
                                 alg.obj_of(self._blocks_obj(g2)), be),
                    te)
            case Apply(circ, arg):
                ct, cu, _ = self.infer_value(circ)
                if not isinstance(ct, CircT):
                    raise NotACircuit(f"apply needs a circuit, got {show_type(ct)}")
                stored = self._stored_effect(ct)
                at, au, ao = self.infer_value(arg)
                if not same_type(at, ct.dom):
                    raise ShapeMismatch(
                        f"circuit expects {show_type(ct.dom)}, got {show_type(at)}")
                ty = ct.cod
                used = self._merge(cu, au, "apply")
                eff = alg.compose_eff(self._reorder(ao), stored)
            case Ret(v):
                ty, used, order = self.infer_value(v)
                eff = self._reorder(order)
            case Dest(left, right, value, body):
                vt, vu, vo = self.infer_value(value)
                if not isinstance(vt, TensorT):
                    raise ShapeMismatch(f"dest needs a tensor, got {show_type(vt)}")
                self._bind(left, vt.left)
                self._bind(right, vt.right)
                ty, bu, be = self.infer_term(body)
                bu = self._pop(2, bu, f"the body of dest ({left}, {right})")
                used = self._merge(vu, bu, f"dest ({left}, {right})")
                g2 = sorted(self._linear(bu))
                eff = alg.compose_eff(self._reorder(g2 + vo), be)
            case App(fn, arg):
                ft, fu, fo = self.infer_value(fn)
                if not isinstance(ft, ArrowT):
                    raise NotAFunction(f"cannot apply a value of type {show_type(ft)}")
                stored = self._stored_effect(ft)
                at, au, ao = self.infer_value(arg)
                if not same_type(at, ft.dom):
                    raise ShapeMismatch(
                        f"function expects {show_type(ft.dom)}, got {show_type(at)}")
                self._check_promise(at, ft.dom, "the argument")
                ty = ft.cod
                used = self._merge(fu, au, "an application")
                eff = alg.compose_eff(self._reorder(fo + ao), stored)
            case Force(value):
                vt, used, _ = self.infer_value(value)
                if not isinstance(vt, BangT):
                    raise ShapeMismatch(f"force needs a !-type, got {show_type(vt)}")
                ty = vt.inner
                if vt.eff is not None:
                    eff = vt.eff
                elif not wires_of(ty):
                    eff = alg.identity_effect(alg.obj_of(()))
                else:
                    raise EffectError(
                        f"no effect information when forcing {show_type(vt)}")
            case Ifz(cond, then, els):
                ct, cu, _ = self.infer_value(cond)
                if not isinstance(ct, NatT):
                    raise ShapeMismatch(
                        f"ifz condition must be Nat, got {show_type(ct)}")
                ty, tu, te = self.infer_term(then)
                et, eu, ee = self.infer_term(els)
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
                prelude = vt.eff if vt.eff is not None else unit
                left = alg.obj_of(wires_of(arrow.dom))
                circ_eff = alg.compose_eff(
                    alg.then_eff(alg.identity_effect(left), left, prelude), fn_eff)
                ty = CircT(arrow.dom, arrow.cod, arrow.bound, circ_eff)
                eff = unit
            case _:
                raise ShapeMismatch(f"not a term: {m!r}")
        if alg.positional and (
                eff.dom != alg.obj_of(self._blocks_obj(sorted(self._linear(used))))
                or eff.cod != alg.obj_of(wires_of(ty))):
            raise EndpointMismatch(
                f"{alg.name} effect {eff.dom}→{eff.cod} of {type(m).__name__} "
                f"does not run from its consumed wires to its result {show_type(ty)}")
        return ty, used, eff


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def check_program(prog: Program, registry: Optional[Registry] = None) -> Type:
    """Type a whole program; every input wire must be consumed."""
    for name, ty in prog.inputs:
        if not isinstance(ty, (QubitT, BitT)):
            raise ShapeMismatch(
                f"program inputs must be single wires; {name} has type {show_type(ty)}")
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
        checker.push(label, QubitT() if wt is WireType.QUBIT else BitT())
    ty, used, _ = checker.infer_term(m)
    leftover = [out_ctx.entries[i] for i in range(len(out_ctx.entries))
                if i not in used]
    return ty, LabelContext(tuple(leftover))
