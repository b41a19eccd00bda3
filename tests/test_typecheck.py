import dataclasses
import re

import pytest

from generators import rng, random_program
from oracles import RightFoldChecker
from pqc.algebras import ALGEBRAS, TRIVIAL, algebra, depth_bound
from pqc.circuits import (
    Circuit, Layer, WireType, box_circuit, freshlabels, identity, label_supply,
    qubits,
)
from pqc.effects import infer_program_effect, verify_dynamic
from pqc.errors import (
    BoxCapturesWires, LinearityViolation, MisplacedTerm, NotACircuit,
    NotAFunction, NotAParameter, ObjectMismatch, ParseError, PqcError,
    ShapeMismatch, TypecheckError, UnboundName,
)
from pqc.evaluator import evaluate_program
from pqc.gates import default_registry
from pqc.syntax import (
    parse_program, parse_term, parse_type, show_type, App, Apply, ArrowT,
    BangT, BitT, Block, Box, BundleUnitT, CircT, DestBinder, Force, GateRef,
    Ifz, Lam, LetBinder, Lift, NatT, NatVal, Program, QubitT, Ret,
    TensorT, UnitT, Var,
)
from pqc.typecheck import (
    EffectChecker, check_configuration, check_program, is_parameter,
    same_type, sharp, wires_of,
)

registry = default_registry()


def typed(src: str) -> str:
    prog = parse_program(src)
    return show_type(check_program(prog, registry))


def fails(src: str, exc) -> None:
    with pytest.raises(exc):
        check_program(parse_program(src), registry)


# --------------------------------------------------------------------------
# type operators
# --------------------------------------------------------------------------

def test_parameter_types():
    for s in ("1", "Nat", "!Qubit", "Circ(Qubit, Qubit)", "Nat * !Bit", "I"):
        assert is_parameter(parse_type(s)), s
    for s in ("Qubit", "Bit", "Qubit * Nat", "Qubit -o[1] Qubit"):
        assert not is_parameter(parse_type(s)), s


def test_sharp_projects_wire_content():
    assert sharp(parse_type("Nat * Qubit")) == \
        TensorT(BundleUnitT(), QubitT())
    assert sharp(parse_type("Qubit -o[Qubit * Bit] 1")) == \
        TensorT(QubitT(), BitT())
    assert sharp(parse_type("!Qubit")) == BundleUnitT()


def test_wires_of():
    assert wires_of(parse_type("Qubit * (Bit * Nat)")) == \
        (WireType.QUBIT, WireType.BIT)
    assert wires_of(parse_type("!Qubit")) == ()


def test_same_type_identifies_units_and_ignores_bounds():
    assert same_type(UnitT(), BundleUnitT())
    assert same_type(parse_type("Qubit -o[1] Qubit"),
                     parse_type("Qubit -o[1; 5] Qubit"))
    assert same_type(parse_type("Circ(Qubit, Qubit)"),
                     parse_type("Circ[9](Qubit, Qubit)"))
    assert not same_type(QubitT(), BitT())


# --------------------------------------------------------------------------
# programs that typecheck
# --------------------------------------------------------------------------

def test_gate_application():
    assert typed("inputs q: Qubit; apply(@H, q)") == "Qubit"
    assert typed("inputs q: Qubit; apply(@meas, q)") == "Bit"
    assert typed("inputs; apply(@init, *)") == "Qubit"


def test_tuples_and_dest():
    assert typed(
        "inputs a: Qubit, b: Qubit;"
        "let p = apply(@CNOT, (a, b)) in dest (x, y) = p in return (y, x)"
    ) == "Qubit * Qubit"


def test_ifz_needs_agreeing_branches():
    assert typed(
        "inputs q: Qubit; ifz 0 then apply(@H, q) else apply(@X, q)"
    ) == "Qubit"
    fails("inputs q: Qubit; ifz 0 then apply(@meas, q) else apply(@H, q)",
          ShapeMismatch)


def test_ifz_branches_must_consume_same_wires():
    fails(
        "inputs a: Qubit, b: Qubit;"
        "let u = ifz 0 then apply(@discard, a) else apply(@discard, b) in"
        " return (a, b)",
        LinearityViolation)


def test_lambda_and_application():
    assert typed(
        r"inputs q: Qubit; (\x: Qubit. apply(@H, x)) q") == "Qubit"


def test_closure_type_records_captures():
    prog = parse_program(
        r"inputs q: Qubit; return \x: Qubit. apply(@CNOT, (q, x))")
    ty = check_program(prog, registry)
    assert show_type(ty) == "Qubit -o[Qubit] Qubit * Qubit"


def test_box_lift_apply():
    assert typed(
        r"inputs q: Qubit;"
        r"let c = box[Qubit] lift \x: Qubit. apply(@H, x) in apply(c, q)"
    ) == "Qubit"


def test_force_of_lift():
    assert typed("inputs; force (lift return 3)") == "Nat"


def test_parameters_are_droppable_and_duplicable():
    assert typed("inputs; let n = return 41 in return (n, n)") == "Nat * Nat"
    assert typed("inputs; let n = return 41 in return *") == "1"


# --------------------------------------------------------------------------
# programs that must not typecheck
# --------------------------------------------------------------------------

def test_linear_variables_cannot_be_dropped():
    fails("inputs q: Qubit; return *", LinearityViolation)
    fails("inputs q: Qubit; let r = apply(@H, q) in return q",
          LinearityViolation)


def test_linear_variables_cannot_be_duplicated():
    fails("inputs q: Qubit; return (q, q)", LinearityViolation)
    fails("inputs q: Qubit; apply(@CNOT, (q, q))", LinearityViolation)


def test_unbound_names():
    fails("inputs; return ghost", UnboundName)


# --------------------------------------------------------------------------
# scoped lookup: a name finds its latest entry still in scope
# --------------------------------------------------------------------------

SHADOWED = {
    # (program, its type, its gate count); each binds a name again inside a
    # scope that closes before the outer binding is used
    "lambda": (r"inputs q: Qubit;"
               r" let f = return (\q: Qubit. let q = apply(@H, q) in return q) in f q",
               "Qubit", 1),
    "ifz": ("inputs q: Qubit; let n = return 0 in ifz n"
            " then let q = apply(@H, q) in return q"
            " else let q = apply(@X, q) in let q = apply(@X, q) in return q",
            "Qubit", 2),
    "nested block": ("inputs q: Qubit, p: Qubit;"
                     " let r = let q = apply(@H, p) in return q in"
                     " let q = apply(@X, q) in return (q, r)",
                     "Qubit * Qubit", 2),
    "dest": ("inputs a: Qubit, b: Qubit, c: Qubit;"
             " let r = dest (a, x) = (b, c) in let a = apply(@H, a) in return (a, x) in"
             " return (a, r)",
             "Qubit * Qubit * Qubit", 1),
}


@pytest.mark.parametrize("name", sorted(SHADOWED))
def test_shadowing_ends_with_its_scope(name):
    src, ty, gates = SHADOWED[name]
    assert typed(src) == ty
    prog = parse_program(src)
    for checker in (EffectChecker, RightFoldChecker):
        got_ty, eff = _outcome(checker, algebra("gates"), prog)
        assert show_type(got_ty) == ty and eff.value == gates


def test_an_inner_shadow_does_not_leak_past_its_scope():
    # inside the bound block x is a qubit; after it, x is the Nat again
    assert typed("inputs q: Qubit; let x = return 0 in"
                 " let r = let x = apply(@H, q) in return x in"
                 " ifz x then return r else return r") == "Qubit"
    assert typed(r"inputs q: Qubit; let x = return 0 in"
                 r" let f = return (\x: Qubit. return x) in"
                 r" ifz x then f q else f q") == "Qubit"


@pytest.mark.parametrize("src", [
    "inputs q: Qubit; let r = let t = apply(@H, q) in return t in return (r, t)",
    r"inputs; let f = return (\z: Nat. return z) in return (f, z)",
    "inputs; let n = return 0 in"
    " let m = ifz n then let k = return 1 in return k else return 2 in return k",
    "inputs a: Qubit, b: Qubit;"
    " let r = dest (x, y) = (a, b) in return (x, y) in return (r, x)",
])
def test_names_of_a_closed_scope_are_unbound(src):
    fails(src, UnboundName)
    prog = parse_program(src)
    for alg in (TRIVIAL, algebra("depth")):
        for checker in (EffectChecker, RightFoldChecker):
            assert _outcome(checker, alg, prog)[0] is UnboundName


def test_lift_cannot_close_over_wires():
    fails("inputs q: Qubit; force (lift apply(@H, q))", NotAParameter)


def test_box_rejects_wire_capturing_functions():
    # In a source program the lift rule trips first: a function that grabbed
    # a wire is not duplicable, so it never becomes a !-value at all.
    fails(
        r"inputs q: Qubit;"
        r"let c = box[Qubit] lift \x: Qubit. apply(@CNOT, (q, x)) in"
        r" let p = apply(c, q) in return p",
        NotAParameter)


def test_box_rejects_arrows_that_captured_wires():
    # The box rule's own guard, reached with a context entry that no source
    # program can produce (a !-function whose capture shape holds a wire).
    ck = EffectChecker(TRIVIAL, registry)
    ck.push("f", BangT(ArrowT(QubitT(), QubitT(), QubitT())))
    with pytest.raises(BoxCapturesWires):
        ck.infer_term(Box(QubitT(), Var("f")))


def test_term_in_value_position_is_a_type_error():
    # only a hand-built AST can put a term where a value belongs
    bound = Block((LetBinder("x", Ret(())),), Ret(()))
    prog = Program((), None, Ret(bound))
    with pytest.raises(MisplacedTerm):
        check_program(prog, registry)
    assert issubclass(MisplacedTerm, TypecheckError)
    assert not issubclass(MisplacedTerm, ParseError)


def test_deep_let_chain_checks_and_infers():
    # a block is read in a loop: its length costs no Python frames
    h = LetBinder("x", Apply(GateRef("H"), Var("x")))
    term = Block((h,) * 10_000, Ret(Var("x")))
    prog = Program((("x", QubitT()),), None, term)
    assert show_type(check_program(prog, registry)) == "Qubit"
    _, eff = infer_program_effect(prog, algebra("gates"), registry)
    assert eff.value == 10_000
    _, eff = infer_program_effect(prog, algebra("depth"), registry)
    assert depth_bound(eff) == 10_000


def test_a_5000_wire_boxed_spine_infers():
    # a boxed circuit's interfaces are typed in a loop, not one frame a pair
    n = 5000
    h = registry.gate("H")
    boxed = box_circuit(Circuit(qubits(n), (Layer(tuple((h, i) for i in range(n))),)))
    for alg in (TRIVIAL, algebra("gates")):
        ty, used, order = EffectChecker(alg, registry).infer_value(boxed)
        assert wires_of(ty.dom) == wires_of(ty.cod) == qubits(n)
        assert used == set() and order == []
    assert ty.eff.value == n


def test_box_needs_matching_shape():
    fails(r"inputs; let c = box[Qubit] lift \x: Qubit * Qubit. return x in"
          r" return *",
          ShapeMismatch)


def test_apply_needs_circuit_and_matching_argument():
    fails("inputs q: Qubit; apply(q, q)", NotACircuit)
    fails("inputs b: Bit; apply(@H, b)", ShapeMismatch)


def test_app_needs_function():
    fails("inputs; 3 4", NotAFunction)
    fails(r"inputs; (\x: Nat. return x) *", ShapeMismatch)


def test_dest_needs_tensor():
    fails("inputs q: Qubit; dest (a, b) = q in return (a, b)", ShapeMismatch)


def test_ifz_needs_nat():
    fails("inputs q: Qubit; let r = ifz q then return 1 else return 2 in"
          " apply(@H, q)",
          ShapeMismatch)


# --------------------------------------------------------------------------
# configurations
# --------------------------------------------------------------------------

GATES = ALGEBRAS["gates"]
ENTRY_POINTS = {
    "check_program": lambda prog: check_program(prog, registry),
    "infer_program_effect": lambda prog: infer_program_effect(prog, GATES, registry),
    "evaluate_program": lambda prog: evaluate_program(prog, registry),
    "verify_dynamic": lambda prog: verify_dynamic(prog, GATES, registry),
}


@pytest.mark.parametrize("ty", ["Nat", "Qubit * Qubit", "Qubit -o[I] Qubit"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_rejects_inputs_that_are_not_single_wires(entry, ty):
    prog = parse_program(f"inputs p: {ty}; return p")
    message = f"program inputs must be single wires; p has type {ty}"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        ENTRY_POINTS[entry](prog)


def test_check_configuration_types_label_terms():
    ctx, bundle = freshlabels(((WireType.QUBIT, WireType.QUBIT), ()), label_supply())
    l0, l1 = ctx.labels
    ty, out = check_configuration(
        ctx, identity(ctx.obj),
        Ret((l1, l0)), ctx, registry)
    assert show_type(ty) == "Qubit * Qubit"
    assert out.entries == ()  # term consumed every output

    ty, out = check_configuration(
        ctx, identity(ctx.obj), Ret(l0), ctx, registry)
    assert show_type(ty) == "Qubit"
    assert [lab for lab, _ in out] == [l1]  # untouched output is left over


def test_check_configuration_rejects_wrong_contexts():
    ctx, _ = freshlabels(((WireType.QUBIT, WireType.QUBIT), ()), label_supply())
    with pytest.raises(ObjectMismatch):
        check_configuration(ctx, identity((WireType.QUBIT,)),
                            Ret(ctx.labels[0]), ctx, registry)


def test_random_programs_typecheck():
    r = rng("typecheck-random")
    for _ in range(60):
        check_program(random_program(r), registry)


# --------------------------------------------------------------------------
# the left fold against the right fold it replaced
# --------------------------------------------------------------------------

_AST = (Ret, App, Block, Ifz, Force, Box, Apply, Var, tuple, NatVal, GateRef,
        Lam, Lift)


def _nodes(term):
    """Every binder, term and value inside ``term``, with its path: field
    names, a binder's index in its block, and a pair's component as
    ``(0,)`` or ``(1,)``. A block is listed binder by binder, each followed
    by its bound term or value and then by the rest of the block, the order
    one nested node per binder would give."""
    out, todo = [], []

    def push(node, path):
        todo.append(([node, 0] if isinstance(node, Block) else node, path))

    push(term, ())
    while todo:
        node, path = todo.pop()
        if type(node) is list:  # [block, i]: binder i and the rest
            block, i = node
            b = block.binders[i]
            out.append((b, path + (i,)))
            field = "bound" if isinstance(b, LetBinder) else "value"
            push(getattr(b, field), path + (i, field))
            if i + 1 < len(block.binders):
                todo.append(([block, i + 1], path))
            else:
                push(block.tail, path + ("tail",))
            continue
        out.append((node, path))
        if type(node) is tuple:
            for i, child in enumerate(node):
                push(child, path + ((i,),))
            continue
        for f in dataclasses.fields(node):
            child = getattr(node, f.name)
            if isinstance(child, _AST):
                push(child, path + (f.name,))
    return out


def _replaced(node, path, new):
    """``node`` with the node at ``path`` replaced by ``new``; a binder
    replaced by None is dropped."""
    if not path:
        return new
    step = path[0]
    if type(step) is tuple:
        (i,) = step
        return tuple(_replaced(x, path[1:], new) if j == i else x
                     for j, x in enumerate(node))
    if isinstance(step, int):
        b = _replaced(node.binders[step], path[1:], new)
        kept = (b,) if b is not None else ()
        binders = node.binders[:step] + kept + node.binders[step + 1:]
        return Block(binders, node.tail) if binders else node.tail
    return dataclasses.replace(
        node, **{step: _replaced(getattr(node, step), path[1:], new)})


def _mutant(r, prog: Program) -> Program:
    """The program with one node changed: a name, a gate, a binder or a
    value swapped, dropped or duplicated."""
    nodes = _nodes(prog.term)
    names = sorted({n.name for n, _ in nodes if isinstance(n, Var)}
                   | {n.var for n, _ in nodes if isinstance(n, LetBinder)}) + ["nowhere"]
    while True:
        node, path = r.choice(nodes)
        match node:
            case Var():
                new = Var(r.choice(names))
            case GateRef():
                new = GateRef(r.choice(("H", "CNOT", "init", "meas", "discard")))
            case LetBinder(var, bound):
                new = r.choice((None, LetBinder(r.choice(names), bound),
                                LetBinder(var, Ret(()))))
            case DestBinder(left, right, value):
                new = r.choice((None, DestBinder(right, left, value),
                                DestBinder(left, right, ())))
            case (left, right):
                new = r.choice((left, (right, left), (left, (right, right))))
            case Ret(v):
                new = r.choice((Ret(()), Ret((v, v))))
            case Apply(circ, arg):
                new = r.choice((Ret(arg), Apply(circ, (arg, arg))))
            case _:
                continue
        return Program(prog.inputs, None, _replaced(prog.term, path, new))


def _outcome(checker, alg, prog: Program):
    """(type, effect) of a closed program, or the class and text of its error."""
    try:
        return checker(alg, registry).check_closed(prog.inputs, prog.term)
    except PqcError as e:
        return type(e), str(e)


def _programs(r, n: int) -> list[Program]:
    return [random_program(r, assert_safe=i % 2 == 0) for i in range(n)]


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + ["trivial"])
def test_left_fold_equals_right_fold(name):
    alg = TRIVIAL if name == "trivial" else algebra(name)
    outcomes = [(_outcome(EffectChecker, alg, p), _outcome(RightFoldChecker, alg, p))
                for p in _programs(rng("left-fold"), 200)]
    for left, right in outcomes:
        assert left == right
    # an error outcome starts with its class; under assert the programs
    # that measure are rejected, by both checkers alike
    assert sum(not isinstance(left[0], type) for left, _ in outcomes) >= 100


@pytest.mark.parametrize("name", sorted(ALGEBRAS) + ["trivial"])
def test_left_fold_rejects_what_right_fold_rejects(name):
    alg = TRIVIAL if name == "trivial" else algebra(name)
    r = rng("left-fold-mutants")
    errors = set()
    for prog in _programs(r, 200):
        mutant = _mutant(r, prog)
        left = _outcome(EffectChecker, alg, mutant)
        right = _outcome(RightFoldChecker, alg, mutant)
        if isinstance(right[0], type):
            errors.add(right[0])
        assert left == right  # the same class and message, or the same result
    assert LinearityViolation in errors and len(errors) >= 3
