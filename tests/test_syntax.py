import copy
import pickle

import pytest

from generators import rng, random_ast_program, random_term, random_type, random_value
from pqc.errors import NotAValue, ParseError
from pqc.syntax import (
    App, Apply, ArrowT, BangT, BitT, Block, Box, BundleUnitT, CircT, DestBinder,
    Force, GateRef, Ifz, Lam, Let, LetBinder, Lift, NatT, NatVal, Pair,
    Program, QubitT, Ret, TensorT, UnitT, UnitVal, Var, parse_program,
    parse_term, parse_type, parse_value, show_program, show_term, show_type,
    show_value, tokenize,
)


def test_tokenizer_positions_and_comments():
    toks = tokenize("let x = -- comment\n  return 3")
    assert [t.kind for t in toks[:3]] == ["kw", "ident", "="]
    assert toks[3].line == 2 and toks[3].text == "return"


def test_tokenizer_rejects_stray_chars():
    with pytest.raises(ParseError, match="1:5"):
        tokenize("let ? = return 3")


def test_types_parse_with_precedence():
    assert parse_type("Qubit * Qubit * Bit") == \
        TensorT(QubitT(), TensorT(QubitT(), BitT()))
    assert parse_type("!Qubit * Nat") == TensorT(BangT(QubitT()), NatT())
    t = parse_type("Qubit -o[1] Qubit -o[Qubit] Bit")
    assert t == ArrowT(QubitT(), ArrowT(QubitT(), BitT(), QubitT()), UnitT())


def test_bounded_types():
    assert parse_type("Qubit -o[1; 3] Qubit") == \
        ArrowT(QubitT(), QubitT(), UnitT(), 3)
    assert parse_type("Circ[2](Qubit, Qubit)") == \
        CircT(QubitT(), QubitT(), 2)
    assert parse_type("Circ(I, Qubit)") == CircT(BundleUnitT(), QubitT(), None)


def test_values_parse():
    assert parse_value("(x, y, z)") == Pair(Var("x"), Pair(Var("y"), Var("z")))
    assert parse_value("*") == UnitVal()
    assert parse_value("@CNOT") == GateRef("CNOT")
    assert parse_value(r"\x: Qubit. return x") == \
        Lam("x", QubitT(), Ret(Var("x")))
    assert parse_value("lift f x") == Lift(App(Var("f"), Var("x")))
    assert parse_value("lift return *") == Lift(Ret(UnitVal()))


def test_terms_parse():
    assert parse_term("return (x, y)") == Ret(Pair(Var("x"), Var("y")))
    assert parse_term("f x") == App(Var("f"), Var("x"))
    assert parse_term("apply(@H, q)") == Apply(GateRef("H"), Var("q"))
    assert parse_term("force u") == Force(Var("u"))
    assert parse_term("box[Qubit] u") == Box(QubitT(), Var("u"))
    assert parse_term("ifz n then return x else return y") == \
        Ifz(Var("n"), Ret(Var("x")), Ret(Var("y")))


def test_nary_dest_desugars_right_nested():
    m = parse_term("dest (a, b, c) = v in return a")
    assert m == Block((DestBinder("a", "_bc", Var("v")),
                       DestBinder("b", "c", Var("_bc"))), Ret(Var("a")))


def test_let_chains():
    m = parse_term("let x = apply(@H, q) in let y = f x in return (x, y)")
    assert m == Block((LetBinder("x", Apply(GateRef("H"), Var("q"))),
                       LetBinder("y", App(Var("f"), Var("x")))),
                      Ret(Pair(Var("x"), Var("y"))))
    # Let adds one binder in front of a block, so chains built either way agree
    assert m == Let("x", Apply(GateRef("H"), Var("q")),
                    Let("y", App(Var("f"), Var("x")), Ret(Pair(Var("x"), Var("y")))))
    # a bound block stays nested: it binds in its own scope
    n = parse_term("let x = let y = f z in return y in return x")
    assert isinstance(n.binders[0].bound, Block) and len(n.binders) == 1


def test_blocks_are_canonical():
    x = LetBinder("x", Ret(UnitVal()))
    with pytest.raises(ValueError):
        Block((), Ret(UnitVal()))
    with pytest.raises(ValueError):
        Block((x,), Block((x,), Ret(UnitVal())))


def test_bare_value_is_rejected_as_term():
    with pytest.raises(ParseError, match="bare value"):
        parse_term("x")
    with pytest.raises(NotAValue):
        parse_value("let x = return y in return x")


def test_program_header():
    p = parse_program('inputs a: Qubit, b: Bit; gates "more.pqcg"; return (a, b)')
    assert p.inputs == (("a", QubitT()), ("b", BitT()))
    assert p.gates_path == "more.pqcg"
    empty = parse_program("inputs; return *")
    assert empty.inputs == ()
    with pytest.raises(ParseError, match="inputs"):
        parse_program("return *")


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError, match=r"1:9"):
        parse_term("let x = = in return x")


def test_keywords_are_not_identifiers():
    with pytest.raises(ParseError):
        parse_term("let let = return x in return let")


def test_printer_spells_operators_back():
    src = "let x = apply(@H, q) in\nifz n then return x else f x"
    assert show_term(parse_term(src)) == src


def test_round_trip_suites():
    r = rng("roundtrip-unit")
    for _ in range(150):
        t = random_type(r)
        assert parse_type(show_type(t)) == t
        v = random_value(r)
        assert parse_value(show_value(v)) == v
        m = random_term(r)
        assert parse_term(show_term(m)) == m
        p = random_ast_program(r)
        assert parse_program(show_program(p)) == p


def test_deep_let_chain_prints_and_round_trips():
    # printing reads a block's binders in a loop, as parsing does
    lines = ["inputs q: Qubit, r: Qubit;"]
    lines += ["let p = apply(@CNOT, (q, r)) in dest (q, r) = p in"
              if i % 100 == 0 else "let q = apply(@H, q) in" for i in range(10**4)]
    text = show_program(parse_program("\n".join(lines + ["return (q, r)"])))
    assert text.count("\nlet ") == 10**4 and text.count("\ndest ") == 100
    assert show_program(parse_program(text)) == text


def test_deep_let_chains_compare_and_hash_in_a_loop():
    def chain(renamed=None):
        lines = ["inputs q: Qubit, r: Qubit;"]
        for i in range(10**4):
            if i % 2:
                lines.append("let q = apply(@H, q) in")
            else:
                a = "s" if i == renamed else "q"
                lines.append(f"let p = apply(@CNOT, (q, r)) in dest ({a}, r) = p in")
        return parse_program("\n".join(lines + ["return (q, r)"]))

    p, again = chain(), chain()
    assert p.term is not again.term
    assert p == again and hash(p) == hash(again)
    assert p != chain(renamed=5000)
    assert p.term.binders[1] != again.term.binders[0]  # a dest is never a let
    assert p.term != Block(again.term.binders[1:], again.term.tail)


def test_deep_let_chain_reprs_pickles_and_copies():
    # a block holds its binders in a tuple: nothing recurses along the chain
    lines = ["inputs q: Qubit, r: Qubit;"]
    lines += ["let p = apply(@CNOT, (q, r)) in dest (q, r) = p in"
              if i % 100 == 0 else "let q = apply(@H, q) in" for i in range(10**5)]
    p = parse_program("\n".join(lines + ["return (q, r)"]))
    assert len(p.term.binders) == 10**5 + 10**3
    assert repr(p).count("LetBinder(") == 10**5
    assert pickle.loads(pickle.dumps(p)) == p
    assert copy.deepcopy(p) == p
