import copy
import os
import pickle
import random

import pytest

from generators import (
    perfbench_workloads, rng, random_ast_program, random_term, random_type,
    random_value,
)
from pqc.circuits import BoxedCircuit, Label
from pqc.errors import NotAValue, ParseError
from pqc.gates import default_registry
from pqc.syntax import (
    App, Apply, ArrowT, BangT, BitT, Block, Box, BundleUnitT, CircT, DestBinder,
    Force, GateRef, Ifz, Lam, Let, LetBinder, Lift, NatT, NatVal, Program,
    QubitT, Ret, TensorT, Term, Type, UnitT, Value, Var, parse_program,
    parse_term, parse_type, parse_value, show_program, show_term, show_type,
    show_value, tokenize, _Parser,
)
from test_cli_fuzz import DEMOS, PROGRAMS, mutated_demos


def test_tokenizer_positions_and_comments():
    toks = tokenize("let x = -- comment\n  return 3")
    assert [t.kind for t in toks[:3]] == ["kw", "ident", "="]
    assert toks[3].line == 2 and toks[3].text == "return"


def test_tokenizer_rejects_stray_chars():
    with pytest.raises(ParseError, match="1:5"):
        tokenize("let ? = return 3")


def test_token_kinds():
    toks = tokenize('inputs x1: Qubit; gates "g.pqcg"; #3 @CNOT -o 42 '
                    '( ) [ ] , ; : . = * ! \\ x\'')
    assert [(t.kind, t.text) for t in toks] == [
        ("kw", "inputs"), ("ident", "x1"), (":", ":"), ("kw", "Qubit"),
        (";", ";"), ("kw", "gates"), ("string", '"g.pqcg"'), (";", ";"),
        ("label", "#3"), ("gateref", "@CNOT"), ("-o", "-o"), ("nat", "42"),
        *((c, c) for c in "()[],;:.=*!\\"), ("ident", "x'"), ("eof", "")]
    # a label, gate reference or string that does not follow its first
    # character leaves that character stray
    for src, bad in (("#x", "#"), ("@1", "@"), ('"g\n"', '"'), ("- 1", "-"),
                     ("'x", "'"), ("\fx", "\f")):
        with pytest.raises(ParseError) as e:
            tokenize(src)
        assert str(e.value) == f"1:1: unexpected character {bad!r}"


def _workload_programs() -> list[str]:
    """Generated benchmark programs, corpus and brickwork, seeds 1-2."""
    workloads = perfbench_workloads()
    return [c.text for seed in (1, 2)
            for family in (workloads.corpus, workloads.brickwork)
            for c in family(random.Random(seed))]


def test_parser_reads_the_tokens_tokenize_reads():
    sources = []
    for name in PROGRAMS:
        with open(os.path.join(DEMOS, name), encoding="utf-8") as f:
            sources.append(f.read())
    sources += [src for src, _ in mutated_demos()]
    sources += _workload_programs()
    for src in sources:
        toks = tokenize(src)
        p = _Parser(src)
        assert p.kinds == [t.kind for t in toks]
        assert p.texts == [t.text for t in toks]
    assert len(sources) > 200


@pytest.mark.parametrize("parse, src, where", [
    # CRLF line ends: the \r is blank, the line ends at \n
    (parse_program, "inputs q: Qubit;\r\nlet x = = in\r\nreturn x",
     "2:9: expected a value, found '='"),
    # a tab is one column
    (parse_program, "inputs q: Qubit;\n\tlet x =\t) in return x",
     "2:10: expected a value, found ')'"),
    # comments, holding characters that begin no token, are skipped
    (parse_program, "inputs q: Qubit; -- ? and = and \"\n"
                    "let x = apply(@H, q) in -- #\nreturn (x, )",
     "3:12: expected a value, found ')'"),
    # end of input, after a newline and after a comment
    (parse_program, "inputs q: Qubit;\nlet x = apply(@H, q) in\n",
     "3:1: expected a value, found end of input"),
    (parse_term, "return -- nothing\n  ", "2:3: expected a value, found end of input"),
    (parse_program, "inputs q: Qubit;\r\n\tlet p = apply(@H, return q) in return p",
     "2:20: 'return' begins a computation, not a value; bind it with let first"),
])
def test_errors_carry_line_and_column(parse, src, where):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == where
    assert isinstance(e.value, NotAValue) == ("begins a computation" in where)


def test_end_of_input_is_named_as_such():
    # every expectation names the end of input the same way
    for parse, src, where in (
            (parse_program, "inputs q:", "1:10: expected a type, found end of input"),
            (parse_term, "let x = return x", "1:17: expected 'in', found end of input"),
            (parse_term, "return", "1:7: expected a value, found end of input"),
            (parse_term, "let x", "1:6: expected '=', found end of input")):
        with pytest.raises(ParseError) as e:
            parse(src)
        assert str(e.value) == where


def test_stray_character_is_reported_before_syntax_errors():
    # the whole input is tokenized before it is parsed
    with pytest.raises(ParseError) as e:
        parse_program("inputs q: Qubit; let = ? in return q")
    assert str(e.value) == "1:24: unexpected character '?'"


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
    assert parse_value("(x, y, z)") == (Var("x"), (Var("y"), Var("z")))
    assert parse_value("*") == ()
    assert parse_value("@CNOT") == GateRef("CNOT")
    assert parse_value(r"\x: Qubit. return x") == \
        Lam("x", QubitT(), Ret(Var("x")))
    assert parse_value("lift f x") == Lift(App(Var("f"), Var("x")))
    assert parse_value("lift return *") == Lift(Ret(()))


def test_terms_parse():
    assert parse_term("return (x, y)") == Ret((Var("x"), Var("y")))
    assert parse_term("f x") == App(Var("f"), Var("x"))
    assert parse_term("apply(@H, q)") == Apply(GateRef("H"), Var("q"))
    assert parse_term("force u") == Force(Var("u"))
    assert parse_term("box[Qubit] u") == Box(QubitT(), Var("u"))
    assert parse_term("ifz n then return x else return y") == \
        Ifz(Var("n"), Ret(Var("x")), Ret(Var("y")))


def test_nary_dest_desugars_right_nested():
    m = parse_term("dest (a, b, c) = v in return a")
    # the last name carries the tail: the desugaring invents no name
    assert m == Block((DestBinder("a", "c", Var("v")),
                       DestBinder("b", "c", Var("c"))), Ret(Var("a")))


def test_let_chains():
    m = parse_term("let x = apply(@H, q) in let y = f x in return (x, y)")
    assert m == Block((LetBinder("x", Apply(GateRef("H"), Var("q"))),
                       LetBinder("y", App(Var("f"), Var("x")))),
                      Ret((Var("x"), Var("y"))))
    # Let adds one binder in front of a block, so chains built either way agree
    assert m == Let("x", Apply(GateRef("H"), Var("q")),
                    Let("y", App(Var("f"), Var("x")), Ret((Var("x"), Var("y")))))
    # a bound block stays nested: it binds in its own scope
    n = parse_term("let x = let y = f z in return y in return x")
    assert isinstance(n.binders[0].bound, Block) and len(n.binders) == 1


def test_blocks_are_canonical():
    x = LetBinder("x", Ret(()))
    with pytest.raises(ValueError):
        Block((), Ret(()))
    with pytest.raises(ValueError):
        Block((x,), Block((x,), Ret(())))


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


def test_str_of_every_syntax_class():
    # the printer writes every node, atoms included; no class knows its text.
    # A wire, a pair, unit and a boxed circuit are their run-time objects,
    # not Value subclasses: show_value writes them, and their str() is their
    # own (a Label's is the printer's)
    lam = Lam("x", QubitT(), Ret(Var("x")))
    cases = [
        (UnitT(), "1"), (NatT(), "Nat"), (QubitT(), "Qubit"), (BitT(), "Bit"),
        (BundleUnitT(), "I"),
        (TensorT(QubitT(), TensorT(BitT(), UnitT())), "Qubit * Bit * 1"),
        (ArrowT(TensorT(QubitT(), QubitT()), BitT(), BundleUnitT(), 2),
         "Qubit * Qubit -o[I; 2] Bit"),
        (BangT(ArrowT(QubitT(), QubitT(), QubitT())), "!(Qubit -o[Qubit] Qubit)"),
        (CircT(QubitT(), BundleUnitT(), 3), "Circ[3](Qubit, I)"),
        ((), "*"), (NatVal(3), "3"), (Var("x"), "x"),
        (Label(3), "#3"), (GateRef("H"), "@H"),
        ((Var("a"), (Var("b"), Var("c"))), "(a, b, c)"),
        (lam, "\\x:Qubit. return x"), (Lift(Ret(())), "lift return *"),
        (default_registry().boxed("H"), "<boxed circuit>"),
        (Ret(NatVal(3)), "return 3"), (App(lam, Var("q")), "(\\x:Qubit. return x) q"),
        (Block((LetBinder("y", Apply(GateRef("H"), Var("x"))),
                DestBinder("a", "b", Var("p"))), Ret(Var("y"))),
         "let y = apply(@H, x) in\ndest (a, b) = p in\nreturn y"),
        (Ifz(NatVal(0), Ret(()), Force(Var("f"))),
         "ifz 0 then return * else force f"),
        (Force(Var("f")), "force f"), (Box(QubitT(), Var("f")), "box[Qubit] f"),
        (Apply(GateRef("CNOT"), (Var("a"), Var("b"))), "apply(@CNOT, (a, b))"),
        (Program((("q", QubitT()),), "g.pqcg", Ret(Var("q"))),
         'inputs q:Qubit;\ngates "g.pqcg";\n\nreturn q\n'),
    ]
    classes = {c for base in (Type, Value, Term) for c in base.__subclasses__()}
    assert {type(node) for node, _ in cases} == \
        classes | {Program, Label, tuple, BoxedCircuit}
    for node, text in cases:
        show = show_value if type(node) in (tuple, BoxedCircuit) else str
        assert show(node) == text
    assert show_value((Label(3), Var("a"))) == "(#3, a)"


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
