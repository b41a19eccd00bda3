"""Surface language: AST, lexer, parser and printer.

The language is a fine-grained call-by-value linear lambda calculus for
describing circuit-building computations. Values and computations (terms) are
syntactically disjoint: a bare value is not a program — wrap it in
``return`` — and every intermediate result is named by ``let``.

Concrete syntax sketch::

    inputs a:Qubit, b:Qubit;          -- typed input wires (may be empty)
    gates "my_gates.pqcg";            -- optional extra gate definitions

    let ab = apply(@CNOT, (a, b)) in
    dest (a2, b2) = ab in
    return (a2, b2)

Types:      1, Nat, Qubit, Bit, I, !A, A * B (right assoc.),
            A -o[T] B, A -o[T; n] B (right assoc., T = captured-wire shape,
            n = optional scalar resource ascription),
            Circ(T, U), Circ[n](T, U).
Values:     * (unit), naturals, variables, wire labels #k, gate references
            @name, tuples (v1, ..., vn), \\x:T. M, lift M.
Terms:      return V | V W | let x = M in N | dest (x, ..., z) = V in N
            | ifz V then M else N | force V | box[T] V | apply(V, W).

Comments run from ``--`` to end of line. Tuples and tuple patterns of width
n > 2 are sugar for right-nested pairs, resolved during parsing.

A value is what it is at run time where it can be: a wire ``#k`` is a
``circuits.Label``, a pair a Python 2-tuple, ``*`` is ``()``, and a boxed
circuit (written by no source text) its ``circuits.BoxedCircuit``. The rest
of the AST is frozen dataclasses, compared and hashed by their fields. A run
of ``let`` and binary ``dest`` binders and the term after them is one flat
``Block(binders, tail)``, as in A-normal form, so ``==``, ``hash``,
``repr``, ``pickle`` and ``copy`` recurse as deep as terms nest, not as
long as chains run. An n-ary ``dest`` is n - 1 binary binders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .circuits import BoxedCircuit, Label
from .errors import NotAValue, ParseError


# --------------------------------------------------------------------------
# types
# --------------------------------------------------------------------------

# Each node kind has one base, whose ``__str__`` is the printer's: no node
# knows how it is written.

class Type:
    def __str__(self):
        return show_type(self)


class Value:
    def __str__(self):
        return show_value(self)


class Term:
    def __str__(self):
        return show_term(self)


@dataclass(frozen=True)
class UnitT(Type):
    pass


@dataclass(frozen=True)
class NatT(Type):
    pass


@dataclass(frozen=True)
class QubitT(Type):
    pass


@dataclass(frozen=True)
class BitT(Type):
    pass


@dataclass(frozen=True)
class BundleUnitT(Type):
    """The empty wire bundle; what parameter types look like to a circuit."""


@dataclass(frozen=True)
class TensorT(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class ArrowT(Type):
    """``A -o[T] B``: a linear function that captured wires of shape T.

    ``bound`` is an optional scalar resource ascription on the function body
    (``A -o[T; n] B``). ``eff`` is filled in by effect inference and never
    written in source; it does not participate in equality.
    """

    dom: Type
    cod: Type
    captured: Type
    bound: Optional[int] = None
    eff: object = field(default=None, compare=False)


@dataclass(frozen=True)
class BangT(Type):
    inner: Type
    eff: object = field(default=None, compare=False)


@dataclass(frozen=True)
class CircT(Type):
    dom: Type
    cod: Type
    bound: Optional[int] = None
    eff: object = field(default=None, compare=False)


# The written form of each type atom: the parser reads this table, the
# printer reads it backwards.
_TYPE_ATOMS = {"1": UnitT(), "Nat": NatT(), "Qubit": QubitT(), "Bit": BitT(),
               "I": BundleUnitT()}
_ATOM_TEXT = {type(atom): text for text, atom in _TYPE_ATOMS.items()}


# --------------------------------------------------------------------------
# values and terms
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NatVal(Value):
    n: int


@dataclass(frozen=True)
class Var(Value):
    name: str


@dataclass(frozen=True)
class GateRef(Value):
    name: str


@dataclass(frozen=True)
class Lam(Value):
    var: str
    ty: Type
    body: Term


@dataclass(frozen=True)
class Lift(Value):
    term: Term


@dataclass(frozen=True)
class Ret(Term):
    value: Value


@dataclass(frozen=True)
class App(Term):
    fn: Value
    arg: Value


@dataclass(frozen=True)
class LetBinder:
    """``let var = bound in``"""

    var: str
    bound: Term


@dataclass(frozen=True)
class DestBinder:
    """``dest (left, right) = value in``"""

    left: str
    right: str
    value: Value


Binder = Union[LetBinder, DestBinder]


@dataclass(frozen=True)
class Block(Term):
    """Binders run in order, then ``tail``, in the scope they extend.

    A block has at least one binder, and its tail is not a block: the
    parser and ``Let`` put every chain of binders in one block, so equal
    programs are equal trees.
    """

    binders: tuple[Binder, ...]
    tail: Term

    def __post_init__(self):
        if not self.binders or type(self.tail) is Block:
            raise ValueError("a block needs a binder and a tail that is not a block")


def Let(var: str, bound: Term, body: Term) -> Block:
    """``let var = bound in body``: one let binder in front of ``body``'s."""
    if type(body) is Block:
        return Block((LetBinder(var, bound),) + body.binders, body.tail)
    return Block((LetBinder(var, bound),), body)


@dataclass(frozen=True)
class Ifz(Term):
    cond: Value
    then: Term
    els: Term


@dataclass(frozen=True)
class Force(Term):
    value: Value


@dataclass(frozen=True)
class Box(Term):
    shape: Type
    value: Value


@dataclass(frozen=True)
class Apply(Term):
    circ: Value
    arg: Value


@dataclass(frozen=True)
class Program:
    inputs: tuple[tuple[str, Type], ...]
    gates_path: Optional[str]
    term: Term

    def __str__(self):
        return show_program(self)


# --------------------------------------------------------------------------
# lexer
# --------------------------------------------------------------------------

_KEYWORDS = {
    "let", "in", "return", "force", "lift", "box", "apply", "ifz", "then",
    "else", "dest", "inputs", "gates", "Nat", "Qubit", "Bit", "Circ", "I",
}

# Each match is whitespace, a comment or one token, the token in group 1. A
# character that begins no token is a token of its own, of kind "bad".
_TOKEN_RE = re.compile(r"""
    [ \t\r\n]+
  | --[^\n]*
  | ( -o
    | [0-9]+
    | [A-Za-z_][A-Za-z0-9_']*
    | \#[0-9]+
    | @[A-Za-z_][A-Za-z0-9_]*
    | "[^"\n]*"
    | [()\[\],;:.=*!\\]
    | . )
""", re.VERBOSE)

# A token's kind, from its text: keywords, punctuation and -o by the whole
# text, the rest by the first character. '#', '@' and '"' alone begin a
# label, a gate reference or a string that does not follow, so they are bad.
_KIND_OF_TEXT = {**dict.fromkeys(_KEYWORDS, "kw"),
                 **{c: c for c in "()[],;:.=*!\\"},
                 "-o": "-o", "#": "bad", "@": "bad", '"': "bad"}
_KIND_OF_FIRST = {**dict.fromkeys("0123456789", "nat"),
                  **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                  "abcdefghijklmnopqrstuvwxyz_", "ident"),
                  "#": "label", "@": "gateref", '"': "string"}


def _lex(src: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of the tokens of ``src``, read by one ``findall``."""
    texts = list(filter(None, _TOKEN_RE.findall(src)))
    return [_KIND_OF_TEXT.get(t) or _KIND_OF_FIRST.get(t[0], "bad")
            for t in texts], texts


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """The tokens of ``src`` with their lines and columns, then ``eof``.

    The parser reads ``_lex``'s lists and calls this only to place an
    error, so positions cost nothing on a program that parses.
    """
    kinds, texts = _lex(src)
    tokens = []
    line, line_start, end = 1, 0, 0  # line_start: index of the line's first character
    starts = (m.start() for m in _TOKEN_RE.finditer(src) if m.lastindex)
    for kind, text, start in zip(kinds, texts, starts):
        newlines = src.count("\n", end, start)
        if newlines:
            line += newlines
            line_start = src.rindex("\n", end, start) + 1
        end = start + len(text)
        col = start - line_start + 1
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    tokens.append(Token("eof", "", src.count("\n") + 1, len(src) - src.rfind("\n")))
    return tokens


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------

_TERM_KEYWORDS = {"let", "return", "ifz", "force", "box", "apply", "dest"}
_VALUE_STARTS = {"nat", "ident", "label", "gateref", "*", "(", "\\"}


class _Parser:
    """Recursive descent over the parallel lists of token kinds and texts.

    Keywords are reserved, so a text that is a keyword is a ``kw`` token:
    ``texts[pos] == "let"`` tests for the keyword. The parser moves only
    past a token whose kind it has checked, and it expects ``eof`` last.
    """

    def __init__(self, src: str):
        kinds, texts = _lex(src)
        if "bad" in kinds:
            tokenize(src)  # raises, at the first stray character
        kinds.append("eof")
        texts.append("")
        self.src = src
        self.kinds = kinds
        self.texts = texts
        self.pos = 0

    def peek(self) -> str:
        """The kind of the current token."""
        return self.kinds[self.pos]

    def next(self) -> str:
        """The text of the current token, moving past it."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def found(self) -> str:
        """How an error names the current token."""
        text = self.texts[self.pos]
        return repr(text) if text else "end of input"

    def fail(self, msg: str, error: type[ParseError] = ParseError):
        tok = tokenize(self.src)[self.pos]
        raise error(msg, tok.line, tok.col)

    def expect(self, kind: str, what: str) -> str:
        if self.kinds[self.pos] != kind:
            self.fail(f"expected {what}, found {self.found()}")
        return self.next()

    def expect_kw(self, word: str) -> None:
        if self.texts[self.pos] != word:
            self.fail(f"expected {word!r}, found {self.found()}")
        self.pos += 1

    # ---- types -----------------------------------------------------------

    def type_(self) -> Type:
        left = self.type_tensor()
        if self.peek() == "-o":
            self.next()
            self.expect("[", "'[' after -o")
            captured = self.type_()
            bound = None
            if self.peek() == ";":
                self.next()
                bound = int(self.expect("nat", "a scalar bound"))
            self.expect("]", "']'")
            cod = self.type_()
            return ArrowT(left, cod, captured, bound)
        return left

    def type_tensor(self) -> Type:
        left = self.type_bang()
        if self.peek() == "*":
            self.next()
            return TensorT(left, self.type_tensor())
        return left

    def type_bang(self) -> Type:
        if self.peek() == "!":
            self.next()
            return BangT(self.type_bang())
        return self.type_atom()

    def type_atom(self) -> Type:
        text = self.texts[self.pos]
        atom = _TYPE_ATOMS.get(text)  # only tokens of kind nat or kw have these texts
        if atom is not None:
            self.pos += 1
            return atom
        kind = self.kinds[self.pos]
        if kind == "nat":
            self.fail(f"{text} is not a type (only 1 denotes the unit type)")
        if text == "Circ":
            self.next()
            bound = None
            if self.peek() == "[":
                self.next()
                bound = int(self.expect("nat", "a scalar bound"))
                self.expect("]", "']'")
            self.expect("(", "'(' after Circ")
            dom = self.type_()
            self.expect(",", "','")
            cod = self.type_()
            self.expect(")", "')'")
            return CircT(dom, cod, bound)
        if kind == "(":
            self.next()
            inner = self.type_()
            self.expect(")", "')'")
            return inner
        self.fail(f"expected a type, found {self.found()}")

    # ---- values ----------------------------------------------------------

    def value(self) -> Value:
        kind = self.kinds[self.pos]
        if kind == "ident":
            return Var(self.next())
        if kind == "(":
            self.next()
            parts = [self.value()]
            while self.peek() == ",":
                self.next()
                parts.append(self.value())
            self.expect(")", "')'")
            v = parts[-1]
            for p in reversed(parts[:-1]):
                v = (p, v)
            return v
        if kind == "gateref":
            return GateRef(self.next()[1:])
        if kind == "\\":
            self.next()
            name = self.expect("ident", "a variable name")
            self.expect(":", "':' after lambda variable")
            ty = self.type_()
            self.expect(".", "'.' after lambda type")
            return Lam(name, ty, self.term())
        if kind == "*":
            self.next()
            return ()
        if kind == "nat":
            return NatVal(int(self.next()))
        if kind == "label":
            return Label(int(self.next()[1:]))
        text = self.texts[self.pos]
        if text == "lift":
            self.next()
            # common shorthand: lift V means lift return V
            if self.peek() in _VALUE_STARTS:
                v = self.value()
                if self.peek() in _VALUE_STARTS or self.texts[self.pos] == "lift":
                    return Lift(App(v, self.value()))
                return Lift(Ret(v))
            return Lift(self.term())
        if text in _TERM_KEYWORDS:
            self.fail(f"{text!r} begins a computation, not a value; "
                      f"bind it with let first", NotAValue)
        self.fail(f"expected a value, found {self.found()}")

    # ---- terms -----------------------------------------------------------

    def term(self) -> Term:
        """A term: its ``let`` and ``dest`` binders are read in a loop into
        one block, so only bound terms recurse."""
        texts = self.texts
        binders: list[Binder] = []
        while True:
            word = texts[self.pos]
            if word == "let":
                self.next()
                name = self.expect("ident", "a variable name")
                self.expect("=", "'='")
                bound = self.term()
                self.expect_kw("in")
                binders.append(LetBinder(name, bound))
            elif word == "dest":
                self.next()
                self.expect("(", "'(' after dest")
                names = [self.expect("ident", "a variable name")]
                while self.peek() == ",":
                    self.next()
                    names.append(self.expect("ident", "a variable name"))
                self.expect(")", "')'")
                if len(names) < 2:
                    self.fail("dest pattern needs at least two names")
                self.expect("=", "'='")
                v = self.value()
                self.expect_kw("in")
                binders.extend(_dest_binders(names, v))
            else:
                break
        m = self.simple_term()
        return Block(tuple(binders), m) if binders else m

    def simple_term(self) -> Term:
        """A term that is not a block."""
        word = self.texts[self.pos]
        if word == "apply":
            self.next()
            self.expect("(", "'(' after apply")
            circ = self.value()
            self.expect(",", "','")
            arg = self.value()
            self.expect(")", "')'")
            return Apply(circ, arg)
        if word == "return":
            self.next()
            return Ret(self.value())
        if word == "force":
            self.next()
            return Force(self.value())
        if word == "ifz":
            self.next()
            cond = self.value()
            self.expect_kw("then")
            then = self.term()
            self.expect_kw("else")
            return Ifz(cond, then, self.term())
        if word == "box":
            self.next()
            self.expect("[", "'[' after box")
            shape = self.type_()
            self.expect("]", "']'")
            return Box(shape, self.value())
        fn = self.value()
        if self.peek() in _VALUE_STARTS or self.texts[self.pos] == "lift":
            return App(fn, self.value())
        self.fail("a bare value is not a computation; "
                  "apply it or wrap it in return")

    # ---- program ---------------------------------------------------------

    def program(self) -> Program:
        self.expect_kw("inputs")
        inputs = []
        if self.peek() == "ident":
            while True:
                name = self.expect("ident", "an input name")
                self.expect(":", "':' after input name")
                inputs.append((name, self.type_()))
                if self.peek() != ",":
                    break
                self.next()
        self.expect(";", "';' after inputs")
        gates_path = None
        if self.texts[self.pos] == "gates":
            self.next()
            gates_path = self.expect("string", "a quoted file name")[1:-1]
            self.expect(";", "';' after gates")
        term = self.term()
        self.expect("eof", "end of program")
        return Program(tuple(inputs), gates_path, term)


def _dest_binders(names: list[str], v: Value) -> list[DestBinder]:
    """dest (x, y, z) = v  ≡  dest (x, z) = v in dest (y, z) = z in ...: the
    last name carries each tail, so the desugaring invents no name."""
    z = names[-1]
    return [DestBinder(x, z, Var(z) if i else v) for i, x in enumerate(names[:-1])]


def _parse(src: str, read, what: str):
    p = _Parser(src)
    node = read(p)
    p.expect("eof", f"end of {what}")
    return node


def parse_type(src: str) -> Type:
    return _parse(src, _Parser.type_, "type")


def parse_value(src: str) -> Value:
    return _parse(src, _Parser.value, "value")


def parse_term(src: str) -> Term:
    return _parse(src, _Parser.term, "term")


def parse_program(src: str) -> Program:
    return _Parser(src).program()


# --------------------------------------------------------------------------
# printer (parses back to an equal tree)
# --------------------------------------------------------------------------

def _show_type(ty: Type, prec: int) -> str:
    # precedence: 0 arrow, 1 tensor, 2 bang/atom
    match ty:
        case ArrowT(dom, cod, captured, bound, _):
            ann = str(captured) if bound is None else f"{captured}; {bound}"
            s = f"{_show_type(dom, 1)} -o[{ann}] {_show_type(cod, 0)}"
            return f"({s})" if prec > 0 else s
        case TensorT(left, right):
            s = f"{_show_type(left, 2)} * {_show_type(right, 1)}"
            return f"({s})" if prec > 1 else s
        case BangT(inner, _):
            return f"!{_show_type(inner, 2)}"
        case CircT(dom, cod, bound, _):
            ann = f"[{bound}]" if bound is not None else ""
            return f"Circ{ann}({_show_type(dom, 0)}, {_show_type(cod, 0)})"
        case _:
            return _ATOM_TEXT[type(ty)]


def show_type(ty: Type) -> str:
    return _show_type(ty, 0)


def _tuple_parts(v: tuple) -> list[Value]:
    parts = []
    while type(v) is tuple and v:
        parts.append(v[0])
        v = v[1]
    parts.append(v)
    return parts


def show_value(v: Value) -> str:
    match v:
        case (_, _):
            return "(" + ", ".join(show_value(p) for p in _tuple_parts(v)) + ")"
        case Lam(var, ty, body):
            return f"\\{var}:{show_type(ty)}. {show_term(body)}"
        case Lift(term):
            return f"lift {show_term(term)}"
        case ():
            return "*"
        case NatVal(n):
            return str(n)
        case Var(name):
            return name
        case Label():
            return str(v)
        case GateRef(name):
            return "@" + name
        case BoxedCircuit():
            return "<boxed circuit>"
    raise TypeError(f"not a value: {v!r}")


def _show_operand(v: Value) -> str:
    # operands of application must re-parse as a single value
    if isinstance(v, (Lam, Lift)):
        return f"({show_value(v)})"
    return show_value(v)


def show_term(m: Term) -> str:
    """A term's source text. A block's binders are printed in a loop, as
    the parser reads them, so only bound terms recurse."""
    lines = []
    if type(m) is Block:
        for b in m.binders:
            if type(b) is LetBinder:
                lines.append(f"let {b.var} = {show_term(b.bound)} in\n")
            else:
                lines.append(f"dest ({b.left}, {b.right}) = {show_value(b.value)} in\n")
        m = m.tail
    lines.append(_show_simple_term(m))
    return "".join(lines)


def _show_simple_term(m: Term) -> str:
    """A term that is not a block."""
    match m:
        case Ret(v):
            return f"return {show_value(v)}"
        case App(fn, arg):
            return f"{_show_operand(fn)} {show_value(arg)}"
        case Ifz(cond, then, els):
            return (f"ifz {show_value(cond)} then {show_term(then)} "
                    f"else {show_term(els)}")
        case Force(v):
            return f"force {show_value(v)}"
        case Box(shape, v):
            return f"box[{show_type(shape)}] {show_value(v)}"
        case Apply(circ, arg):
            return f"apply({show_value(circ)}, {show_value(arg)})"
    raise TypeError(f"not a term: {m!r}")


def show_program(p: Program) -> str:
    header = "inputs " + ", ".join(f"{n}:{show_type(t)}" for n, t in p.inputs)
    lines = [header.rstrip() + ";"]
    if p.gates_path is not None:
        lines.append(f'gates "{p.gates_path}";')
    lines.append("")
    lines.append(show_term(p.term))
    return "\n".join(lines) + "\n"
