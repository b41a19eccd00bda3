"""Gate registry: signatures, per-gate weights, and assertion rows.

The default registry ships H, X, Z, CNOT, meas, init, discard. A registry can
be extended from a *gate-spec file*, a small line-based format::

    # comment
    gate cnot21cnot12 : Qubit Qubit -> Qubit Qubit
      count 2
      depth 2
      assert "00" -> {"00"} cost 0
      assert "11" -> {"11"} cost 0
      assert "01" -> {"10"} cost 2
      assert "10" -> {"11"} cost 2

Each ``gate`` block declares a name that a program can write after ``@`` (a
letter or ``_``, then letters, digits or ``_``), a signature (``I`` denotes
the empty wire list) and optional properties: ``count`` (gate-count weight,
default 1), ``depth`` (depth weight, default 1), both natural numbers, and
``assert`` rows mapping one input basis string, each at most once, to a
postset and a cost. Redeclaring a builtin name overrides it, so a file can
re-weight builtin gates; a file declares each name at most once.

The builtin unitaries declare their assertion rows as spec gates do. A row
at ``b`` has postset = support of U|b⟩ and cost 0 exactly when U maps |b⟩ to
|b⟩ itself, not merely up to a phase: Z costs 1 at ``1``, since Z|1⟩ = −|1⟩.
So a gate application of cost 0 is the identity on the span of the states
that reach it, and an optimizer may drop it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping

from .circuits import BoxedCircuit, Circuit, Gate, Layer, WireType, box_circuit
from .errors import ParseError, UnknownGate

Rows = Mapping[str, tuple[frozenset[str], int]]


@dataclass(frozen=True)
class GateDef:
    """A registry entry: signature plus analysis weights."""

    gate: Gate
    count: int = 1
    depth: int = 1
    rows: Rows | None = None

    @property
    def name(self) -> str:
        return self.gate.name


class Registry:
    """Named gates with their weights; immutable once built (only the cache
    of gate literals fills in as gates are applied)."""

    def __init__(self, defs: Mapping[str, GateDef]):
        self._defs = dict(defs)
        self._boxed: dict[str, BoxedCircuit] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def lookup(self, name: str) -> GateDef:
        try:
            return self._defs[name]
        except KeyError:
            raise UnknownGate(f"unknown gate {name!r}") from None

    def gate(self, name: str) -> Gate:
        return self.lookup(name).gate

    def boxed(self, name: str) -> BoxedCircuit:
        """The one-layer boxed-circuit literal for ``@name``, built on first use.

        Its interfaces are the body's positions, not labels, so the one
        literal serves every application of the gate, in every run.
        """
        boxed = self._boxed.get(name)
        if boxed is None:
            g = self.gate(name)
            body = Circuit(g.dom, (Layer(((g, 0),)),))
            boxed = self._boxed[name] = box_circuit(body)
        return boxed

    def extended(self, defs: Mapping[str, GateDef]) -> "Registry":
        merged = dict(self._defs)
        merged.update(defs)
        return Registry(merged)


_QUBIT = WireType.QUBIT
_BIT = WireType.BIT


def default_registry() -> Registry:
    spread = (frozenset({"0", "1"}), 1)
    defs = {
        "H": GateDef(Gate("H", (_QUBIT,), (_QUBIT,)),
                     rows={"0": spread, "1": spread}),
        "X": GateDef(Gate("X", (_QUBIT,), (_QUBIT,)),
                     rows={"0": (frozenset({"1"}), 1), "1": (frozenset({"0"}), 1)}),
        "Z": GateDef(Gate("Z", (_QUBIT,), (_QUBIT,)),
                     rows={"0": (frozenset({"0"}), 0), "1": (frozenset({"1"}), 1)}),
        "CNOT": GateDef(Gate("CNOT", (_QUBIT, _QUBIT), (_QUBIT, _QUBIT)),
                        rows={"00": (frozenset({"00"}), 0),
                              "01": (frozenset({"01"}), 0),
                              "10": (frozenset({"11"}), 1),
                              "11": (frozenset({"10"}), 1)}),
        "meas": GateDef(Gate("meas", (_QUBIT,), (_BIT,))),
        "init": GateDef(Gate("init", (), (_QUBIT,)), depth=0,
                        rows={"": (frozenset({"0"}), 0)}),
        "discard": GateDef(Gate("discard", (_QUBIT,), ()), depth=0),
    }
    return Registry(defs)


# --------------------------------------------------------------------------
# gate-spec files
# --------------------------------------------------------------------------

_GATE_RE = re.compile(r"^gate\s+([^\s:]+)\s*:\s*(.*?)\s*->\s*(.*)$")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # what a program's @name reads
_WEIGHT_RE = re.compile(r"^(count|depth)\s+(.*)$")
_ASSERT_RE = re.compile(
    r'^assert\s+"([01]*)"\s*->\s*\{([^}]*)\}\s*cost\s+(\d+)$', re.ASCII)


def _parse_sig(text: str, lineno: int) -> tuple[WireType, ...]:
    text = text.strip()
    if text in ("I", ""):
        return ()
    out = []
    for tok in re.split(r"[,\s]+", text):
        if tok == "Qubit":
            out.append(_QUBIT)
        elif tok == "Bit":
            out.append(_BIT)
        else:
            raise ParseError(f"bad wire type {tok!r} in gate signature", lineno)
    return tuple(out)


def parse_gate_spec(text: str) -> dict[str, GateDef]:
    """Parse a gate-spec file into registry entries."""
    defs: dict[str, GateDef] = {}
    current: str | None = None
    rows: dict[str, tuple[frozenset[str], int]] = {}

    def flush():
        nonlocal rows
        if current is not None and rows:
            defs[current] = replace(defs[current], rows=dict(rows))
        rows = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _GATE_RE.match(line)
        if m:
            flush()
            name, dom_s, cod_s = m.groups()
            if not _NAME_RE.fullmatch(name):
                raise ParseError(
                    f"bad gate name {name!r}: a name is a letter or _, then "
                    f"letters, digits or _", lineno)
            if name in defs:
                raise ParseError(f"second gate block for {name}", lineno)
            sig = Gate(name, _parse_sig(dom_s, lineno), _parse_sig(cod_s, lineno))
            defs[name] = GateDef(sig)
            current = name
            continue
        if current is None:
            raise ParseError(f"property line before any 'gate' block: {line!r}", lineno)
        m = _WEIGHT_RE.match(line)
        if m:
            prop, value = m.groups()
            if not value.isascii() or not value.isdigit():
                raise ParseError(
                    f"bad {prop} in {line!r}: weights are natural numbers", lineno)
            defs[current] = replace(defs[current], **{prop: int(value)})
            continue
        m = _ASSERT_RE.match(line)
        if m:
            b, postset_s, cost = m.groups()
            n_in = len(defs[current].gate.dom)
            if len(b) != n_in:
                raise ParseError(
                    f"assert row input {b!r} has {len(b)} bits, gate has {n_in} inputs",
                    lineno)
            if b in rows:
                raise ParseError(
                    f"second assert row for input {b!r} of gate {current}", lineno)
            if not postset_s.strip():
                raise ParseError(
                    f"assert row {b!r} has an empty postset: every input state "
                    f"reaches some output state", lineno)
            post = set()
            for item in postset_s.split(","):
                item = item.strip()
                if not item:
                    raise ParseError(
                        f"empty entry in postset {{{postset_s}}}", lineno)
                if not (item.startswith('"') and item.endswith('"')):
                    raise ParseError(f"postset entries must be quoted: {item!r}", lineno)
                bits = item[1:-1]
                if len(bits) != len(defs[current].gate.cod) or not all(
                        ch in "01" for ch in bits):
                    raise ParseError(f"bad postset entry {item!r}", lineno)
                post.add(bits)
            rows[b] = (frozenset(post), int(cost))
            continue
        raise ParseError(f"unrecognized gate-spec line: {line!r}", lineno)
    flush()
    return defs


def load_gate_spec(path: str) -> dict[str, GateDef]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_gate_spec(fh.read())
    except ParseError as e:  # the file, then the line
        raise ParseError(f"{path}:{e}") from None
