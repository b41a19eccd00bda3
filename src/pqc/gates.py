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

Each ``gate`` block declares a signature (``I`` denotes the empty wire list)
and optional properties: ``count`` (gate-count weight, default 1), ``depth``
(depth weight, default 1), both natural numbers, and ``assert`` rows mapping
one input basis string to a postset and a cost. Redeclaring a known name
overrides it, so a file can also re-weight builtin gates.

Assertion rows for builtin unitaries are derived from their computational
basis behaviour: the row for basis state ``b`` has postset = support of the
image of ``b`` and cost 0 exactly when the gate fixes ``b`` up to global
phase (so Z is removable on classical states), else the gate's count weight.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping

from .circuits import BoxedCircuit, Circuit, Gate, Layer, WireType, box_circuit, spine
from .errors import ParseError, UnknownGate, UnknownUnitary

Rows = Mapping[str, tuple[frozenset[str], int]]


@dataclass(frozen=True)
class GateDef:
    """A registry entry: signature plus analysis weights."""

    gate: Gate
    count: int = 1
    depth: int = 1
    basis: Mapping[str, frozenset[str]] | None = None
    rows: Rows | None = None

    @property
    def name(self) -> str:
        return self.gate.name


def derive_assert_row(gdef: GateDef, b: str) -> tuple[frozenset[str], int]:
    """Assertion row of a gate at one input basis string.

    Declared rows win; otherwise the row is derived from the gate's known
    basis behaviour. Raises UnknownUnitary when neither is available.
    """
    if gdef.rows is not None and b in gdef.rows:
        return gdef.rows[b]
    if gdef.basis is not None and b in gdef.basis:
        post = gdef.basis[b]
        return post, 0 if post == frozenset({b}) else gdef.count
    raise UnknownUnitary(
        f"gate {gdef.name} has no assertion row for input {b!r}")


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

        Its interface labels are local to the box, so the one literal serves
        every application of the gate, in every run.
        """
        boxed = self._boxed.get(name)
        if boxed is None:
            g = self.gate(name)
            body = Circuit(g.dom, (Layer(((g, 0),)),))
            boxed = self._boxed[name] = box_circuit(body, spine(g.dom))
        return boxed

    def extended(self, defs: Mapping[str, GateDef]) -> "Registry":
        merged = dict(self._defs)
        merged.update(defs)
        return Registry(merged)


_QUBIT = WireType.QUBIT
_BIT = WireType.BIT


def _perm_basis(mapping: dict[str, str]) -> dict[str, frozenset[str]]:
    return {b: frozenset({img}) for b, img in mapping.items()}


def default_registry() -> Registry:
    h_basis = {"0": frozenset({"0", "1"}), "1": frozenset({"0", "1"})}
    defs = {
        "H": GateDef(Gate("H", (_QUBIT,), (_QUBIT,)), basis=h_basis),
        "X": GateDef(Gate("X", (_QUBIT,), (_QUBIT,)),
                     basis=_perm_basis({"0": "1", "1": "0"})),
        "Z": GateDef(Gate("Z", (_QUBIT,), (_QUBIT,)),
                     basis=_perm_basis({"0": "0", "1": "1"})),
        "CNOT": GateDef(Gate("CNOT", (_QUBIT, _QUBIT), (_QUBIT, _QUBIT)),
                        basis=_perm_basis(
                            {"00": "00", "01": "01", "10": "11", "11": "10"})),
        "meas": GateDef(Gate("meas", (_QUBIT,), (_BIT,))),
        "init": GateDef(Gate("init", (), (_QUBIT,)), depth=0,
                        rows={"": (frozenset({"0"}), 0)}),
        "discard": GateDef(Gate("discard", (_QUBIT,), ()), depth=0),
    }
    return Registry(defs)


# --------------------------------------------------------------------------
# gate-spec files
# --------------------------------------------------------------------------

_GATE_RE = re.compile(r"^gate\s+(\w+)\s*:\s*(.*?)\s*->\s*(.*)$")
_WEIGHT_RE = re.compile(r"^(count|depth)\s+(.*)$")
_ASSERT_RE = re.compile(
    r'^assert\s+"([01]*)"\s*->\s*\{([^}]*)\}\s*cost\s+(\d+)$')


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
            post = set()
            for item in postset_s.split(","):
                item = item.strip()
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_gate_spec(fh.read())
