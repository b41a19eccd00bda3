"""Shared exception hierarchy for the pqc toolchain.

Every failure surfaced by the library is a ``PqcError``; the CLI reports it
in one line and exits with code 2. Exit code 1 is kept for a requested check
that did not hold (``--bound`` exceeded, verification failed), which is a
result, not an exception.
"""

from __future__ import annotations


class PqcError(Exception):
    """Base class for all toolchain errors."""


class ParseError(PqcError):
    """Malformed source text or serialized circuit."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}: {message}" if col is None else f"{line}:{col}: {message}"
        super().__init__(message)


# --- circuit construction -------------------------------------------------

class CircuitError(PqcError):
    """Structural problem while building or combining circuits."""


class ObjectMismatch(CircuitError):
    """Composition endpoints or step shapes disagree."""


class WireTypeMismatch(CircuitError):
    """A wire carries the wrong type for the requested operation."""


class LabelNotFound(CircuitError):
    """A label is missing from the output context it should occur in."""


class UnknownGate(CircuitError):
    """Gate name not present in the registry / gate spec."""


class UnknownUnitary(CircuitError):
    """An assertion row requested at an input where the gate declares none."""


# --- algebra ---------------------------------------------------------------

class EffectError(PqcError):
    """Problem combining abstract circuit effects."""


class EffectObjectMismatch(EffectError):
    """Effect endpoints disagree (composition, comparison, ascription)."""


class UnsupportedWire(EffectError):
    """The algebra cannot interpret this wire type (e.g. Bit wires)."""


class EndpointMismatch(EffectError):
    """Internal: an inferred effect's endpoints disagree with the typing
    (a bug in the checker or an algebra, not bad input)."""


# --- typechecking ----------------------------------------------------------

class TypecheckError(PqcError):
    """Simple-type inference failure."""


class UnboundName(TypecheckError):
    """Variable or label used without a binding."""


class LinearityViolation(TypecheckError):
    """A linear binding is dropped or used more than once."""


class NotAParameter(TypecheckError):
    """lift/box/literal bodies may only capture duplicable bindings."""


class ShapeMismatch(TypecheckError):
    """Inferred and required types disagree."""


class NotACircuit(TypecheckError):
    """apply expects a boxed-circuit value."""


class NotAFunction(TypecheckError):
    """Application head is not a function value."""


class BoxCapturesWires(TypecheckError):
    """box requires a function that captures no wires (empty bundle)."""


class MisplacedTerm(TypecheckError):
    """The AST holds a term where the checker expects a value."""


class NotAValue(ParseError):
    """Application operands must be syntactic values."""


# --- evaluation ------------------------------------------------------------

class EvalError(PqcError):
    """Runtime failure of the abstract machine."""


class Stuck(EvalError):
    """No rule applies (unreachable on well-typed input)."""


class FuelExhausted(EvalError):
    """The evaluation step bound (``pqc run``/``verify --fuel``) was hit."""
