"""pqc: a linear lambda calculus for circuit description with statically
inferred resource bounds.

Programs build circuits; circuit algebras (gate count, depth, width,
assertion-based size) abstract both the static program and the circuit it
produces, and the static effect is guaranteed — and dynamically checkable —
to dominate the dynamic one.
"""

from .algebras import (
    ALGEBRAS,
    AssertAlgebra,
    AssertValue,
    CircuitAlgebra,
    DepthAlgebra,
    DepthTriple,
    Effect,
    GateCountAlgebra,
    NaiveDepthAlgebra,
    WidthAlgebra,
    algebra,
    depth_bound,
)
from .circuits import (
    BoxedCircuit,
    Bundle,
    Circuit,
    CircuitBuilder,
    Gate,
    Label,
    Layer,
    Obj,
    Perm,
    Shape,
    WireType,
    box_circuit,
    canonicalize,
    compose,
    deserialize,
    draw,
    equivalent,
    flatten_bundle,
    identity,
    label_supply,
    obj,
    qubits,
    serialize,
    spine,
    symmetry,
    whisker_left,
    whisker_right,
)
from .effects import (
    VerifyReport,
    infer_program_effect,
    verify_dynamic,
)
from .errors import (
    CircuitError,
    EffectError,
    EvalError,
    ParseError,
    PqcError,
    TypecheckError,
)
from .evaluator import evaluate_program
from .gates import (
    GateDef,
    Registry,
    default_registry,
    load_gate_spec,
    parse_gate_spec,
)
from .syntax import (
    Program,
    Term,
    Type,
    Value,
    parse_program,
    parse_term,
    parse_type,
    parse_value,
    show_program,
    show_term,
    show_type,
    show_value,
)
from .tropical import NEG_INF, TropicalMatrix
from .typecheck import EffectChecker, check_program, sharp

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
