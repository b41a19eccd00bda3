"""Effect inference: static resource bounds for programs.

This is the resource-annotated refinement of the plain linear type system,
run by the same checker (``typecheck.EffectChecker``) over a resource
algebra instead of the trivial one. Alongside a type, every term gets an
*effect* — a morphism of the chosen circuit algebra from the wires the term
consumes to the wires its result holds. Function, thunk and circuit types
internally store the effect of their suspended bodies; application, force
and apply release it. An unannotated function, circuit or thunk binder
carries no stored effect here, so using it asks for a scalar ascription.

``verify_dynamic`` closes the loop: it runs a program, abstracts the circuit
it actually built, and checks that the statically inferred effect dominates
it in the algebra's order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from .algebras import CircuitAlgebra, Effect
from .circuits import Circuit, Label, WireType, flatten_bundle
from .errors import LinearityViolation
from .evaluator import evaluate_program, value_to_bundle
from .gates import Registry, default_registry
from .syntax import Program, Type
from .typecheck import EffectChecker, input_wires


# --------------------------------------------------------------------------
# entry points
# --------------------------------------------------------------------------

def infer_program_effect(
    prog: Program, alg: CircuitAlgebra, registry: Optional[Registry] = None,
) -> tuple[Type, Effect]:
    """Type and effect of a program; it must consume all its linear inputs."""
    input_wires(prog)
    return EffectChecker(alg, registry).check_closed(list(prog.inputs), prog.term)


# --------------------------------------------------------------------------
# dynamic verification
# --------------------------------------------------------------------------

@dataclass
class VerifyReport:
    metric: str
    static_effect: Effect
    dynamic_effect: Effect
    dominated: bool
    circuit: Circuit
    outputs: tuple[tuple[Label, WireType], ...]
    value: object  # the result bundle, whose runtime form is its syntax

    def to_json(self, alg: CircuitAlgebra,
                value: Optional[Callable[[Effect], Any]] = None) -> dict:
        """The report as data; ``value`` renders each effect (by default
        ``alg.value_json``)."""
        value = value or alg.value_json
        return {
            "metric": self.metric,
            "dominated": self.dominated,
            "static": value(self.static_effect),
            "dynamic": value(self.dynamic_effect),
        }


def verify_dynamic(
    prog: Program,
    alg: CircuitAlgebra,
    registry: Optional[Registry] = None,
    fuel: Optional[int] = None,
) -> VerifyReport:
    """Run a program and check the static effect dominates the built circuit.

    The program must return a bundle mentioning every wire it leaves open;
    the produced circuit's outputs are permuted into the bundle's order
    before comparison so both sides agree on endpoints. The inference is a
    type check, so the run replays repeated calls (``checked``).
    """
    registry = registry or default_registry()
    ty, static = infer_program_effect(prog, alg, registry)
    circuit, outputs, value = evaluate_program(prog, registry, fuel, checked=True)
    flat = flatten_bundle(value_to_bundle(value))
    at = {l: i for i, (l, _) in enumerate(outputs)}
    if sorted(flat) != sorted(at):
        raise LinearityViolation(
            "program result does not mention every open wire; cannot align "
            "endpoints for verification")
    dynamic = alg.abstract(circuit, registry, [at[l] for l in flat])
    return VerifyReport(alg.name, static, dynamic, alg.leq(dynamic, static),
                        circuit, outputs, value)
