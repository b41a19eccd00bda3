#!/usr/bin/env python3
"""End-to-end walkthrough: source program -> types -> circuit -> bounds.

Loads demos/lnn.pqc, typechecks it, evaluates it to a circuit, then checks
that every statically inferred bound dominates what the run produced. The
assert metric is further queried for the reachable classical states on the
first two qubits. Run from the repository root:

    python3 demos/lnn_walkthrough.py
"""

import os

from pqc.algebras import ALGEBRAS, AssertAlgebra
from pqc.circuits import draw
from pqc.effects import infer_program_effect, verify_dynamic
from pqc.gates import default_registry, load_gate_spec
from pqc.syntax import parse_program, show_type
from pqc.typecheck import check_program

here = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(here, "lnn.pqc"), encoding="utf-8") as f:
    prog = parse_program(f.read())
registry = default_registry().extended(
    load_gate_spec(os.path.join(here, prog.gates_path)))

ty = check_program(prog, registry)
print(f"program type: {show_type(ty)}")
print()

report = verify_dynamic(prog, ALGEBRAS["gates"], registry)
print(draw(report.circuit))

print("metric        static bound           circuit actually built")
for name, alg in sorted(ALGEBRAS.items()):
    r = verify_dynamic(prog, alg, registry)
    assert r.dominated, f"{name}: static bound failed to dominate!"
    s = str(alg.value_json(r.static_effect))
    d = str(alg.value_json(r.dynamic_effect))
    print(f"  {name:12s}{s:23s}{d}")
print("(every static bound dominates its run)")
print()

# Ask the assert algebra where classical states can end up, then project
# onto the first two qubits: the pair is driven to 00 or 11, never mixed.
alg = ALGEBRAS["assert"]
assert isinstance(alg, AssertAlgebra)
_, eff = infer_program_effect(prog, alg, registry)
post, cost = eff.value.apply(frozenset({""}))
print(f"reachable classical states: {sorted(post)}  (asserted cost {cost})")
print(f"first two qubits only:      {sorted({s[:2] for s in post})}")
