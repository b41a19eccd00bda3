"""Command-line interface.

Subcommands::

    pqc check FILE    parse + typecheck; with --metric, infer the effect;
                      with --bound, enforce a scalar ascription on it
    pqc run FILE      evaluate to a circuit; draw it or emit JSON
    pqc analyze FILE  static resource bound for --metric, without running
    pqc verify FILE   run and check the static bound dominates the circuit

Exit codes: 0 success, 1 a requested check did not hold (bound exceeded,
verification failed), 2 malformed input or any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .algebras import ALGEBRAS, AssertAlgebra, CircuitAlgebra, DepthAlgebra, depth_bound
from .circuits import draw, serialize
from .effects import check_ascription, infer_program_effect, verify_dynamic
from .errors import PqcError
from .evaluator import evaluate_program
from .gates import Registry, default_registry, load_gate_spec
from .syntax import Program, parse_program, show_type, show_value
from .typecheck import check_program


def _load(path: str, extra_gates: Optional[str]) -> tuple[Program, Registry]:
    with open(path, "r", encoding="utf-8") as f:
        prog = parse_program(f.read())
    registry = default_registry()
    if prog.gates_path is not None:
        spec = os.path.join(os.path.dirname(os.path.abspath(path)), prog.gates_path)
        registry = registry.extended(load_gate_spec(spec))
    if extra_gates is not None:
        registry = registry.extended(load_gate_spec(extra_gates))
    return prog, registry


def _effect_json(alg: CircuitAlgebra, eff) -> dict:
    doc = {
        "metric": alg.name,
        "dom": eff.dom,
        "cod": eff.cod,
        "value": alg.value_json(eff),
    }
    if isinstance(alg, DepthAlgebra):
        b = depth_bound(eff)
        doc["depth_bound"] = "-inf" if b == float("-inf") else int(b)
    return doc


def _parse_precondition(text: Optional[str], alg: CircuitAlgebra, eff) -> frozenset:
    if not isinstance(alg, AssertAlgebra):
        raise PqcError("--precondition only makes sense with --metric assert")
    if text is None:
        raise PqcError("missing precondition")
    states = frozenset(s.strip() for s in text.split(",") if s.strip())
    for s in states:
        if len(s) != eff.dom or any(ch not in "01" for ch in s):
            raise PqcError(
                f"precondition state {s!r} is not a basis state on "
                f"{eff.dom} qubits")
    return states


def cmd_check(args) -> int:
    prog, registry = _load(args.file, args.gates)
    ty = check_program(prog, registry)
    if args.metric is None:
        if args.bound is not None:
            raise PqcError("--bound needs --metric")
        print(f"ok: {show_type(ty)}")
        return 0
    alg = ALGEBRAS[args.metric]
    _, eff = infer_program_effect(prog, alg, registry)
    doc = _effect_json(alg, eff)
    doc["type"] = show_type(ty)
    if args.bound is not None:
        ok = check_ascription(alg, eff, args.bound)
        doc["bound"] = args.bound
        doc["within_bound"] = ok
        print(json.dumps(doc, indent=2))
        return 0 if ok else 1
    print(json.dumps(doc, indent=2))
    return 0


def cmd_run(args) -> int:
    prog, registry = _load(args.file, args.gates)
    check_program(prog, registry)
    circuit, out_ctx, value = evaluate_program(prog, registry, fuel=args.fuel)
    if args.emit_circuit is not None:
        with open(args.emit_circuit, "wb") as f:
            f.write(serialize(circuit))
    if args.json:
        print(json.dumps({
            "circuit": json.loads(serialize(circuit)),
            "outputs": [[str(l), str(t)] for l, t in out_ctx],
            "value": show_value(value),
        }, indent=2))
    else:
        print(draw(circuit))
        outs = ", ".join(f"{l}:{t}" for l, t in out_ctx)
        print(f"outputs: {outs}")
        print(f"value:   {show_value(value)}")
    return 0


def cmd_analyze(args) -> int:
    prog, registry = _load(args.file, args.gates)
    check_program(prog, registry)
    alg = ALGEBRAS[args.metric]
    if not isinstance(alg, AssertAlgebra) and (
            args.precondition is not None or args.restrict is not None):
        raise PqcError("--precondition/--restrict need --metric assert")
    _, eff = infer_program_effect(prog, alg, registry)
    doc = _effect_json(alg, eff)
    if isinstance(alg, AssertAlgebra):
        if args.precondition is not None:
            states = _parse_precondition(args.precondition, alg, eff)
        else:
            states = frozenset(eff.value.rows)
        post, cost = eff.value.apply(states)
        if args.restrict is not None:
            post = frozenset(s[:args.restrict] for s in post)
        doc["precondition"] = sorted(states)
        doc["post"] = sorted(post)
        doc["cost"] = cost
    print(json.dumps(doc, indent=2))
    return 0


def cmd_verify(args) -> int:
    prog, registry = _load(args.file, args.gates)
    check_program(prog, registry)
    alg = ALGEBRAS[args.metric]
    report = verify_dynamic(prog, alg, registry, fuel=args.fuel)
    print(json.dumps(report.to_json(alg), indent=2))
    return 0 if report.dominated else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqc",
        description="circuit-description programs with static resource bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    metrics = sorted(ALGEBRAS)

    def common(p, metric_required=False):
        p.add_argument("file", help="program file (.pqc)")
        p.add_argument("--gates", help="extra gate-spec file (.pqcg)")
        if metric_required:
            p.add_argument("--metric", choices=metrics, required=True)

    p = sub.add_parser("check", help="parse and typecheck")
    common(p)
    p.add_argument("--metric", choices=metrics)
    p.add_argument("--bound", type=int,
                   help="fail (exit 1) if the inferred effect exceeds this")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="evaluate the program to a circuit")
    common(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit-circuit", metavar="PATH",
                   help="write the circuit as JSON to PATH")
    p.add_argument("--fuel", type=int, help="max evaluation steps")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("analyze", help="static resource bound")
    common(p, metric_required=True)
    p.add_argument("--precondition", metavar="STATES",
                   help="comma-separated input basis states (assert metric)")
    p.add_argument("--restrict", type=int, metavar="N",
                   help="project assert postsets to the first N qubits")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="check the static bound against a run")
    common(p, metric_required=True)
    p.add_argument("--fuel", type=int, help="max evaluation steps")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (PqcError, OSError, UnicodeDecodeError) as e:
        # OSError and UnicodeDecodeError: an input file that cannot be read
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser and the checker still spend one frame per nested term
        print("error: program is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
