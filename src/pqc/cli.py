"""Command-line interface.

Subcommands::

    pqc check FILE    parse + typecheck; with --metric, infer the effect;
                      with --bound, enforce a scalar ascription on it
    pqc run FILE      evaluate to a circuit; draw it or emit JSON
    pqc analyze FILE  static resource bound for --metric, without running
    pqc verify FILE   run and check the static bound dominates the circuit

Exit codes: 0 success, 1 a requested check did not hold (bound exceeded,
verification failed), 2 malformed input or any other error.

``check --metric`` and ``analyze`` run the checker once, over the chosen
algebra; only when that pass fails do they run the plain checker, so a
program reports the error it would report if the plain checker ran first.
``verify`` still runs both: ``check_program`` and the inference inside
``verify_dynamic``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

import numpy as np

from .algebras import (
    ALGEBRAS, AssertAlgebra, CircuitAlgebra, DepthAlgebra, basis_row, basis_strings,
    depth_bound,
)
from .circuits import circuit_doc, draw, serialize
from .effects import infer_program_effect, verify_dynamic
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


def _parse_precondition(text: str, eff) -> frozenset:
    states = [s.strip() for s in text.split(",") if s.strip()]
    if not states:
        raise PqcError("--precondition names no basis state")
    for s in states:  # in the order given, so the first bad one is named
        if len(s) != eff.dom or any(ch not in "01" for ch in s):
            raise PqcError(
                f"precondition state {s!r} is not a basis state on "
                f"{eff.dom} qubits")
    return frozenset(states)


def _chunks(x, outer: str = ""):
    """The pieces of ``json.dumps(x, indent=2)``, its lines after the first
    indented by ``outer``.

    Dicts with string keys are walked here and lists of strings that need no
    escaping are written with one join; everything else goes to ``json.dumps``.
    """
    ind = outer + "  "
    if isinstance(x, dict) and x and all(isinstance(k, str) for k in x):
        sep = "{\n"
        for k, v in x.items():
            yield sep + ind + json.dumps(k) + ": "
            yield from _chunks(v, ind)
            sep = ",\n"
        yield "\n" + outer + "}"
        return
    if isinstance(x, list):
        try:
            row = "".join(x)
        except TypeError:  # not all strings
            row = ""
        # isascii reads a flag and bytes.isalnum scans at C speed; an empty
        # row is not alnum, so [] and [""] go to json.dumps
        if row.isascii() and row.encode().isalnum():
            yield "[\n" + ind + '"'
            yield ('",\n' + ind + '"').join(x)
            yield '"\n' + outer + "]"
            return
    if isinstance(x, (dict, list, tuple)):
        # JSON text holds no raw newline inside a string
        yield json.dumps(x, indent=2).replace("\n", "\n" + outer)
    else:  # indent shapes only containers; this takes the C encoder
        yield json.dumps(x)


def _print(doc) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to stdout, piece by
    piece: a dense assert document holds hundreds of thousands of strings."""
    sys.stdout.writelines(_chunks(doc))
    sys.stdout.write("\n")


def _infer(prog: Program, alg: CircuitAlgebra, registry: Registry):
    """The program's type and effect over ``alg``, in one checker pass.

    The checker over an algebra accepts nothing it rejects over ``TRIVIAL``,
    but may reject a program for another reason first; the plain checker's
    error then wins, as if it had run first.
    """
    try:
        return infer_program_effect(prog, alg, registry)
    except (PqcError, RecursionError):
        check_program(prog, registry)
        raise


def cmd_check(args) -> int:
    prog, registry = _load(args.file, args.gates)
    if args.metric is None:
        ty = check_program(prog, registry)
        if args.bound is not None:
            raise PqcError("--bound needs --metric")
        print(f"ok: {show_type(ty)}")
        return 0
    alg = ALGEBRAS[args.metric]
    ty, eff = _infer(prog, alg, registry)
    doc = _effect_json(alg, eff)
    doc["type"] = show_type(ty)
    if args.bound is not None:
        ok = alg.bound_of(eff) <= args.bound
        doc["bound"] = args.bound
        doc["within_bound"] = ok
        _print(doc)
        return 0 if ok else 1
    _print(doc)
    return 0


def cmd_run(args) -> int:
    prog, registry = _load(args.file, args.gates)
    check_program(prog, registry)
    circuit, out_ctx, value = evaluate_program(prog, registry, fuel=args.fuel)
    if args.emit_circuit is not None:
        with open(args.emit_circuit, "wb") as f:
            f.write(serialize(circuit))
    if args.json:
        _print({
            "circuit": circuit_doc(circuit),
            "outputs": [[str(l), str(t)] for l, t in out_ctx],
            "value": show_value(value),
        })
    else:
        print(draw(circuit))
        outs = ", ".join(f"{l}:{t}" for l, t in out_ctx)
        print(f"outputs: {outs}")
        print(f"value:   {show_value(value)}")
    return 0


def cmd_analyze(args) -> int:
    prog, registry = _load(args.file, args.gates)
    alg = ALGEBRAS[args.metric]
    if not isinstance(alg, AssertAlgebra) and (
            args.precondition is not None or args.restrict is not None):
        check_program(prog, registry)
        raise PqcError("--precondition/--restrict need --metric assert")
    _, eff = _infer(prog, alg, registry)
    doc = _effect_json(alg, eff)
    if isinstance(alg, AssertAlgebra):
        if args.precondition is not None:
            pre = basis_row(_parse_precondition(args.precondition, eff), eff.dom)
        else:
            pre = np.ones(1 << eff.dom, dtype=bool)
        post, cost = eff.value.image(pre)
        kept = eff.cod
        if args.restrict is not None:
            if not 0 <= args.restrict <= eff.cod:
                raise PqcError(
                    f"--restrict needs 0 <= N <= {eff.cod}, got {args.restrict}")
            kept = args.restrict
        doc["precondition"] = basis_strings(np.flatnonzero(pre), eff.dom)
        # --restrict keeps the first wires: the high bits of each post state
        doc["post"] = basis_strings(
            np.flatnonzero(post.reshape(1 << kept, -1).any(axis=1)), kept)
        doc["cost"] = cost
    _print(doc)
    return 0


def cmd_verify(args) -> int:
    prog, registry = _load(args.file, args.gates)
    check_program(prog, registry)
    alg = ALGEBRAS[args.metric]
    report = verify_dynamic(prog, alg, registry, fuel=args.fuel)
    _print(report.to_json(alg))
    return 0 if report.dominated else 1


@functools.cache  # built on the first main() call, not at import
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
        # a block's let and dest binders are read in loops; every stage still
        # spends frames on terms nested in other ways (ifz, lambdas)
        print("error: program is nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
