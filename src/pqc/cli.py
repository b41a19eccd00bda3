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

Every JSON document is printed by ``_print`` as ``json.dumps(doc,
indent=2)`` would print it, streamed piece by piece. An ``assert`` effect's
``"rows"`` (the data ``AssertAlgebra.value_json`` gives) are rendered by
``_rows`` straight from the boolean ``reach`` matrix, with numpy, in
bounded blocks of input states.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
from typing import Optional

import numpy as np

from .algebras import (
    ALGEBRAS, AssertAlgebra, AssertValue, CircuitAlgebra, DepthAlgebra, basis_row,
    basis_strings, depth_bound,
)
from .circuits import circuit_doc, draw, serialize
from .effects import infer_program_effect, verify_dynamic
from .errors import PqcError
from .evaluator import evaluate_program, show_runtime
from .gates import Registry, default_registry, load_gate_spec
from .syntax import Program, parse_program, show_type
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


def _value(alg: CircuitAlgebra, eff):
    """``alg.value_json(eff)`` for ``_print``: an assert effect's rows stay
    its ``AssertValue``, which ``_rows`` renders from ``reach``."""
    if isinstance(alg, AssertAlgebra):
        return {"rows": eff.value}
    return alg.value_json(eff)


def _effect_json(alg: CircuitAlgebra, eff) -> dict:
    doc = {
        "metric": alg.name,
        "dom": eff.dom,
        "cod": eff.cod,
        "value": _value(alg, eff),
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


def _records(n: int, head: str, tail: str) -> np.ndarray:
    """One fixed-width ASCII record per n-bit basis state, in index order:
    ``head``, the state's bits, ``tail``."""
    text = "".join(head + s + tail for s in basis_strings(np.arange(1 << n), n))
    return np.frombuffer(text.encode(), dtype=np.uint8).reshape(1 << n, -1)


# A block of input states spans at most this many cells of ``reach``, so
# at most this many post entries. Each takes two 8-byte indices, a record
# and the record's text (about 56 bytes at 8 qubits), so a block's numpy
# intermediates stay near 1 MB.
_BLOCK = 1 << 14


def _rows(v: AssertValue, outer: str):
    """The pieces of ``json.dumps(rows, indent=2)``, its lines after the
    first indented by ``outer``, where ``rows`` is the ``"rows"`` entry of
    ``AssertAlgebra.value_json``: one piece per input state.

    Rendered from ``reach``, a block of input states at a time: the bytes of
    the block's post entries are taken from a table of fixed-width records
    (``,\\n<indent>"<bits>"``), so no Python object is made per (input,
    output) pair.
    """
    ind = outer + "  "
    dom, cod = v.dom, v.cod
    heads = str(_records(dom, ",\n" + ind + '"', '": ['), "ascii")
    hw = len(heads) >> dom
    recs = _records(cod, ",\n" + ind + '  "', '"')
    rw = recs.shape[1]
    close = "\n" + ind + "]"
    reach = v.reach.T  # one row per input state
    step = min(max(1, _BLOCK >> cod), 1 << dom)
    buf = np.empty((step << cod, rw), dtype=np.uint8)  # reused by every block
    yield "{"
    cut = 1  # the first state's header drops its comma
    for lo in range(0, 1 << dom, step):
        block = reach[lo:lo + step]
        pairs = np.flatnonzero(block)  # (b - lo)·2^cod + y, in order
        # mode="clip" writes straight into buf ("raise" buffers the take);
        # every index is in range
        took = recs.take(pairs & ((1 << cod) - 1), axis=0, out=buf[:len(pairs)],
                         mode="clip")
        text = str(took, "ascii")
        ends = np.searchsorted(pairs, np.arange(1, len(block) + 1) << cod)
        a = 0
        for b, e in enumerate((ends * rw).tolist(), lo):
            head = heads[b * hw + cut:(b + 1) * hw]
            # cut the first entry's comma: "[" then "\n<indent>..."; every
            # input state reaches some output state, so there is one
            yield head + text[a + 1:e] + close
            a, cut = e, 0
    yield "\n" + outer + "}"


_SCALARS = frozenset((str, int, float, bool, type(None)))


def _chunks(x, outer: str = ""):
    """The pieces of ``json.dumps(x, indent=2)``, its lines after the first
    indented by ``outer``.

    An ``AssertValue`` stands for its ``"rows"`` and goes to ``_rows``.
    Dicts with string keys and lists of lists (depth's matrix) are walked
    here, and a list of scalars is one call of the C encoder, whose item
    separator carries the line break; everything else goes to ``json.dumps``.
    """
    if isinstance(x, AssertValue):
        yield from _rows(x, outer)
        return
    ind = outer + "  "
    types = set(map(type, x)) if isinstance(x, list) and x else None
    if types and types <= _SCALARS:
        items = json.dumps(x, separators=(",\n" + ind, ": "))
        yield "[\n" + ind + items[1:-1] + "\n" + outer + "]"
        return
    if types == {list}:
        walk, brackets = (("", v) for v in x), "[]"
    elif isinstance(x, dict) and x and all(isinstance(k, str) for k in x):
        walk, brackets = ((json.dumps(k) + ": ", v) for k, v in x.items()), "{}"
    else:
        # indent shapes only containers (a scalar takes the C encoder), and
        # JSON text holds no raw newline inside a string
        yield (json.dumps(x, indent=2).replace("\n", "\n" + outer)
               if isinstance(x, (dict, list, tuple)) else json.dumps(x))
        return
    sep = brackets[0] + "\n"
    for key, v in walk:
        yield sep + ind + key
        yield from _chunks(v, ind)
        sep = ",\n"
    yield "\n" + outer + brackets[1]


def _write(pieces) -> None:
    """Write the pieces to stdout, which every command writes through here.

    A reader that stops early (``| head``) ends the output, not the
    command: stdout then points at ``os.devnull``, so that the flush at exit
    cannot fail either, and the command returns its own exit code.
    """
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _print(doc) -> None:
    """Write ``json.dumps(doc, indent=2)`` and a newline to stdout, piece by
    piece, with an ``AssertValue`` printed as its ``"rows"``: a dense assert
    document is megabytes of text, and is never held whole."""
    _write(itertools.chain(_chunks(doc), "\n"))


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


def _natural(option: str, n: Optional[int]) -> None:
    """Refuse a negative count given for ``option``, before any work."""
    if n is not None and n < 0:
        raise PqcError(f"{option} needs a natural number, got {n}")


def cmd_check(args) -> int:
    _natural("--bound", args.bound)
    prog, registry = _load(args.file, args.gates)
    if args.metric is None:
        ty = check_program(prog, registry)
        if args.bound is not None:
            raise PqcError("--bound needs --metric")
        _write([f"ok: {show_type(ty)}\n"])
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
    _natural("--fuel", args.fuel)
    prog, registry = _load(args.file, args.gates)
    check_program(prog, registry)
    circuit, outputs, value = evaluate_program(prog, registry, fuel=args.fuel,
                                               checked=True)
    if args.emit_circuit is not None:
        with open(args.emit_circuit, "wb") as f:
            f.write(serialize(circuit))
    value = show_runtime(value)
    if args.json:
        _print({
            "circuit": circuit_doc(circuit),
            "outputs": [[str(l), str(t)] for l, t in outputs],
            "value": value,
        })
    else:
        outs = ", ".join(f"{l}:{t}" for l, t in outputs)
        _write([draw(circuit), f"\noutputs: {outs}\nvalue:   {value}\n"])
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
    _natural("--fuel", args.fuel)
    prog, registry = _load(args.file, args.gates)
    check_program(prog, registry)
    alg = ALGEBRAS[args.metric]
    report = verify_dynamic(prog, alg, registry, fuel=args.fuel)
    _print(report.to_json(alg, functools.partial(_value, alg)))
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
    except MemoryError:
        # a backstop: nothing yet refuses a circuit too big to build
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
