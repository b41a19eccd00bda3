"""In-memory spans around calls into pqc's public stage functions.

The benchmark does not change pqc. ``Tracer.instrument`` replaces each
public stage function, wherever a pqc module holds a reference to it, with a
wrapper that records a span, and ``Tracer.restore`` puts the originals back.
A span is ``[op, name, start, end, parent, attrs]``; spans of one operation
share ``op``. Self time is a span's duration minus its child spans'.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function, span name)
STAGES = (
    ("pqc.syntax", "parse_program", "syntax.parse"),
    ("pqc.typecheck", "check_program", "typecheck.check"),
    ("pqc.effects", "infer_program_effect", "effects.infer"),
    ("pqc.effects", "verify_dynamic", "effects.verify"),
    ("pqc.evaluator", "evaluate_program", "evaluator.eval"),
    ("pqc.gates", "default_registry", "gates.registry"),
    ("pqc.gates", "load_gate_spec", "gates.registry"),
)


def circuit_counts(circuit) -> dict:
    """Gates, steps, permutation steps and peak width of a built circuit."""
    from pqc.circuits import Layer

    gates = steps = perms = 0
    cur = circuit.dom
    width = len(cur)
    for step in circuit.steps:
        steps += 1
        if isinstance(step, Layer):
            gates += len(step.placements)
        else:
            perms += 1
        cur = step.cod(cur)
        width = max(width, len(cur))
    return {"gates": gates, "steps": steps, "perm_steps": perms, "width": width}


def payload_entries(metric: str, eff) -> int | None:
    """Size of an effect's payload: matrix entries (depth), postset sizes (assert)."""
    if metric == "depth":
        t = eff.value
        return int(t.a.data.size + t.v.data.size + t.w.data.size)
    if metric == "assert":
        return sum(len(post) for post in eff.value.rows.values())
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._pending: list[tuple] = []
        self.op: int | None = None

    # ---- spans -----------------------------------------------------------

    def enter(self, name: str, **attrs) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.op, name, time.perf_counter(), None, parent, attrs])
        self._stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, attrs_of=None, result_attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.enter(name, **(attrs_of(*args) if attrs_of else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(sid)
            if result_attrs is not None:
                self._pending.append((sid, result_attrs, result))
            return result
        return wrapper

    # ---- instrumentation -------------------------------------------------

    def instrument(self) -> None:
        """Wrap the stage functions and every algebra's abstract and leq."""
        from pqc.algebras import ALGEBRAS

        hooks = {
            "effects.infer": (lambda prog, alg, *a: {"metric": alg.name},
                              lambda at, r: {"payload": payload_entries(at["metric"], r[1])}),
            "evaluator.eval": (None, lambda at, r: circuit_counts(r[0])),
        }
        mods = [m for n, m in list(sys.modules.items())
                if n == "pqc" or n.startswith("pqc.")]
        for modname, fname, span in STAGES:
            orig = getattr(sys.modules[modname], fname)
            wrapped = self._wrap(orig, span, *hooks.get(span, (None, None)))
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for alg in ALGEBRAS.values():
            self._patched.append((alg, "abstract", None))
            alg.abstract = self._wrap(
                alg.abstract, "algebras.abstract",
                lambda c, *a, _m=alg.name: {"metric": _m, "steps": len(c.steps)})
            self._patched.append((alg, "leq", None))
            alg.leq = self._wrap(alg.leq, "algebras.leq",
                                 lambda *a, _m=alg.name: {"metric": _m})

    def settle(self) -> None:
        """Add the sizes of the results kept during an operation to its spans.

        Sizes are counted after the operation, so the counting is not timed.
        """
        for sid, result_attrs, result in self._pending:
            self.spans[sid][5].update(result_attrs(self.spans[sid][5], result))
        self._pending.clear()

    def restore(self) -> None:
        for obj, attr, orig in reversed(self._patched):
            if orig is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, orig)
        self._patched.clear()

    # ---- reduction -------------------------------------------------------

    def self_times(self) -> dict[int, dict[tuple, float]]:
        """Self time per (span name, metric attribute), for every operation."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out: dict[int, dict[tuple, float]] = defaultdict(lambda: defaultdict(float))
        for sid, s in enumerate(self.spans):
            out[s[0]][(s[1], s[5].get("metric"))] += (s[3] - s[2]) - child[sid]
        return out
