"""A catalogue of mutants of ``src/pqc`` that the tests must kill.

Each entry is one edit: in ``file`` (under ``src/pqc``), ``text``, which
must occur there exactly once, becomes ``replacement``. ``tests`` is the
pytest selection that must fail on the edited copy, and ``origin`` says
which change introduced the code or the check the mutant breaks.

    python tests/mutants.py [--only ID]

For each entry the runner copies the checkout (without ``.git``) to a
temporary directory, applies the edit to the copy's ``src/``, and runs the
selection there with ``PYTHONPATH`` pointing at the copy's ``src``. A test
that starts ``python -m pqc.cli`` from its own checkout then runs the
mutant too. Nothing is written inside the checkout. The runner prints each
survivor's id and edit, and exits 1 if any entry survives, or if its text
does not occur exactly once. An entry whose text no longer occurs is ported
with the code it mutates, not dropped.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT = 120  # seconds for one entry's selection; a hang is not a kill


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to src/pqc
    text: str
    replacement: str
    tests: tuple[str, ...]
    origin: str


MUTANTS = (
    # ---- the builder: replay, record, append, placement ---------------------
    Mutant(
        "replay-skips-writes", "circuits.py",
        "        for i, k, t in writes:\n",
        "        for i, k, t in writes[:0]:\n",
        ("tests/test_call_memo.py",),
        "call memo: a replayed call opens the wires its record wrote"),
    Mutant(
        "record-keeps-old-labels", "circuits.py",
        " for i in {c >> 1 for c in flatten_bundle(arg)} if entries[i][0] >= start],",
        " for i in {c >> 1 for c in flatten_bundle(arg)}],",
        ("tests/test_call_memo.py",),
        "call memo: a record writes only the labels its call drew"),
    Mutant(
        "replay-draws-no-labels", "circuits.py",
        "        self.supply.n = base + count\n",
        "        self.supply.n = base\n",
        ("tests/test_call_memo.py",),
        "call memo: a replayed call draws the labels its call drew"),
    Mutant(
        "record-ignores-resized", "circuits.py",
        "        codes = None if self.resized != resized else map_bundle(\n",
        "        codes = None if False else map_bundle(\n",
        ("tests/test_call_memo.py",),
        "call memo: a call that moved other wires is not recorded"),
    Mutant(
        "append-ignores-outputs", "circuits.py",
        "        return map_bundle(boxed.outputs, [l for l, _ in fresh].__getitem__)\n",
        "        return map_bundle(boxed.outputs, lambda j, it=iter(fresh): next(it)[0])\n",
        ("tests/test_circuits.py",),
        "builder names its own wires: append returns body output j's label "
        "where the box's outputs put j"),
    Mutant(
        "perm-body-cached-by-offset", "circuits.py",
        "        key = (left, right) if self._by_width else left\n",
        "        key = left\n",
        ("tests/test_circuits.py",),
        "one cache for every boxed body: a body holding a Perm depends on "
        "the width"),
    # ---- the evaluator ------------------------------------------------------
    Mutant(
        "value-returns-bound-var", "evaluator.py",
        "        return v if w is None else w\n",
        "        return v\n",
        ("tests/test_evaluator.py",),
        "every operand read by _value: a bound variable is its value"),
    Mutant(
        "bind-ignores-sealed", "evaluator.py",
        "        env = Env(parent=self) if self.sealed else self\n",
        "        env = self\n",
        ("tests/test_evaluator.py",),
        "every binder through Env.bind: a closure never sees a later binding"),
    # ---- the checker --------------------------------------------------------
    Mutant(
        "boxed-type-ignores-output-order", "typecheck.py",
        "        eff = self.alg.abstract(body, self.registry, flatten_bundle(boxed.outputs))\n",
        "        eff = self.alg.abstract(body, self.registry)\n",
        ("tests/test_effects.py",),
        "builder names its own wires: a box's type returns its outputs in "
        "its bundle's order"),
    Mutant(
        "argument-promise-unchecked", "typecheck.py",
        '            self._check_promise(at, ft.dom, "the argument")\n',
        "",
        ("tests/test_effects.py",),
        "soundness fix: a thunk argument keeps its parameter's promise"),
    Mutant(
        "ifz-stored-effects-unjoined", "typecheck.py",
        "            info = self._info(self._join_stored(ty, et))\n",
        "            info = self._info(ty)\n",
        ("tests/test_effects.py",),
        "soundness fix: ifz joins its branches' stored effects"),
    Mutant(
        "fold-step-count-unchecked", "typecheck.py",
        "            if held != len(out):\n",
        "            if False:\n",
        ("tests/test_effects.py",),
        "the fold checks what it places: a step hands back as many wires as "
        "its names hold"),
    # ---- the algebras -------------------------------------------------------
    Mutant(
        "width-fold-count-unchecked", "algebras.py",
        "        if len(taken) != e.dom:\n"
        '            raise EndpointMismatch(f"width effect',
        "        if False:\n"
        '            raise EndpointMismatch(f"width effect',
        ("tests/test_effects.py",),
        "the fold checks what it places: width"),
    Mutant(
        "depth-fold-count-unchecked", "algebras.py",
        "        if len(taken) != d:\n"
        '            raise EndpointMismatch(f"depth effect',
        "        if False:\n"
        '            raise EndpointMismatch(f"depth effect',
        ("tests/test_effects.py",),
        "the fold checks what it places: depth"),
    Mutant(
        "assert-fold-count-unchecked", "algebras.py",
        "        if len(taken) != d:\n"
        '            raise EndpointMismatch(f"assert effect',
        "        if False:\n"
        '            raise EndpointMismatch(f"assert effect',
        ("tests/test_effects.py",),
        "the fold checks what it places: assert"),
    Mutant(
        "abstract-end-count-unchecked", "algebras.py",
        "        if len(wires) != len(c.cod):\n",
        "        if False:\n",
        ("tests/test_effects.py",),
        "the fold checks what it places: abstract refuses a gate effect "
        "that leaves the wrong wire count"),
    Mutant(
        "abstract-routes-inverted", "algebras.py",
        "                wires = [wires[i] for i in routing(step.perm)]\n",
        "                wires = [wires[i] for i in step.perm]\n",
        ("tests/test_algebras.py",),
        "abstract as a fold: a permutation routes position j from wire "
        "perm^-1[j]"),
    Mutant(
        "scalar-join-keeps-first", "algebras.py",
        '        return Effect("*", "*", max(e1.value, e2.value))\n',
        '        return Effect("*", "*", e1.value)\n',
        ("tests/test_effects.py",),
        "the scalar algebras: ifz joins its branches' gate counts"),
    Mutant(
        "width-join-keeps-first", "algebras.py",
        "        return Effect(e1.dom, e1.cod, max(e1.value, e2.value))\n",
        "        return Effect(e1.dom, e1.cod, e1.value)\n",
        ("tests/test_effects.py",),
        "width: ifz joins its branches' peaks"),
    Mutant(
        "depth-join-keeps-first", "algebras.py",
        "np.maximum(e1.value.m, e2.value.m)",
        "e1.value.m",
        ("tests/test_effects.py",),
        "depth: ifz joins its branches' path matrices"),
    Mutant(
        "scalar-leq-strict", "algebras.py",
        "    def leq(self, e1, e2) -> bool:\n        return e1.value <= e2.value\n",
        "    def leq(self, e1, e2) -> bool:\n        return e1.value < e2.value\n",
        ("tests/test_effects.py",),
        "the scalar algebras: a bound equal to the run dominates it"),
    Mutant(
        "width-leq-reversed", "algebras.py",
        '        self._require_endpoints(e1, e2, "width leq")\n'
        "        return e1.value <= e2.value\n",
        '        self._require_endpoints(e1, e2, "width leq")\n'
        "        return e1.value >= e2.value\n",
        ("tests/test_effects.py",),
        "width: leq compares peaks"),
    Mutant(
        "depth-leq-any-entry", "algebras.py",
        "        return bool(np.all(e1.value.m <= e2.value.m))\n",
        "        return bool(np.any(e1.value.m <= e2.value.m))\n",
        ("tests/test_tropical.py",),
        "depth: leq holds entry by entry"),
    Mutant(
        "assert-leq-ignores-reach", "algebras.py",
        "        if np.any(e1.value.reach > e2.value.reach):\n",
        "        if False:\n",
        ("tests/test_algebras.py",),
        "assert: leq needs the first postsets inside the second"),
    Mutant(
        "assert-join-keeps-first-cost", "algebras.py",
        "AssertValue(v1.reach | v2.reach, _max((v1.cost, v2.cost)))",
        "AssertValue(v1.reach | v2.reach, v1.cost)",
        ("tests/test_assert_oracle.py",),
        "assert on basis integers: join takes the larger cost"),
    # ---- the parser and the printers ----------------------------------------
    Mutant(
        "bit-type-parsed-as-qubit", "syntax.py",
        '"Bit": BitT(),',
        '"Bit": QubitT(),',
        ("tests/test_syntax.py", "tests/test_typecheck.py"),
        "the parser: a type atom reads as itself"),
    Mutant(
        "assert-rows-unclosed", "cli.py",
        '    close = "\\n" + ind + "]"\n',
        '    close = "\\n" + ind\n',
        ("tests/test_cli.py",),
        "the JSON printer: assert rows print as json.dumps(indent=2) does"),
    # ---- the CLI ------------------------------------------------------------
    Mutant(
        "infer-without-fallback", "cli.py",
        "        check_program(prog, registry)\n        raise\n",
        "        raise\n",
        ("tests/test_cli.py",),
        "one checker: the plain checker's error wins, as if it ran first"),
)


def _occurrences(m: Mutant) -> int:
    with open(os.path.join(ROOT, "src", "pqc", m.file), encoding="utf-8") as f:
        return f.read().count(m.text)


def _ignore(_dir, names):
    return {n for n in names if n in (".git", "__pycache__", ".pytest_cache")}


def run(m: Mutant) -> str:
    """``"killed"`` if the selection fails on the mutant, ``"survived"`` if
    it passes, or what went wrong otherwise."""
    n = _occurrences(m)
    if n != 1:
        return f"its text occurs {n} times in src/pqc/{m.file}, not once"
    with tempfile.TemporaryDirectory(prefix="pqc-mutant-") as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=_ignore)
        path = os.path.join(copy, "src", "pqc", m.file)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(source.replace(m.text, m.replacement))
        env = {**os.environ, "PYTHONPATH": os.path.join(copy, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 *m.tests], cwd=copy, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"its selection ran past {TIMEOUT} s"
    if done.returncode == 1:
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"pytest exited {done.returncode}"  # 5: the selection is empty


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", metavar="ID", help="run only this entry")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.id)]
    if not chosen:
        ap.error(f"no entry {args.only}")
    bad = []
    for m in chosen:
        t0 = time.perf_counter()
        verdict = run(m)
        print(f"{m.id}: {verdict} ({time.perf_counter() - t0:.1f} s)", flush=True)
        if verdict != "killed":
            bad.append(m)
    for m in bad:
        print(f"\nNOT KILLED: {m.id} (src/pqc/{m.file}, {m.origin})\n"
              f"- {m.text!r}\n+ {m.replacement!r}\n  by: {' '.join(m.tests)}")
    print(f"{len(chosen) - len(bad)} of {len(chosen)} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
