"""Evaluator behaviour pinned as literal expectations.

``pinned_runs.json`` was recorded from the substitution-based evaluator that
the environment machine replaced. For the demos and for the seeded
random-program suites it holds

* the sha256 of ``serialize(circuit)``, which must stay byte-identical;
* the smallest ``fuel`` the run needs: it succeeds with that much and runs
  out with one unit less, so ``--fuel N`` accepts and rejects the same
  programs;
* the outputs and the value, with labels renamed ``#0, #1, ...`` in order of
  first appearance, so they must agree up to a consistent renaming;
* under each of the five algebras, the sha256 of the ``value_json`` (with
  the endpoints) of ``abstract`` on the built circuit (``"abstract"``) and of
  static inference on the program (``"infer"``), or the class of the error
  where the algebra rejects it (such as ``UnsupportedWire`` on bits under
  ``assert``). These were recorded before the algebras' two one-sided
  whiskers and their per-gate tensor gave way to one two-sided whisker, so
  the image of every circuit and program must stay the same. ``depth``'s
  corner ``"s"`` is left out of the hash, as it was printed only later
  (``test_fold`` and ``test_cli`` check it);
* under ``assert``, for ``abstract`` and ``infer`` alike (``"assert_costs"``),
  the sha256 of the costs ``apply`` reports on each single basis state, on
  all states and, up to 4 input qubits, on every subset of states. These
  were recorded before the cost tree gave way to flat cost tuples, since
  ``value_json`` shows an ``assert`` effect's rows but not its cost.

Besides the demos, a few hand-written sources cover what the random
programs do not: closures returned as values (read back with their captured
wires), shadowing around ``lift`` and nested ``let``, boxes of pair shape,
higher-order calls. The random programs come from
``generators.random_program`` on the default seed, whatever ``PQC_SEED``
says, and each pin carries a digest of the program text so a change to the
generator shows up as such.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import re

import pytest

from generators import random_program
from pqc.algebras import ALGEBRAS
from pqc.circuits import serialize
from pqc.cli import main
from pqc.effects import infer_program_effect
from pqc.errors import FuelExhausted, PqcError
from pqc.evaluator import evaluate_program, readback
from pqc.gates import default_registry, load_gate_spec
from pqc.syntax import parse_program, show_program, show_value
from pqc.typecheck import check_program

HERE = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(HERE, os.pardir, "demos")
with open(os.path.join(HERE, "pinned_runs.json"), encoding="utf-8") as _f:
    PINS = json.load(_f)

registry = default_registry()


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def canonical(outputs: list[list[str]], value: str) -> dict:
    """Outputs and value with labels renamed in order of first appearance."""
    names: dict[str, str] = {}

    def rename(m: re.Match) -> str:
        return names.setdefault(m.group(0), f"#{len(names)}")

    outs = [[re.sub(r"#\d+", rename, l), t] for l, t in outputs]
    return {"outputs": outs, "value": re.sub(r"#\d+", rename, value)}


def effects_digest(image) -> str:
    """sha256 over every algebra's ``value_json`` of ``image(alg)``."""
    doc = {}
    for name, alg in sorted(ALGEBRAS.items()):
        try:
            e = image(alg)
        except PqcError as err:
            doc[name] = type(err).__name__
        else:
            value = alg.value_json(e)
            if name == "depth":  # recorded before the corner was printed
                value = {k: v for k, v in value.items() if k != "s"}
            doc[name] = [e.dom, e.cod, value]
    return sha256(json.dumps(doc, sort_keys=True))


def assert_costs_digest(image) -> str:
    """sha256 of the costs ``apply`` reports on ``image(assert)``."""
    try:
        e = image(ALGEBRAS["assert"])
    except PqcError as err:
        return type(err).__name__
    states = sorted(e.value.rows)
    doc = {"singles": [e.value.apply({b})[1] for b in states],
           "all": e.value.apply(states)[1]}
    if e.dom <= 4:
        doc["subsets"] = [e.value.apply(pre)[1]
                          for n in range(len(states) + 1)
                          for pre in itertools.combinations(states, n)]
    return sha256(json.dumps(doc))


def effect_pins(prog, circuit, reg) -> dict:
    def abstract(alg):
        return alg.abstract(circuit, reg)

    def infer(alg):
        return infer_program_effect(prog, alg, reg)[1]

    return {
        "abstract": effects_digest(abstract),
        "infer": effects_digest(infer),
        "assert_costs": {"abstract": assert_costs_digest(abstract),
                         "infer": assert_costs_digest(infer)},
    }


EFFECT_PINS = ("abstract", "infer", "assert_costs")


def load_demo(name: str):
    """A demo program with the registry its gate-spec line asks for."""
    path = os.path.join(DEMOS, name)
    with open(path, encoding="utf-8") as f:
        prog = parse_program(f.read())
    reg = registry
    if prog.gates_path is not None:
        reg = reg.extended(load_gate_spec(os.path.join(DEMOS, prog.gates_path)))
    return prog, reg


def suite(salt: str, count: int, assert_safe: bool) -> list:
    r = random.Random(f"{PINS['seed']}/{salt}")
    return [random_program(r, assert_safe=assert_safe) for _ in range(count)]


def pinned_programs():
    for name, spec in PINS["random"].items():
        progs = suite(name, len(spec["runs"]), spec["assert_safe"])
        for i, (prog, pin) in enumerate(zip(progs, spec["runs"])):
            yield f"{name}[{i}]", prog, pin


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("name", sorted(PINS["demos"]))
def test_demo_runs_match_pins(capsys, tmp_path, name):
    pin = PINS["demos"][name]
    path = os.path.join(DEMOS, name)
    emitted = tmp_path / "circuit.json"
    code, out, _ = run_cli(capsys, "run", path, "--json",
                           "--emit-circuit", str(emitted))
    assert code == 0
    assert sha256(emitted.read_bytes()) == pin["sha256"]
    doc = json.loads(out)
    assert canonical(doc["outputs"], doc["value"]) == {
        "outputs": pin["outputs"], "value": pin["value"]}

    code, _, _ = run_cli(capsys, "run", path, "--fuel", str(pin["fuel"]))
    assert code == 0
    code, _, err = run_cli(capsys, "run", path, "--fuel", str(pin["fuel"] - 1))
    assert code == 2 and "fuel" in err

    prog, reg = load_demo(name)
    circuit, _, _ = evaluate_program(prog, reg)
    assert effect_pins(prog, circuit, reg) == {
        k: pin[k] for k in EFFECT_PINS}


def check_run(prog, pin, where):
    circuit, outputs, value = evaluate_program(prog, registry, pin["fuel"])
    assert sha256(serialize(circuit)) == pin["sha256"], where
    assert effect_pins(prog, circuit, registry) == {
        k: pin[k] for k in EFFECT_PINS}, where
    got = canonical([[str(l), str(t)] for l, t in outputs], show_value(readback(value)))
    assert got == {"outputs": pin["outputs"], "value": pin["value"]}, where
    with pytest.raises(FuelExhausted):
        evaluate_program(prog, registry, pin["fuel"] - 1)


def test_source_runs_match_pins():
    for src, pin in PINS["sources"].items():
        prog = parse_program(src)
        check_program(prog, registry)
        check_run(prog, pin, src)


def test_random_program_runs_match_pins():
    checked = 0
    for where, prog, pin in pinned_programs():
        assert sha256(show_program(prog))[:16] == pin["program"], where
        check_run(prog, pin, where)
        checked += 1
    assert checked == sum(len(s["runs"]) for s in PINS["random"].values())
