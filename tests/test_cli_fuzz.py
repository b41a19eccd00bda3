"""Seeded fuzzing of the command line.

Inputs are token-level mutations of the demo programs (delete, duplicate or
swap a token, or replace an identifier) and small random gate-spec files.
Whatever the input, ``pqc`` must finish with exit code 0, 1 or 2 and report
a failure as one ``error:`` line: an exception escaping ``main`` is a
traceback. Runs are bounded by ``--fuel`` and by keeping every generated
gate and program small.
"""

from __future__ import annotations

import os
import shutil

import pytest

from generators import rng
from pqc.cli import main
from pqc.syntax import tokenize

HERE = os.path.dirname(os.path.abspath(__file__))
DEMOS = os.path.join(HERE, os.pardir, "demos")
PROGRAMS = sorted(f for f in os.listdir(DEMOS) if f.endswith(".pqc"))
METRICS = ("gates", "depth-naive", "width", "depth", "assert")
FUEL = ["--fuel", "10000"]


def commands(r) -> list[list[str]]:
    m = r.choice(METRICS)
    return [["check"], ["check", "--metric", m, "--bound", str(r.randint(0, 6))],
            ["run", *FUEL], ["analyze", "--metric", m],
            ["verify", "--metric", m, *FUEL]]


def mutate(r, texts: list[str]) -> list[str]:
    texts = list(texts)
    i = r.randrange(len(texts))
    kind = r.choice(("delete", "duplicate", "swap", "rename"))
    if kind == "delete":
        del texts[i]
    elif kind == "duplicate":
        texts.insert(i, texts[i])
    elif kind == "swap":
        j = r.randrange(len(texts))
        texts[i], texts[j] = texts[j], texts[i]
    else:
        idents = [k for k, t in enumerate(texts) if t.isidentifier()]
        pool = sorted({texts[k] for k in idents}) + ["zz", "Qubit", "in"]
        if idents:
            texts[r.choice(idents)] = r.choice(pool)
    return texts


def random_gate_spec(r) -> str:
    """A few gates of at most two wires each; most lines are well formed."""
    lines = []
    for g in range(r.randint(1, 3)):
        dom = [r.choice(("Qubit", "Qubit", "Bit")) for _ in range(r.randint(0, 2))]
        cod = [r.choice(("Qubit", "Qubit", "Bit")) for _ in range(r.randint(0, 2))]
        name = r.choice(("H", "X", "CNOT", "init", f"g{g}"))
        lines.append(f"gate {name} : {' '.join(dom) or 'I'} -> {' '.join(cod) or 'I'}")
        for _ in range(r.randint(0, 3)):
            valid = r.random() < 0.8
            prop = r.choice(("count", "depth", "assert"))
            if prop != "assert":
                weight = r.randint(0, 3) if valid else r.choice(("-1", "x", ""))
                lines.append(f"{prop} {weight}")
            else:
                bits = lambda n: "".join(r.choice("01") for _ in range(n))
                n_in = len(dom) if valid else r.randint(0, 2)
                lines.append(f'assert "{bits(n_in)}" -> {{"{bits(len(cod))}"}} '
                             f"cost {r.randint(0, 2)}")
    return "\n".join(lines) + "\n"


def run_cli(capsys, argv) -> int:
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    return code


@pytest.fixture
def workdir(tmp_path):
    for name in os.listdir(DEMOS):
        if name.endswith((".pqc", ".pqcg")):
            shutil.copy(os.path.join(DEMOS, name), tmp_path)
    return tmp_path


def mutated_demos(n: int = 200):
    """The fuzzed programs, each with the command to run it under."""
    r = rng("cli-fuzz-programs")
    sources = {}
    for name in PROGRAMS:
        with open(os.path.join(DEMOS, name), encoding="utf-8") as f:
            sources[name] = [t.text for t in tokenize(f.read()) if t.kind != "eof"]
    for _ in range(n):
        name = r.choice(PROGRAMS)
        texts = sources[name]
        for _ in range(r.randint(1, 2)):
            texts = mutate(r, texts)
        yield " ".join(texts), r.choice(commands(r))


def test_mutated_demos_exit_cleanly(capsys, workdir):
    codes = []
    for case, (src, cmd) in enumerate(mutated_demos()):
        path = workdir / f"case{case}.pqc"
        path.write_text(src)
        codes.append(run_cli(capsys, [cmd[0], str(path), *cmd[1:]]))
    assert 0 in codes and 2 in codes  # the mutations both keep and break programs


def test_random_gate_specs_exit_cleanly(capsys, workdir):
    r = rng("cli-fuzz-gate-specs")
    for case in range(60):
        spec = workdir / f"spec{case}.pqcg"
        spec.write_text(random_gate_spec(r))
        prog = workdir / r.choice(PROGRAMS)
        cmd = r.choice(commands(r))
        run_cli(capsys, [cmd[0], str(prog), "--gates", str(spec), *cmd[1:]])
