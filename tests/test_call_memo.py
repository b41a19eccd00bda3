"""The evaluator's replay of repeated calls changes nothing a run shows.

Each program runs twice: as is, and with the memo's store (``_Memo.leave``)
made a no-op, so that every call is interpreted. The two runs must build the
same steps and open the same labels with the same types, return the same
value, or raise the same error with the same message. The programs are
chosen so that a key without the positions, the width or the wire types, or
a record without the types it leaves, gives a different run.

Replay is allowed by the type check, not decided at run time: a program
that checked is run with ``checked=True``, and only such a run replays. The
``UNCHECKED`` programs are rejected by the checker. They run without the
keyword, as a library caller who skipped the checker would run them, and
must raise the error a direct run raises, with no replay involved.
"""

import pytest

from generators import random_program, rng
from pqc import evaluator
from pqc.circuits import CircuitBuilder, Layer
from pqc.cli import main
from pqc.errors import FuelExhausted, PqcError
from pqc.evaluator import evaluate_program, readback
from pqc.gates import default_registry
from pqc.syntax import parse_program, show_value
from pqc.typecheck import check_program

registry = default_registry()


def outcome(prog, fuel=None, **kw):
    """What a run shows: its circuit, open outputs and value, or its error.
    ``kw`` goes to ``evaluate_program``."""
    try:
        c, outputs, v = evaluate_program(prog, registry, fuel, **kw)
    except PqcError as e:
        return "error", type(e).__name__, str(e)
    return "ok", c.dom, c.steps, outputs, show_value(readback(v))


def counting_replays(monkeypatch, run) -> int:
    """How many calls ``run()`` replays."""
    seen = []
    replay = CircuitBuilder.replay

    def spy(self, *args):
        seen.append(args)
        return replay(self, *args)
    with monkeypatch.context() as m:
        m.setattr(CircuitBuilder, "replay", spy)
        run()
    return len(seen)


def replays(monkeypatch, prog, fuel=None, **kw) -> int:
    """How many calls a run replays."""
    return counting_replays(monkeypatch, lambda: outcome(prog, fuel, **kw))


def same_with_memo_off(monkeypatch, prog, fuel=None, **kw):
    on = outcome(prog, fuel, **kw)
    with monkeypatch.context() as m:
        m.setattr(evaluator._Memo, "leave", lambda self, *args: None)
        off = outcome(prog, fuel, **kw)
    assert on == off
    return on


def doubling(levels: int, wires: int = 1) -> str:
    """``2^levels`` copies of a body of one gate per wire, by functions."""
    names = [f"a{j}" for j in range(wires)]
    tup = names[0] if wires == 1 else "(" + ", ".join(names) + ")"
    ty = " * ".join(["Qubit"] * wires)
    body = (f"dest {tup} = x in " if wires > 1 else "let a0 = return x in ")
    body += "".join(f"let {a} = apply(@{'HXZ'[j % 3]}, {a}) in "
                    for j, a in enumerate(names))
    lines = ["inputs " + ", ".join(f"{a}: Qubit" for a in names) + ";",
             f"let f0 = return (lift return (\\x: {ty}. {body}return {tup})) in"]
    lines += [f"let f{i} = return (lift return (\\x: {ty}. let g = force f{i - 1} "
              f"in let y = g x in let h = force f{i - 1} in h y)) in"
              for i in range(1, levels + 1)]
    return "\n".join(lines + [f"let g = force f{levels} in g {tup}"])


def brickwork(k: int, levels: int) -> str:
    """CNOT brickwork on ``k`` wires, ``2^levels`` doubled rounds of two."""
    a = [f"a{j}" for j in range(k)]
    tup = "(" + ", ".join(a) + ")"
    ty = " * ".join(["Qubit"] * k)
    body = f"dest {tup} = x in " + "".join(
        f"let p = apply(@CNOT, ({a[i]}, {a[i + 1]})) in dest ({a[i]}, {a[i + 1]}) = p in "
        for phase in (0, 1) for i in range(phase, k - 1, 2))
    lines = ["inputs " + ", ".join(f"{x}: Qubit" for x in a) + ";",
             f"let f0 = return (lift return (\\x: {ty}. {body}return {tup})) in"]
    lines += [f"let f{i} = return (lift return (\\x: {ty}. let g = force f{i - 1} "
              f"in let y = g x in let h = force f{i - 1} in h y)) in"
              for i in range(1, levels + 1)]
    return "\n".join(lines + [f"let g = force f{levels} in g {tup}"])


# Well-typed programs, each replaying at least one call.
TYPED = {
    "doubling-1-wire": doubling(6),
    "doubling-4-wires": doubling(4, 4),
    "brickwork": brickwork(6, 2),
    "two-positions": """
        inputs a: Qubit, b: Qubit;
        let f = return (lift return (\\x: Qubit. apply(@H, x))) in
        let g = force f in let a = g a in
        let h = force f in let b = h b in
        let k = force f in let a = k a in
        return (a, b)""",
    "identity": """
        inputs a: Qubit, b: Qubit;
        let f = return (lift return (\\x: Qubit. return x)) in
        let g = force f in let a = g a in
        let h = force f in let a = h a in
        return (a, b)""",
    "pair-with-a-passthrough": """
        inputs a: Qubit, b: Qubit, c: Qubit;
        let f = return (lift return (\\p: Qubit * Qubit.
            dest (x, y) = p in let y = apply(@H, y) in return (x, y))) in
        let g = force f in let p = g (a, b) in dest (a, b) = p in
        let h = force f in let p = h (a, b) in dest (a, b) = p in
        return (a, b, c)""",
    # the record made inside the box is replayed in the program's circuit
    "inside-a-box": """
        inputs a: Qubit;
        let f = return (lift return (\\x: Qubit. apply(@X, x))) in
        let c = box[Qubit] lift \\x: Qubit. let g = force f in g x in
        let a = apply(c, a) in
        let g = force f in let a = g a in
        return a""",
    # the same function at the same positions in a wider circuit: its gather
    # permutation spans every wire
    "two-widths": """
        inputs a: Qubit, b: Qubit;
        let f = return (lift return (\\p: Qubit * Qubit.
            dest (x, y) = p in apply(@CNOT, (y, x)))) in
        let g = force f in let p = g (a, b) in dest (a, b) = p in
        let c = apply(@init, *) in
        let h = force f in let p = h (a, b) in dest (a, b) = p in
        let k = force f in let p = k (a, b) in dest (a, b) = p in
        return (a, b, c)""",
    # the second call replays at a position where meas left a bit before:
    # the record must open the new wire as a Bit
    "meas-then-init": """
        inputs a: Qubit, b: Qubit;
        let f = return (lift return (\\x: Qubit. let y = apply(@H, x) in apply(@meas, y))) in
        let g = force f in let b = g b in
        let u = apply(@discard, a) in
        let c = apply(@init, *) in
        let h = force f in let c = h c in
        return (b, c)""",
}

# Programs the checker rejects, run without it: a direct run raises, and an
# unchecked run replays nothing.
UNCHECKED = {
    # a bit where the record saw a qubit
    "meas-of-a-bit": """
        inputs q: Qubit;
        let f = return (lift return (\\x: Qubit. apply(@meas, x))) in
        let g = force f in let b = g q in
        let h = force f in h b""",
    # the closure attaches the wire it captured, which the first call also
    # got as its argument
    "captured-wire": """
        inputs q: Qubit;
        let f = return (lift return (\\x: Qubit. apply(@H, q))) in
        let g = force f in let a = g q in
        let h = force f in h a""",
    # ... reached through another closure
    "captured-through-a-closure": """
        inputs q: Qubit;
        let c = return (lift return (\\y: Qubit. apply(@H, q))) in
        let f = return (lift return (\\x: Qubit. let k = force c in k x)) in
        let g = force f in let a = g q in
        let h = force f in h a""",
    # ... or named after a lambda that binds the same name
    "captured-after-a-shadowing-lambda": """
        inputs q: Qubit;
        let f = return (lift return (\\x: Qubit.
            let k = return (\\q: Qubit. return q) in apply(@H, q))) in
        let g = force f in let a = g q in
        let h = force f in h a""",
    # ... or written as a label: #2 is the first call's argument
    "label-literal": """
        inputs q: Qubit;
        let f = return (lift return (\\x: Qubit. apply(@H, #2))) in
        let q = apply(@H, q) in let q = apply(@H, q) in
        let g = force f in let a = g q in
        let h = force f in h a""",
}


@pytest.mark.parametrize("name", sorted(TYPED))
def test_replay_builds_what_the_calls_build(monkeypatch, name):
    prog = parse_program(TYPED[name])
    check_program(prog, registry)
    got = same_with_memo_off(monkeypatch, prog, checked=True)
    assert got[0] == "ok", got
    assert replays(monkeypatch, prog, checked=True) > 0


@pytest.mark.parametrize("name", sorted(TYPED))
def test_an_unchecked_run_replays_nothing(monkeypatch, name):
    prog = parse_program(TYPED[name])
    assert outcome(prog) == outcome(prog, checked=True)
    assert counting_replays(
        monkeypatch, lambda: evaluate_program(prog, registry)) == 0


@pytest.mark.parametrize("name", sorted(UNCHECKED))
def test_no_replay_where_a_call_would_fail(monkeypatch, name):
    prog = parse_program(UNCHECKED[name])
    with pytest.raises(PqcError):
        check_program(prog, registry)
    got = same_with_memo_off(monkeypatch, prog)
    assert got[0] == "error", got  # the second call raises
    assert replays(monkeypatch, prog) == 0


@pytest.mark.parametrize("cmd", [["run"], ["run", "--json"],
                                 ["verify", "--metric", "gates"]])
def test_the_cli_replays_what_it_checked(monkeypatch, capsys, tmp_path, cmd):
    path = tmp_path / "doubling.pqc"
    path.write_text(doubling(6))
    argv, codes = [cmd[0], str(path), *cmd[1:]], []
    assert counting_replays(monkeypatch, lambda: codes.append(main(argv))) > 0
    assert codes == [0]


def test_a_call_that_moves_other_wires_is_not_replayed(monkeypatch):
    # discarding the top wire moves the others up, and the new wire goes
    # last: the width is the same after each call, the positions are not
    prog = parse_program("""
        inputs a: Qubit, b: Qubit, c: Qubit;
        let f = return (lift return (\\x: Qubit.
            let u = apply(@discard, x) in apply(@init, *))) in
        let g = force f in let a = g a in
        let h = force f in let b = h b in
        return (a, b, c)""")
    check_program(prog, registry)
    assert same_with_memo_off(monkeypatch, prog, checked=True)[0] == "ok"
    assert replays(monkeypatch, prog, checked=True) == 0


def test_random_programs_run_alike(monkeypatch):
    r = rng("call-memo")
    replayed = 0
    for i in range(120):
        prog = random_program(r, ascribed=i % 2 == 0, calls=i % 3 == 0)
        check_program(prog, registry)
        same_with_memo_off(monkeypatch, prog, checked=True)
        replayed += replays(monkeypatch, prog, checked=True)
    assert replayed > 0


def minimal_fuel(prog, **kw) -> int:
    lo, hi = 0, 1
    while outcome(prog, hi, **kw)[0] == "error":
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # the run fails with lo and succeeds with hi
        mid = (lo + hi) // 2
        if outcome(prog, mid, **kw)[0] == "error":
            lo = mid
        else:
            hi = mid
    return hi


def test_replay_charges_the_fuel_of_the_call(monkeypatch):
    prog = parse_program(doubling(6))
    fuel = minimal_fuel(prog, checked=True)
    assert minimal_fuel(prog) == fuel
    with monkeypatch.context() as m:
        m.setattr(evaluator._Memo, "leave", lambda self, *args: None)
        assert minimal_fuel(prog, checked=True) == fuel
    assert replays(monkeypatch, prog, fuel, checked=True) > 0
    same_with_memo_off(monkeypatch, prog, fuel, checked=True)
    with pytest.raises(FuelExhausted):
        evaluate_program(prog, registry, fuel - 1, checked=True)
    got = same_with_memo_off(monkeypatch, prog, fuel - 1, checked=True)
    assert got[1] == "FuelExhausted"


def test_doubling_interprets_one_body_per_level(monkeypatch):
    """Each level's first call is interpreted and its second replayed, so
    the bodies run grow with the levels, not with the 2^k gates."""
    enter = evaluator._Memo.enter

    def counts(levels: int) -> tuple[int, int, int]:
        runs = []

        def spy(self, *args):
            hit = enter(self, *args)
            runs.append(hit is None)
            return hit
        with monkeypatch.context() as m:
            m.setattr(evaluator._Memo, "enter", spy)
            c, _, _ = evaluate_program(parse_program(doubling(levels)), registry,
                                       checked=True)
        assert sum(type(s) is Layer for s in c.steps) == 2 ** levels
        return sum(runs), len(runs) - sum(runs), replays(
            monkeypatch, parse_program(doubling(levels)), checked=True)

    run8, hit8, replayed8 = counts(8)
    run12, hit12, replayed12 = counts(12)
    assert run12 - run8 == 12 - 8
    assert hit12 - hit8 == replayed12 - replayed8 == 12 - 8
