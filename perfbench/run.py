"""pqc benchmark: time to a static bound and time to a verified verdict.

Run from the root of a pqc checkout::

    python3 perfbench/run.py --workload doubling --seed 1 --seconds 24 --trace 0

The load is a closed loop: one client, one process, one thread, one operation
at a time. An operation is one in-process call to
``pqc.cli.main([cmd, FILE, "--metric", M])`` with cmd ``analyze`` or
``verify``, on a program the seeded generator wrote to FILE before timing
started. It fails if it raises (RecursionError included), exits non-zero, or
prints anything but the answer the generator computed. The benchmark never
raises the interpreter's recursion limit.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same operations with spans around pqc's public stage functions and
prints the per-layer metrics. The last line of stdout is the result record;
the line before it records the inputs' digest and the run context.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Case  # noqa: E402

METRICS = ("gates", "depth-naive", "width", "depth", "assert")
# Tail percentile per (workload, command). A run of the design length has
# 57-120 samples per command, so each of these leaves at least ten samples
# beyond it. A run also goes on until each command has min_samples(p)
# samples, so that holds however slow pqc gets.
TAIL = {
    ("doubling", "analyze"): 85, ("doubling", "verify"): 85,
    ("brickwork", "analyze"): 85, ("brickwork", "verify"): 85,
    ("corpus", "analyze"): 85, ("corpus", "verify"): 85,
    ("assert", "analyze"): 85, ("assert", "verify"): 75,
}
SETUP_REPEATS = 7
# The traced run adds every scalar metric where a case lacks it, and the
# assert metric on cases of at most this many wires: assert analysis grows
# as 2^n rows and its exhaustive leq as 2^(2^n) input sets.
TRACE_ASSERT_WIRES = 3
LADDER = (250, 500, 1000, 2000)
# Stay well inside the 180 s a run may take, whatever pqc's speed.
HARD_STOP_S = 120.0
DEMOS = (
    (["analyze", "demos/interleave.pqc", "--metric", "depth"],
     lambda d: d["depth_bound"] == 2),
    (["analyze", "demos/interleave.pqc", "--metric", "depth-naive"],
     lambda d: d["value"] == 3),
    (["analyze", "demos/lnn.pqc", "--metric", "gates"],
     lambda d: d["value"] == 5),
    (["analyze", "demos/lnn.pqc", "--metric", "assert", "--restrict", "2"],
     lambda d: d["post"] == ["00", "11"] and d["cost"] == 3),
)


def min_samples(p: float) -> int:
    """Samples needed for ten to lie beyond the p-th percentile."""
    return round(10 / (1 - p / 100))


def percentile(xs: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A Beta-weighted mean of all order statistics: with a few programs of
    distinct cost in a pass, a single order statistic jumps between their
    clusters of times from run to run, and this smooths over the jump.
    """
    x = np.sort(np.asarray(xs, dtype=float))
    n, q, k = len(x), p / 100, 64
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, k * n + 1)
    with np.errstate(divide="ignore"):
        pdf = np.exp((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2 * np.diff(grid))])
    return float(np.diff(cdf[::k] / cdf[-1]) @ x)


# --------------------------------------------------------------------------
# set-up
# --------------------------------------------------------------------------

SETUP_CHILD = """
import sys
import pqc.cli
from pqc.gates import default_registry, load_gate_spec
default_registry().extended(load_gate_spec(sys.argv[1]))
import time
print(time.time())
"""


class Setup:
    """Times fresh interpreters from spawn to ready.

    Each start is scaled by the reference interpreters started just before
    and just after it; the raw times are kept too.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.spec = os.path.join(ROOT, "demos", "lnn_gates.pqcg")
        self.raw: list[float] = []
        self.times: list[float] = []
        self.spawn(SETUP_CHILD)  # the first start also writes bytecode caches
        self.ref = self.spawn(speed.PROCESS_CHILD)

    def spawn(self, code: str) -> float:
        t0 = time.time()
        out = subprocess.run([sys.executable, "-c", code, self.spec],
                             env=self.env, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        return float(out.stdout.strip()) - t0

    def once(self) -> None:
        dt = self.spawn(SETUP_CHILD)
        ref = self.spawn(speed.PROCESS_CHILD)
        self.raw.append(dt)
        self.times.append(speed.scaled(dt, self.ref, ref, speed.PROCESS_NOMINAL_S))
        self.ref = ref


def import_pqc():
    sys.path.insert(0, SRC)
    import pqc.cli
    if not os.path.abspath(pqc.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pqc from {pqc.cli.__file__}, not {SRC}")
    return pqc


def run_context() -> dict:
    lines = 0
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "pqc"))):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                with open(os.path.join(dirpath, fn), "rb") as f:
                    data = f.read()
                lines += data.count(b"\n")
                digest.update(fn.encode() + b"\0" + data)
    return {
        "commit": read_commit(),
        "src_pqc_sha256": digest.hexdigest(),
        "src_pqc_lines": lines,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


def read_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return None


def ast_nodes(prog) -> int:
    """Count the syntax dataclass nodes reachable from a parsed program."""
    import pqc.syntax as syn

    count, stack = 0, [prog.term] + [ty for _, ty in prog.inputs]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif dataclasses.is_dataclass(node) and type(node).__module__ == syn.__name__:
            count += 1
            stack.extend(getattr(node, f.name) for f in dataclasses.fields(node))
    return count


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def depth_of(triple: dict) -> int:
    """Largest finite entry of a depth triple as value_json prints it."""
    vals = [x for row in triple["A"] for x in row] + triple["v"] + triple["w"]
    return max(x for x in vals if x != "-inf")


def answer_ok(cmd: str, metric: str, case: Case, d: dict) -> bool:
    """Does pqc's printed JSON match the generator's answer?

    Only the assert workload's generator computes assert answers; the
    traced run's extra assert operations elsewhere must exit 0 and, under
    verify, print ``dominated: true``.
    """
    e = case.expect
    if metric == "assert" and e.post is None:
        return cmd == "analyze" or d["dominated"] is True
    if cmd == "analyze":
        if metric == "assert":
            return set(d["post"]) == e.post and d["cost"] == e.cost
        if metric == "depth":
            return d["depth_bound"] == e.depth
        return d["value"] == e.scalar(metric)
    if d["dominated"] is not True:
        return False
    if metric == "assert":
        zero = "0" * case.wires
        return all(set(d[side]["rows"][zero]) == e.post
                   for side in ("static", "dynamic"))
    if metric == "depth":
        return depth_of(d["static"]) == depth_of(d["dynamic"]) == e.depth
    return d["static"] == d["dynamic"] == e.scalar(metric)


def argv_of(cmd: str, metric: str, case: Case, path: str) -> list[str]:
    argv = [cmd, path, "--metric", metric]
    if cmd == "analyze" and metric == "assert":
        argv += ["--precondition", "0" * case.wires]
    return argv


def call(main, argv: list[str]) -> tuple[float, int | None, str]:
    """One timed operation; returns (seconds, exit code or None, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit):  # RecursionError included
        rc = None
    return time.perf_counter() - t0, rc, out.getvalue()


def verdict(cmd, metric, case, rc, out) -> bool:
    if rc != 0:
        return False
    try:
        return answer_ok(cmd, metric, case, json.loads(out))
    except (ValueError, KeyError, TypeError):
        return False


def checked(main, cmd, metric, case, path) -> tuple[float, bool]:
    gc.collect()
    dt, rc, out = call(main, argv_of(cmd, metric, case, path))
    return dt, verdict(cmd, metric, case, rc, out)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def check_demos(main, tally: Tally) -> None:
    for (cmd, demo, *rest), ok in DEMOS:
        _, rc, out = call(main, [cmd, os.path.join(ROOT, demo), *rest])
        try:
            tally.add(rc == 0 and ok(json.loads(out)))
        except (ValueError, KeyError):
            tally.add(False)


# --------------------------------------------------------------------------
# end-to-end run
# --------------------------------------------------------------------------

def passes(seconds: float, enough=lambda: True):
    """Yield once per pass over the operations, at least once.

    A further pass starts only if the last one's duration says it ends
    within ``seconds``, or while ``enough()`` is false, and never after
    HARD_STOP_S of process time.
    """
    start = time.perf_counter()
    last = None
    while last is None or (
            (not enough() or time.perf_counter() - start + last <= seconds)
            and time.perf_counter() - PROCESS_START < HARD_STOP_S):
        t0 = time.perf_counter()
        yield
        last = time.perf_counter() - t0


def end_to_end(main, workload, cases, paths, rng, seconds, tally, info):
    """Closed loop over whole passes of every timed operation.

    ``analyze`` and ``verify`` operations are shuffled into one pass, so
    both see the same stretch of a noisy machine. Each operation's time is
    scaled by the reference task timed just before and after it; the raw
    medians go to ``info``.
    """
    ops = [(c, cmd, m) for c in cases for cmd, m in c.ops]
    # warm-up: one operation per (command, metric), untimed and unchecked
    for key in sorted({(cmd, m) for _, cmd, m in ops}):
        c = next(c for c, cmd, m in ops if (cmd, m) == key)
        call(main, argv_of(*key, c, paths[c.name]))
    times = {"analyze": [], "verify": []}
    raw = {"analyze": [], "verify": []}
    work = {"analyze": 0, "verify": 0}
    need = {cmd: min_samples(TAIL[(workload, cmd)]) for cmd in times}
    # Set-up samples are spread over the run, between operations, so that
    # their median covers the same stretch of machine time.
    setup = Setup()
    setup_at = time.perf_counter()
    probes = [speed.probe()]
    for _ in passes(seconds, lambda: all(
            len(times[cmd]) >= need[cmd] for cmd in times)):
        order = ops[:]
        rng.shuffle(order)
        for c, cmd, m in order:
            dt, ok = checked(main, cmd, m, c, paths[c.name])
            if len(setup.times) < SETUP_REPEATS and time.perf_counter() >= setup_at:
                setup.once()
                setup_at += seconds / SETUP_REPEATS
            probes.append(speed.probe())
            tally.add(ok)
            raw[cmd].append(dt)
            times[cmd].append(speed.scaled(dt, probes[-2], probes[-1]))
            work[cmd] += c.expect.gates if cmd == "verify" else c.nodes
    metrics = {}
    for cmd, ts in times.items():
        p = TAIL[(workload, cmd)]
        tail = percentile(ts, p)
        metrics[f"{cmd}_s.p50"] = (percentile(ts, 50), "s")
        metrics[f"{cmd}_s.tail"] = (tail, "s")
        info[cmd] = {"samples": len(ts), "tail_percentile": p,
                     "samples_beyond_tail": sum(t > tail for t in ts),
                     "raw_p50_s": percentile(raw[cmd], 50),
                     "raw_tail_s": percentile(raw[cmd], p)}
    while len(setup.times) < SETUP_REPEATS:
        setup.once()
    metrics["setup_s"] = (statistics.median(setup.times), "s")
    info["raw_setup_s"] = statistics.median(setup.raw)
    info["reference_task_p50_s"] = statistics.median(probes)
    metrics["analyze_nodes_per_s"] = (work["analyze"] / sum(times["analyze"]), "1/s")
    metrics["verify_gates_per_s"] = (work["verify"] / sum(times["verify"]), "1/s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


# --------------------------------------------------------------------------
# traced run
# --------------------------------------------------------------------------

def trace_ops(case: Case) -> list[tuple[str, str]]:
    """The case's own operations plus every other cheap (command, metric)."""
    ops = list(case.ops)
    for cmd in ("analyze", "verify"):
        for m in METRICS:
            if (cmd, m) not in ops and (m != "assert" or case.wires <= TRACE_ASSERT_WIRES):
                ops.append((cmd, m))
    return ops


def max_chain() -> dict[str, int]:
    """Largest let-chain on LADDER each stage finishes without an exception.

    Each stage gets an AST built directly, so a parser failure does not hide
    a later stage's result.
    """
    from pqc.algebras import ALGEBRAS
    from pqc.effects import infer_program_effect
    from pqc.evaluator import evaluate_program
    from pqc.syntax import Apply, GateRef, Let, Program, QubitT, Ret, Var, parse_program
    from pqc.typecheck import check_program

    def ast(n):
        t = Ret(Var("x"))
        for _ in range(n):
            t = Let("x", Apply(GateRef("H"), Var("x")), t)
        return Program((("x", QubitT()),), None, t)

    def text(n):
        return "inputs x: Qubit;\n" + "let x = apply(@H, x) in\n" * n + "return x\n"

    stages = {
        "syntax": lambda n: parse_program(text(n)),
        "typecheck": lambda n: check_program(ast(n)),
        "effects": lambda n: infer_program_effect(ast(n), ALGEBRAS["gates"]),
        "evaluator": lambda n: evaluate_program(ast(n)),
    }
    out = {}
    for name, run in stages.items():
        best = 0
        for n in LADDER:
            try:
                run(n)
            except Exception:  # RecursionError is the known defect
                break
            best = n
        out[name] = best
    return out


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def traced(main, workload, cases, paths, rng, seconds, tally, info, out_dir):
    from pqc.algebras import ALGEBRAS
    from pqc.effects import infer_program_effect
    from pqc.evaluator import evaluate_program
    from pqc.gates import default_registry
    from pqc.syntax import parse_program

    ops = [(c, cmd, m) for c in cases for cmd, m in trace_ops(c)]
    tracer = Tracer()
    pairs: list[tuple[float, float]] = []  # (untraced, traced) seconds
    op_meta: dict[int, tuple] = {}
    for _ in passes(seconds):
        order = ops[:]
        rng.shuffle(order)
        for c, cmd, m in order:
            path = paths[c.name]
            plain, ok = checked(main, cmd, m, c, path)
            tally.add(ok)
            tracer.instrument()
            try:
                tracer.op = len(pairs)
                gc.collect()
                root = tracer.enter("cli.op")
                dt, rc, out = call(main, argv_of(cmd, m, c, path))
                tracer.exit(root)
            finally:
                tracer.restore()
            tracer.settle()
            tally.add(verdict(cmd, m, c, rc, out))
            op_meta[tracer.op] = (c, cmd, m)
            pairs.append((plain, dt))

    per = defaultdict(list)  # (span name, metric) -> self seconds per op
    for st in tracer.self_times().values():
        for key, v in st.items():
            per[key].append(v)
    totals = defaultdict(float)  # (span name, metric) -> total seconds
    for s in tracer.spans:
        totals[(s[1], s[5].get("metric"))] += s[3] - s[2]

    # counts come from each distinct program once
    circuits, payload, steps_depth = {}, {}, 0
    gates_evaluated = 0
    for s in tracer.spans:
        c = op_meta[s[0]][0]
        if s[1] == "evaluator.eval" and "gates" in s[5]:
            circuits[c.name] = s[5]
            gates_evaluated += s[5]["gates"]
        if s[1] == "effects.infer" and s[5].get("payload") is not None:
            payload[(c.name, s[5]["metric"])] = s[5]["payload"]
        if s[1] == "algebras.abstract" and s[5]["metric"] == "depth":
            steps_depth += s[5]["steps"]
    nodes = sum(c.nodes for c in cases)
    parsed_nodes = sum(op_meta[s[0]][0].nodes for s in tracer.spans
                       if s[1] == "syntax.parse")

    med = statistics.median
    metrics = {
        "syntax.parse_s": (med(per[("syntax.parse", None)]), "s"),
        "syntax.ast_nodes": (nodes, "count"),
        "syntax.nodes_per_s": (parsed_nodes / totals[("syntax.parse", None)], "1/s"),
        "typecheck.check_s": (med(per[("typecheck.check", None)]), "s"),
    }
    for m in METRICS:
        metrics[f"effects.infer_s.{m}"] = (med(per[("effects.infer", m)]), "s")
    for m in ("depth", "assert"):
        metrics[f"effects.payload_entries.{m}"] = (
            sum(v for (_, mm), v in payload.items() if mm == m), "count")
    metrics["evaluator.eval_s"] = (med(per[("evaluator.eval", None)]), "s")
    metrics["evaluator.s_per_gate"] = (
        totals[("evaluator.eval", None)] / gates_evaluated, "s/gate")
    for k in ("gates", "steps", "perm_steps"):
        metrics[f"circuits.{k}"] = (sum(v[k] for v in circuits.values()), "count")
    metrics["circuits.width"] = (max(v["width"] for v in circuits.values()), "count")
    for stage in ("abstract", "leq"):
        for m in METRICS:
            metrics[f"algebras.{stage}_s.{m}"] = (
                med(per[(f"algebras.{stage}", m)]), "s")
    metrics["algebras.abstract_s_per_step.depth"] = (
        totals[("algebras.abstract", "depth")] / steps_depth, "s/step")
    metrics["gates.registry_s"] = (med(per[("gates.registry", None)]), "s")
    metrics["cli.overhead_s"] = (med(per[("cli.op", None)]), "s")
    metrics["trace.overhead_s"] = (med(t - p for p, t in pairs), "s")

    # memory, in a pass of its own: tracemalloc slows what it watches
    reg = default_registry()
    alg = ALGEBRAS["assert"]
    infer_peak = abstract_peak = 0.0
    for c in cases:
        ops_c = trace_ops(c)
        prog = parse_program(c.text)
        if ("analyze", "assert") in ops_c:
            infer_peak = max(infer_peak, peak_mb(
                lambda: infer_program_effect(prog, alg, reg)))
        if ("verify", "assert") in ops_c:
            circuit = evaluate_program(prog, reg)[0]
            abstract_peak = max(abstract_peak, peak_mb(
                lambda: alg.abstract(circuit, reg)))
    metrics["effects.infer_peak_mb.assert"] = (infer_peak, "MB")
    metrics["algebras.abstract_peak_mb.assert"] = (abstract_peak, "MB")

    for stage, n in max_chain().items():
        metrics[f"{stage}.max_chain"] = (n, "count")

    info["traced_ops"] = len(pairs)
    trace_file = os.path.join(out_dir, f"trace-{workload}-seed{info['seed']}.json")
    with open(trace_file, "w") as f:
        json.dump({"fields": ["op", "name", "start", "end", "parent", "attrs"],
                   "ops": {i: [c.name, cmd, m] for i, (c, cmd, m) in op_meta.items()},
                   "spans": tracer.spans}, f)
    info["trace_file"] = os.path.relpath(trace_file, ROOT)
    return metrics


# --------------------------------------------------------------------------
# main
# --------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "pqc", "cli.py")):
        print(f"error: no pqc sources under {SRC}; run from a pqc checkout",
              file=sys.stderr)
        return 2

    pqc = import_pqc()
    from pqc.syntax import parse_program

    rng = random.Random(f"{args.workload}:{args.seed}")
    cases = WORKLOADS[args.workload](rng)
    digest = hashlib.sha256()
    for c in cases:
        digest.update(c.name.encode() + b"\0" + c.text.encode() + b"\0")
        c.nodes = ast_nodes(parse_program(c.text))
    info = {"workload": args.workload, "seed": args.seed,
            "inputs_sha256": digest.hexdigest(),
            "programs": [c.name for c in cases],
            "context": run_context()}

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tally = Tally()
    main_fn = pqc.cli.main
    gc.collect()
    gc.freeze()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        paths = {}
        for c in cases:
            paths[c.name] = os.path.join(tmp, c.name + ".pqc")
            with open(paths[c.name], "w", encoding="utf-8") as f:
                f.write(c.text)
        check_demos(main_fn, tally)
        if args.trace:
            metrics = traced(main_fn, args.workload, cases, paths, rng,
                             args.seconds, tally, info, out_dir)
        else:
            metrics = end_to_end(main_fn, args.workload, cases, paths, rng,
                                 args.seconds, tally, info)
            metrics["ok_share"] = (
                (tally.attempted - tally.failed) / tally.attempted, "share")
    info["wall_s"] = time.perf_counter() - PROCESS_START
    info["attempted"] = tally.attempted
    info["failed"] = tally.failed
    print(json.dumps(info))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
