"""Benchmark for pilattice: three workloads, every answer checked.

    python3 perfbench/run.py --workload exterior-cli --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  Load is a closed loop with one client:
ops run one at a time, each in a fresh process (``opchild.py``), so every
op pays cold caches as a CLI user does.  A pass is the workload's op list;
passes repeat while half a pass still fits in ``--seconds``, and each
metric is the median over passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of traced passes,
alternated with untraced passes to measure the tracing overhead.  Metric
names and units come from BENCHMARK.json.  Lines before the last one
record the environment and the op list, so that a pass can be replayed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import selftest
from layertrace import SPANS
from opchild import TRACE_MARKER
from workloads import WORKLOADS, generate, op_count

ROOT = Path(__file__).resolve().parent.parent
OPCHILD = Path(__file__).resolve().parent / "opchild.py"

# A claim of a gain must also hold on a seed not used while the change
# was written: develop on any seed, confirm with ``--seed confirm``.
CONFIRM_SEED = 7919
# set-up is repeated at least SETUP_MIN_REPS times and until SETUP_SECONDS
# are spent, so a 0.15 s import gets as steady a median as a 1.5 s build
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_SECONDS = 3, 15, 2.0
OP_TIMEOUT_S = 60


@dataclass
class Child:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    # the thread pool only adds GIL contention; measure the default path
    env.pop("PI_LATTICE_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict) -> Child:
    """Run one op process to completion; CPU time and peak RSS come from
    this child's own rusage, never from the running RUSAGE_CHILDREN max."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(OPCHILD), *args],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                remaining = OP_TIMEOUT_S - (time.perf_counter() - start)
                if remaining <= 0:
                    raise TimeoutError(f"op exceeded {OP_TIMEOUT_S} s: {args}")
                for key, _ in sel.select(timeout=remaining):
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        proc.returncode, b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
    )


def trace_summary(stderr: bytes) -> dict | None:
    """The layer trace an op process wrote after its last stderr marker."""
    _, marker, tail = stderr.decode("utf-8", "replace").rpartition(TRACE_MARKER)
    return json.loads(tail) if marker else None


@dataclass
class Pass:
    """One pass: wall_s sums the op processes' lifetimes, spawn to exit."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_op_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    report_bytes: int = 0
    traces: list[dict] = field(default_factory=list)


def check_op(op: dict, child: Child) -> tuple[list[str], list[float]]:
    """Mismatches of one pass entry, and the per-op times it reports."""
    label = " ".join(op["argv"]) if op["kind"] == "cli" else "session"
    if child.code != 0:
        detail = child.stderr.decode("utf-8", "replace").strip()[-300:]
        return [f"{label}: exit {child.code}: {detail}"] * op_count(op), [child.wall_s]
    try:
        doc = json.loads(child.stdout)
    except ValueError as exc:
        return [f"{label}: unreadable output ({exc})"] * op_count(op), [child.wall_s]
    if op["kind"] == "session":
        results = doc.get("results", [])
        if [r["model"] for r in results] != op["models"]:
            return [f"session: models {[r['model'] for r in results]}"] * op_count(op), [
                child.wall_s
            ]
        errors = []
        for r in results:
            family, *params = r["model"]
            bad = oracle.check_session_model(r, family, params, op["degrees"])
            if bad:
                errors.append(f"session {family}{tuple(params)}: " + "; ".join(bad))
        return errors, [r["op_s"] for r in results]
    check = op["check"]
    if check["type"] == "codim":
        bad = oracle.check_codim_report(
            doc, check["family"], check["params"], check["degrees"]
        )
    elif check["type"] == "filtrate":
        bad = oracle.check_filtrate(doc, check["lam"], check["n"], check["m"])
    else:
        bad = oracle.check_verify(doc)
    return ([f"{label}: " + "; ".join(bad)] if bad else []), [child.wall_s]


def child_args(op: dict, tracing: bool) -> list[str]:
    mode = "trace" if tracing else "plain"
    if op["kind"] == "cli":
        return ["cli", mode, *op["argv"]]
    return ["session", mode, json.dumps({"models": op["models"], "degrees": op["degrees"]})]


def run_pass(ops: list[dict], env: dict, tracing: bool) -> Pass:
    """Run every op once, one process at a time; check answers afterwards."""
    result = Pass()
    children = [run_child(child_args(op, tracing), env) for op in ops]
    for op, child in zip(ops, children):
        errors, op_times = check_op(op, child)
        result.attempted += op_count(op)
        result.failures += errors
        result.wall_s += child.wall_s
        result.cpu_s += child.cpu_s
        result.max_op_s = max(result.max_op_s, *op_times)
        result.peak_rss_mb = max(result.peak_rss_mb, child.rss_mb)
        if op["kind"] == "cli":
            result.report_bytes += len(child.stdout)
        if tracing and child.code == 0:
            summary = trace_summary(child.stderr)
            if summary is None:
                result.failures.append(f"{op.get('argv', 'session')}: no trace summary")
            else:
                result.traces.append(summary)
    return result


def setup_models(ops: list[dict]) -> list:
    models = []
    for op in ops:
        if op["kind"] == "session":
            models += op["models"]
        elif op["check"]["type"] == "codim":
            models.append([op["check"]["family"], *op["check"]["params"]])
    return models


def measure_setup(ops: list[dict], env: dict) -> tuple[float, list[str]]:
    """Median wall time of a fresh process that imports pilattice and
    builds (and so validates) the workload's ring models."""
    args = ["setup", "plain", json.dumps(setup_models(ops))]
    times, failures = [], []
    while len(times) < SETUP_MAX_REPS and (
        len(times) < SETUP_MIN_REPS or sum(times) < SETUP_SECONDS
    ):
        child = run_child(args, env)
        times.append(child.wall_s)
        if child.code != 0:
            failures.append(f"setup: exit {child.code}: {child.stderr.decode()[-300:]}")
    return statistics.median(times), failures


def repeat_passes(ops, env, seconds: float, tracing_pattern) -> list[Pass]:
    """Run rounds of passes (one per entry of ``tracing_pattern``) while
    at least half a round of the median length fits in ``seconds``, so a
    run ends near ``seconds``; always at least one round."""
    passes: list[Pass] = []
    start = time.perf_counter()
    rounds = []
    while True:
        round_start = time.perf_counter()
        passes += [run_pass(ops, env, tracing) for tracing in tracing_pattern]
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) / 2 > seconds:
            return passes


def layer_metrics(p: Pass) -> tuple[dict, Counter]:
    """Sum the trace summaries of one traced pass into per-layer metrics;
    also return the call and work counts by span or counter name."""
    calls, self_s, counts = Counter(), Counter(), Counter()
    for s in p.traces:
        calls.update(s["calls"])
        self_s.update(s["self_s"])
        counts.update(s["counts"])
    metrics = {f"{name}_s": self_s[name] for name in (*SPANS, "rings.build")}
    metrics["pitheory.claim_self_s"] = metrics.pop("pitheory.claim_s")
    for span in ("pitheory.eval", "lattices.image", "lattices.kernel",
                 "specht.lattice", "specht.induce"):
        metrics[f"{span}_calls"] = calls[span]
    for counter in ("rings.tuples", "pitheory.rows_out", "lattices.kernel_rank",
                    "lattices.builder_adds"):
        metrics[counter] = counts[counter]
    slots = counts["pitheory.row_slots"]
    metrics["pitheory.row_yield"] = counts["pitheory.rows_out"] / slots if slots else 0.0
    metrics["lattices.max_entry_bits"] = max((s["max_entry_bits"] for s in p.traces), default=0)
    metrics["cli.report_bytes"] = p.report_bytes
    metrics["trace.wall_s"] = p.wall_s
    return metrics, calls + counts


def median_metrics(rows: list[dict], names) -> dict:
    return {name: statistics.median(r[name] for r in rows) for name in names}


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def commit_id() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", required=True,
        help=f"integer, or 'confirm' for the held-out seed {CONFIRM_SEED}",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.seed = CONFIRM_SEED if args.seed == "confirm" else int(args.seed)
    return args


def _terminate(signum, _frame):
    # raising here runs run_child's cleanup, which kills and reaps the op
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    if not (ROOT / "src" / "pilattice" / "__init__.py").is_file():
        print(f"run.py: no pilattice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = selftest.run_all(spec)
    if problems:
        print("run.py: self-test failed:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 2

    ops = generate(args.workload, args.seed)
    env = child_env()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": sys.version.split()[0],
        "nproc": os.cpu_count(), "commit": commit_id(), "src_sha256": src_digest(),
    }
    print("# meta " + json.dumps(meta))
    for i, op in enumerate(ops, 1):
        if op["kind"] == "cli":
            print(f"# op {i}: PYTHONPATH=src python3 -m pilattice.cli {' '.join(op['argv'])}")
        else:
            print(f"# op {i}: python3 perfbench/opchild.py session plain "
                  f"'{json.dumps({'models': op['models'], 'degrees': op['degrees']})}'")
    sys.stdout.flush()

    if args.trace:
        return traced_run(args, spec, ops, env)
    return untraced_run(args, spec, ops, env)


def report_failures(passes: list[Pass], extra: list[str]) -> tuple[int, int]:
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures] + extra
    for f in failures[:20]:
        print(f"# FAIL {f}")
    print(f"# fail_frac {len(failures) / attempted:.6f} "
          f"({len(failures)} of {attempted} ops)")
    return attempted, len(failures)


def untraced_run(args, spec, ops, env) -> int:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    setup_s, setup_failures = measure_setup(ops, env)
    passes = repeat_passes(ops, env, args.seconds, (False,))
    rows = [vars(p) for p in passes]
    values = median_metrics(rows, [n for n in units if n != "setup_s"])
    values["setup_s"] = setup_s
    print(f"# passes {len(passes)}: wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    attempted, failed = report_failures(passes, setup_failures)
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0 if failed == 0 else 1


def traced_run(args, spec, ops, env) -> int:
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    workload = WORKLOADS[args.workload]
    passes = repeat_passes(ops, env, args.seconds, (False, True))
    plain = [p for i, p in enumerate(passes) if i % 2 == 0]
    traced = [p for i, p in enumerate(passes) if i % 2 == 1]
    layer_rows, extra = [], []
    for p in traced:
        metrics, calls = layer_metrics(p)
        layer_rows.append(metrics)
        missing = [name for name in workload["called"] if not calls.get(name)]
        if missing and not p.failures:
            extra.append(f"traced pass recorded no calls into {', '.join(missing)}")
    values = median_metrics(layer_rows, [n for n in units if n != "trace.overhead_s"])
    values["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced)
        - statistics.median(p.wall_s for p in plain)
    )
    for names, relation, bound in workload["shares"]:
        share = sum(values[n] for n in names) / values["trace.wall_s"]
        met = share >= bound if relation == ">=" else share < bound
        print(f"# share {'+'.join(names)} = {share:.3f} of trace.wall_s "
              f"(predicted {relation} {bound:.3f}): {'met' if met else 'NOT met'}")
    attempted, failed = report_failures(passes, extra)
    print(result_line(failed == 0, attempted, failed, values, units))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
