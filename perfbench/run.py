"""sqflows benchmark runner.

    python3 perfbench/run.py --workload relation-check --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  A closed loop with one client: this script
runs the seeded operations of the workload one at a time, each in a fresh
child interpreter (``perfbench/child.py``) so that the process-wide caches of
sqflows start cold, as for a real command-line call.  Every answer is checked
by ``oracle.py`` outside the timed region.  Cycles of operations run until the
next cycle would end after ``--seconds``.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics;
with ``--trace 1`` every operation runs once untraced and once with the
per-layer wrappers of ``tracing.py``, and the last line reports the per-layer
metrics.  Metric lines for people come before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, workloads.INPUT_DIR)

OP_TIMEOUT_S = 60.0
CHILD_ADDRESS_SPACE = 2 * 1024**3
TAIL_SAMPLES_ABOVE = 10
SELF_SUM_TOLERANCE = 0.10


def limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def run_child(op: dict, trace: bool) -> dict:
    """Spawn the child for one operation and wait for it; never raises for a
    failing operation."""
    payload = json.dumps(dict(op, trace=trace))
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=""), preexec_fn=limit_child,
        text=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"timed out after {OP_TIMEOUT_S} s",
                "wall_s": time.monotonic() - spawned}
    wall = time.monotonic() - spawned
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"child exited {proc.returncode}: {err[-2000:]}", "wall_s": wall}
    result["wall_s"] = wall
    result["setup_s"] = result["imported"] - spawned
    if "Traceback" in err:
        result["error"] = result.get("error") or err[-2000:]
    return result


def verdict(op: dict, result: dict, sqflows) -> str | None:
    """None when the answer is correct, otherwise why it is not."""
    try:
        oracle.check(op, result, sqflows)
    except oracle.CheckFailed as exc:
        return str(exc)
    except (KeyError, ValueError, IndexError, AttributeError, TypeError) as exc:
        return f"unreadable answer: {exc!r}"
    return None


def prepare(op: dict) -> None:
    for name, text in op.get("files", {}).items():
        with open(os.path.join(ROOT, name), "w", encoding="utf-8") as handle:
            handle.write(text)


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its
    value: the (N-10)-th smallest of N samples (the largest if N <= 10)."""
    ordered = sorted(values)
    k = len(ordered) - TAIL_SAMPLES_ABOVE if len(ordered) > TAIL_SAMPLES_ABOVE else len(ordered)
    return 100.0 * k / len(ordered), ordered[k - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sqflows):
    """Run whole cycles until the next one would end after ``seconds``."""
    records = []
    start = time.monotonic()
    cycle = 0
    last = 0.0
    while cycle == 0 or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        for op in workloads.cycle_ops(workload, seed, cycle, sqflows):
            prepare(op)
            plain = run_child(op, trace=False)
            traced = run_child(op, trace=True) if trace else None
            problems = [verdict(op, r, sqflows) for r in (plain, traced) if r is not None]
            failure = next((p for p in problems if p), None)
            for r in (plain, traced):
                if r is not None:  # keep this process small: drop the output once checked
                    out = r.pop("stdout", "").encode()
                    r["stdout_bytes"] = len(out)
                    r["stdout_sha256"] = hashlib.sha256(out).hexdigest()
            if failure:
                print(f"FAILED {op['id']} {op['kind']} {op.get('argv', '')}: {failure}",
                      file=sys.stderr)
            records.append({"op": op, "plain": plain, "traced": traced, "failure": failure})
        last = time.monotonic() - began
        cycle += 1
    return records


def shape_medians(records, calls) -> list[float]:
    """The median call time of each operation shape of the workload."""
    by_shape = {}
    for r, call in zip(records, calls):
        by_shape.setdefault(r["op"]["shape"], []).append(call)
    return [statistics.median(times) for times in by_shape.values()]


def end_to_end(records) -> dict:
    plain = [r["plain"] for r in records]
    calls = [r.get("call_s", r["wall_s"]) for r in plain]
    medians = shape_medians(records, calls)
    percentile, tail_value = tail(calls)
    print(f"op_p50_s is the mean of the median call times of {len(medians)} operation shapes; "
          f"op_tail_s is the p{percentile:.1f} of {len(calls)} operation times")
    return {
        "setup_s": (statistics.median(r.get("setup_s", r["wall_s"]) for r in plain), "s"),
        "op_p50_s": (statistics.fmean(medians), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(plain) / sum(r["wall_s"] for r in plain), "1/s"),
        "peak_rss_mb": (max(r.get("peak_rss_kb", 0) for r in plain) / 1024, "MB"),
    }


def per_layer(records) -> dict:
    """Per-layer metrics of the traced runs, per operation."""
    layer_self, fn_self, calls, counts = Counter(), Counter(), Counter(), Counter()
    traced_wall = plain_wall = 0.0
    for r in records:
        trace = r["traced"].get("trace")
        if trace is None:
            continue
        layer_self.update(trace["layer_self_s"])
        fn_self.update(trace["fn_self_s"])
        calls.update(trace["calls"])
        counts.update(trace["counts"])
        traced_wall += r["traced"]["call_s"]
        plain_wall += r["plain"].get("call_s", r["plain"]["wall_s"])
    n = len(records)

    def calls_of(*names):
        return sum(calls[name] for name in names)

    def in_layer(layer):
        return sum(v for k, v in calls.items() if k.startswith(layer + "."))

    fgf_evals = calls["flows.FlowFunction.__call__"]
    total_self = sum(layer_self.values())
    per_op = lambda value: value / n  # noqa: E731
    metrics = {
        "semiring.add_calls": (per_op(calls["semiring.add"]), "count/op"),
        "semiring.mul_calls": (per_op(calls["semiring.mul"]), "count/op"),
        "semiring.div_calls": (per_op(calls["semiring.div"]), "count/op"),
        "semiring.poly_mul_calls": (per_op(calls["semiring.poly_mul"]), "count/op"),
        "semiring.self_s": (per_op(layer_self["semiring"]), "s/op"),
        "flows.weight_calls": (per_op(calls["flows.flow_weight"]), "count/op"),
        "flows.weight_self_s": (per_op(fn_self["flows.flow_weight"]), "s/op"),
        "flows.fgf_calls": (per_op(calls["flows.evaluate_fgf"]), "count/op"),
        "flows.fgf_evals": (per_op(fgf_evals), "count/op"),
        "flows.fgf_memo_hit_ratio": (counts["flows.fgf_memo_hits"] / fgf_evals if fgf_evals else 0.0,
                                     "ratio"),
        "flows.fgf_self_s": (per_op(fn_self["flows.evaluate_fgf"]
                                    + fn_self["flows.FlowFunction.__call__"]), "s/op"),
        "flows.enumerate_calls": (per_op(calls_of("flows.enumerate_flag_flows", "flows.enumerate_flows")),
                                  "count/op"),
        "flows.flows_enumerated": (per_op(counts["flows.flows_enumerated"]), "count/op"),
        "flows.enumerate_self_s": (per_op(fn_self["flows.enumerate_flag_flows"]
                                          + fn_self["flows.enumerate_flows"]), "s/op"),
        "matchings.enumerate_calls": (per_op(calls_of("matchings.enumerate_feasible_matchings",
                                                      "matchings.enumerate_nested_matchings")),
                                      "count/op"),
        "matchings.matchings_enumerated": (per_op(counts["matchings.matchings_enumerated"]), "count/op"),
        "matchings.balance_calls": (per_op(calls["matchings.is_balanced"]), "count/op"),
        "matchings.self_s": (per_op(layer_self["matchings"]), "s/op"),
        "counterexample.gadget_vertices": (per_op(counts["counterexample.gadget_vertices"]), "count/op"),
        "counterexample.p1p2_self_s": (per_op(fn_self["counterexample.verify_P1_P2"]), "s/op"),
        "counterexample.self_s": (per_op(layer_self["counterexample"]), "s/op"),
        "relations.evaluate_sides_calls": (per_op(calls["relations.evaluate_sides"]), "count/op"),
        "relations.symbolic_calls": (per_op(calls["relations.symbolic_check"]), "count/op"),
        "relations.self_s": (per_op(layer_self["relations"]), "s/op"),
        "laurent.monomials": (per_op(counts["laurent.monomials"]), "count/op"),
        "laurent.self_s": (per_op(layer_self["laurent"]), "s/op"),
        "doubleflow.calls": (per_op(in_layer("doubleflow")), "count/op"),
        "doubleflow.self_s": (per_op(layer_self["doubleflow"]), "s/op"),
        "cli.stdout_bytes": (per_op(sum(r["traced"].get("stdout_bytes", 0) for r in records)), "B/op"),
        "cli.self_s": (per_op(layer_self["cli"]), "s/op"),
        "network.calls": (per_op(in_layer("network")), "count/op"),
        "network.self_s": (per_op(layer_self["network"]), "s/op"),
        "trace.overhead_ratio": (traced_wall / plain_wall, "ratio"),
        "trace.self_sum_ratio": (total_self / traced_wall, "ratio"),
    }
    within = abs(total_self / traced_wall - 1) <= SELF_SUM_TOLERANCE
    print(f"layer self times sum to {total_self:.4f} s of {traced_wall:.4f} s traced operation time "
          f"({'within' if within else 'OUTSIDE'} the {SELF_SUM_TOLERANCE:.0%} tolerance)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sqflows", "__init__.py")):
        print(f"error: no sqflows sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sqflows

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        started = time.monotonic()
        records = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), sqflows)
        elapsed = time.monotonic() - started
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    failed = sum(1 for r in records if r["failure"])
    kinds = Counter(r["op"]["kind"] for r in records)
    print(f"workload {args.workload} seed {args.seed}: {len(records)} operations in {elapsed:.1f} s "
          f"({', '.join(f'{k} x{v}' for k, v in kinds.items())})")
    print(f"failed_ratio = {failed / len(records)} ({failed} of {len(records)})")
    members = [r["op"] for r in records if "members" in r["op"]]
    if members:
        share = sum(op["repeated_members"] for op in members) / sum(op["members"] for op in members)
        print(f"repeated members in the pairs: {share:.3f} of all members")
    metrics = per_layer(records) if args.trace else end_to_end(records)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
