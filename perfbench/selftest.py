"""Self-tests of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They check that the oracle rejects corrupted answers, that operation lists
are a function of the seed, and that traced and untraced runs execute the same
operations with the same answers.  About ten seconds on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import sqflows  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GENERATE = (
    "import json, sys; sys.path[:0] = ['perfbench', 'src']; import sqflows, workloads; "
    "print(json.dumps([workloads.cycle_ops(w, int(sys.argv[1]), c, sqflows) "
    "for w in workloads.WORKLOADS for c in range(2)], sort_keys=True))"
)


def generated(seed: int) -> str:
    out = subprocess.run([sys.executable, "-c", GENERATE, str(seed)], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return out.stdout


def shape_of(op: dict):
    """What a seed must not change: the command, its options and the sizes."""
    argv = op.get("argv", [])
    options = tuple(a for a in argv if a.startswith("-"))
    sizes = tuple(len(op[key]) for key in ("I", "J", "A", "X") if key in op)
    return (op["kind"], op["shape"], argv[:1], options, op.get("n"), op.get("carrier"),
            op.get("mode"), op.get("format"), sizes)


def run_op(op: dict) -> dict:
    run.prepare(op)
    return run.run_child(op, trace=False)


class WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(run.WORKDIR, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(run.WORKDIR, ignore_errors=True)


class OracleRejectsCorruption(WorkDir):
    def test_flow_count_off_by_one(self):
        op = next(o for o in workloads.cycle_ops("flow-list", 3, 0, sqflows)
                  if o["kind"] == "flows" and o["format"] == "text")
        result = run_op(op)
        oracle.check(op, result, sqflows)
        lines = result["stdout"].splitlines()
        for corrupt in (lines[:-1], lines + [lines[0] + " extra"]):
            bad = dict(result, stdout="\n".join(corrupt) + "\n")
            with self.assertRaises(oracle.CheckFailed):
                oracle.check(op, bad, sqflows)

    def test_flipped_balance_verdict(self):
        balanced, dropped, _ = workloads.cycle_ops("balance-gadget", 3, 0, sqflows)
        good = run_op(balanced)
        oracle.check(balanced, good, sqflows)
        witness = run_op(dropped)
        oracle.check(dropped, witness, sqflows)
        with self.assertRaises(oracle.CheckFailed):
            oracle.check(balanced, dict(witness), sqflows)
        with self.assertRaises(oracle.CheckFailed):
            oracle.check(dropped, dict(good), sqflows)

    def test_wrong_values(self):
        fgf = next(o for o in workloads.cycle_ops("relation-check", 3, 0, sqflows)
                   if o["kind"] == "fgf" and o["carrier"] == "int")
        want = oracle.flow_sum(oracle.path_matrix(fgf["n"], {v: int(x) for v, x in fgf["weights"].items()}),
                               fgf["I"])
        oracle.check(fgf, {"value": str(want)}, sqflows)
        with self.assertRaises(oracle.CheckFailed):
            oracle.check(fgf, {"value": str(want + 1)}, sqflows)
        with self.assertRaises(oracle.CheckFailed):
            oracle.check({"kind": "symbolic"}, {"value": "False"}, sqflows)
        with self.assertRaises(oracle.CheckFailed):
            oracle.check({"kind": "doubleflow-audit"},
                         {"rc": 0, "stdout": "d(xi) = 2\nM(xi) = (1,2)\nN(xi) = 3\n"}, sqflows)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(generated(11), generated(11))

    def test_other_seed_same_shapes(self):
        first, second = json.loads(generated(11)), json.loads(generated(12))
        self.assertNotEqual(first, second)
        for ops_a, ops_b in zip(first, second):
            self.assertEqual([shape_of(o) for o in ops_a], [shape_of(o) for o in ops_b])
            self.assertNotEqual(ops_a, ops_b)


    def test_pair_work_on_target(self):
        for seed in (3, 4):
            balanced = workloads.cycle_ops("balance-gadget", seed, 0, sqflows)[0]
            p, q, lhs, rhs = oracle.parse_pair(balanced["pair_text"])
            work = sum(workloads.MEMBER_WORK + len(sqflows.matchings.enumerate_feasible_matchings(m, p, q))
                       for m in lhs + rhs)
            target = workloads.BALANCE_GADGET[0][4]
            self.assertLessEqual(target / workloads.PAIR_SPREAD, work)
            self.assertLessEqual(work, target * workloads.PAIR_SPREAD)


class TracedRun(WorkDir):
    def test_traced_and_untraced_runs_match(self):
        plain = run.run_workload("balance-gadget", 5, 0, False, sqflows)
        traced = run.run_workload("balance-gadget", 5, 0, True, sqflows)
        self.assertEqual([r["op"] for r in plain], [r["op"] for r in traced])
        for p, t in zip(plain, traced):
            self.assertIsNone(p["failure"])
            self.assertIsNone(t["failure"])
            self.assertEqual(p["plain"]["stdout_sha256"], t["traced"]["stdout_sha256"])
            self.assertIn("trace", t["traced"])

    def test_self_times_add_up(self):
        tracer = tracing.Tracer()

        def spin(seconds):
            end = time.thread_time() + seconds
            while time.thread_time() < end:
                pass

        inner = tracer.wrap(lambda: spin(0.02), "semiring", "semiring.inner")
        outer = tracer.wrap(lambda: (spin(0.01), inner(), inner()), "flows", "flows.outer")
        start = time.thread_time()
        outer()
        elapsed = time.thread_time() - start
        layer_self, _, calls, _ = tracer.totals()
        self.assertEqual(calls["semiring.inner"], 2)
        self.assertGreaterEqual(layer_self["semiring"], 0.04)
        self.assertGreaterEqual(layer_self["flows"], 0.01)
        self.assertLess(layer_self["flows"], 0.02)
        self.assertAlmostEqual(sum(layer_self.values()), elapsed, delta=0.002)


class Runner(unittest.TestCase):
    def test_tail_percentile(self):
        self.assertEqual(run.tail([float(i) for i in range(1, 51)]), (80.0, 40.0))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (100.0, 3.0))

    def test_op_p50_averages_shape_medians(self):
        records = [{"op": {"shape": shape}} for shape in (0, 0, 0, 1, 1)]
        self.assertEqual(run.shape_medians(records, [1.0, 2.0, 9.0, 4.0, 6.0]), [2.0, 5.0])

    def test_refuses_without_sources(self):
        empty = os.path.join(run.WORKDIR, "empty")
        os.makedirs(empty, exist_ok=True)
        try:
            out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                                  "flow-list", "--seed", "1", "--seconds", "1"],
                                 cwd=empty, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(run.WORKDIR, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
