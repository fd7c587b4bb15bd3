"""Run one benchmark operation in a fresh interpreter.

Reads the operation as JSON on stdin and writes one JSON result line to
stdout.  The sqflows package is imported from ``src`` under the working
directory, which must be the root of a checkout.  Output of a CLI operation
is captured in memory and returned in the result.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import sqflows  # noqa: E402
import sqflows.cli  # noqa: E402

IMPORTED = time.monotonic()


def run_library(op):
    """One library operation, network and weighting construction included."""
    if op["kind"] == "symbolic":
        net = sqflows.build_half_grid(op["n"])
        x_set = frozenset(op["X"])
        y_list = tuple(i for i in range(1, op["n"] + 1) if i not in x_set)
        inst = sqflows.Instantiation(n=op["n"], x_set=x_set, y_list=y_list)
        return sqflows.symbolic_check(sqflows.family_quintuple(), net, inst)
    carrier = sqflows.CARRIERS[op["carrier"]]
    net = sqflows.build_half_grid(op["n"])
    weighting = {v: carrier.parse(x) for v, x in op["weights"].items()}
    return sqflows.FlowFunction(net, weighting, carrier)(op["I"])


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  ru_maxrss is not used: on
    Linux it carries over the parent's peak through fork and exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main():
    op = json.loads(sys.stdin.read())
    if not os.path.realpath(sqflows.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"sqflows imported from {sqflows.__file__}, not from {SRC}")
    tracer = None
    if op.get("trace"):
        import tracing

        tracer = tracing.install(sqflows)
    result = {"imported": IMPORTED}
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        if "argv" in op:
            with contextlib.redirect_stdout(out):
                try:
                    result["rc"] = sqflows.cli.main(op["argv"])
                except SystemExit as exc:  # argparse rejects the command line
                    result["rc"] = exc.code
        else:
            result["value"] = str(run_library(op))
    except Exception:  # noqa: BLE001 - reported as a failed operation
        result["error"] = traceback.format_exc()
    result["call_s"] = time.perf_counter() - t0
    result["stdout"] = out.getvalue()
    result["peak_rss_kb"] = peak_rss_kb()
    if tracer is not None:
        layer_self, fn_self, calls, counts = tracer.totals()
        result["trace"] = {"layer_self_s": layer_self, "fn_self_s": fn_self,
                           "calls": calls, "counts": counts}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
