"""One command for the whole benchmark (see README.md beside this file).

    python3 benchmarks/perf/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Every measurement runs in a fresh child process of this same file
(``PYTHONHASHSEED=0``, one BLAS/OpenMP thread, ``src/`` on
``PYTHONPATH``), so ``setup_s`` really contains the imports and no run
inherits another's caches.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` the per-layer metrics of a separate traced run at one
fifth of the op count, next to an untraced run of the same size that
prices the tracing itself.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Extras: ``--inject LAYER:MICROSECONDS`` (sensitivity self-test: the
layer's wrappers busy-wait before every call) and ``--layers`` (the
isolated layer replays alone).
"""

import time

_T0 = time.perf_counter()  # set-up starts at the child's first line

import argparse
import json
import os
import statistics
import subprocess
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
# Import the sibling files as ``perf.*``: with this directory itself on
# the path, ``trace.py`` would shadow the standard library's ``trace``.
sys.path[0] = os.path.dirname(_HERE)

from perf import metrics  # noqa: E402 - needs the path set above

#: Set-ups measured per untraced run (one by the measuring child, the
#: rest by set-up-only children); ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The traced run and its untraced twin time this share of the op count.
TRACE_OP_SHARE = 0.2

RESULTS_DIR = os.path.join(_HERE, "results")


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------
def child_main(args) -> int:
    """Run one measurement in this (fresh) process; print it as JSON."""
    from collections import Counter

    from perf import harness, layers, trace, workloads

    if args.child == "layers":
        print(json.dumps({"metrics": layers.isolated_metrics(args.seed)}))
        return 0
    if args.child == "setup":
        workloads.WORKLOADS[args.workload](args.seed).setup()
        print(json.dumps({"setup_s": time.perf_counter() - _T0}))
        return 0
    tracer = counts = None
    if args.child == "trace":
        counts = Counter()
        tracer = trace.Tracer(taps=harness.make_taps(counts))
        tracer.install()
    elif args.inject:
        layer, _, microseconds = args.inject.partition(":")
        trace.Tracer(inject=(layer, float(microseconds))).install()
    workload = workloads.WORKLOADS[args.workload]
    result = harness.run_workload(workload, args.seed, args.ops, tracer, counts)
    result["setup_s"] = result.pop("setup_end") - _T0
    if tracer is not None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        tracer.write(
            os.path.join(RESULTS_DIR, f"trace_{args.workload}.json"),
            {"workload": args.workload, "seed": args.seed, "ops": args.ops},
        )
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def spawn(mode: str, workload: str, seed: int, ops: int = 0, inject: str = "") -> dict:
    """Run one child to completion and return the JSON it printed."""
    env = dict(os.environ)
    src = os.path.join(_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable, os.path.abspath(__file__),
        "--child", mode, "--workload", workload, "--seed", str(seed), "--ops", str(ops),
    ]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{mode} child for {workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool, inject: str) -> dict:
    """All children of one ``--workload``; returns the final JSON object."""
    ops = metrics.op_count(workload, seconds)
    if not traced:
        run = spawn("run", workload, seed, ops, inject)
        setups = [run["setup_s"]]
        if not inject:
            setups += [spawn("setup", workload, seed)["setup_s"] for _ in range(SETUP_REPEATS - 1)]
        values = {"setup_s": statistics.median(setups), **run["metrics"]}
        units = metrics.END_TO_END
        info = {**run["info"], "setup_s_samples": setups}
        problems = run["problems"]
        failed = run["failed"]
    else:
        ops = max(1, round(ops * TRACE_OP_SHARE))
        plain = spawn("run", workload, seed, ops)
        run = spawn("trace", workload, seed, ops)
        values = dict(run["metrics"])
        values["harness.trace_overhead"] = run["op_ms_p50"] / plain["op_ms_p50"] - 1.0
        for tail in ("harness.op_ms_p90", "harness.op_ms_p99"):
            values[tail] = plain["info"][tail]  # host tails, untraced
        values.update(spawn("layers", workload, seed)["metrics"])
        units = metrics.PER_LAYER
        info = {"ops": ops, "untraced_op_ms_p50": plain["op_ms_p50"]}
        problems = run["problems"] + plain["problems"]
        failed = run["failed"] + plain["failed"]
    print(f"== {workload}  seed={seed}  ops={ops}  trace={int(traced)}")
    for name, value in values.items():
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        print(f"{name:44s} {shown:>20s} {units[name]}")
    for name, value in info.items():
        print(f"  ({name} = {value})")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": ops,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


def main() -> int:
    """Parse the command line; dispatch to the child or parent side."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*metrics.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--inject", default="", metavar="LAYER:MICROSECONDS")
    parser.add_argument("--layers", action="store_true", help="isolated layer replays only")
    parser.add_argument("--child", default="", help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child_main(args)
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"no src/repro under {_ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.layers:
        for name, value in spawn("layers", "all", args.seed)["metrics"].items():
            print(f"{name:44s} {value:>14.4f}")
        return 0
    names = metrics.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace), args.inject)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
