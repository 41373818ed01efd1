"""Paired benchmark runs: this checkout against another one.

    PYTHONPATH=src python -m repro.tools.perfpair --parent DIR \\
        --workload tenant_steady --pairs 10 --seconds 10

``benchmarks/perf/run.py`` of both trees run alternately — the order
flips every pair, pair ``i`` uses seed ``i`` on both sides — and per
end-to-end metric the table gives both medians, both inter-quartile
ranges, the ratio of the medians, the pairs the change won (in the
direction ``BENCHMARK.json`` calls better; a tie counts for neither) and
a verdict against the metric's bound there (:func:`verdict`).  The four
virtual-clock metrics are exact for a seed, so they are also compared
pair by pair.  Exits 1 if any run reported ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import REPO_ROOT

#: Exact per seed: equal on both sides, or the modelled system changed.
DETERMINISTIC = ("virtual_s", "virtual_op_ms_p99", "round_trips", "wire_bytes")

Run = Dict[str, object]  # the JSON object run.py prints last
Bounds = Dict[str, Tuple[float, str]]  # metric -> (relative bound, "lower" or "higher")


def read_bounds(root: str = REPO_ROOT) -> Bounds:
    """The end-to-end metrics' bounds and better directions declared in
    ``root``'s ``BENCHMARK.json``."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["end_to_end"]
    return {entry["name"]: (entry["bound"], entry["better"]) for entry in declared}


def _wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """The pairs the change won, in the direction that is better; a tie
    counts for neither."""
    return sum(a < b if better == "lower" else a > b for b, a in zip(parent, change))


def verdict(parent: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """``gain``: the change won at least 9 in 10 pairs and its median is
    better than the parent's by more than the parent's IQR; ``worse``:
    its median is worse than the parent's by more than ``bound`` (a
    share of the parent's median); ``unresolved``: the parent's IQR is
    wider than ``bound`` and not every change run is better; ``same``:
    anything else."""
    sign = 1.0 if better == "lower" else -1.0
    (p_median, p_iqr), (c_median, _) = _median_iqr(parent), _median_iqr(change)
    wins = _wins(parent, change, better)
    if wins >= 0.9 * len(parent) and sign * (p_median - c_median) > p_iqr:
        return "gain"
    if sign * (c_median - p_median) > bound * abs(p_median):
        return "worse"
    if p_iqr > bound * abs(p_median) and wins < len(parent):
        return "unresolved"
    return "same"


def run_benchmark(root: str, workload: str, seed: int, seconds: float) -> Run:
    """One run of ``root``'s own ``benchmarks/perf/run.py`` (which puts
    ``root/src`` first on its children's path)."""
    command = [
        sys.executable, os.path.join(root, "benchmarks", "perf", "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(command)} printed no result (exit code {done.returncode})")
    return json.loads(lines[-1])


def _median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def summarise(pairs: Sequence[Tuple[Run, Run]], bounds: Optional[Bounds] = None) -> List[Dict[str, object]]:
    """One row per metric over ``(parent run, change run)`` pairs; a
    metric without a bound in ``bounds`` gets no verdict."""
    bounds = read_bounds() if bounds is None else bounds
    rows = []
    for metric, entry in pairs[0][0]["metrics"].items():
        before, after = (
            [pair[side]["metrics"][metric]["value"] for pair in pairs] for side in (0, 1)
        )
        (p_median, p_iqr), (c_median, c_iqr) = _median_iqr(before), _median_iqr(after)
        bound, better = bounds.get(metric, (None, "lower"))
        rows.append({
            "metric": metric, "unit": entry["unit"],
            "parent_median": p_median, "parent_iqr": p_iqr,
            "change_median": c_median, "change_iqr": c_iqr,
            "ratio": c_median / p_median if p_median else float("nan"),
            "wins": _wins(before, after, better),
            "equal_per_seed": before == after if metric in DETERMINISTIC else None,
            "verdict": None if bound is None else verdict(before, after, bound, better),
        })
    return rows


def format_table(rows: Sequence[Dict[str, object]], n_pairs: int) -> str:
    """The rows as fixed-width text; ``wins`` is pairs the change won."""
    lines = [
        f"{'metric':18s} {'parent median':>14s} {'IQR':>10s} {'change median':>14s} "
        f"{'IQR':>10s} {'ratio':>7s} {'wins':>6s} {'verdict':>10s}  unit"
    ]
    notes = {None: "", True: "  equal per seed", False: "  DIFFERS PER SEED"}
    for row in rows:
        lines.append(
            f"{row['metric']:18s} {row['parent_median']:14.6g} {row['parent_iqr']:10.3g} "
            f"{row['change_median']:14.6g} {row['change_iqr']:10.3g} {row['ratio']:7.3f} "
            f"{row['wins']:>3d}/{n_pairs:<2d} {row['verdict'] or '-':>10s}  {row['unit']}"
            f"{notes[row['equal_per_seed']]}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None, runner: Callable[..., Run] = run_benchmark) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the commit to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        print(
            "warning: PYTHONDONTWRITEBYTECODE is set: every run recompiles every module it imports, "
            "so setup_s moves with the size of the source, not only with what it does",
            file=sys.stderr,
        )
    pairs, incorrect = [], []
    for seed in range(args.pairs):
        order = (args.parent, REPO_ROOT) if seed % 2 == 0 else (REPO_ROOT, args.parent)
        runs = {root: runner(root, args.workload, seed, args.seconds) for root in order}
        pairs.append((runs[args.parent], runs[REPO_ROOT]))
        walls = [run["metrics"]["wall_s"]["value"] for run in pairs[-1]]
        print(f"pair {seed}: wall_s parent {walls[0]:.3f}  change {walls[1]:.3f}", flush=True)
        incorrect += [
            f"pair {seed} {side}"
            for side, run in zip(("parent", "change"), pairs[-1])
            if not run["correct"]
        ]
    print(f"== {args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, seed = pair index")
    print(format_table(summarise(pairs), args.pairs))
    if incorrect:
        print("reported correct=false: " + ", ".join(incorrect), file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
