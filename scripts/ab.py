#!/usr/bin/env python3
"""A/B the benchmark: a base revision against the working tree, in alternating pairs.

    python3 scripts/ab.py --base HEAD~1 --workload score --pairs 10 --seconds 16 --seed 0

Extracts REV's committed files (``git archive``) into a temporary directory
and runs the benchmark command of BENCHMARK.json (``perfbench/run.py``) on
the base and on the working tree in turn, every run at one seed (the
reference seed 0 unless --seed says otherwise: a claim should also hold on
a seed not used while writing the change), with the order flipped each
pair, so drift in the host's speed falls on both sides alike. It prints,
for each end-to-end metric of BENCHMARK.json, the base and change medians,
the base's interquartile range, the change in percent, a bootstrap 95%
interval of the ratio of the medians (change / base), the number of pairs
the change won, and ``worse`` where the change's median is worse than the
base's by more than the metric's bound. The exit code is 1 if any run is
not ``correct`` or has failed operations, 0 otherwise. The temporary
directory is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_DRAWS = 2000
BOOTSTRAP_SEED = 0  # fixed, so the printed interval repeats for the same runs


def run_once(command: list[str], checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """The last-line JSON of one benchmark run in checkout."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr)
        return {"correct": False, "failed": None, "metrics": {}}


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def ratio_interval(base: list[float], change: list[float]) -> tuple[float, float]:
    """A bootstrap 95% interval of median(change) / median(base): the pairs
    are drawn with replacement BOOTSTRAP_DRAWS times from an RNG seeded with
    BOOTSTRAP_SEED, and the interval runs from the 2.5th to the 97.5th
    percentile of the drawn ratios. NaNs when a base value is 0."""
    if not all(base):
        return math.nan, math.nan
    rng = random.Random(BOOTSTRAP_SEED)
    n = len(base)
    ratios = []
    for _ in range(BOOTSTRAP_DRAWS):
        drawn = [rng.randrange(n) for _ in range(n)]
        ratios.append(statistics.median(change[i] for i in drawn)
                      / statistics.median(base[i] for i in drawn))
    ratios.sort()
    return (ratios[round(0.025 * (BOOTSTRAP_DRAWS - 1))],
            ratios[round(0.975 * (BOOTSTRAP_DRAWS - 1))])


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric present in every run: base and change
    medians, base quartiles, the change's percent, the bootstrap interval of
    the ratio of medians, the pairs it won and whether its median is worse
    than the base's by more than the bound."""
    rows = []
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        if not all(name in run["metrics"] for pair in pairs for run in pair):
            continue
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        base_med, change_med = statistics.median(base), statistics.median(change)
        ratio = change_med / base_med if base_med else float("nan")
        worse = ratio - 1.0 if lower else 1.0 - ratio
        rows.append({
            "metric": name, "unit": spec["unit"], "base": base_med, "change": change_med,
            "base_q": _quartiles(base), "pct": 100.0 * (ratio - 1.0),
            "ratio_ci": ratio_interval(base, change),
            "wins": sum((c < b) if lower else (c > b) for b, c in zip(base, change)),
            "pairs": len(pairs), "worse": worse > spec["bound"],
        })
    return rows


def render(rows: list[dict]) -> str:
    out = [f"{'metric':<22} {'base':>11} {'base IQR':>23} {'change':>11} {'%':>8} "
           f"{'ratio 95% CI':>17} {'wins':>6}"]
    for r in rows:
        q1, q3 = r["base_q"]
        lo, hi = r["ratio_ci"]
        out.append(f"{r['metric']:<22} {r['base']:>11.5g} [{q1:>10.5g}, {q3:>10.5g}] "
                   f"{r['change']:>11.5g} {r['pct']:>+7.1f}% [{lo:>6.4f}, {hi:>6.4f}] "
                   f"{r['wins']:>3}/{r['pairs']:<2}" + ("  worse" if r["worse"] else ""))
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=bench.get("run_seconds", 16))
    ap.add_argument("--seed", type=int, default=0,
                    help="seed of every run (default 0, the reference seed)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    # a terminated run still removes its directory: SystemExit unwinds the with below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pairs: list[tuple[dict, dict]] = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base_dir = Path(tmp) / "base"
        base_dir.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", args.base], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(base_dir)], input=archive, check=True)
        for i in range(args.pairs):
            order = [("base", base_dir), ("change", ROOT)]
            if i % 2:
                order.reverse()
            runs = {side: run_once(bench["command"], where, args.workload, args.seed,
                                   args.seconds)
                    for side, where in order}
            pairs.append((runs["base"], runs["change"]))
            print(f"pair {i + 1}/{args.pairs} ({order[0][0]} first): "
                  + ", ".join(f"{side} correct={runs[side]['correct']} "
                              f"failed={runs[side]['failed']}" for side, _ in order),
                  file=sys.stderr)
    print(f"{args.workload}: base {args.base} vs working tree, {args.pairs} pairs, "
          f"seed {args.seed}, {args.seconds:g} s per run")
    print(render(summarize(pairs, bench["end_to_end"])))
    bad = sum(not run["correct"] or run["failed"] != 0 for pair in pairs for run in pair)
    if bad:
        print(f"{bad} run(s) not correct or with failed operations", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
