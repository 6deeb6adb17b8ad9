#!/usr/bin/env python3
"""Run one sentirisk benchmark workload and print its metrics.

    python3 perfbench/run.py --workload demo-train --seed 0 --seconds 16 --trace 0

Run from anywhere inside a checkout; the program is imported from its
``src/``. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 when every correctness check passed, 1 when one failed,
2 when the checkout has no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("demo-train", "ablation", "score")
# BLAS reads these when numpy is first imported, so they are set before that
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's outputs as the seed-0 reference, then check them")
    args = ap.parse_args(argv)
    if args.write_reference and (args.seed != 0 or args.trace):
        ap.error("--write-reference needs --seed 0 --trace 0")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "sentirisk").is_dir():
        print(f"no sentirisk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT / ".bench_work", save_reference=args.write_reference)
    print("host " + json.dumps(harness.host_facts(ROOT)))
    for name, m in result["metrics"].items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_ratio':<48} {result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']} steps and windows)")
    if not args.trace:
        print(f"times are full-speed seconds; the core ran {result['slowdown']:.3f}x slower")
    print(f"windows scored: {result['windows_scored']}; "
          f"reference check: {'on' if result['checked_against_reference'] else 'invariants only'}")
    for problem in result["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
