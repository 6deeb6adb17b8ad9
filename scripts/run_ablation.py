#!/usr/bin/env python3
"""Architecture ablation on the dual-signal synthetic dataset.

The dataset plants two orthogonal signals: each day's class is encoded by a
local token trigram (convolution-detectable) while the next day's class and
return follow the count of positive days in the trailing window
(recurrence-detectable). Training CNN-only, GRU-only, and CNN+GRU under
identical seeds and budgets shows neither partial architecture can read both
signals; defaults reproduce the acceptance-gate run in about 8 seconds on
a 2-core Xeon with BLAS pinned to one thread.

Usage:
    python3 scripts/run_ablation.py
    python3 scripts/run_ablation.py --days 620 --data-seed 15 --epochs 80
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

from sentirisk.model import ModelConfig
from sentirisk.synthetic import ABLATION_MODEL, ABLATION_TRAIN, make_ablation_dataset
from sentirisk.train import (
    TrainConfig,
    compare_ablations,
    render_comparison_table,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--days", type=int, default=620)
    ap.add_argument("--data-seed", type=int, default=15)
    ap.add_argument("--window", type=int, default=20)
    ap.add_argument("--epochs", type=int, default=ABLATION_TRAIN["epochs"])
    ap.add_argument("--patience", type=int, default=ABLATION_TRAIN["patience"])
    ap.add_argument("--lr", type=float, default=ABLATION_TRAIN["lr"])
    ap.add_argument("--seed", type=int, default=0,
                    help="model init and shuffle seed (default: 0)")
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON metrics path")
    args = ap.parse_args()

    t0 = time.perf_counter()
    samples, vocab = make_ablation_dataset(
        n_days=args.days, seed=args.data_seed, window=args.window)
    mcfg = ModelConfig(vocab_size=vocab, window=args.window, seed=args.seed,
                       **ABLATION_MODEL)
    tcfg = TrainConfig(**dict(ABLATION_TRAIN, lr=args.lr, epochs=args.epochs,
                              patience=args.patience), seed=args.seed)
    reports = compare_ablations(samples, mcfg, tcfg)

    print(render_comparison_table(reports))
    print(f"({len(samples)} samples, {time.perf_counter() - t0:.0f}s)")
    if args.out is not None:
        payload = {arch.value: rep.to_dict() for arch, rep in reports.items()}
        args.out.write_text(json.dumps(payload, indent=2) + "\n",
                            encoding="utf-8")
        print(f"metrics -> {args.out}")


if __name__ == "__main__":
    main()
