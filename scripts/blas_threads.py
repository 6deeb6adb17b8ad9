#!/usr/bin/env python3
"""Which outputs of the batched core change with the BLAS thread count.

    python3 scripts/blas_threads.py
    python3 scripts/blas_threads.py --batch-sizes 300 500 1000

For each model configuration, arch, attention on and off, batch size and
batch offset, one model.table_forward + model.batch_backward is run in a
fresh subprocess for each thread count (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS all set to it): 1, 2 and the number of
cores the process may run on. The configurations are the README's default
model on the 160-day demo (seed 0's data) and acceptance 4's ablation model
on its 620-day dataset. A batch of B windows starting at offset o takes windows
o, o + 1, ... and wraps around the dataset, so B may exceed its window count.

It prints every prediction, logit and gradient tensor whose bytes differ
from the run at the first thread count, with its largest difference relative
to the tensor's largest magnitude, then how many tensors differ. Exit status
0 when none differs, 1 otherwise.

The bits depend on the OpenBLAS build and the CPU it selects kernels for, so
this is a measurement of one machine, not a test: CI does not run it.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from sentirisk import BLAS_THREAD_VARS, data, synthetic, text
from sentirisk import model as m

CONFIGS = ("demo", "ablation")
BATCH_SIZES = (1, 16, 32, 50, 64, 100, 200, 400)
OFFSETS = (0, 7)


def dataset(name: str):
    """(model config without arch or attention, windows) of a configuration."""
    if name == "demo":
        bars = synthetic.make_demo_market(n_days=160, seed=3)
        ds = data.prepare_dataset(bars, synthetic.make_demo_docs(bars, seed=4),
                                  text.Lexicon.bundled(), data.PrepareConfig())
        return m.ModelConfig(vocab_size=ds.vocab.size, seed=0), ds.samples
    samples, vocab_size = synthetic.make_ablation_dataset(n_days=620, seed=15)
    return m.ModelConfig(vocab_size=vocab_size, window=20, seed=0,
                         **synthetic.ABLATION_MODEL), samples


def dump(out: Path, batch_sizes: list[int]) -> None:
    """Writes every case's outputs to out as one .npz, keyed case/tensor."""
    arrays = {}
    for config in CONFIGS:
        cfg, samples = dataset(config)
        table = m.day_table(cfg, samples)
        returns = np.array([s.target_return for s in samples])
        classes = np.array([s.target_class for s in samples])
        for arch in m.ArchKind:
            for attention in (True, False):
                mdl = m.build_model(dataclasses.replace(cfg, attention_enabled=attention), arch)
                for b in batch_sizes:
                    for offset in OFFSETS:
                        index = (offset + np.arange(b)) % len(samples)
                        cache = m.table_forward(mdl, table, index)
                        grads = m.batch_backward(mdl, cache, returns[index], classes[index])
                        case = (f"{config} {arch.value} "
                                f"{'attention' if attention else 'no-attention'} "
                                f"B={b} offset={offset}")
                        arrays[f"{case}/pred"] = cache.pred
                        arrays[f"{case}/logits"] = cache.logits
                        for name, g in m.param_views(mdl, grads).items():
                            arrays[f"{case}/{name}"] = g
    np.savez(out, **arrays)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--batch-sizes", type=int, nargs="+", default=list(BATCH_SIZES))
    ap.add_argument("--dump", type=Path, help=argparse.SUPPRESS)  # one subprocess's run
    args = ap.parse_args(argv)
    if args.dump is not None:
        dump(args.dump, args.batch_sizes)
        return 0

    threads = sorted({1, 2, len(os.sched_getaffinity(0))})
    runs = {}
    with tempfile.TemporaryDirectory(prefix="blas-threads-") as tmp:
        for n in threads:
            out = Path(tmp) / f"{n}.npz"
            env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, str(n))}
            subprocess.run([sys.executable, __file__, "--dump", str(out), "--batch-sizes",
                            *map(str, args.batch_sizes)], env=env, check=True)
            with np.load(out) as npz:
                runs[n] = dict(npz)
    first, *others = threads
    base, differ = runs[first], 0
    for n in others:
        for key, want in base.items():
            got = runs[n][key]
            if got.tobytes() != want.tobytes():
                differ += 1
                scale = float(np.abs(want).max()) or 1.0
                print(f"{key} differs at {n} threads from {first}: "
                      f"{float(np.abs(got - want).max()) / scale:.2g} relative")
    print(f"{differ} of {len(base) * len(others)} tensors differ "
          f"(threads {', '.join(map(str, threads))})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
