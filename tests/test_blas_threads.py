"""scripts/blas_threads.py's per-subprocess dump still runs on the current kernels.

The thread comparison itself depends on the host's OpenBLAS and stays out of
the suite; this runs one dump at batch size 1 and checks what it wrote.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from sentirisk import model as m

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "blas_threads.py"
spec = importlib.util.spec_from_file_location("blas_threads", SCRIPT)
blas_threads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(blas_threads)


def test_dump_holds_every_case_and_tensor(tmp_path):
    out = tmp_path / "run.npz"
    assert blas_threads.main(["--dump", str(out), "--batch-sizes", "1"]) == 0
    want = set()
    for config in blas_threads.CONFIGS:
        cfg, _ = blas_threads.dataset(config)
        for arch in m.ArchKind:
            for attention in ("attention", "no-attention"):
                mdl = m.build_model(
                    dataclasses.replace(cfg, attention_enabled=attention == "attention"), arch)
                for offset in blas_threads.OFFSETS:
                    case = f"{config} {arch.value} {attention} B=1 offset={offset}"
                    want |= {f"{case}/{name}"
                             for name in ("pred", "logits", *m.param_views(mdl, mdl.params))}
    with np.load(out) as npz:
        assert set(npz.files) == want
        assert all(np.isfinite(npz[key]).all() for key in npz.files)
        assert npz["ablation gru attention B=1 offset=7/attn/w_a"].any()
