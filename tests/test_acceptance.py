"""Acceptance gate: ten numbered criteria, one verdict line each.

Every test prints `ACCEPTANCE <n> <label>: PASS|FAIL (<measured detail>)`
and then asserts, so a plain `pytest -v` run shows the verdict alongside
the usual outcome. Budgeted criteria assert their own wall-clock limits;
the training-based criteria pin every seed and hyperparameter so reruns
are bitwise repeatable.
"""

from __future__ import annotations

import datetime as dt
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sentirisk.alerts import AlertRuleConfig, detect_inflections, load_predictions_jsonl
from sentirisk.data import (
    AlignedDay,
    PrepareConfig,
    WindowSample,
    _window_targets,
    prepare_dataset,
)
from sentirisk.layers import (
    AttentionParams,
    DenseParams,
    EmbeddingTable,
    GRUParams,
    attention_backward,
    attention_pool,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    embed_backward,
    embed_lookup,
    global_max_pool,
    gru_forward,
    gru_sequence_backward,
    gru_step,
    gru_step_backward,
    init_attention,
    init_conv,
    init_dense,
    init_embedding,
    init_gru,
    max_pool_backward,
    relu_backward,
)
from sentirisk.losses import batch_cross_entropy
from sentirisk.matrix import Matrix
from sentirisk.model import (
    ArchKind,
    CnnGruModel,
    ModelConfig,
    batch_backward,
    batch_forward,
    build_model,
    load_checkpoint,
    param_views,
    save_checkpoint,
)
from sentirisk.synthetic import (
    ABLATION_MODEL,
    ABLATION_TRAIN,
    make_ablation_dataset,
    make_demo_docs,
    make_demo_market,
    make_sinusoid_market,
)
from sentirisk.text import Lexicon, clean_text
from sentirisk.train import MetricsReport, TrainConfig, compare_ablations, score_windows, train

FIXTURES = Path(__file__).parent / "fixtures"


def verdict(num: int, label: str, ok: bool, detail: str) -> None:
    # sys.__stdout__ bypasses pytest capture so the verdict lines land in
    # plain `pytest -v` output, not only under -s
    line = f"ACCEPTANCE {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.__stdout__)
    assert ok, line


# ---------------------------------------------------------------------------
# finite-difference harness
# ---------------------------------------------------------------------------

FD_H = 1e-5
FD_TOL = 1e-4
FD_COORDS = 100


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def fd_max_err(loss_fn, x: Matrix, analytic: Matrix, rng, skip_rows=()) -> float:
    """Central differences on up to FD_COORDS random coordinates of x."""
    coords = [(i, j) for i in range(x.rows) for j in range(x.cols)
              if i not in skip_rows]
    if len(coords) > FD_COORDS:
        picks = rng.choice(len(coords), size=FD_COORDS, replace=False)
        coords = [coords[int(p)] for p in picks]
    worst = 0.0
    for i, j in coords:
        v = x.at(i, j)
        up = loss_fn(x.with_value(i, j, v + FD_H))
        dn = loss_fn(x.with_value(i, j, v - FD_H))
        worst = max(worst, rel_err((up - dn) / (2 * FD_H), analytic.at(i, j)))
    return worst


def rand(rng, rows, cols, scale=0.6) -> Matrix:
    return Matrix._wrap(rng.standard_normal((rows, cols)) * scale)


def make_sample(cfg: ModelConfig, seed: int = 0, textless=()):
    rng = np.random.Generator(np.random.PCG64(seed))
    start = dt.date(2023, 1, 2)
    days = []
    for i in range(cfg.window):
        has_text = i not in textless
        seqs = ([[2 + int(rng.integers(0, cfg.vocab_size - 2)) for _ in range(3)]]
                if has_text else [])
        feats = rng.standard_normal(4).tolist() + [1.0 if has_text else 0.0]
        days.append(AlignedDay(
            date=start + dt.timedelta(days=i), raw=(0.0, 0.0, 0.0, 0.0),
            token_seqs=seqs, label=int(rng.integers(0, 3)),
            close=100.0, features=tuple(feats),
        ))
    return WindowSample(
        inputs=days, target_date=start + dt.timedelta(cfg.window),
        target_class=1, target_return_raw=0.3, target_close=100.0,
        target_return=0.3,
    )


def batch_joint_loss(model, sample) -> float:
    """The joint loss of the batched core's outputs for a batch of one."""
    cache = batch_forward(model, [sample])
    lam = model.cfg.mse_weight
    return float(lam * (cache.pred[0] - sample.target_return) ** 2
                 + (1.0 - lam) * batch_cross_entropy(cache.logits,
                                                     np.array([sample.target_class]))[0])


@pytest.fixture(scope="module")
def demo_ds():
    bars = make_demo_market(n_days=40, seed=3)
    docs = make_demo_docs(bars, seed=4)
    return prepare_dataset(bars, docs, Lexicon.bundled(),
                           PrepareConfig(window=20))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_c01_gradient_correctness_every_layer_and_full_model():
    rng = np.random.Generator(np.random.PCG64(0))
    t0 = time.perf_counter()
    checks: list[tuple[str, float]] = []

    # conv1d: input and the whole (width * channels, filters) kernel
    conv = init_conv(rng, num_filters=4, kernel_width=2, in_channels=3, stride=2)
    x = rand(rng, 9, 3)
    w_out = rand(rng, 4, 1)
    out, cache = conv1d_forward(conv, x)
    d_out = Matrix._wrap(np.tile(w_out.data.T, (out.rows, 1)))
    d_in, d_kernel = conv1d_backward(conv, cache, d_out)
    checks.append(("conv/input", fd_max_err(
        lambda m: float(np.sum(conv1d_forward(conv, m)[0].data * d_out.data)),
        x, d_in, rng)))
    checks.append(("conv/k", fd_max_err(
        lambda k: float(np.sum(conv1d_forward(replace(conv, kernel=k), x)[0].data
                               * d_out.data)),
        conv.kernel, d_kernel, rng)))

    # max pool through a conv + relu chain
    def pool_loss(inp):
        fm, _ = conv1d_forward(conv, inp)
        act = Matrix._wrap(np.maximum(fm.data, 0.0))
        pooled, _ = global_max_pool(act)
        return float(np.sum(pooled.data * w_out.data))

    fm, conv_cache = conv1d_forward(conv, x)
    act = Matrix._wrap(np.maximum(fm.data, 0.0))
    _, memo = global_max_pool(act)
    d_act = max_pool_backward(memo, act.rows, w_out)
    d_fm = relu_backward(fm, d_act)
    d_x_pool, _ = conv1d_backward(conv, conv_cache, d_fm)
    checks.append(("pool/input", fd_max_err(pool_loss, x, d_x_pool, rng)))

    # GRU single step: all five gradients
    gru = init_gru(rng, hidden=3, input_size=4)
    h_prev, x_t = rand(rng, 3, 1), rand(rng, 4, 1)
    w_h = rand(rng, 3, 1)
    h_t, step_cache = gru_step(gru, h_prev, x_t)
    d_hp, d_xt, grads = gru_step_backward(gru, step_cache, w_h)

    def step_loss(params, hp, xt):
        h, _ = gru_step(params, hp, xt)
        return float(np.sum(h.data * w_h.data))

    checks.append(("gru_step/w_z", fd_max_err(
        lambda m: step_loss(GRUParams(w_z=m, w_r=gru.w_r, w=gru.w), h_prev, x_t),
        gru.w_z, grads.d_w_z, rng)))
    checks.append(("gru_step/w_r", fd_max_err(
        lambda m: step_loss(GRUParams(w_z=gru.w_z, w_r=m, w=gru.w), h_prev, x_t),
        gru.w_r, grads.d_w_r, rng)))
    checks.append(("gru_step/w", fd_max_err(
        lambda m: step_loss(GRUParams(w_z=gru.w_z, w_r=gru.w_r, w=m), h_prev, x_t),
        gru.w, grads.d_w, rng)))
    checks.append(("gru_step/h_prev", fd_max_err(
        lambda m: step_loss(gru, m, x_t), h_prev, d_hp, rng)))
    checks.append(("gru_step/x", fd_max_err(
        lambda m: step_loss(gru, h_prev, m), x_t, d_xt, rng)))

    # GRU unrolled over 5 steps: weights and every input
    seq = [rand(rng, 4, 1) for _ in range(5)]
    heads = [rand(rng, 3, 1) for _ in range(5)]

    def seq_loss(params, inputs):
        hiddens, _ = gru_forward(params, inputs)
        return sum(float(np.sum(h.data * w.data)) for h, w in zip(hiddens, heads))

    _, seq_caches = gru_forward(gru, seq)
    d_inputs, _, seq_grads = gru_sequence_backward(gru, seq_caches, heads)
    checks.append(("gru_seq/w_z", fd_max_err(
        lambda m: seq_loss(GRUParams(w_z=m, w_r=gru.w_r, w=gru.w), seq),
        gru.w_z, seq_grads.d_w_z, rng)))
    checks.append(("gru_seq/w_r", fd_max_err(
        lambda m: seq_loss(GRUParams(w_z=gru.w_z, w_r=m, w=gru.w), seq),
        gru.w_r, seq_grads.d_w_r, rng)))
    checks.append(("gru_seq/w", fd_max_err(
        lambda m: seq_loss(GRUParams(w_z=gru.w_z, w_r=gru.w_r, w=m), seq),
        gru.w, seq_grads.d_w, rng)))
    for t in range(5):
        def input_loss(m, t=t):
            swapped = list(seq)
            swapped[t] = m
            return seq_loss(gru, swapped)
        checks.append((f"gru_seq/x{t}", fd_max_err(input_loss, seq[t],
                                                   d_inputs[t], rng)))

    # attention: projection, scorer, and every hidden
    attn = init_attention(rng, attn_size=4, hidden=3)
    hiddens = [rand(rng, 3, 1) for _ in range(5)]
    w_ctx = rand(rng, 3, 1)

    def attn_loss(params, hs):
        ctx, _, _ = attention_pool(params, hs)
        return float(np.sum(ctx.data * w_ctx.data))

    _, _, attn_cache = attention_pool(attn, hiddens)
    d_hiddens, d_w_a, d_u = attention_backward(attn, attn_cache, w_ctx)
    checks.append(("attn/w_a", fd_max_err(
        lambda m: attn_loss(AttentionParams(w_a=m, u=attn.u), hiddens),
        attn.w_a, d_w_a, rng)))
    checks.append(("attn/u", fd_max_err(
        lambda m: attn_loss(AttentionParams(w_a=attn.w_a, u=m), hiddens),
        attn.u, d_u, rng)))
    for i in range(5):
        def hid_loss(m, i=i):
            swapped = list(hiddens)
            swapped[i] = m
            return attn_loss(attn, swapped)
        checks.append((f"attn/h{i}", fd_max_err(hid_loss, hiddens[i],
                                                d_hiddens[i], rng)))

    # dense: weights, bias, input
    dense = init_dense(rng, out_size=3, in_size=4)
    xd = rand(rng, 4, 1)
    w_y = rand(rng, 3, 1)
    d_xd, d_wd, d_bd = dense_backward(dense, xd, w_y)
    checks.append(("dense/w", fd_max_err(
        lambda m: float(np.sum(dense_forward(DenseParams(w=m, b=dense.b), xd).data
                               * w_y.data)),
        dense.w, d_wd, rng)))
    checks.append(("dense/b", fd_max_err(
        lambda m: float(np.sum(dense_forward(DenseParams(w=dense.w, b=m), xd).data
                               * w_y.data)),
        dense.b, d_bd, rng)))
    checks.append(("dense/x", fd_max_err(
        lambda m: float(np.sum(dense_forward(dense, m).data * w_y.data)),
        xd, d_xd, rng)))

    # embedding: scatter gradient; pad row 0 is frozen and skipped
    table = init_embedding(rng, vocab_size=10, embed_dim=4)
    ids = [3, 1, 3, 7, 0]
    w_e = rand(rng, 6, 4)
    d_table = embed_backward(table, ids + [0], w_e)
    checks.append(("embedding", fd_max_err(
        lambda m: float(np.sum(embed_lookup(EmbeddingTable(m), ids, 6).data
                               * w_e.data)),
        table.table, d_table, rng, skip_rows=(0,))))

    # full tiny model: every named tensor against the joint loss
    cfg = ModelConfig(vocab_size=12, embed_dim=3, num_filters=2, kernel_width=2,
                      conv_stride=1, gru_hidden=2, window=3, max_doc_len=4,
                      attention_enabled=True, seed=3)
    # the production core: batch_forward/batch_backward on a batch of one
    model = build_model(cfg, ArchKind.CNN_GRU)
    sample = make_sample(cfg, seed=5, textless=(1,))
    grads = param_views(model, batch_backward(
        model, batch_forward(model, [sample]), np.array([sample.target_return]),
        np.array([sample.target_class])))
    for name, tensor in model.tensors.items():
        def loss_at(m, name=name):
            flat = model.params.copy()
            param_views(model, flat)[name][:] = m.data
            return batch_joint_loss(CnnGruModel(cfg, ArchKind.CNN_GRU, flat), sample)
        skip = (0,) if name == "embedding" else ()
        checks.append((f"model/{name}",
                       fd_max_err(loss_at, Matrix._wrap(tensor), Matrix._wrap(grads[name]),
                                  rng, skip_rows=skip)))

    elapsed = time.perf_counter() - t0
    worst_name, worst = max(checks, key=lambda c: c[1])
    ok = worst <= FD_TOL and elapsed < 60.0
    verdict(1, "gradient correctness vs finite differences", ok,
            f"worst rel err {worst:.2e} at {worst_name}, tol {FD_TOL:.0e}, "
            f"{len(checks)} tensors, {elapsed:.1f}s < 60s")


def test_c02_gru_gate_and_interpolation_invariants():
    rng = np.random.Generator(np.random.PCG64(1))
    trials = 1000
    worst_overhang = 0.0
    for _ in range(trials):
        h = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        # weight and input scales keep |preactivation| <= 0.8*1.5*(h+d) < 11,
        # so sigmoid/tanh stay strictly inside their open ranges in float64
        params = GRUParams(
            w_z=Matrix._wrap(rng.uniform(-0.8, 0.8, (h, h + d))),
            w_r=Matrix._wrap(rng.uniform(-0.8, 0.8, (h, h + d))),
            w=Matrix._wrap(rng.uniform(-0.8, 0.8, (h, h + d))),
        )
        h_prev = Matrix._wrap(rng.uniform(-1.5, 1.5, (h, 1)))
        x_t = Matrix._wrap(rng.uniform(-1.5, 1.5, (d, 1)))
        h_t, cache = gru_step(params, h_prev, x_t)
        z, r, cand = cache.z_t.data, cache.r_t.data, cache.h_tilde.data
        assert np.all(z > 0.0) and np.all(z < 1.0)
        assert np.all(r > 0.0) and np.all(r < 1.0)
        assert np.all(cand > -1.0) and np.all(cand < 1.0)
        lo = np.minimum(h_prev.data, cand)
        hi = np.maximum(h_prev.data, cand)
        eps = 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(hi))
        assert np.all(h_t.data >= lo - eps) and np.all(h_t.data <= hi + eps)
        worst_overhang = max(
            worst_overhang,
            float(np.max(np.maximum(lo - h_t.data, h_t.data - hi))),
        )
    verdict(2, "GRU gate ranges and interpolation bound", True,
            f"{trials} triples, worst interval overhang {worst_overhang:.1e}")


def test_c03_parameter_count_law():
    rng = np.random.Generator(np.random.PCG64(2))
    for _ in range(20):
        h = int(rng.integers(1, 64))
        d = int(rng.integers(1, 64))
        params = init_gru(rng, hidden=h, input_size=d)
        counted = params.w_z.data.size + params.w_r.data.size + params.w.data.size
        assert counted == 3 * h * (h + d)
        lstm = 4 * h * (h + d)
        assert counted * 4 == lstm * 3  # exactly 3/4 of the same-shape LSTM
    verdict(3, "GRU parameter law 3h(h+d) and 3/4 LSTM ratio", True,
            "20 random (h,d) pairs, integer-exact")


# frozen synthetic-ablation recipe: dataset seed 15 gives near-identical class
# marginals across the chronological splits, and the sticky regimes put the
# count thresholds in thin regions of the count distribution
C4_DATA_SEED = 15
C4_MCFG = dict(ABLATION_MODEL, window=20, attention_enabled=True, seed=0)
C4_TCFG = TrainConfig(**ABLATION_TRAIN, seed=0)


def test_c04_synthetic_ablation_ordering():
    t0 = time.perf_counter()
    samples, vocab = make_ablation_dataset(n_days=620, seed=C4_DATA_SEED,
                                           window=20, docs_per_day=2)
    assert len(samples) == 600
    mcfg = ModelConfig(vocab_size=vocab, **C4_MCFG)
    reports = compare_ablations(samples, mcfg, C4_TCFG)
    elapsed = time.perf_counter() - t0
    acc = {arch: r.accuracy for arch, r in reports.items()}
    full = acc[ArchKind.CNN_GRU]
    cnn = acc[ArchKind.CNN_ONLY]
    gru = acc[ArchKind.GRU_ONLY]
    ok = (full >= 0.90 and full - cnn >= 0.05 and full - gru >= 0.05
          and elapsed < 300.0)
    verdict(4, "ablation ordering on dual-signal synthetic data", ok,
            f"cnn+gru {full:.3f} vs cnn {cnn:.3f} / gru {gru:.3f}, "
            f"{elapsed:.0f}s < 300s")


def test_c05_sinusoid_beats_persistence():
    t0 = time.perf_counter()
    bars = make_sinusoid_market(n_days=240, period=40.0, amplitude=10.0,
                                base=100.0, noise_sd=1.0, seed=0)
    ds = prepare_dataset(bars, [], Lexicon.bundled(), PrepareConfig(window=20))
    train_s, val_s, test_s = ds.splits()
    mcfg = ModelConfig(vocab_size=ds.vocab.size, embed_dim=4, num_filters=4,
                       kernel_width=3, conv_stride=3, gru_hidden=16, window=20,
                       max_doc_len=8, attention_enabled=True, seed=0)
    tcfg = TrainConfig(lr=3e-3, batch_size=16, epochs=200, patience=40,
                       optimizer="adam", seed=0)
    best, _ = train(build_model(mcfg, ArchKind.CNN_GRU), train_s, val_s, tcfg)

    model_se = pers_se = 0.0
    preds, _ = score_windows(best, test_s)
    for s, pred in zip(test_s, preds.tolist()):
        pred_close = s.prev_close * math.exp(ds.stats.denormalize_return(pred))
        model_se += (pred_close - s.target_close) ** 2
        pers_se += (s.prev_close - s.target_close) ** 2
    ratio = (model_se / len(test_s)) / (pers_se / len(test_s))
    elapsed = time.perf_counter() - t0
    ok = ratio <= 0.9 and elapsed < 120.0
    verdict(5, "sinusoid regression beats persistence baseline", ok,
            f"mse ratio {ratio:.3f} <= 0.9, {elapsed:.0f}s < 120s")


def test_c06_overfits_ten_samples(demo_ds):
    subset = demo_ds.samples[:10]
    assert len(subset) == 10
    mcfg = ModelConfig(vocab_size=demo_ds.vocab.size, embed_dim=8, num_filters=8,
                       kernel_width=3, conv_stride=2, gru_hidden=16, window=20,
                       max_doc_len=12, attention_enabled=True, seed=0)
    tcfg = TrainConfig(lr=1e-2, batch_size=10, epochs=150, patience=0,
                       optimizer="adam", seed=0)
    _, history = train(build_model(mcfg, ArchKind.CNN_GRU), subset, subset, tcfg)
    lo = min(h["train_loss"] for h in history)
    first = next((h["epoch"] for h in history if h["train_loss"] < 0.05), None)
    ok = lo < 0.05 and len(history) <= 500
    verdict(6, "joint loss overfits a 10-sample subset", ok,
            f"min loss {lo:.4f} < 0.05, first crossing at epoch {first} of "
            f"{len(history)} <= 500")


def test_c07_metric_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(3))
    n, k = 200, 3
    preds = rng.integers(0, k, size=n)
    labels = rng.integers(0, k, size=n)

    confusion = [[0] * k for _ in range(k)]
    for p, t in zip(preds, labels):
        confusion[int(t)][int(p)] += 1
    report = MetricsReport.from_confusion(confusion, 0.0)

    # brute force: per-class tallies straight from the pairs, no matrix
    recalls, precisions, f1s = [], [], []
    for c in range(k):
        tp = int(np.sum((preds == c) & (labels == c)))
        fn = int(np.sum((preds != c) & (labels == c)))
        fp = int(np.sum((preds == c) & (labels != c)))
        r = tp / (tp + fn) if (tp + fn) else 0.0
        p = tp / (tp + fp) if (tp + fp) else 0.0
        f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
        recalls.append(r)
        precisions.append(p)
        f1s.append(f1)
    acc = int(np.sum(preds == labels)) / n

    assert report.accuracy == acc
    assert report.macro_recall == sum(recalls) / k
    assert report.macro_precision == sum(precisions) / k
    assert report.macro_f1 == sum(f1s) / k
    assert report.n == n
    verdict(7, "metrics match brute-force pair counting exactly", True,
            f"{n} pairs, acc {acc:.3f}, zero tolerance")


def test_c08_determinism_and_checkpoint_persistence(demo_ds, tmp_path):
    train_s, val_s, _ = demo_ds.splits()
    mcfg = ModelConfig(vocab_size=demo_ds.vocab.size, embed_dim=6, num_filters=4,
                       kernel_width=3, conv_stride=2, gru_hidden=6, window=20,
                       max_doc_len=12, attention_enabled=True, seed=11)
    tcfg = TrainConfig(lr=1e-3, batch_size=8, epochs=3, patience=0,
                       optimizer="adam", seed=11)

    runs = []
    for name in ("a", "b"):
        best, history = train(build_model(mcfg, ArchKind.CNN_GRU),
                              train_s, val_s, tcfg)
        path = tmp_path / f"{name}.ckpt.json"
        save_checkpoint(best, path)
        runs.append((history, path.read_bytes(), best))
    assert runs[0][0] == runs[1][0]  # bitwise-equal float histories
    assert runs[0][1] == runs[1][1]  # bitwise-equal checkpoint bytes

    reloaded = load_checkpoint(tmp_path / "a.ckpt.json")
    for got, want in zip(score_windows(reloaded, demo_ds.samples),
                         score_windows(runs[0][2], demo_ds.samples)):
        assert got.tobytes() == want.tobytes()
    verdict(8, "seeded reruns and checkpoint round trips are bitwise equal", True,
            f"{len(runs[0][0])} epochs x2 runs, {len(demo_ds.samples)} forwards")


def test_c09_pipeline_exactness(demo_ds):
    # committed golden corpus, byte for byte including serialization
    inputs = [json.loads(line) for line in
              (FIXTURES / "clean_inputs.jsonl").read_text(encoding="utf-8").splitlines()]
    golden_bytes = (FIXTURES / "clean_golden.jsonl").read_bytes()
    rebuilt = "".join(json.dumps(clean_text(raw), ensure_ascii=False) + "\n"
                      for raw in inputs).encode("utf-8")
    assert rebuilt == golden_bytes

    # 25 days at window 20 gives exactly 5 samples
    start = dt.date(2023, 1, 2)
    rows = [(start + dt.timedelta(i), (0.0, 0.0, 0.0, 0.0), [], 1, 100.0 + i)
            for i in range(25)]
    windows = _window_targets(rows, window=20)
    assert len(windows) == 5

    # chronological splits admit zero leakage by date
    train_s, val_s, test_s = demo_ds.splits()
    max_train_input = max(d.date for s in train_s for d in s.inputs)
    max_train_target = max(s.target_date for s in train_s)
    min_val_target = min(s.target_date for s in val_s)
    max_val_target = max(s.target_date for s in val_s)
    min_test_target = min(s.target_date for s in test_s)
    assert max_train_input < min_val_target
    assert max_train_target < min_val_target
    assert max_val_target < min_test_target
    verdict(9, "golden corpus, window count, and split leakage", True,
            f"{len(inputs)} golden lines byte-exact, 25->5 windows, "
            f"train<{min_val_target}<=val<{min_test_target}<=test")


def test_c10_alert_rules_on_fixture_stream():
    preds = load_predictions_jsonl(FIXTURES / "alert_stream.jsonl")
    alerts = detect_inflections(preds, AlertRuleConfig(risk_threshold=0.7))
    kinds = [a.kind for a in alerts]
    dates = [a.date for a in alerts]
    assert kinds.count("bearish_flip") == 2
    assert kinds.count("bullish_flip") == 1
    assert kinds.count("risk_threshold") == 3
    assert len(alerts) == 6
    assert dates == sorted(dates)
    assert kinds == ["bearish_flip", "bullish_flip", "bearish_flip",
                     "risk_threshold", "risk_threshold", "risk_threshold"]
    verdict(10, "alert stream yields 2 bearish / 1 bullish / 3 threshold", True,
            "6 alerts, chronological, flip-before-threshold within a day")
