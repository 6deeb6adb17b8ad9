"""Model assembly: shapes, determinism, composition oracle, batched core, checkpoints."""

import base64
import contextlib
import dataclasses
import datetime as dt
import hashlib
import json
import math
import re
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentirisk.data import AlignedDay, Split, WindowSample
from sentirisk.errors import CheckpointError, ShapeError
from sentirisk.layers import (
    attention_pool,
    conv1d_forward,
    dense_forward,
    embed_lookup,
    global_max_pool,
    gru_step,
    pad_or_truncate,
)
from sentirisk.matrix import Matrix
from sentirisk import layers as layers_mod
from sentirisk import model as model_mod
from sentirisk.optim import Optimizer
from sentirisk.train import TrainConfig
from sentirisk.model import (
    ArchKind,
    CnnGruModel,
    ModelConfig,
    Workspace,
    batch_backward,
    batch_forward,
    build_model,
    day_table,
    load_checkpoint,
    model_backward,
    model_forward,
    param_shapes,
    param_views,
    save_checkpoint,
    table_forward,
)

RNG = np.random.Generator(np.random.PCG64(202))

TINY = ModelConfig(
    vocab_size=12, embed_dim=3, num_filters=2, kernel_width=2, conv_stride=1,
    gru_hidden=2, window=3, max_doc_len=4, attention_enabled=True, seed=3,
)


GOLDEN = Path(__file__).parent / "fixtures" / "tiny.ckpt.json"
GOLDEN_SHA256 = "19cb297753c6f0f8c709f147e25ce070a453c5cbbdbeedb929fb41cb5db3bfe4"


def payload(obj: dict) -> np.ndarray:
    """A checkpoint object's flat parameters, decoded into a writable array."""
    return np.frombuffer(base64.b64decode(obj["values"]), dtype="<f8").copy()


def set_payload(obj: dict, flat: np.ndarray) -> None:
    obj["values"] = base64.b64encode(flat.astype("<f8").tobytes()).decode("ascii")


def offsets(obj: dict) -> dict[str, slice]:
    """Each indexed tensor's span of a checkpoint object's payload."""
    spans, at = {}, 0
    for name, (rows, cols) in obj["tensors"].items():
        spans[name] = slice(at, at + rows * cols)
        at += rows * cols
    return spans


def make_sample(cfg: ModelConfig, seed=0, textless_days=()) -> WindowSample:
    rng = np.random.Generator(np.random.PCG64(seed))
    days = []
    for t in range(cfg.window):
        has_text = t not in textless_days
        seqs = []
        if has_text:
            for _ in range(int(rng.integers(1, 3))):
                n = int(rng.integers(1, cfg.max_doc_len + 1))
                seqs.append([int(v) for v in rng.integers(2, cfg.vocab_size, size=n)])
        days.append(AlignedDay(
            date=dt.date(2024, 1, 1) + dt.timedelta(days=t),
            raw=(0.0, 0.0, 0.0, 0.0),
            token_seqs=seqs,
            label=int(rng.integers(0, 3)),
            close=100.0,
            features=tuple(rng.standard_normal(5).tolist()),
        ))
    return WindowSample(
        inputs=days,
        target_date=days[-1].date + dt.timedelta(days=1),
        target_class=int(rng.integers(0, 3)),
        target_return_raw=0.01,
        target_close=101.0,
        target_return=float(rng.standard_normal()),
    )


class TestBuildModel:
    def test_default_config_builds_and_forward_shapes(self):
        cfg = ModelConfig(vocab_size=50, window=4)
        model = build_model(cfg, ArchKind.CNN_GRU)
        sample = make_sample(cfg, seed=1)
        pred, logits, _ = model_forward(model, sample)
        assert isinstance(pred, float)
        assert logits.shape == (3, 1)

    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_param_shapes_are_the_built_tensors_in_order(self, arch, attention):
        cfg = dataclasses.replace(TINY, attention_enabled=attention, attn_size=5)
        built = [(name, t.shape) for name, t in build_model(cfg, arch).tensors.items()]
        assert list(param_shapes(cfg, arch).items()) == built

    def test_gru_only_has_zero_conv_parameters(self):
        model = build_model(TINY, ArchKind.GRU_ONLY)
        assert model.conv is None
        assert not any(name.startswith("conv/") for name in model.tensors)

    @pytest.mark.parametrize("cfg", [TINY, ModelConfig(vocab_size=50)], ids=["tiny", "default"])
    def test_conv_kernel_columns_are_the_sequential_filter_draws(self, cfg):
        # the init order of the per-filter kernels this matrix replaced: the
        # embedding, one (width, embed) draw per filter, then the GRU; seeded
        # builds and training runs stay bit-identical only while it holds
        model = build_model(cfg, ArchKind.CNN_GRU)
        params = model.tensors
        assert [n for n in params if n.startswith("conv/")] == ["conv/k"]
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        s_emb = np.sqrt(6.0 / (2 * cfg.embed_dim))
        rng.uniform(-s_emb, s_emb, size=(cfg.vocab_size, cfg.embed_dim))
        fan_in = cfg.kernel_width * cfg.embed_dim
        s = np.sqrt(6.0 / (fan_in + cfg.num_filters))
        kernel = params["conv/k"]
        assert kernel.shape == (fan_in, cfg.num_filters)
        for f in range(cfg.num_filters):
            draw = rng.uniform(-s, s, size=(cfg.kernel_width, cfg.embed_dim))
            assert np.array_equal(kernel[:, f], draw.ravel()), f
        _, cols = param_shapes(cfg, ArchKind.CNN_GRU)["gru/w_z"]
        s_gru = np.sqrt(6.0 / (cols + cfg.gru_hidden))
        assert np.array_equal(params["gru/w_z"],
                              rng.uniform(-s_gru, s_gru, size=(cfg.gru_hidden, cols)))

    def test_cnn_only_has_no_gru_tensors(self):
        model = build_model(TINY, ArchKind.CNN_ONLY)
        assert model.gru is None
        assert model.attention is None
        assert not any(name.startswith(("gru/", "attn/")) for name in model.tensors)

    def test_same_seed_is_bitwise_identical(self):
        a = build_model(TINY, ArchKind.CNN_GRU).tensors
        b = build_model(TINY, ArchKind.CNN_GRU).tensors
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_different_seed_differs(self):
        import dataclasses
        a = build_model(TINY, ArchKind.CNN_GRU).tensors
        b = build_model(dataclasses.replace(TINY, seed=4), ArchKind.CNN_GRU).tensors
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_param_ordering_is_stable(self):
        names = list(build_model(TINY, ArchKind.CNN_GRU).tensors)
        assert names[0] == "embedding"
        assert names[-4:] == ["head_reg/w", "head_reg/b", "head_cls/w", "head_cls/b"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=12, embed_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=12, mse_weight=2.0)
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ModelConfig(vocab_size=12, seed=-1)


class TestModelForward:
    def test_zero_parameters_output_head_biases(self):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            bias_reg = Matrix.column([0.7])
            bias_cls = Matrix.column([0.1, -0.2, 0.3])
            zeroed = np.zeros_like(model.params)
            views = param_views(model, zeroed)
            views["head_reg/b"][:] = bias_reg.data
            views["head_cls/b"][:] = bias_cls.data
            model = CnnGruModel(TINY, arch, zeroed)
            pred, logits, _ = model_forward(model, make_sample(TINY, seed=5))
            assert pred == 0.7, arch
            assert logits == bias_cls, arch

    def test_purity(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        sample = make_sample(TINY, seed=6)
        before = {n: p.copy() for n, p in model.tensors.items()}
        p1, l1, _ = model_forward(model, sample)
        p2, l2, _ = model_forward(model, sample)
        assert p1 == p2
        assert l1 == l2
        for n in before:
            assert np.array_equal(before[n], model.tensors[n])

    def test_textless_day_equals_empty_docs(self):
        # a day without documents gets the zero text vector, as one whose only
        # document is padding does
        model = build_model(TINY, ArchKind.CNN_GRU)
        base = make_sample(TINY, seed=7)

        def first_day_reads(seqs):
            day = dataclasses.replace(base.inputs[0], token_seqs=seqs)
            return dataclasses.replace(base, inputs=(day, *base.inputs[1:]))

        emptied = first_day_reads([])
        assert not emptied.inputs[0].has_text
        assert model_forward(model, emptied)[0] == model_forward(model, first_day_reads([[0, 0]]))[0]

    def test_wrong_window_rejected(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        import dataclasses
        cfg4 = dataclasses.replace(TINY, window=4)
        with pytest.raises(ShapeError):
            model_forward(model, make_sample(cfg4, seed=8))

    def test_matches_unrolled_recomputation(self):
        sample = make_sample(TINY, seed=10, textless_days=(1,))
        for arch in ArchKind:
            model = build_model(TINY, arch)
            pred, logits, _ = model_forward(model, sample)
            want_pred, want_logits = unrolled_forward(model, sample)
            assert abs(pred - want_pred) < 1e-12, arch
            assert np.allclose(logits.data, want_logits.data, atol=1e-12), arch


def unrolled_forward(model, sample):
    """Straight-line recomposition of the documented pipeline."""
    cfg = model.cfg
    day_vecs = []
    for day in sample.inputs:
        if model.arch is ArchKind.GRU_ONLY:
            ids = []
            if day.has_text:
                for seq in day.token_seqs:
                    ids.extend(t for t in pad_or_truncate(seq, cfg.max_doc_len) if t != 0)
            if ids:
                rows = [model.embedding.table.to_lists()[t] for t in ids]
                text = Matrix.column([sum(col) / len(rows) for col in zip(*rows)])
            else:
                text = Matrix.zeros(cfg.embed_dim, 1)
        else:
            if day.token_seqs:
                acc = np.zeros((cfg.num_filters, 1))
                for seq in day.token_seqs:
                    emb = embed_lookup(model.embedding,
                                       pad_or_truncate(seq, cfg.max_doc_len),
                                       cfg.max_doc_len)
                    pre, _ = conv1d_forward(model.conv, emb)
                    pooled, _ = global_max_pool(Matrix._wrap(np.maximum(pre.data, 0.0)))
                    acc += pooled.data
                text = Matrix._wrap(acc / len(day.token_seqs))
            else:
                text = Matrix.zeros(cfg.num_filters, 1)
        day_vecs.append(text.concat_rows(Matrix.column(day.features)))

    if model.arch is ArchKind.CNN_ONLY:
        acc = np.zeros_like(day_vecs[0].data)
        for v in day_vecs:
            acc += v.data
        ctx = Matrix._wrap(acc / len(day_vecs))
    else:
        h = Matrix.zeros(cfg.gru_hidden, 1)
        hiddens = []
        for v in day_vecs:
            h, _ = gru_step(model.gru, h, v)
            hiddens.append(h)
        if model.attention is not None:
            ctx, _, _ = attention_pool(model.attention, hiddens)
        else:
            ctx = hiddens[-1]
    return dense_forward(model.head_reg, ctx).item(), dense_forward(model.head_cls, ctx)


class TestModelBackward:
    def test_gradient_names_match_parameters(self):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            sample = make_sample(TINY, seed=11)
            _, _, cache = model_forward(model, sample)
            grads = model_backward(model, cache, sample.target_return,
                                   sample.target_class)
            assert grads.keys() == model.tensors.keys(), arch

    def test_pure_mse_zeroes_classification_head(self):
        import dataclasses
        cfg = dataclasses.replace(TINY, mse_weight=1.0)
        model = build_model(cfg, ArchKind.CNN_GRU)
        sample = make_sample(cfg, seed=12)
        _, _, cache = model_forward(model, sample)
        grads = model_backward(model, cache, sample.target_return, sample.target_class)
        assert np.all(grads["head_cls/w"].data == 0.0)
        assert np.all(grads["head_cls/b"].data == 0.0)
        assert np.any(grads["head_reg/w"].data != 0.0)

    def test_pure_ce_zeroes_regression_head(self):
        import dataclasses
        cfg = dataclasses.replace(TINY, mse_weight=0.0)
        model = build_model(cfg, ArchKind.CNN_GRU)
        sample = make_sample(cfg, seed=13)
        _, _, cache = model_forward(model, sample)
        grads = model_backward(model, cache, sample.target_return, sample.target_class)
        assert np.all(grads["head_reg/w"].data == 0.0)
        assert np.all(grads["head_reg/b"].data == 0.0)
        assert np.any(grads["head_cls/w"].data != 0.0)

    def test_embedding_pad_row_gradient_is_zero(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        sample = make_sample(TINY, seed=14)
        _, _, cache = model_forward(model, sample)
        grads = model_backward(model, cache, sample.target_return, sample.target_class)
        assert np.all(grads["embedding"].data[0, :] == 0.0)


# overlapping conv windows (stride < width) and an unused last token position
BATCHED = ModelConfig(
    vocab_size=15, embed_dim=4, num_filters=3, kernel_width=3, conv_stride=2,
    gru_hidden=5, window=4, max_doc_len=8, seed=1,
)


def shared_day_windows(cfg: ModelConfig, n_days: int, seed: int) -> list[WindowSample]:
    """Sliding windows over one day list: consecutive windows share days, and
    every other window holds its own copies of them, as a loaded dataset does.

    Every fourth day has no text, documents run past max_doc_len, and one day
    holds only pad tokens (no text left for the mean-embedding encoder).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    days = []
    for t in range(n_days):
        has_text = t % 4 != 1
        seqs = []
        if has_text:
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(0, cfg.max_doc_len + 5))
                seqs.append([int(v) for v in rng.integers(0, cfg.vocab_size, size=n)])
        if t == 2:
            seqs = [[0, 0]]
        days.append(AlignedDay(
            date=dt.date(2024, 1, 1) + dt.timedelta(days=t), raw=(0.0, 0.0, 0.0, 0.0),
            token_seqs=seqs, label=0, close=100.0,
            features=tuple(rng.standard_normal(5).tolist()),
        ))
    samples = []
    for start in range(n_days - cfg.window + 1):
        inputs = days[start : start + cfg.window]
        if start % 2:
            inputs = [dataclasses.replace(d, token_seqs=[list(q) for q in d.token_seqs])
                      for d in inputs]
        samples.append(WindowSample(
            inputs=inputs, target_date=inputs[-1].date + dt.timedelta(days=1),
            target_class=int(rng.integers(0, 3)), target_return_raw=0.01,
            target_close=101.0, target_return=float(rng.standard_normal()),
        ))
    return samples


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation relative to the tensor's largest magnitude."""
    scale = float(np.abs(want).max())
    return float(np.abs(got - want).max()) / scale if scale else float(np.abs(got).max())


# documents far shorter than max_doc_len: most conv windows see only padding
SHORT = ModelConfig(
    vocab_size=15, embed_dim=4, num_filters=3, kernel_width=3, conv_stride=3,
    gru_hidden=5, window=4, max_doc_len=20, seed=2,
)


def short_doc_windows(cfg: ModelConfig, lengths: list[int], seed: int) -> list[WindowSample]:
    """Sliding windows over a textless day, a day of one all-pad document, and
    then one day per two documents of the given lengths (no pad id inside)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    docs = [[int(v) for v in rng.integers(2, cfg.vocab_size, size=n)] for n in lengths]
    texts = [[], [[0, 0]]] + [docs[i : i + 2] for i in range(0, len(docs), 2)]
    days = [AlignedDay(
        date=dt.date(2024, 1, 1) + dt.timedelta(days=t), raw=(0.0, 0.0, 0.0, 0.0),
        token_seqs=seqs, label=0, close=100.0,
        features=tuple(rng.standard_normal(5).tolist()),
    ) for t, seqs in enumerate(texts)]
    return [WindowSample(
        inputs=days[start : start + cfg.window],
        target_date=days[start + cfg.window - 1].date + dt.timedelta(days=1),
        target_class=int(rng.integers(0, 3)), target_return_raw=0.01,
        target_close=101.0, target_return=float(rng.standard_normal()),
    ) for start in range(len(days) - cfg.window + 1)]


def full_grid_encode(model, ids):
    """Pooled ReLU outputs and winners over every conv window of max_doc_len,
    in _conv_encode's arithmetic: per-token filter responses at each window
    position, summed over a window's positions in order."""
    cfg = model.cfg
    width, n_filters = cfg.kernel_width, cfg.num_filters
    # the day table stores only the columns the kept windows read
    ids = np.pad(ids, ((0, 0), (0, cfg.max_doc_len - ids.shape[1])))
    out_len = (cfg.max_doc_len - cfg.kernel_width) // cfg.conv_stride + 1
    windows = (np.arange(out_len) * cfg.conv_stride)[:, None] + np.arange(width)
    tokens, inverse = np.unique(np.append(ids[:, windows], 0), return_inverse=True)
    tok = inverse[:-1].reshape(len(ids), out_len, width)
    regrouped = model.conv.kernel.data.reshape(width, cfg.embed_dim, n_filters).transpose(
        1, 0, 2).reshape(cfg.embed_dim, width * n_filters)
    proj = (model.embedding.table.data[tokens] @ regrouped).reshape(len(tokens), width, -1)
    act = proj[tok[..., 0], 0]
    for k in range(1, width):
        act = act + proj[tok[..., k], k]
    act = np.maximum(act, 0.0)
    win = np.argmax(act, axis=1)
    return np.take_along_axis(act, win[:, None, :], axis=1)[:, 0], win


class TestBatchedCore:
    """batch_forward/batch_backward against the per-window model_forward/model_backward."""

    def check(self, model, samples):
        cache = batch_forward(model, samples)
        want = {name: np.zeros_like(p) for name, p in model.tensors.items()}
        for b, sample in enumerate(samples):
            pred, logits, per_cache = model_forward(model, sample)
            assert rel_err(cache.pred[b : b + 1], np.array([pred])) <= 1e-10
            assert rel_err(cache.logits[b], logits.data[:, 0]) <= 1e-10
            grads = model_backward(model, per_cache, sample.target_return,
                                   sample.target_class)
            for name, g in grads.items():
                want[name] += g.data
        got = param_views(model, batch_backward(
            model, cache, np.array([s.target_return for s in samples]),
            np.array([s.target_class for s in samples])))
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape, name
            assert rel_err(got[name], want[name]) <= 1e-10, name

    @pytest.mark.parametrize("arch", list(ArchKind))
    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("chunk", [model_mod.CHUNK_VALUES, 27])
    def test_matches_summed_per_window_passes(self, arch, attention, chunk, monkeypatch):
        # 27 values make chunks of three documents (3 windows x 3 filters each)
        monkeypatch.setattr(model_mod, "CHUNK_VALUES", chunk)
        cfg = dataclasses.replace(BATCHED, attention_enabled=attention)
        self.check(build_model(cfg, arch), shared_day_windows(cfg, 11, seed=4))

    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_reads_no_container(self, arch, attention):
        # the batched core reads model.tensors; the six containers are the
        # per-window reference's
        cfg = dataclasses.replace(BATCHED, attention_enabled=attention)
        samples = shared_day_windows(cfg, 11, seed=4)
        table = day_table(cfg, samples)
        returns = np.array([s.target_return for s in samples])
        classes = np.array([s.target_class for s in samples])
        outputs = []
        for bare in (False, True):
            model = build_model(cfg, arch)
            if bare:
                for part in ("embedding", "conv", "gru", "attention", "head_reg", "head_cls"):
                    setattr(model, part, None)
            cache = table_forward(model, table, np.arange(len(samples)))
            grads = batch_backward(model, cache, returns, classes)
            outputs.append((cache.pred.tobytes(), cache.logits.tobytes(), grads.tobytes()))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("arch", list(ArchKind))
    def test_batch_of_one(self, arch):
        self.check(build_model(BATCHED, arch), shared_day_windows(BATCHED, 4, seed=5))

    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_per_cell_arrays_are_time_major(self, arch, attention):
        # T 4, B 6, h 5 and a 7: no axis can stand in for another
        cfg = dataclasses.replace(BATCHED, attention_enabled=attention, attn_size=7)
        table = day_table(cfg, shared_day_windows(cfg, 11, seed=4))
        index = np.array([7, 0, 3, 5, 1, 6])
        cache = table_forward(build_model(cfg, arch), table, index)
        t_len, b, h = cfg.window, len(index), cfg.gru_hidden
        days = table.windows[index].T  # (T, B) day rows
        assert cache.day_index.shape == (t_len, b)
        # one batch row per table text row, and row U for the days without text
        texts = table.text[days]
        pairs = set(zip(texts.ravel(), cache.day_index.ravel()))
        assert len(pairs) == len(set(texts.ravel())) == len(set(cache.day_index.ravel()))
        assert ((cache.day_index == len(cache.vecs) - 1) == (texts < 0)).all()
        assert cache.feats.tobytes() == table.features[days].tobytes()
        if arch is ArchKind.CNN_ONLY:
            assert cache.gru is None and cache.attn is None
            return
        # feature-major within each step: every step's slice is one
        # contiguous (features, B) block
        zr, cand, hid = cache.gru
        assert [s.shape for s in cache.gru] == [(t_len, 2 * h, b), (t_len, h, b),
                                                (t_len + 1, h, b)]
        steps = [*zr, *cand, *hid]
        if attention:
            acts, alpha = cache.attn
            assert acts.shape == (t_len, 7, b) and alpha.shape == (t_len, b)
            np.testing.assert_allclose(alpha.sum(axis=0), 1.0)
            steps += list(acts)
        else:
            assert cache.attn is None
            assert np.shares_memory(cache.ctx, hid) and (cache.ctx == hid[-1].T).all()
        assert all(step.flags.c_contiguous for step in steps)
        assert cache.ctx.shape == (b, h)

    def test_shared_days_are_encoded_once(self):
        samples = shared_day_windows(BATCHED, 11, seed=4)
        cache = batch_forward(build_model(BATCHED, ArchKind.CNN_GRU), samples)
        text_days = {d.date for s in samples for d in s.inputs if d.has_text}
        assert len(cache.counts) == len(text_days)

    # with width 3: at stride 3 the 6-token document ends where window 2
    # starts and the 7-token one puts its last token at that window's start;
    # at stride 2 the 5-token document's last token starts window 2
    @pytest.mark.parametrize("stride, lengths, kept", [
        (3, [1, 6, 2, 4, 3, 2], 2),
        (3, [7, 1, 5, 2, 3, 6], 3),
        (2, [4, 1, 3, 2, 5, 2], 3),
    ], ids=["stride 3, ends on a boundary", "stride 3, starts a window",
            "stride 2"])
    @pytest.mark.parametrize("arch", list(ArchKind))
    @pytest.mark.parametrize("chunk", [model_mod.CHUNK_VALUES, 27])
    def test_short_documents_match_summed_per_window_passes(self, stride, lengths, kept,
                                                           arch, chunk, monkeypatch):
        monkeypatch.setattr(model_mod, "CHUNK_VALUES", chunk)
        cfg = dataclasses.replace(SHORT, conv_stride=stride)
        samples = short_doc_windows(cfg, lengths, seed=6)
        model = build_model(cfg, arch)
        self.check(model, samples)
        if arch is not ArchKind.GRU_ONLY:
            cache = batch_forward(model, samples)
            assert len(model_mod._conv_plan(model, cache.ids)[0]) == kept

    # the longest document (of 1 to 13 tokens, cut at max_doc_len) ends past
    # the last window that starts in it where kernel_width < conv_stride
    @pytest.mark.parametrize("width, stride, max_doc_len", [
        (2, 3, 9), (1, 4, 11), (2, 5, 20), (3, 3, 20), (3, 1, 20), (3, 2, 20),
    ])
    @pytest.mark.parametrize("arch", list(ArchKind))
    def test_documents_of_every_length_match_summed_per_window_passes(
            self, width, stride, max_doc_len, arch):
        cfg = dataclasses.replace(SHORT, kernel_width=width, conv_stride=stride,
                                  max_doc_len=max_doc_len)
        samples = short_doc_windows(cfg, [7, 1, 13, 4, 10, 2, 12, 5, 9, 3, 11, 6, 8], seed=10)
        assert day_table(cfg, samples).docs.shape[1] >= min(13, max_doc_len)
        self.check(build_model(cfg, arch), samples)

    def test_all_pad_batch_runs_one_window(self):
        cfg = dataclasses.replace(SHORT, window=2)
        samples = short_doc_windows(cfg, [], seed=7)  # a textless day, an all-pad day
        model = build_model(cfg, ArchKind.CNN_GRU)
        self.check(model, samples)
        assert len(model_mod._conv_plan(model, batch_forward(model, samples).ids)[0]) == 1

    @pytest.mark.parametrize("stride", [2, 3])
    def test_conv_encode_equals_full_grid_bit_for_bit(self, stride):
        cfg = dataclasses.replace(SHORT, conv_stride=stride)
        model = build_model(cfg, ArchKind.CNN_GRU)
        ids = batch_forward(model, short_doc_windows(cfg, [1, 6, 2, 4, 3, 7], seed=8)).ids
        pooled, winners = model_mod._conv_encode(model, ids, model_mod._conv_plan(model, ids),
                                                 Workspace())
        want_pooled, want_winners = full_grid_encode(model, ids)
        assert pooled.tobytes() == want_pooled.tobytes()
        assert winners.tobytes() == want_winners.tobytes()

    def test_bad_window_rejected(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        with pytest.raises(ShapeError):
            batch_forward(model, [make_sample(dataclasses.replace(TINY, window=4), seed=8)])


class TestDayTable:
    def test_rows_per_day_object_and_per_text(self):
        first = shared_day_windows(BATCHED, 4, seed=4)[0]
        d0, d1, d2, d3 = first.inputs  # d1 has no text, d2 only pad tokens
        copy = dataclasses.replace(d0, token_seqs=[list(q) for q in d0.token_seqs])
        twin = dataclasses.replace(d3, date=d3.date + dt.timedelta(days=1),
                                   token_seqs=[list(q) for q in d0.token_seqs])
        samples = [first, dataclasses.replace(first, inputs=[d1, d2, d3, twin]),
                   dataclasses.replace(first, inputs=[copy, d1, d2, d3])]
        table = day_table(BATCHED, samples)
        assert len(table.features) == len(table.text) == 6  # d0..d3, twin, copy
        rows = dict(zip(map(id, [d0, d1, d2, d3, twin, copy]), range(6)))
        for sample, row in zip(samples, table.windows):
            assert list(row) == [rows[id(d)] for d in sample.inputs]
        for day in (d0, d1, d2, d3, twin, copy):
            assert (table.features[rows[id(day)]].tobytes()
                    == np.array(day.features).tobytes())
        # copy and twin share d0's text row; d1 has none
        assert list(table.text) == [0, -1, 1, 2, 0, 0]
        assert list(table.doc_start) == list(np.cumsum(
            [0] + [len(d.token_seqs) for d in (d0, d2, d3)]))
        for doc, seq in zip(table.docs[: len(d0.token_seqs)], d0.token_seqs):
            seq = seq[: BATCHED.max_doc_len]
            assert list(doc) == [*seq, *[0] * (BATCHED.max_doc_len - len(seq))]

    @pytest.mark.parametrize("arch", list(ArchKind))
    def test_table_rows_equal_batch_forward_bit_for_bit(self, arch):
        model = build_model(BATCHED, arch)
        samples = shared_day_windows(BATCHED, 11, seed=4)
        index = np.array([3, 0, 5])
        got = table_forward(model, day_table(BATCHED, samples), index)
        want = batch_forward(model, [samples[i] for i in index])
        for name in ("day_index", "ids", "seg", "counts", "vecs", "feats", "ctx", "pred",
                     "logits"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        returns = np.array([samples[i].target_return for i in index])
        classes = np.array([samples[i].target_class for i in index])
        got_g = batch_backward(model, got, returns, classes)
        want_g = batch_backward(model, want, returns, classes)
        assert got_g.shape == model.params.shape
        assert got_g.tobytes() == want_g.tobytes()

    @pytest.mark.parametrize("arch", list(ArchKind))
    def test_documents_stored_only_as_wide_as_the_windows_kept(self, arch):
        # the longest document has 9 ids, so the last window that can run
        # starts at 6 and ends at 9, whatever max_doc_len is. Few documents:
        # a table max_doc_len wide would take only a few MB.
        samples = short_doc_windows(SHORT, [5, 7, 3, 9, 2, 8], seed=9)
        returns = np.array([s.target_return for s in samples])
        classes = np.array([s.target_class for s in samples])
        outputs = []
        for max_doc_len in (30, 10**5):
            cfg = dataclasses.replace(SHORT, max_doc_len=max_doc_len)
            table = day_table(cfg, samples)
            assert table.docs.shape == (7, 9)
            model = build_model(cfg, arch)
            cache = table_forward(model, table, np.arange(len(samples)))
            grads = batch_backward(model, cache, returns, classes)
            outputs.append((cache.pred.tobytes(), cache.logits.tobytes(), grads.tobytes()))
        assert outputs[0] == outputs[1]
        textless = make_sample(TINY, seed=2, textless_days=range(TINY.window))
        assert day_table(TINY, [textless]).docs.shape == (0, TINY.kernel_width)

    @pytest.mark.parametrize("damage, message", [
        (lambda days: days[1:], "sample has 3 days, model expects 4"),
        (lambda days: (*days[:-1], dataclasses.replace(days[-1], token_seqs=[[2, 15]])),
         "token id 15 out of range for vocab of 15"),
    ], ids=["short window", "token id"])
    def test_bad_input_rejected_at_build(self, damage, message):
        samples = shared_day_windows(BATCHED, 6, seed=4)
        samples[2] = dataclasses.replace(samples[2], inputs=damage(samples[2].inputs))
        with pytest.raises(ShapeError, match=message):
            day_table(BATCHED, samples)


def by_first_appearance(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorting numbering _first_hits replaced, kept as its reference:
    (position of each distinct value's first appearance, in order of first
    appearance; each value's number in that order)."""
    _, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(first), dtype=np.intp)
    rank[by_first] = np.arange(len(first))
    return first[by_first], rank[inverse]


class TestSplitTables:
    """day_table keeps one table on each Split per text configuration."""

    @pytest.mark.parametrize("values", [[], [3, 3, 3, 3], [4, 0, 2, 1, 3],
                                        [2, 0, 2, 1, 0, 4, 1]],
                             ids=["empty", "all-equal", "all-distinct", "mixed"])
    def test_first_hits_number_as_by_first_appearance(self, values):
        values = np.array(values, dtype=np.intp)
        for got, want in zip(model_mod._first_hits(values, 5), by_first_appearance(values)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, n - 1), max_size=60))))
    def test_first_hits_on_drawn_values(self, drawn):
        n, values = drawn
        values = np.array(values, dtype=np.intp)
        for got, want in zip(model_mod._first_hits(values, n), by_first_appearance(values)):
            assert got.tobytes() == want.tobytes()

    def test_one_table_per_split_and_text_configuration(self):
        samples = shared_day_windows(BATCHED, 11, seed=4)
        split = Split(samples)
        table = day_table(BATCHED, split)
        # fields the table does not read share it; each text field gets its own
        same = dataclasses.replace(BATCHED, embed_dim=7, gru_hidden=2, seed=9,
                                   attention_enabled=False, mse_weight=0.1)
        assert day_table(BATCHED, split) is table and day_table(same, split) is table
        for change in ({"max_doc_len": 5}, {"kernel_width": 2}, {"conv_stride": 1},
                       {"vocab_size": 16}):
            other = day_table(dataclasses.replace(BATCHED, **change), split)
            assert other is not table, change
            assert day_table(dataclasses.replace(BATCHED, **change), split) is other
        assert len(split.tables) == 5
        short = day_table(dataclasses.replace(BATCHED, max_doc_len=5), split)
        assert short.docs.shape[1] == 5 and table.docs.shape[1] == 8
        # a list is built on every call, into the table the split keeps
        fresh = day_table(BATCHED, samples)
        assert fresh is not table and day_table(BATCHED, samples) is not fresh
        for f in dataclasses.fields(table):
            x, y = getattr(table, f.name), getattr(fresh, f.name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name

    # a value other than BATCHED's for every ModelConfig field; a field added to
    # ModelConfig without one fails the test below
    CHANGED = {"vocab_size": 16, "embed_dim": 7, "num_filters": 5, "kernel_width": 2,
               "conv_stride": 1, "gru_hidden": 2, "window": 5, "max_doc_len": 5,
               "attention_enabled": False, "attn_size": 3, "mse_weight": 0.1, "seed": 9}
    # the fields _build_table reads, which key a split's kept tables
    KEY = {"window", "max_doc_len", "kernel_width", "conv_stride", "vocab_size"}

    def test_kept_table_is_the_one_each_config_builds(self, monkeypatch):
        split = Split(shared_day_windows(BATCHED, 11, seed=4))
        table = day_table(BATCHED, split)
        builds = []
        build = model_mod._build_table
        monkeypatch.setattr(model_mod, "_build_table",
                            lambda cfg, samples: builds.append(cfg) or build(cfg, samples))
        for f in dataclasses.fields(ModelConfig):
            assert getattr(BATCHED, f.name) != self.CHANGED[f.name], f.name
            changed = dataclasses.replace(BATCHED, **{f.name: self.CHANGED[f.name]})
            if f.name in self.KEY:  # a new table; the window's, of 5 days, fails its check
                with contextlib.suppress(ShapeError):
                    assert day_table(changed, split) is not table, f.name
                assert builds[-1] == changed, f.name
                continue
            assert day_table(changed, split) is table, f.name
            fresh = build(changed, split)
            for array in dataclasses.fields(table):
                x, y = getattr(table, array.name), getattr(fresh, array.name)
                assert x.dtype == y.dtype and x.shape == y.shape, (f.name, array.name)
                assert x.tobytes() == y.tobytes(), (f.name, array.name)
        assert len(builds) == len(self.KEY)

    def test_checks_run_when_a_split_is_first_used(self):
        samples = shared_day_windows(BATCHED, 6, seed=4)
        samples[2] = dataclasses.replace(samples[2], inputs=samples[2].inputs[1:])
        split = Split(samples)
        for _ in range(2):
            with pytest.raises(ShapeError, match="sample has 3 days, model expects 4"):
                day_table(BATCHED, split)
        assert not split.tables

    @pytest.mark.parametrize("kind", [list, Split])
    def test_table_arrays_are_read_only(self, kind):
        samples = kind(shared_day_windows(BATCHED, 11, seed=4))
        table = day_table(BATCHED, samples)
        for f in dataclasses.fields(table):
            array = getattr(table, f.name)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        model = build_model(BATCHED, ArchKind.CNN_GRU)
        cache = table_forward(model, table, np.arange(3))
        cache.day_index[...] = 0  # what a batch gathers from the table is its own


def stale(ws: Workspace) -> Workspace:
    """ws with every buffer full of NaN, as an earlier, larger call may leave it."""
    for buf in ws._buffers.values():
        buf.fill(np.nan)
    return ws


class TestWorkspace:
    """table_forward and batch_backward on a reused Workspace."""

    def run(self, model, table, samples, index, ws):
        cache = table_forward(model, table, index, ws)
        returns = np.array([samples[i].target_return for i in index])
        classes = np.array([samples[i].target_class for i in index])
        return cache, batch_backward(model, cache, returns, classes, ws)

    def test_two_passes_share_the_states(self):
        model = build_model(BATCHED, ArchKind.CNN_GRU)
        samples = shared_day_windows(BATCHED, 11, seed=4)
        table, ws = day_table(BATCHED, samples), Workspace()
        first = table_forward(model, table, np.arange(6), ws)
        second = table_forward(model, table, np.arange(6), ws)
        assert np.shares_memory(first.gru[0], second.gru[0])

    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_narrower_batch_reuses_the_buffers_bit_for_bit(self, arch, attention):
        # a ragged last batch after a full one, with stale buffers: views of
        # the same buffers, and the same bits as a pass that allocates afresh
        cfg = dataclasses.replace(BATCHED, attention_enabled=attention)
        model = build_model(cfg, arch)
        samples = shared_day_windows(cfg, 60, seed=4)
        table, ws = day_table(cfg, samples), Workspace()
        index = np.random.default_rng(0).permutation(len(samples))
        full, full_grads = self.run(model, table, samples, index[:50], ws)
        ragged, grads = self.run(model, table, samples, index[50:2:-1], stale(ws))
        assert len(ragged.pred) == 48
        assert np.shares_memory(full.feats, ragged.feats)
        assert np.shares_memory(full_grads, grads)
        if full.gru is not None:
            assert np.shares_memory(full.gru[0], ragged.gru[0])
        fresh, fresh_grads = self.run(model, table, samples, index[50:2:-1], None)
        assert ragged.pred.tobytes() == fresh.pred.tobytes()
        assert ragged.logits.tobytes() == fresh.logits.tobytes()
        assert grads.tobytes() == fresh_grads.tobytes()

    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_no_workspace_never_aliases(self, arch):
        model = build_model(BATCHED, arch)
        samples = shared_day_windows(BATCHED, 11, seed=4)
        table = day_table(BATCHED, samples)
        (a, grads_a), (b, grads_b) = (self.run(model, table, samples, np.arange(6), None)
                                      for _ in range(2))
        assert not np.shares_memory(a.feats, b.feats)
        assert not np.shares_memory(grads_a, grads_b)
        if a.gru is not None:
            assert not any(np.shares_memory(p, q) for p, q in zip(a.gru, b.gru))


def attention_backward_reference(w_a, u, hid, acts, alpha, d_ctx):
    """(d_hid, d_w_a, d_u) as plain expressions on fresh arrays, in the
    operation order _attention_backward keeps: hid (T, h, B), acts (T, a, B)
    and alpha (T, B), and d_w_a and d_u summed step by step."""
    d_alpha = np.einsum("thb,bh->tb", hid, d_ctx)
    d_scores = alpha * (d_alpha - np.sum(d_alpha * alpha, axis=0, keepdims=True))
    d_act = d_scores[:, None, :] * u * (1.0 - acts * acts)
    d_w_a, d_u = d_act[0] @ hid[0].T, acts[0] @ d_scores[0][:, None]
    for t in range(1, len(hid)):
        d_w_a = d_w_a + d_act[t] @ hid[t].T
        d_u = d_u + acts[t] @ d_scores[t][:, None]
    return alpha[:, None, :] * d_ctx.T + w_a.T @ d_act, d_w_a, d_u


class TestKernelWorkspaces:
    """Each kernel that works in a workspace gives the same bits on a new one
    and on one that an earlier, larger call left full of NaN."""

    def workspace_after_a_larger_batch(self, model, table):
        ws = Workspace()
        cache = table_forward(model, table, np.arange(len(table.windows)), ws)
        n = len(cache.pred)
        batch_backward(model, cache, np.zeros(n), np.zeros(n, dtype=np.intp), ws)
        return stale(ws)

    @pytest.mark.parametrize("chunk", [model_mod.CHUNK_VALUES, 27])
    def test_conv(self, chunk, monkeypatch):
        monkeypatch.setattr(model_mod, "CHUNK_VALUES", chunk)
        model = build_model(BATCHED, ArchKind.CNN_GRU)
        table = day_table(BATCHED, shared_day_windows(BATCHED, 30, seed=4))
        cache = table_forward(model, table, np.arange(5))
        d_pooled = RNG.standard_normal(cache.pooled.shape)
        d_embed_before = RNG.standard_normal(model.tensors["embedding"].shape)
        outputs = []
        for ws in (Workspace(), self.workspace_after_a_larger_batch(model, table)):
            pooled, winners = model_mod._conv_encode(model, cache.ids, cache.plan, ws)
            d_embed = d_embed_before.copy()  # the gradient is added into it
            d_kernel = model_mod._conv_backward(model, types.SimpleNamespace(
                ids=cache.ids, plan=cache.plan, pooled=pooled, winners=winners),
                d_pooled, d_embed, ws)
            outputs.append([pooled.tobytes(), winners.tobytes(), d_kernel.tobytes(),
                            d_embed.tobytes()])
        assert outputs[0] == outputs[1]

    def test_attention_forward_equals_plain_loops(self):
        # weights a softmax over the T steps of u . tanh(W_a h_t), context sum_t a_t h_t
        model = build_model(BATCHED, ArchKind.CNN_GRU)
        table = day_table(BATCHED, shared_day_windows(BATCHED, 30, seed=4))
        hid = table_forward(model, table, np.arange(5)).gru[2][1:]  # (T, h, B)
        w_a, u = model.tensors["attn/w_a"], model.tensors["attn/u"][:, 0]
        n_steps, hidden, batch = hid.shape
        alpha, ctx = np.zeros((n_steps, batch)), np.zeros((batch, hidden))
        for b in range(batch):
            scores = [float(u @ np.tanh(w_a @ hid[t, :, b])) for t in range(n_steps)]
            top = max(scores)
            total = sum(math.exp(v - top) for v in scores)
            for t in range(n_steps):
                alpha[t, b] = math.exp(scores[t] - top) / total
                ctx[b] += alpha[t, b] * hid[t, :, b]
        for ws in (Workspace(), self.workspace_after_a_larger_batch(model, table)):
            acts, got_alpha, got_ctx = model_mod._attention_forward(w_a, u[:, None], hid, ws)
            assert acts.shape == (n_steps, len(w_a), batch)
            np.testing.assert_allclose(got_alpha, alpha, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(got_ctx, ctx, rtol=1e-12, atol=1e-15)

    def test_attention_backward_equals_plain_expressions(self):
        model = build_model(BATCHED, ArchKind.CNN_GRU)
        table = day_table(BATCHED, shared_day_windows(BATCHED, 30, seed=4))
        cache = table_forward(model, table, np.arange(5))
        t = model.tensors
        args = (t["attn/w_a"], t["attn/u"], cache.gru[2][1:], *cache.attn,
                RNG.standard_normal(cache.ctx.shape))
        want = [a.tobytes() for a in attention_backward_reference(*args)]
        for ws in (Workspace(), self.workspace_after_a_larger_batch(model, table)):
            assert [a.tobytes() for a in model_mod._attention_backward(*args, ws)] == want

    def test_row_sums(self):
        rows, values = np.tile([2, 0, 2, 1], 6), RNG.standard_normal((24, 5))
        ws = Workspace()
        model_mod._row_sums(np.arange(40) % 7, RNG.standard_normal((40, 5)), 7, ws)
        got = model_mod._row_sums(rows, values, 4, stale(ws))
        assert got.tobytes() == model_mod._row_sums(rows, values, 4, Workspace()).tobytes()

    @pytest.mark.parametrize("kind, decay", [("adam", 0.0), ("sgd", 0.01)])
    def test_optimizer(self, kind, decay):
        cfg = TrainConfig(optimizer=kind, lr=1e-2, weight_decay=decay)
        ws = Workspace()
        Optimizer(cfg, ws).apply(np.ones(40), np.ones(40))
        stale(ws)
        grads, steps = RNG.standard_normal((3, 24)), []
        for opt in (Optimizer(cfg), Optimizer(cfg, ws)):
            params = np.linspace(-1.0, 1.0, 24)
            for g in grads:
                opt.apply(params, g)
            steps.append(params.tobytes())
        assert steps[0] == steps[1]


class TestRowSums:
    """model._row_sums against np.add.at into zeros, bit for bit."""

    @pytest.mark.parametrize("rows, n_rows", [
        (np.tile([2, 0, 2, 2, 1, 0], 8), 4),
        (np.array([3, 3, 1]), 4),
        (np.array([], dtype=np.intp), 4),
    ], ids=["repeated rows", "unused rows", "empty index"])
    def test_equals_add_at(self, rows, n_rows):
        values = RNG.standard_normal((len(rows), 5)) * 10.0 ** RNG.integers(-8, 8, (len(rows), 1))
        want = np.zeros((n_rows, 5))
        np.add.at(want, rows, values)
        got = model_mod._row_sums(rows, values, n_rows, Workspace())
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_non_contiguous_values(self):
        # values that are not contiguous, as the CNN's broadcast day-vector gradient is
        d_x = RNG.standard_normal((3, 4, 7))
        day_index = RNG.integers(0, 5, (3, 4))
        want = np.zeros((5, 4))
        np.add.at(want, day_index.ravel(), d_x[:, :, :4].reshape(-1, 4))
        got = model_mod._row_sums(day_index, d_x[:, :, :4], 5, Workspace())
        assert got.tobytes() == want.tobytes()


def gru_weights(cfg: ModelConfig) -> int:
    """The number of GRU weights param_shapes gives a CNN+GRU model of cfg."""
    return sum(rows * cols for name, (rows, cols) in param_shapes(cfg, ArchKind.CNN_GRU).items()
               if name.startswith("gru/"))


class TestCountParams:
    """A GRU of h units over d inputs holds 3h(h + d) weights: d is a day
    vector, the pooled filters and the 5 market features."""

    def test_gru_closed_form_defaults(self):
        assert gru_weights(ModelConfig(vocab_size=50)) == 3 * 32 * (32 + 64 + 5) == 9696

    def test_gru_closed_form_minimal(self):
        cfg = ModelConfig(vocab_size=2, embed_dim=1, num_filters=1, kernel_width=1,
                          conv_stride=1, gru_hidden=1, max_doc_len=1)
        assert gru_weights(cfg) == 3 * 1 * (1 + 1 + 5)

    def test_lstm_ratio(self):
        for _ in range(20):
            h = int(RNG.integers(1, 200))
            d = int(RNG.integers(1, 200))
            lstm = 4 * h * (h + d + 5)
            cfg = ModelConfig(vocab_size=2, num_filters=d, gru_hidden=h)
            assert gru_weights(cfg) * 4 == lstm * 3

    def test_model_gru_tensors_sum_to_closed_form(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        got = sum(p.size for n, p in model.tensors.items() if n.startswith("gru/"))
        h = TINY.gru_hidden
        assert got == gru_weights(TINY) == 3 * h * (h + TINY.num_filters + 5)

    def test_count_matches_enumeration(self):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            want = sum(p.size for p in model.tensors.values())
            assert model.params.size == want

    def test_arch_ordering(self):
        full = build_model(TINY, ArchKind.CNN_GRU).params.size
        gru_only = build_model(TINY, ArchKind.GRU_ONLY).params.size
        assert full > gru_only > 0


class TestFlatParams:
    def test_layout_is_named_order_raveled(self):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            flat = model.params
            size = sum(rows * cols for rows, cols in param_shapes(TINY, arch).values())
            assert flat.dtype == np.float64 and flat.shape == (size,)
            want = np.concatenate([p.ravel() for p in model.tensors.values()])
            assert flat.tobytes() == want.tobytes(), arch
            assert np.shares_memory(model.embedding.table.data, flat), arch
            assert np.shares_memory(model.head_cls.b.data, flat), arch
            for p in model.tensors.values():
                assert np.shares_memory(flat, p)

    def test_views_round_trip_and_see_writes(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        flat = model.params.copy()
        viewed = CnnGruModel(TINY, ArchKind.CNN_GRU, flat)
        a, b = model.tensors, viewed.tensors
        assert a.keys() == b.keys()
        for n in a:
            assert np.array_equal(a[n], b[n]), n
            assert np.shares_memory(b[n], flat), n
            assert not b[n].flags.writeable, n
        assert not viewed.params.flags.writeable and not model.params.flags.writeable
        flat[-1] += 1.0  # the last value is head_cls/b's last entry
        assert viewed.tensors["head_cls/b"][-1, 0] == flat[-1]
        assert viewed.head_cls.b.data[-1, 0] == flat[-1]
        assert model.tensors["head_cls/b"][-1, 0] == flat[-1] - 1.0

    def test_wrong_length_or_dtype_rejected(self):
        flat = build_model(TINY, ArchKind.CNN_GRU).params
        for bad in (flat[:-1], np.append(flat, 0.0), flat.astype(np.float32),
                    flat.reshape(1, -1), np.repeat(flat, 2)[::2]):
            with pytest.raises(ShapeError):
                CnnGruModel(TINY, ArchKind.CNN_GRU, bad)

    def test_nonzero_pad_row_rejected(self):
        flat = build_model(TINY, ArchKind.CNN_GRU).params.copy()
        flat[0] = 0.5  # embedding comes first; its row 0 is the pad row
        with pytest.raises(ShapeError, match="pad token"):
            CnnGruModel(TINY, ArchKind.CNN_GRU, flat)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            path = tmp_path / f"{arch.value}.ckpt.json"
            save_checkpoint(model, path)
            again = load_checkpoint(path)
            assert again.arch == model.arch
            assert again.cfg == model.cfg
            a, b = model.tensors, again.tensors
            assert a.keys() == b.keys()
            for n in a:
                assert np.array_equal(a[n], b[n]), n

    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_bytes_are_json_dumps_of_the_object(self, tmp_path, arch):
        flat = build_model(TINY, arch).params.copy()
        flat[TINY.vocab_size * TINY.embed_dim :] = RNG.standard_normal(
            len(flat) - TINY.vocab_size * TINY.embed_dim) * 10.0 ** RNG.integers(-300, 300)
        model = CnnGruModel(TINY, arch, flat)
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(model, path)
        obj = {"format_version": model_mod.CHECKPOINT_FORMAT_VERSION, "arch": arch.value,
               "config": TINY.to_dict(),
               "tensors": {n: list(s) for n, s in param_shapes(TINY, arch).items()}}
        set_payload(obj, flat)
        assert path.read_bytes() == (json.dumps(obj) + "\n").encode("utf-8")

    def test_threads_saving_to_one_path_never_collide(self, tmp_path):
        models = [build_model(TINY, ArchKind.CNN_GRU),
                  build_model(dataclasses.replace(TINY, seed=4), ArchKind.CNN_GRU)]
        path = tmp_path / "m.ckpt.json"
        start, errors = threading.Barrier(len(models), timeout=60), []

        def save_30(model):
            start.wait()
            try:
                for _ in range(30):
                    save_checkpoint(model, path)
            except Exception as exc:  # each call must succeed
                errors.append(exc)

        threads = [threading.Thread(target=save_30, args=(m,)) for m in models]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert load_checkpoint(path).params.tobytes() in {m.params.tobytes() for m in models}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt.json"]

    def test_round_trip_forward_identical(self, tmp_path):
        model = build_model(TINY, ArchKind.CNN_GRU)
        sample = make_sample(TINY, seed=15)
        pred1, logits1, _ = model_forward(model, sample)
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(model, path)
        pred2, logits2, _ = model_forward(load_checkpoint(path), sample)
        assert pred1 == pred2
        assert logits1 == logits2

    def _saved(self, tmp_path):
        model = build_model(TINY, ArchKind.CNN_GRU)
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(model, path)
        return path

    @pytest.mark.parametrize("edit, tensor", [({"vocab_size": 10**9}, "embedding"),
                                              ({"embed_dim": 10**6}, "embedding"),
                                              ({"attn_size": 10**7}, "attn/w_a")],
                             ids=["vocab_size", "embed_dim", "attn_size"])
    def test_config_checked_against_the_index_before_any_tensor_is_built(
            self, tmp_path, monkeypatch, edit, tensor):
        # each size asks for gigabytes; building first would fail this test at once
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["config"].update(edit)
        path.write_text(json.dumps(obj))
        monkeypatch.setattr(model_mod, "build_model",
                            lambda *args: pytest.fail("built before the index was checked"))
        with pytest.raises(CheckpointError, match=f"{path.name}: tensor {tensor} has shape"):
            load_checkpoint(path)

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        # the model is built over the decoded payload, not over a seeded build
        path = self._saved(tmp_path)
        want = load_checkpoint(path).params.tobytes()

        def refuse(*args):
            raise AssertionError("load_checkpoint drew or built a model")
        monkeypatch.setattr(model_mod, "build_model", refuse)
        monkeypatch.setattr(layers_mod, "uniform_init", refuse)
        assert load_checkpoint(path).params.tobytes() == want

    def test_truncated_file_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_edited_version_rejected_naming_version(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="99"):
            load_checkpoint(path)

    def test_missing_tensor_rejected_by_name(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        del obj["tensors"]["gru/w_z"]
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="gru/w_z"):
            load_checkpoint(path)

    def test_extra_tensor_rejected_by_name(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["tensors"]["mystery"] = [1, 1]
        set_payload(obj, np.append(payload(obj), 0.0))
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="mystery"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [[2], [1, 2, 3], "1x2", {"rows": 1, "cols": 2}],
                             ids=["one-dim", "three-dims", "string", "format-2-entry"])
    def test_malformed_index_entry_rejected_by_name(self, tmp_path, entry):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["tensors"]["head_reg/w"] = entry
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError,
                           match=rf"{path.name}: tensor head_reg/w has shape .*, expected \(1, 2\)"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected_by_name(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        rows, cols = obj["tensors"]["head_reg/w"]
        obj["tensors"]["head_reg/w"] = [rows, cols - 1]
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError,
                           match=rf"head_reg/w has shape \({rows}, {cols - 1}\), "
                                 rf"expected \({rows}, {cols}\)"):
            load_checkpoint(path)

    def test_consistent_wrong_shape_rejected_naming_file_and_tensor(self, tmp_path):
        # index and payload agree on a (2, 1) bias; the model wants (1, 1)
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        at = offsets(obj)["head_reg/b"].stop
        obj["tensors"]["head_reg/b"] = [2, 1]
        set_payload(obj, np.insert(payload(obj), at, 0.0))
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError,
                           match=rf"{path.name}.*head_reg/b has shape \(2, 1\), expected \(1, 1\)"):
            load_checkpoint(path)

    def test_reordered_index_rejected(self, tmp_path):
        # gru/w_z and gru/w_r share a shape: read in the listed order, their
        # payload spans would load swapped without an error
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        names = list(obj["tensors"])
        a, b = names.index("gru/w_z"), names.index("gru/w_r")
        names[a], names[b] = names[b], names[a]
        obj["tensors"] = {name: obj["tensors"][name] for name in names}
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match=f"{path.name}: tensors listed as .*gru/w_r"):
            load_checkpoint(path)

    def test_tensors_not_an_object_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["tensors"] = [obj["tensors"]["embedding"]]
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="tensors must be a json object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected_naming_file_and_tensor(self, tmp_path, value):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        flat = payload(obj)
        flat[offsets(obj)["head_reg/b"]] = value
        set_payload(obj, flat)
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError,
                           match=f"{path.name}: tensor head_reg/b contains non-finite values"):
            load_checkpoint(path)

    def test_non_finite_save_rejected_naming_the_first_tensor(self, tmp_path):
        model = build_model(TINY, ArchKind.CNN_GRU)
        spans = offsets(json.loads(self._saved(tmp_path).read_text()))
        flat = model.params.copy()
        flat[spans["gru/w"].start + 1] = float("nan")
        flat[-1] = float("inf")  # head_cls/b: a later tensor
        path = tmp_path / "bad.ckpt.json"
        with pytest.raises(CheckpointError, match="tensor gru/w contains non-finite values"):
            save_checkpoint(CnnGruModel(TINY, ArchKind.CNN_GRU, flat), path)
        assert not path.exists()

    def test_out_of_range_config_rejected_naming_file_and_key(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["config"]["embed_dim"] = 0
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match=f"{path.name}.*embed_dim must be positive"):
            load_checkpoint(path)

    @pytest.mark.parametrize("config_edit, message", [
        ({"embed_dim": 3.0}, "embed_dim must be an integer, got 3.0"),
        ({"vocab_size": "12"}, 'vocab_size must be an integer, got "12"'),
        ({"attention_enabled": 1}, "attention_enabled must be true or false, got 1"),
        ({"seed": True}, "seed must be an integer, got true"),
        ({"mse_weight": None}, "mse_weight must be a number, got null"),
        ({"mystery": 1}, r"unknown keys \['mystery'\]"),
    ], ids=lambda v: next(iter(v)) if isinstance(v, dict) else None)
    def test_mistyped_config_rejected_naming_file_key_and_type(self, tmp_path, config_edit,
                                                               message):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["config"].update(config_edit)
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError,
                           match=rf"bad config block in .*{path.name}: {message}"):
            load_checkpoint(path)

    def test_int_for_a_float_and_null_for_an_optional_config_accepted(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["config"].update(mse_weight=1, attn_size=None)
        path.write_text(json.dumps(obj))
        cfg = load_checkpoint(path).cfg
        assert cfg.mse_weight == 1 and cfg.attention_size == TINY.gru_hidden

    def test_nonzero_pad_embedding_rejected_naming_file_and_tensor(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        flat = payload(obj)
        flat[1] = 0.5  # embedding row 0, column 1
        set_payload(obj, flat)
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match=f"{path.name}.*embedding row 0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("values, message", [
        ([0.0, 1.0], "values must be a string, got [0.0, 1.0]"),
        (5, "values must be a string, got 5"),
        (None, "values must be a string, got null"),
        ("not base64!", "values must be a base64 string"),
        ("AAAA AAAA", "values must be a base64 string"),
    ], ids=["float-list", "number", "null", "bad-chars", "whitespace"])
    def test_values_not_a_base64_string_rejected(self, tmp_path, values, message):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["values"] = values
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match=f"{path.name}: {re.escape(message)}"):
            load_checkpoint(path)

    def test_missing_values_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        del obj["values"]
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="missing key 'values'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [-8, 8], ids=["short", "long"])
    def test_payload_byte_count_checked(self, tmp_path, extra):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        raw = base64.b64decode(obj["values"])
        n = len(raw) // 8
        bad = (raw + bytes(8))[: len(raw) + extra]
        obj["values"] = base64.b64encode(bad).decode("ascii")
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError,
                           match=rf"{path.name}: values hold {len(bad)} bytes, "
                                 rf"expected {8 * n} \({n} float64 values\)"):
            load_checkpoint(path)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_round_trip_is_bit_exact_for_edge_values(self, tmp_path_factory, data):
        model = build_model(TINY, ArchKind.CNN_GRU)
        edges = [-0.0, 0.0, 5e-324, -5e-324, sys.float_info.min / 2, -sys.float_info.min / 3,
                 sys.float_info.max, -sys.float_info.max, sys.float_info.min]
        pad = TINY.embed_dim  # embedding row 0 must compare equal to zero
        values = data.draw(st.lists(
            st.one_of(st.sampled_from(edges), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=model.params.size - pad, max_size=model.params.size - pad))
        zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=pad, max_size=pad))
        flat = np.array(zeros + values, dtype=np.float64)
        path = tmp_path_factory.mktemp("edge") / "m.ckpt.json"
        save_checkpoint(CnnGruModel(TINY, ArchKind.CNN_GRU, flat), path)
        assert load_checkpoint(path).params.tobytes() == flat.tobytes()

    def test_golden_file_loads_to_pinned_parameters_and_resaves_byte_for_byte(self, tmp_path):
        """tests/fixtures/tiny.ckpt.json is save_checkpoint(build_model(TINY,
        ArchKind.CNN_GRU)); a change to the format must change this test too."""
        model = load_checkpoint(GOLDEN)
        assert model.cfg == TINY and model.arch is ArchKind.CNN_GRU
        assert hashlib.sha256(model.params.tobytes()).hexdigest() == GOLDEN_SHA256
        again = tmp_path / "again.ckpt.json"
        save_checkpoint(model, again)
        assert again.read_bytes() == GOLDEN.read_bytes()

    def test_default_model_file_is_at_most_55_percent_of_json_floats(self, tmp_path):
        # the format-2 body: every value as its shortest repr in nested lists
        model = build_model(ModelConfig(vocab_size=400), ArchKind.CNN_GRU)
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(model, path)
        lists = json.dumps({name: {"rows": t.shape[0], "cols": t.shape[1], "values": t.tolist()}
                            for name, t in model.tensors.items()})
        assert path.stat().st_size <= 0.55 * len(lists)
