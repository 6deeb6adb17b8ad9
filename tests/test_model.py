"""Model assembly: shapes, determinism, composition oracle, batched core, checkpoints."""

import dataclasses
import datetime as dt
import json

import numpy as np
import pytest

from sentirisk.data import AlignedDay, WindowSample
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
from sentirisk import model as model_mod
from sentirisk.model import (
    ArchKind,
    ModelConfig,
    batch_backward,
    batch_forward,
    build_model,
    count_params,
    day_table,
    gru_param_count,
    load_checkpoint,
    model_backward,
    model_forward,
    named_params,
    save_checkpoint,
    set_named_params,
    table_forward,
)

RNG = np.random.Generator(np.random.PCG64(202))

TINY = ModelConfig(
    vocab_size=12, embed_dim=3, num_filters=2, kernel_width=2, conv_stride=1,
    gru_hidden=2, window=3, max_doc_len=4, attention_enabled=True, seed=3,
)


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
            has_text=has_text,
            close=100.0,
            features=Matrix._wrap(rng.standard_normal((5, 1))),
        ))
    return WindowSample(
        inputs=days,
        target_date=days[-1].date + dt.timedelta(days=1),
        target_class=int(rng.integers(0, 3)),
        target_return_raw=0.01,
        target_close=101.0,
        prev_close=100.0,
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

    def test_gru_only_has_zero_conv_parameters(self):
        model = build_model(TINY, ArchKind.GRU_ONLY)
        assert model.conv is None
        assert not any(name.startswith("conv/") for name in named_params(model))

    @pytest.mark.parametrize("cfg", [TINY, ModelConfig(vocab_size=50)], ids=["tiny", "default"])
    def test_conv_kernel_columns_are_the_sequential_filter_draws(self, cfg):
        # the init order of the per-filter kernels this matrix replaced: the
        # embedding, one (width, embed) draw per filter, then the GRU; seeded
        # builds and training runs stay bit-identical only while it holds
        model = build_model(cfg, ArchKind.CNN_GRU)
        params = named_params(model)
        assert [n for n in params if n.startswith("conv/")] == ["conv/k"]
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        s_emb = np.sqrt(6.0 / (2 * cfg.embed_dim))
        rng.uniform(-s_emb, s_emb, size=(cfg.vocab_size, cfg.embed_dim))
        fan_in = cfg.kernel_width * cfg.embed_dim
        s = np.sqrt(6.0 / (fan_in + cfg.num_filters))
        kernel = params["conv/k"].data
        assert kernel.shape == (fan_in, cfg.num_filters)
        for f in range(cfg.num_filters):
            draw = rng.uniform(-s, s, size=(cfg.kernel_width, cfg.embed_dim))
            assert np.array_equal(kernel[:, f], draw.ravel()), f
        cols = cfg.gru_hidden + model.day_vec_size
        s_gru = np.sqrt(6.0 / (cols + cfg.gru_hidden))
        assert np.array_equal(params["gru/w_z"].data,
                              rng.uniform(-s_gru, s_gru, size=(cfg.gru_hidden, cols)))

    def test_cnn_only_has_no_gru_tensors(self):
        model = build_model(TINY, ArchKind.CNN_ONLY)
        assert model.gru is None
        assert model.attention is None
        assert not any(name.startswith(("gru/", "attn/")) for name in named_params(model))

    def test_same_seed_is_bitwise_identical(self):
        a = named_params(build_model(TINY, ArchKind.CNN_GRU))
        b = named_params(build_model(TINY, ArchKind.CNN_GRU))
        assert a.keys() == b.keys()
        for name in a:
            assert a[name] == b[name], name

    def test_different_seed_differs(self):
        import dataclasses
        a = named_params(build_model(TINY, ArchKind.CNN_GRU))
        b = named_params(build_model(dataclasses.replace(TINY, seed=4), ArchKind.CNN_GRU))
        assert any(a[n] != b[n] for n in a)

    def test_param_ordering_is_stable(self):
        names = list(named_params(build_model(TINY, ArchKind.CNN_GRU)))
        assert names[0] == "embedding"
        assert names[-4:] == ["head_reg/w", "head_reg/b", "head_cls/w", "head_cls/b"]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=12, embed_dim=0)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=12, mse_weight=2.0)


class TestModelForward:
    def test_zero_parameters_output_head_biases(self):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            params = named_params(model)
            bias_reg = Matrix.column([0.7])
            bias_cls = Matrix.column([0.1, -0.2, 0.3])
            zeroed = {n: Matrix.zeros(p.rows, p.cols) for n, p in params.items()}
            zeroed["head_reg/b"] = bias_reg
            zeroed["head_cls/b"] = bias_cls
            model = set_named_params(model, zeroed)
            pred, logits, _ = model_forward(model, make_sample(TINY, seed=5))
            assert pred == 0.7, arch
            assert logits == bias_cls, arch

    def test_purity(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        sample = make_sample(TINY, seed=6)
        before = {n: p for n, p in named_params(model).items()}
        p1, l1, _ = model_forward(model, sample)
        p2, l2, _ = model_forward(model, sample)
        assert p1 == p2
        assert l1 == l2
        after = named_params(model)
        for n in before:
            assert before[n] == after[n]

    def test_textless_day_equals_empty_docs(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        import dataclasses
        base = make_sample(TINY, seed=7)
        flagged = dataclasses.replace(
            base,
            inputs=[dataclasses.replace(base.inputs[0], has_text=False)]
            + base.inputs[1:],
        )
        emptied = dataclasses.replace(
            base,
            inputs=[dataclasses.replace(base.inputs[0], has_text=False,
                                        token_seqs=[])]
            + base.inputs[1:],
        )
        assert model_forward(model, flagged)[0] == model_forward(model, emptied)[0]

    def test_wrong_window_rejected(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        import dataclasses
        cfg4 = dataclasses.replace(TINY, window=4)
        with pytest.raises(ShapeError):
            model_forward(model, make_sample(cfg4, seed=8))

    def test_missing_features_rejected(self):
        import dataclasses
        model = build_model(TINY, ArchKind.CNN_GRU)
        s = make_sample(TINY, seed=9)
        s = dataclasses.replace(
            s, inputs=[dataclasses.replace(s.inputs[0], features=None)] + s.inputs[1:]
        )
        with pytest.raises(ShapeError):
            model_forward(model, s)

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
            if day.has_text and day.token_seqs:
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
        day_vecs.append(text.concat_rows(day.features))

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
            assert grads.keys() == named_params(model).keys(), arch

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
            token_seqs=seqs, label=0, has_text=has_text, close=100.0,
            features=Matrix._wrap(rng.standard_normal((5, 1))),
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
            target_close=101.0, prev_close=100.0,
            target_return=float(rng.standard_normal()),
        ))
    return samples


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation relative to the tensor's largest magnitude."""
    scale = float(np.abs(want).max())
    return float(np.abs(got - want).max()) / scale if scale else float(np.abs(got).max())


class TestBatchedCore:
    """batch_forward/batch_backward against the per-window model_forward/model_backward."""

    def check(self, model, samples):
        cache = batch_forward(model, samples)
        want = {name: np.zeros_like(p.data) for name, p in named_params(model).items()}
        for b, sample in enumerate(samples):
            pred, logits, per_cache = model_forward(model, sample)
            assert rel_err(cache.pred[b : b + 1], np.array([pred])) <= 1e-10
            assert rel_err(cache.logits[b], logits.data[:, 0]) <= 1e-10
            grads = model_backward(model, per_cache, sample.target_return,
                                   sample.target_class)
            for name, g in grads.items():
                want[name] += g.data
        got = batch_backward(
            model, cache, np.array([s.target_return for s in samples]),
            np.array([s.target_class for s in samples]))
        assert list(got) == list(want)
        for name in want:
            assert got[name].shape == want[name].shape, name
            assert rel_err(got[name], want[name]) <= 1e-10, name

    @pytest.mark.parametrize("arch", list(ArchKind))
    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("chunk", [model_mod.CHUNK_VALUES, 120])
    def test_matches_summed_per_window_passes(self, arch, attention, chunk, monkeypatch):
        # 120 values make chunks of three documents (36 im2col values each)
        monkeypatch.setattr(model_mod, "CHUNK_VALUES", chunk)
        cfg = dataclasses.replace(BATCHED, attention_enabled=attention)
        self.check(build_model(cfg, arch), shared_day_windows(cfg, 11, seed=4))

    @pytest.mark.parametrize("arch", list(ArchKind))
    def test_batch_of_one(self, arch):
        self.check(build_model(BATCHED, arch), shared_day_windows(BATCHED, 4, seed=5))

    def test_shared_days_are_encoded_once(self):
        samples = shared_day_windows(BATCHED, 11, seed=4)
        cache = batch_forward(build_model(BATCHED, ArchKind.CNN_GRU), samples)
        text_days = {d.date for s in samples for d in s.inputs if d.has_text}
        assert len(cache.counts) == len(text_days)

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
                    == day.features.data[:, 0].tobytes())
        # copy and twin share d0's text row; d1 has none
        assert list(table.text) == [0, -1, 1, 2, 0, 0]
        assert list(table.doc_start) == list(np.cumsum(
            [0] + [len(d.token_seqs) for d in (d0, d2, d3)]))
        for doc, seq in zip(table.docs[: len(d0.token_seqs)], d0.token_seqs):
            seq = seq[: BATCHED.max_doc_len]
            assert list(doc) == seq + [0] * (BATCHED.max_doc_len - len(seq))

    @pytest.mark.parametrize("arch", list(ArchKind))
    def test_table_rows_equal_batch_forward_bit_for_bit(self, arch):
        model = build_model(BATCHED, arch)
        samples = shared_day_windows(BATCHED, 11, seed=4)
        index = np.array([3, 0, 5])
        got = table_forward(model, day_table(BATCHED, samples), index)
        want = batch_forward(model, [samples[i] for i in index])
        for name in ("day_index", "ids", "seg", "counts", "x", "ctx", "pred", "logits"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        returns = np.array([samples[i].target_return for i in index])
        classes = np.array([samples[i].target_class for i in index])
        got_g = batch_backward(model, got, returns, classes)
        want_g = batch_backward(model, want, returns, classes)
        assert list(got_g) == list(want_g)
        for name in want_g:
            assert got_g[name].tobytes() == want_g[name].tobytes(), name

    @pytest.mark.parametrize("damage, message", [
        (lambda days: days[1:], "sample has 3 days, model expects 4"),
        (lambda days: days[:-1] + [dataclasses.replace(days[-1], features=None)],
         "has no normalized features"),
        (lambda days: days[:-1] + [dataclasses.replace(days[-1], has_text=True,
                                                       token_seqs=[[2, 15]])],
         "token id 15 out of range for vocab of 15"),
    ], ids=["short window", "missing features", "token id"])
    def test_bad_input_rejected_at_build(self, damage, message):
        samples = shared_day_windows(BATCHED, 6, seed=4)
        samples[2] = dataclasses.replace(samples[2], inputs=damage(samples[2].inputs))
        with pytest.raises(ShapeError, match=message):
            day_table(BATCHED, samples)


class TestCountParams:
    def test_gru_closed_form_defaults(self):
        assert gru_param_count(32, 64) == 9216

    def test_gru_closed_form_minimal(self):
        assert gru_param_count(1, 1) == 6

    def test_lstm_ratio(self):
        for _ in range(20):
            h = int(RNG.integers(1, 200))
            d = int(RNG.integers(1, 200))
            lstm = 4 * h * (h + d)
            assert gru_param_count(h, d) * 4 == lstm * 3

    def test_model_gru_tensors_sum_to_closed_form(self):
        model = build_model(TINY, ArchKind.CNN_GRU)
        got = sum(p.rows * p.cols for n, p in named_params(model).items()
                  if n.startswith("gru/"))
        assert got == gru_param_count(TINY.gru_hidden, model.day_vec_size)

    def test_count_matches_enumeration(self):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            want = sum(p.rows * p.cols for p in named_params(model).values())
            assert count_params(model) == want

    def test_arch_ordering(self):
        full = count_params(build_model(TINY, ArchKind.CNN_GRU))
        gru_only = count_params(build_model(TINY, ArchKind.GRU_ONLY))
        assert full > gru_only > 0


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        for arch in ArchKind:
            model = build_model(TINY, arch)
            path = tmp_path / f"{arch.value}.ckpt.json"
            save_checkpoint(model, path)
            again = load_checkpoint(path)
            assert again.arch == model.arch
            assert again.cfg == model.cfg
            a, b = named_params(model), named_params(again)
            assert a.keys() == b.keys()
            for n in a:
                assert a[n] == b[n], n

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
        obj["tensors"]["mystery"] = {"rows": 1, "cols": 1, "values": [0.0]}
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="mystery"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected_by_name(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        entry = obj["tensors"]["head_reg/w"]
        entry["values"] = entry["values"][:-1]
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="head_reg/w"):
            load_checkpoint(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["tensors"]["head_reg/b"]["values"] = [[float("nan")]]
        path.write_text(json.dumps(obj))  # json emits bare NaN, loads accepts it
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_flat_values_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        obj = json.loads(path.read_text())
        obj["tensors"]["head_reg/b"]["values"] = [0.0]
        path.write_text(json.dumps(obj))
        with pytest.raises(CheckpointError, match="nested"):
            load_checkpoint(path)
