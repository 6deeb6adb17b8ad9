"""The batched core's text encoders and GRU kernels against plain references.

batched_reference.py holds the im2col conv and the batch-major GRU that
model.py computed before; the kernels in model.py sum the same terms in
another order, so forward outputs and every gradient must agree to rounding,
and max-pool winners must read the same tokens. The GRU kernels take the
batch's text rows and market features apart; the reference takes the day
vectors they make, and its input gradient is summed into the text rows. A
conv entry may differ by 1e-12 of the sum of its terms' magnitudes (the
bound on a computed sum does not shrink when the sum cancels); a GRU tensor
by 1e-12 of its largest value, or where the gates are saturated, of the
larger of 1 and that value. GruOnly's mean embedding and its gradient are
checked against loops over each day's tokens, to 1e-12 of their largest value.
"""

import dataclasses
import datetime as dt
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import batched_reference as ref
from sentirisk import model as model_mod
from sentirisk.data import AlignedDay, WindowSample
from sentirisk.layers import (
    GRUParams,
    conv1d_forward,
    conv_output_length,
    embed_lookup,
    global_max_pool,
    init_gru,
)
from sentirisk.matrix import Matrix
from sentirisk.model import (
    ArchKind,
    CnnGruModel,
    ModelConfig,
    batch_backward,
    build_model,
    day_table,
    param_views,
    table_forward,
)

TOL = 1e-12
# the default chunk, and one that puts every document in a chunk of its own
CHUNKS = [model_mod.CHUNK_VALUES, 1]


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    """Largest deviation relative to the tensor's largest magnitude."""
    scale = float(np.abs(want).max())
    return float(np.abs(got - want).max()) / scale if scale else float(np.abs(got).max())


@st.composite
def conv_cases(draw, stride_vs_width):
    """(model, ids): a small CNN model and padded documents for it.

    Documents are ragged, some all pad, and drawn from a vocabulary of at
    most 6 ids so that tokens, and whole windows, repeat.
    """
    if stride_vs_width == "<":
        width = draw(st.integers(2, 4))
        stride = draw(st.integers(1, width - 1))
    else:
        width = draw(st.integers(1, 4))
        stride = width if stride_vs_width == "=" else width + draw(st.integers(1, 3))
    max_doc_len = draw(st.integers(width, width + 3 * stride + 2))
    cfg = ModelConfig(vocab_size=draw(st.integers(2, 6)), embed_dim=draw(st.integers(1, 5)),
                      num_filters=draw(st.integers(1, 5)), kernel_width=width,
                      conv_stride=stride, gru_hidden=2, window=2, max_doc_len=max_doc_len,
                      seed=draw(st.integers(0, 2**16)))
    lengths = draw(st.lists(st.integers(0, max_doc_len), min_size=1, max_size=8))
    ids = np.zeros((len(lengths), max_doc_len), dtype=np.intp)
    for i, n in enumerate(lengths):
        ids[i, :n] = draw(st.lists(st.integers(1, cfg.vocab_size - 1), min_size=n, max_size=n))
    return build_model(cfg, ArchKind.CNN_GRU), ids


def term_magnitudes(model, ids, pooled, winners, d_pooled, chunk):
    """(pooled, d_kernel, d_embed) summed over the magnitudes of their terms:
    the |embedding| |kernel| products of each winning window, and the
    backward sums of |gradient| times |embedding| or |kernel|. A computed
    sum is within a small multiple of the rounding unit times this, whatever
    the sum cancels to (Higham 2002, section 4.2)."""
    cfg = model.cfg
    mags = CnnGruModel(cfg, model.arch, np.abs(model.params))
    emb = mags.tensors["embedding"]
    kernel = mags.tensors["conv/k"].reshape(cfg.kernel_width, cfg.embed_dim, -1)
    pooled_mag = sum(
        np.einsum("nfe,ef->nf",
                  emb[np.take_along_axis(ids, winners * cfg.conv_stride + k, axis=1)], kernel[k])
        for k in range(cfg.kernel_width))
    # the winners and the ReLU's gate stay those of the real pass
    d_embed_mag = np.zeros_like(emb)
    d_kernel_mag = ref.conv_backward(mags, ids, pooled, winners, np.abs(d_pooled), d_embed_mag,
                                     chunk)
    return pooled_mag, d_kernel_mag, d_embed_mag


def check_matches_im2col(model, ids, chunk):
    d_pooled = np.random.default_rng(len(ids)).standard_normal(
        (len(ids), model.cfg.num_filters))
    want_pooled, want_winners = ref.conv_encode(model, ids, chunk)
    want_d_embed = np.zeros_like(model.embedding.table.data)
    want_d_kernel = ref.conv_backward(model, ids, want_pooled, want_winners, d_pooled,
                                      want_d_embed, chunk)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model_mod, "CHUNK_VALUES", chunk)
        plan = model_mod._conv_plan(model, ids)
        pooled, winners = model_mod._conv_encode(model, ids, plan, model_mod.Workspace())
        d_embed = np.zeros_like(model.embedding.table.data)
        cache = types.SimpleNamespace(ids=ids, plan=plan, pooled=pooled, winners=winners)
        d_kernel = model_mod._conv_backward(model, cache, d_pooled, d_embed,
                                            model_mod.Workspace())
    # im2col can round two equal rows of its product apart, so where windows
    # read the same tokens it may pick a later one; the pooled value and
    # every gradient depend only on the tokens read
    cfg = model.cfg
    start = (winners * cfg.conv_stride, want_winners * cfg.conv_stride)
    for k in range(cfg.kernel_width):
        got_tok, want_tok = (np.take_along_axis(ids, pos + k, axis=1) for pos in start)
        assert (got_tok == want_tok).all()
    assert (winners <= want_winners).all()
    mags = term_magnitudes(model, ids, want_pooled, want_winners, d_pooled, chunk)
    for got, want, mag in zip((pooled, d_kernel, d_embed),
                              (want_pooled, want_d_kernel, want_d_embed), mags):
        assert (np.abs(got - want) <= TOL * mag).all()


class TestConvKernels:
    @pytest.mark.parametrize("chunk", CHUNKS)
    @pytest.mark.parametrize("stride_vs_width", ["<", "=", ">"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_im2col(self, stride_vs_width, chunk, data):
        check_matches_im2col(*data.draw(conv_cases(stride_vs_width)), chunk)

    @pytest.mark.parametrize("max_doc_len", [1, 2, 6])
    def test_cancelling_embedding_gradient_matches_im2col(self, max_doc_len):
        # drawn once by test_matches_im2col: d_embed's one nonzero entry is a
        # sum of 5 terms that cancels to 7.6e-6, where an error taken relative
        # to the result read 1.46e-11 on correct kernels
        cfg = ModelConfig(vocab_size=4, embed_dim=1, num_filters=5, kernel_width=1,
                          conv_stride=1, gru_hidden=2, window=2, max_doc_len=max_doc_len,
                          seed=726)
        ids = np.zeros((1, max_doc_len), dtype=np.intp)
        ids[0, 0] = 1
        check_matches_im2col(build_model(cfg, ArchKind.CNN_GRU), ids, model_mod.CHUNK_VALUES)

    def test_windows_reading_the_same_tokens_tie_to_the_earliest(self):
        # the case where im2col picked window 1: its product rounded the equal
        # rows of windows 0 and 1 to values one ulp apart
        cfg = ModelConfig(vocab_size=2, embed_dim=5, num_filters=1, kernel_width=4,
                          conv_stride=4, gru_hidden=2, window=2, max_doc_len=12, seed=0)
        model = build_model(cfg, ArchKind.CNN_GRU)
        doc = [1] * 10
        ids = np.array([doc + [0, 0]])
        _, winners = model_mod._conv_encode(model, ids, model_mod._conv_plan(model, ids),
                                             model_mod.Workspace())
        emb = embed_lookup(model.embedding, doc + [0, 0], cfg.max_doc_len)
        relu = Matrix._wrap(np.maximum(conv1d_forward(model.conv, emb)[0].data, 0.0))
        assert winners.tolist() == [global_max_pool(relu)[1]] == [[0]]

    def test_all_pad_documents(self):
        cfg = ModelConfig(vocab_size=5, embed_dim=3, num_filters=4, kernel_width=2,
                          conv_stride=3, gru_hidden=2, window=2, max_doc_len=7, seed=1)
        model = build_model(cfg, ArchKind.CNN_GRU)
        ids = np.zeros((3, cfg.max_doc_len), dtype=np.intp)
        plan = model_mod._conv_plan(model, ids)
        pooled, winners = model_mod._conv_encode(model, ids, plan, model_mod.Workspace())
        assert not pooled.any() and not winners.any()
        d_embed = np.zeros_like(model.embedding.table.data)
        cache = types.SimpleNamespace(ids=ids, plan=plan, pooled=pooled, winners=winners)
        d_kernel = model_mod._conv_backward(model, cache, np.ones_like(pooled), d_embed,
                                            model_mod.Workspace())
        assert not d_kernel.any() and not d_embed.any()


def scaled_gru(seed: int, hidden: int, input_size: int, scale: float) -> GRUParams:
    gru = init_gru(np.random.default_rng(seed), hidden, input_size)
    return GRUParams(*(Matrix._wrap(w.data * scale) for w in (gru.w_z, gru.w_r, gru.w)))


def gru_case(b, t_len, k, f, u, h, scale, seed):
    """(gru, vecs (U + 1, k) whose row U is zero, day_index (T, B) into them,
    feats (T, B, f), d_hid (T, h, B)) with weights and inputs times scale.
    Days draw their text rows at random, so windows share rows, and row U
    stands for the days without text."""
    gru = scaled_gru(seed, h, k + f, scale)
    rng = np.random.default_rng(seed + 1)
    vecs = rng.standard_normal((u + 1, k)) * scale
    vecs[u] = 0.0
    day_index = rng.integers(0, u + 1, (b, t_len)).T
    feats = rng.standard_normal((t_len, b, f)) * scale
    d_hid = rng.standard_normal((t_len, b, h)).transpose(0, 2, 1).copy()
    return gru, vecs, day_index, feats, d_hid


def stacked(gru: GRUParams) -> np.ndarray:
    """W_z, W_r and W stacked (3h, h + d), as the batched GRU reads them."""
    return np.concatenate([gru.w_z.data, gru.w_r.data, gru.w.data])


def gru_pairs(gru, vecs, day_index, feats, d_hid):
    """(got, want) for z, r, candidate, hidden, d_vecs and the three weight
    gradients. The kernels take their inputs as table_forward passes them and
    keep their states (T, features, B), transposed here to the reference's
    batch-major (B, T, features); the reference reads the day vectors
    [vecs[day_index], feats] batch-major, and its d_x's text columns are
    summed into their text rows."""
    h, k = gru.hidden_size, vecs.shape[1]
    x_bm = np.concatenate([vecs[day_index.T], feats.transpose(1, 0, 2)], axis=2)
    w = stacked(gru)
    ws = model_mod.Workspace()
    zr, cand, hid = model_mod._gru_forward(w, vecs, day_index, feats, ws)
    assert hid.shape == (len(feats) + 1, h, day_index.shape[1]) and not hid[0].any()
    states = ref.gru_forward(gru, x_bm)
    d_w = np.full_like(w, np.nan)  # every entry must be written
    d_vecs = model_mod._gru_backward(w, vecs, day_index, feats, (zr, cand, hid), d_hid, d_w,
                                     ws)
    want = ref.gru_backward(gru, x_bm, states, np.ascontiguousarray(d_hid.transpose(2, 0, 1)))
    want_d_vecs = np.zeros_like(vecs)  # row U too: the kernel returns every row
    ref.add_rows(want_d_vecs, day_index.T, want[0][..., :k])
    return list(zip(
        [*(s.transpose(2, 0, 1) for s in (zr[:, :h], zr[:, h:], cand, hid[1:])), d_vecs,
         d_w[:h], d_w[h : 2 * h], d_w[2 * h :]],
        [*states, want_d_vecs, *want[1:]]))


# k text columns and f feature columns; u text rows besides the zero row U
GRU_SHAPES = dict(b=st.integers(1, 6), t_len=st.integers(1, 7), k=st.integers(1, 4),
                  f=st.integers(1, 3), u=st.integers(0, 5), h=st.integers(1, 5),
                  seed=st.integers(0, 2**16))


class TestGruKernels:
    @settings(max_examples=80, deadline=None)
    @given(scale=st.sampled_from([0.1, 1.0]), **GRU_SHAPES)
    @example(b=1, t_len=5, k=2, f=1, u=3, h=4, scale=1.0, seed=0)
    @example(b=4, t_len=5, k=1, f=2, u=3, h=1, scale=1.0, seed=0)
    @example(b=6, t_len=7, k=3, f=2, u=1, h=3, scale=1.0, seed=1)  # one text row, shared
    @example(b=3, t_len=4, k=2, f=2, u=0, h=2, scale=1.0, seed=2)  # no day has text
    def test_matches_batch_major(self, b, t_len, k, f, u, h, scale, seed):
        for got, want in gru_pairs(*gru_case(b, t_len, k, f, u, h, scale, seed)):
            assert got.shape == want.shape
            assert rel_err(got, want) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(scale=st.sampled_from([4.0, 30.0]), **GRU_SHAPES)
    def test_saturated_gates_agree_to_the_rounding_of_one(self, b, t_len, k, f, u, h, scale,
                                                          seed):
        # 0.5 + 0.5 tanh(a / 2) is exact to the rounding of 1, not to a gate's
        # own size: a gate of 2e-21 reads 0, where exp(a) / (1 + exp(a)) keeps
        # it. When every gate of a small case is that far shut, a whole tensor
        # is that small, so errors are measured against max(1, its largest value).
        for got, want in gru_pairs(*gru_case(b, t_len, k, f, u, h, scale, seed)):
            assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())

    def test_saturated_gates_stay_finite(self):
        # sigmoid as 0.5 + 0.5 tanh(a / 2) cannot overflow, however large a is
        gru, vecs, day_index, feats, _ = gru_case(2, 4, 1, 1, 2, 3, 1e6, 0)
        zr, cand, hid = model_mod._gru_forward(stacked(gru), vecs, day_index, feats,
                                               model_mod.Workspace())
        assert np.isfinite(zr).all() and np.isfinite(hid).all()
        assert ((zr >= 0.0) & (zr <= 1.0)).all()


MEAN = ModelConfig(vocab_size=9, embed_dim=3, gru_hidden=2, window=3, max_doc_len=5, seed=3)
# each day's documents: an all-pad document, repeated tokens and a pad inside
# a document, no text, a document cut at max_doc_len, the second day's text
# on another date, and a day of several short documents
MEAN_TEXTS = [[[0, 0]], [[4, 4, 4, 2], [4, 0, 7]], [], [[1, 2, 3, 5, 6, 8, 8]],
              [[4, 4, 4, 2], [4, 0, 7]], [[8], [0], [3, 3]]]


def text_windows(cfg: ModelConfig, texts: list) -> list[WindowSample]:
    """Every window of cfg.window consecutive days, day t holding the
    documents texts[t]."""
    days = [AlignedDay(date=dt.date(2024, 1, 1) + dt.timedelta(days=t), raw=(0.0,) * 4,
                       token_seqs=seqs, label=0, close=100.0, features=(0.1 * t,) * 5)
            for t, seqs in enumerate(texts)]
    return [WindowSample(inputs=days[i : i + cfg.window], target_date=days[-1].date,
                         target_class=i % 3, target_return_raw=0.0, target_close=100.0,
                         target_return=0.5 - i)
            for i in range(len(days) - cfg.window + 1)]


def day_tokens(cfg: ModelConfig, day: AlignedDay) -> list[int]:
    """The non-pad token ids a day's text vector averages."""
    return [tok for seq in day.token_seqs for tok in seq[: cfg.max_doc_len] if tok]


def check_mean_embedding(cfg: ModelConfig, texts: list, monkeypatch):
    """Asserts GruOnly's text vectors and embedding gradient on the windows
    of texts against loops over each day's tokens; returns the cache."""
    model = build_model(cfg, ArchKind.GRU_ONLY)
    samples = text_windows(cfg, texts)
    cache = table_forward(model, day_table(cfg, samples), np.arange(len(samples)))
    emb = model.tensors["embedding"]
    # each cell's text vector: the mean of its day's non-pad embedding rows
    want = np.zeros((cfg.window, len(samples), cfg.embed_dim))
    tokens_of_row = {}
    for b, sample in enumerate(samples):
        for t, day in enumerate(sample.inputs):
            tokens = day_tokens(cfg, day)
            for tok in tokens:
                want[t, b] += emb[tok]
            want[t, b] /= max(len(tokens), 1)
            tokens_of_row[int(cache.day_index[t, b])] = tokens
    assert rel_err(cache.vecs[cache.day_index], want) <= TOL

    # the embedding gradient: each occurrence of a token in a text row
    # adds that row's gradient over the row's token count
    d_vecs = np.random.default_rng(0).standard_normal(cache.vecs.shape)
    monkeypatch.setattr(model_mod, "_gru_backward", lambda *args: d_vecs)
    grads = batch_backward(model, cache, np.zeros(len(samples)),
                           np.zeros(len(samples), dtype=np.intp))
    want_d_embed = np.zeros_like(emb)
    for row, tokens in tokens_of_row.items():
        for tok in tokens:
            want_d_embed[tok] += d_vecs[row] / len(tokens)
    assert rel_err(param_views(model, grads)["embedding"], want_d_embed) <= TOL
    return cache


class TestMeanEmbedding:
    """GruOnly's text vectors and embedding gradient, against loops over tokens."""

    @pytest.mark.parametrize("chunk", CHUNKS)  # 1: one text row per chunk
    def test_matches_per_token_loops(self, chunk, monkeypatch):
        monkeypatch.setattr(model_mod, "CHUNK_VALUES", chunk)
        cache = check_mean_embedding(MEAN, MEAN_TEXTS, monkeypatch)
        assert len(cache.vecs) == 5  # four texts, one on two dates, and row U
        assert len(cache.tally) == (4 if chunk == 1 else 1)  # one chunk per row, or one
        check_chunk_columns(cache, chunk)

    def test_large_vocabulary_in_chunks_of_the_batch_ids(self, monkeypatch):
        # a 20,000-id vocabulary (the default max_vocab) whose batch holds 12
        # ids: chunks are sized by the batch's 13 distinct ids, pad included,
        # not by the vocabulary, so 30 values make chunks of two text rows
        monkeypatch.setattr(model_mod, "CHUNK_VALUES", 30)
        cfg = dataclasses.replace(MEAN, vocab_size=20_000)
        rng = np.random.default_rng(7)
        pool = rng.choice(np.arange(1, cfg.vocab_size), 12, replace=False)
        texts = [[[int(tok) for tok in rng.choice(pool, n)] + [0] * pad
                  for n, pad in zip(rng.integers(1, 8, n_docs), rng.integers(0, 2, n_docs))]
                 for n_docs in rng.integers(0, 4, 9)]
        cache = check_mean_embedding(cfg, texts, monkeypatch)
        assert [len(rows) for _, _, rows in cache.tally] == [2, 2, 2, 2, 1]  # 9 text rows
        check_chunk_columns(cache, 30)


def check_chunk_columns(cache, chunk_values):
    """Each chunk of the tally has a column for each non-pad id its rows
    hold, ascending, and at most chunk_values counts (one text row at least)."""
    for start, tokens, rows in cache.tally:
        held = cache.ids[(cache.seg >= start) & (cache.seg < start + len(rows))]
        assert tokens.tolist() == sorted(set(held[held > 0].tolist()))
        assert rows.size <= max(chunk_values, tokens.size)


class TestPadRowGradient:
    """The pad row of the embedding gets no gradient, however much of a
    batch is padding."""

    @pytest.mark.parametrize("arch", [ArchKind.CNN_ONLY, ArchKind.CNN_GRU])
    def test_is_zero_for_padded_documents(self, arch):
        cfg = ModelConfig(vocab_size=6, embed_dim=3, num_filters=4, kernel_width=3,
                          conv_stride=2, gru_hidden=2, window=2, max_doc_len=6, seed=5)
        # one-token documents, all-pad documents and a pad between tokens
        texts = [[[3]], [[0, 0, 0]], [[5], [0]], [[2, 0, 0, 4]], [[1, 0]]]
        model = build_model(cfg, arch)
        samples = text_windows(cfg, texts)
        cache = table_forward(model, day_table(cfg, samples), np.arange(len(samples)))
        # every winning window reads padding, so the conv sends the pad row
        # gradient, which batch_backward must then drop
        d_embed = np.zeros_like(model.tensors["embedding"])
        model_mod._conv_backward(model, cache, np.ones_like(cache.pooled), d_embed,
                                 model_mod.Workspace())
        assert d_embed[0].all()
        grads = param_views(model, batch_backward(
            model, cache, np.zeros(len(samples)), np.zeros(len(samples), dtype=np.intp)))
        assert not grads["embedding"][0].any() and grads["embedding"][1:].any()


class TestDayTableWidth:
    """A day table holds its longest document, within max_doc_len, and is
    wide enough for exactly the conv windows that read one of its tokens."""

    @pytest.mark.parametrize("stride", [1, 2, 3, 4])
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_a_count_of_the_windows_that_read_a_token(self, width, stride):
        # every document length up to past max_doc_len, so the longest
        # document ends at every residue of the stride
        for max_doc_len in range(width, width + 3 * stride + 2):
            cfg = ModelConfig(vocab_size=2, embed_dim=1, num_filters=1, kernel_width=width,
                              conv_stride=stride, gru_hidden=1, window=1,
                              max_doc_len=max_doc_len)
            grid = conv_output_length(max_doc_len, width, stride)
            for length in range(max_doc_len + 3):
                table = model_mod._build_table(cfg, text_windows(cfg, [[[1] * length]]))
                kept = min(length, max_doc_len)
                reading = sum(j * stride < kept for j in range(grid))
                got = table.docs.shape[1]
                assert kept <= got <= max_doc_len, (max_doc_len, length)
                # _conv_plan runs every window that fits, and at least one
                assert conv_output_length(got, width, stride) == max(1, reading), (
                    max_doc_len, length)
