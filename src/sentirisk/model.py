"""Model assembly: the CNN-GRU network, its two ablations, and checkpoints.

Per-day encoding (CnnGru, CnnOnly): each document is embedded, convolved,
ReLU'd, and global-max-pooled; pooled vectors are averaged over the day's
documents and concatenated with the day's market features. GruOnly replaces
the convolutional text encoder with the mean of the day's token embeddings.
CnnGru and GruOnly run a GRU over the window and pool its hidden states with
additive attention (or take the last hidden state); CnnOnly averages the day
vectors directly. Two dense heads emit the scalar return prediction and the
3-class sentiment logits. The conv filters are one (kernel_width * embed_dim,
num_filters) tensor, conv/k, used as is by both paths below.

Two paths compute this network from the same parameters. model_forward and
model_backward run one window on Matrix values, layer by layer through
layers.py: the single-window API behind predict, alert and the CLI, and the
reference the batched path is tested against. table_forward and
batch_backward run a whole mini-batch on raw ndarrays, which is how training
and validation run. A DayTable holds the distinct days of a split as arrays,
built and checked once per split; a batch is a list of window indices into
it. Each distinct day text of the batch is encoded once, the convolution of
its documents is one im2col matrix product per chunk of documents, the GRU
takes its input projections for all steps in one product before the
recurrence, and the embedding gradient is scattered with np.add.at.
batch_forward(model, samples) builds a table of its samples and runs them
all. Every reduction runs in a fixed order, so seeded reruns are bitwise
identical.
"""

from __future__ import annotations

import enum
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import N_MARKET_FEATURES, AlignedDay, WindowSample
from .errors import CheckpointError, NumericError, ShapeError
from .layers import (
    AttentionCache,
    AttentionParams,
    Conv1DCache,
    Conv1DParams,
    DenseParams,
    EmbeddingTable,
    GRUParams,
    GRUStepCache,
    attention_backward,
    attention_pool,
    conv_output_length,
    conv1d_backward,
    conv1d_forward,
    dense_backward,
    dense_forward,
    embed_backward,
    embed_lookup,
    global_max_pool,
    gru_forward,
    gru_sequence_backward,
    init_attention,
    init_conv,
    init_dense,
    init_embedding,
    init_gru,
    max_pool_backward,
    pad_or_truncate,
    relu_backward,
)
from .losses import cross_entropy_grad, mse_grad, softmax_rows
from .matrix import Matrix, _sigmoid_array
from .text import NUM_CLASSES

CHECKPOINT_FORMAT_VERSION = 2


class ArchKind(str, enum.Enum):
    CNN_GRU = "cnn-gru"
    CNN_ONLY = "cnn"
    GRU_ONLY = "gru"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    num_filters: int = 64
    kernel_width: int = 3
    conv_stride: int = 3
    gru_hidden: int = 32
    window: int = 20
    max_doc_len: int = 30
    attention_enabled: bool = True
    attn_size: int | None = None  # defaults to gru_hidden
    mse_weight: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        counts = {
            "vocab_size": self.vocab_size,
            "embed_dim": self.embed_dim,
            "num_filters": self.num_filters,
            "kernel_width": self.kernel_width,
            "conv_stride": self.conv_stride,
            "gru_hidden": self.gru_hidden,
            "window": self.window,
            "max_doc_len": self.max_doc_len,
        }
        for name, v in counts.items():
            if v < 1:
                raise ShapeError(f"{name} must be positive, got {v}")
        if self.vocab_size < 2:
            raise ShapeError("vocab_size must cover the pad and unknown ids")
        if self.max_doc_len < self.kernel_width:
            raise ShapeError(
                f"max_doc_len {self.max_doc_len} shorter than kernel width {self.kernel_width}"
            )
        if not 0.0 <= self.mse_weight <= 1.0:
            raise ShapeError(f"mse_weight must lie in [0, 1], got {self.mse_weight}")
        if self.attn_size is not None and self.attn_size < 1:
            raise ShapeError(f"attn_size must be positive, got {self.attn_size}")

    @property
    def attention_size(self) -> int:
        return self.attn_size if self.attn_size is not None else self.gru_hidden

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise CheckpointError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)


@dataclass
class CnnGruModel:
    cfg: ModelConfig
    arch: ArchKind
    embedding: EmbeddingTable
    conv: Conv1DParams | None
    gru: GRUParams | None
    attention: AttentionParams | None
    head_reg: DenseParams
    head_cls: DenseParams

    @property
    def day_vec_size(self) -> int:
        return _text_dim(self.cfg, self.arch) + N_MARKET_FEATURES

    @property
    def head_input_size(self) -> int:
        if self.arch is ArchKind.CNN_ONLY:
            return self.day_vec_size
        return self.cfg.gru_hidden


def _text_dim(cfg: ModelConfig, arch: ArchKind) -> int:
    """Size of a day's text vector: mean embedding (GruOnly) or pooled filters."""
    return cfg.embed_dim if arch is ArchKind.GRU_ONLY else cfg.num_filters


def build_model(cfg: ModelConfig, arch: ArchKind) -> CnnGruModel:
    """Deterministic seeded build; tensor init order is fixed."""
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    embedding = init_embedding(rng, cfg.vocab_size, cfg.embed_dim)
    conv = None
    if arch is not ArchKind.GRU_ONLY:
        conv = init_conv(rng, cfg.num_filters, cfg.kernel_width, cfg.embed_dim,
                         cfg.conv_stride)
    day_dim = _text_dim(cfg, arch) + N_MARKET_FEATURES
    gru = None
    attention = None
    if arch is not ArchKind.CNN_ONLY:
        gru = init_gru(rng, cfg.gru_hidden, day_dim)
        if cfg.attention_enabled:
            attention = init_attention(rng, cfg.attention_size, cfg.gru_hidden)
    head_in = day_dim if arch is ArchKind.CNN_ONLY else cfg.gru_hidden
    head_reg = init_dense(rng, 1, head_in)
    head_cls = init_dense(rng, NUM_CLASSES, head_in)
    return CnnGruModel(
        cfg=cfg, arch=arch, embedding=embedding, conv=conv, gru=gru,
        attention=attention, head_reg=head_reg, head_cls=head_cls,
    )


# ---------------------------------------------------------------------------
# named parameter access
# ---------------------------------------------------------------------------


def named_params(model: CnnGruModel) -> dict[str, Matrix]:
    out: dict[str, Matrix] = {"embedding": model.embedding.table}
    if model.conv is not None:
        out["conv/k"] = model.conv.kernel
    if model.gru is not None:
        out["gru/w_z"] = model.gru.w_z
        out["gru/w_r"] = model.gru.w_r
        out["gru/w"] = model.gru.w
    if model.attention is not None:
        out["attn/w_a"] = model.attention.w_a
        out["attn/u"] = model.attention.u
    out["head_reg/w"] = model.head_reg.w
    out["head_reg/b"] = model.head_reg.b
    out["head_cls/w"] = model.head_cls.w
    out["head_cls/b"] = model.head_cls.b
    return out


def set_named_params(model: CnnGruModel, params: dict[str, Matrix]) -> CnnGruModel:
    expected = named_params(model)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise ShapeError(f"parameter name mismatch: missing {missing}, extra {extra}")
    for name, old in expected.items():
        if params[name].shape != old.shape:
            raise ShapeError(
                f"tensor {name} has shape {params[name].shape}, expected {old.shape}"
            )
    conv = model.conv
    if conv is not None:
        conv = replace(conv, kernel=params["conv/k"])
    gru = model.gru
    if gru is not None:
        gru = GRUParams(w_z=params["gru/w_z"], w_r=params["gru/w_r"], w=params["gru/w"])
    attention = model.attention
    if attention is not None:
        attention = AttentionParams(w_a=params["attn/w_a"], u=params["attn/u"])
    return replace(
        model,
        embedding=EmbeddingTable(params["embedding"]),
        conv=conv,
        gru=gru,
        attention=attention,
        head_reg=DenseParams(w=params["head_reg/w"], b=params["head_reg/b"]),
        head_cls=DenseParams(w=params["head_cls/w"], b=params["head_cls/b"]),
    )


def count_params(model: CnnGruModel) -> int:
    return sum(t.rows * t.cols for t in named_params(model).values())


def gru_param_count(hidden: int, input_size: int) -> int:
    """Closed form 3*h*(h+d); a same-shape LSTM would hold 4*h*(h+d)."""
    return 3 * hidden * (hidden + input_size)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


@dataclass
class DocCache:
    padded_ids: list[int]
    embedded: Matrix
    conv_pre: Matrix
    conv_cache: Conv1DCache
    memo: list[int]


@dataclass
class DayTextCache:
    docs: list[DocCache]  # conv path
    mean_ids: list[int]  # mean-embedding path (GruOnly)


@dataclass
class ModelCache:
    sample: WindowSample
    day_text: list[DayTextCache | None]
    day_vecs: list[Matrix]
    gru_caches: list[GRUStepCache] | None
    attn_cache: AttentionCache | None
    ctx: Matrix
    pred: Matrix
    logits: Matrix


def _day_text_conv(model: CnnGruModel, seqs: list[list[int]]
                   ) -> tuple[Matrix, DayTextCache]:
    cfg = model.cfg
    docs: list[DocCache] = []
    total = np.zeros((cfg.num_filters, 1))
    for seq in seqs:
        padded = pad_or_truncate(seq, cfg.max_doc_len)
        emb = embed_lookup(model.embedding, padded, cfg.max_doc_len)
        conv_pre, conv_cache = conv1d_forward(model.conv, emb)
        relu = Matrix._wrap(np.maximum(conv_pre.data, 0.0))
        pooled, memo = global_max_pool(relu)
        total += pooled.data
        docs.append(DocCache(
            padded_ids=padded, embedded=emb, conv_pre=conv_pre,
            conv_cache=conv_cache, memo=memo,
        ))
    vec = Matrix._wrap(total / len(seqs))
    return vec, DayTextCache(docs=docs, mean_ids=[])


def _day_text_mean_embed(model: CnnGruModel, seqs: list[list[int]]
                         ) -> tuple[Matrix, DayTextCache]:
    cfg = model.cfg
    ids: list[int] = []
    for seq in seqs:
        ids.extend(tok for tok in pad_or_truncate(seq, cfg.max_doc_len) if tok != 0)
    if not ids:
        return Matrix.zeros(cfg.embed_dim, 1), DayTextCache(docs=[], mean_ids=[])
    rows = model.embedding.table.data[np.array(ids, dtype=np.intp)]
    vec = Matrix._wrap(rows.mean(axis=0).reshape(-1, 1))
    return vec, DayTextCache(docs=[], mean_ids=ids)


def _check_window(cfg: ModelConfig, sample: WindowSample) -> None:
    if len(sample.inputs) != cfg.window:
        raise ShapeError(
            f"sample has {len(sample.inputs)} days, model expects {cfg.window}"
        )


def _check_features(day: AlignedDay) -> None:
    if day.features is None:
        raise ShapeError(f"day {day.date} has no normalized features")
    if day.features.shape != (N_MARKET_FEATURES, 1):
        raise ShapeError(
            f"day {day.date} features shape {day.features.shape}, "
            f"expected {(N_MARKET_FEATURES, 1)}"
        )


def model_forward(model: CnnGruModel, sample: WindowSample
                  ) -> tuple[float, Matrix, ModelCache]:
    cfg = model.cfg
    _check_window(cfg, sample)
    text_dim = _text_dim(cfg, model.arch)
    day_text: list[DayTextCache | None] = []
    day_vecs: list[Matrix] = []
    for day in sample.inputs:
        _check_features(day)
        if day.has_text and day.token_seqs:
            if model.arch is ArchKind.GRU_ONLY:
                text_vec, cache = _day_text_mean_embed(model, day.token_seqs)
            else:
                text_vec, cache = _day_text_conv(model, day.token_seqs)
        else:
            text_vec, cache = Matrix.zeros(text_dim, 1), None
        day_text.append(cache)
        day_vecs.append(text_vec.concat_rows(day.features))

    gru_caches = None
    attn_cache = None
    if model.arch is ArchKind.CNN_ONLY:
        ctx = Matrix._wrap(
            np.mean(np.stack([v.data for v in day_vecs], axis=0), axis=0)
        )
    else:
        hiddens, gru_caches = gru_forward(model.gru, day_vecs)
        if model.attention is not None:
            ctx, _, attn_cache = attention_pool(model.attention, hiddens)
        else:
            ctx = hiddens[-1]

    pred = dense_forward(model.head_reg, ctx)
    logits = dense_forward(model.head_cls, ctx)
    cache = ModelCache(
        sample=sample, day_text=day_text, day_vecs=day_vecs,
        gru_caches=gru_caches, attn_cache=attn_cache,
        ctx=ctx, pred=pred, logits=logits,
    )
    return float(pred.item()), logits, cache


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def model_backward(model: CnnGruModel, cache: ModelCache,
                   target_return: float, target_class: int) -> dict[str, Matrix]:
    """Exact gradients of mse_weight*MSE + (1-mse_weight)*CE for every tensor."""
    cfg = model.cfg
    lam = cfg.mse_weight
    target = Matrix(1, 1, [target_return])

    d_pred = Matrix._wrap(lam * mse_grad(cache.pred, target).data)
    d_logits = Matrix._wrap((1.0 - lam) * cross_entropy_grad(cache.logits, target_class).data)

    d_ctx_reg, d_w_reg, d_b_reg = dense_backward(model.head_reg, cache.ctx, d_pred)
    d_ctx_cls, d_w_cls, d_b_cls = dense_backward(model.head_cls, cache.ctx, d_logits)
    d_ctx = d_ctx_reg + d_ctx_cls

    grads: dict[str, Matrix] = {
        "head_reg/w": d_w_reg, "head_reg/b": d_b_reg,
        "head_cls/w": d_w_cls, "head_cls/b": d_b_cls,
    }

    window = cfg.window
    if model.arch is ArchKind.CNN_ONLY:
        d_day_vecs = [Matrix._wrap(d_ctx.data / window) for _ in range(window)]
    else:
        if model.attention is not None:
            d_hiddens, d_w_a, d_u = attention_backward(model.attention, cache.attn_cache, d_ctx)
            grads["attn/w_a"] = d_w_a
            grads["attn/u"] = d_u
            upstream: list[Matrix | None] = list(d_hiddens)
        else:
            upstream = [None] * (window - 1) + [d_ctx]
        d_day_vecs, _, gru_grads = gru_sequence_backward(model.gru, cache.gru_caches, upstream)
        grads["gru/w_z"] = gru_grads.d_w_z
        grads["gru/w_r"] = gru_grads.d_w_r
        grads["gru/w"] = gru_grads.d_w

    text_dim = _text_dim(cfg, model.arch)
    d_embed = np.zeros_like(model.embedding.table.data)
    d_kernel = None
    if model.conv is not None:
        d_kernel = np.zeros_like(model.conv.kernel.data)

    for day_cache, d_vec in zip(cache.day_text, d_day_vecs):
        if day_cache is None:
            continue  # zero text vector: nothing upstream of it
        d_text = d_vec.data[:text_dim]
        if model.arch is ArchKind.GRU_ONLY:
            ids = day_cache.mean_ids
            if ids:
                share = d_text / len(ids)
                np.add.at(d_embed, np.array(ids, dtype=np.intp), share.T)
        else:
            n_docs = len(day_cache.docs)
            for doc in day_cache.docs:
                d_pooled = Matrix._wrap(d_text / n_docs)
                d_relu = max_pool_backward(doc.memo, doc.conv_cache.out_len, d_pooled)
                d_conv = relu_backward(doc.conv_pre, d_relu)
                d_emb, dk = conv1d_backward(model.conv, doc.conv_cache, d_conv)
                d_kernel += dk.data
                d_embed_doc = embed_backward(model.embedding, doc.padded_ids, d_emb)
                d_embed += d_embed_doc.data

    d_embed[0, :] = 0.0  # pad row is frozen
    grads["embedding"] = Matrix._wrap(d_embed)
    if d_kernel is not None:
        grads["conv/k"] = Matrix._wrap(d_kernel)

    expected = set(named_params(model))
    if set(grads) != expected:
        raise ShapeError(f"gradient names {sorted(grads)} do not match {sorted(expected)}")
    return grads


# ---------------------------------------------------------------------------
# batched core: a whole mini-batch as raw ndarrays
# ---------------------------------------------------------------------------

# im2col values per chunk of documents (512 KB of float64): bounds the text
# encoder's scratch arrays whatever the batch size
CHUNK_VALUES = 1 << 16


@dataclass
class BatchCache:
    """What batch_backward needs from batch_forward, for B windows of T days.

    Each distinct text of the batch is encoded once. day_index maps every
    (window, day) to its row of the text table; the table's last row, U, is
    the zero vector of the days without text. The conv path keeps only the
    token ids and the max-pool winners of each document, and re-gathers the
    embeddings in backward.
    """

    day_index: np.ndarray  # (B, T)
    ids: np.ndarray  # conv: (N, max_doc_len) padded documents; mean: (M,) non-pad tokens
    seg: np.ndarray  # (N,) or (M,): the text row of each document or token
    counts: np.ndarray  # (U,) documents or tokens per text row
    winners: np.ndarray | None  # conv: (N, F) max-pool time step per filter
    pooled: np.ndarray | None  # conv: (N, F) pooled ReLU outputs
    x: np.ndarray  # (B, T, D) day vectors
    gru: tuple[np.ndarray, ...] | None  # z, r, candidate, hidden; each (B, T, h)
    attn: tuple[np.ndarray, np.ndarray] | None  # tanh(W_a h) (B, T, a), weights (B, T)
    ctx: np.ndarray  # (B, head_in)
    pred: np.ndarray  # (B,)
    logits: np.ndarray  # (B, C)


@dataclass(frozen=True)
class DayTable:
    """The distinct days of a list of windows, as arrays built and checked once.

    Days are rows by object identity; texts are rows by their truncated token
    ids, so copies of a day, or two dates with the same text, share one text
    row. A batch is a list of window indices into the table.
    """

    windows: np.ndarray  # (n_windows, T) day rows
    features: np.ndarray  # (n_days, 5)
    text: np.ndarray  # (n_days,) text row, -1 for a day without text
    docs: np.ndarray  # (n_docs, max_doc_len) padded token ids, grouped by text row
    doc_start: np.ndarray  # (n_texts + 1,) first document of each text row


def day_table(cfg: ModelConfig, samples: Sequence[WindowSample]) -> DayTable:
    """Builds the table of samples; every window, feature and token-id check runs here."""
    rows: dict[int, int] = {}
    days: list[AlignedDay] = []  # holds every day object, so no id is reused
    texts: dict[tuple[tuple[int, ...], ...], int] = {}
    text: list[int] = []
    windows = np.empty((len(samples), cfg.window), dtype=np.intp)
    for b, sample in enumerate(samples):
        _check_window(cfg, sample)
        for t, day in enumerate(sample.inputs):
            row = rows.get(id(day))
            if row is None:
                _check_features(day)
                row = rows[id(day)] = len(days)
                days.append(day)
                text_row = -1
                if day.has_text and day.token_seqs:
                    key = tuple(tuple(seq[: cfg.max_doc_len]) for seq in day.token_seqs)
                    text_row = texts.setdefault(key, len(texts))
                text.append(text_row)
            windows[b, t] = row
    counts = np.array([len(key) for key in texts], dtype=np.intp)
    docs = np.zeros((int(counts.sum()), cfg.max_doc_len), dtype=np.intp)
    for i, seq in enumerate(seq for key in texts for seq in key):
        docs[i, : len(seq)] = seq
    bad = docs[(docs < 0) | (docs >= cfg.vocab_size)]
    if bad.size:
        raise ShapeError(f"token id {bad[0]} out of range for vocab of {cfg.vocab_size}")
    features = np.array([day.features.data[:, 0] for day in days]).reshape(-1, N_MARKET_FEATURES)
    return DayTable(windows=windows, features=features, text=np.array(text, dtype=np.intp),
                    docs=docs, doc_start=np.concatenate([[0], np.cumsum(counts)]))


def _gather(model: CnnGruModel, table: DayTable, index: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(day_index, features (B, T, 5), ids, seg, counts) of the windows index names.

    The batch's text rows are numbered in order of first appearance; the
    conv path gets their padded documents, the mean path the non-pad tokens
    of those documents in row-major order.
    """
    day_rows = table.windows[index]
    text_rows = table.text[day_rows].ravel()
    has_text = text_rows >= 0
    uniq, first, inverse = np.unique(text_rows[has_text], return_index=True,
                                     return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(uniq), dtype=np.intp)
    rank[by_first] = np.arange(len(uniq))
    day_index = np.full(text_rows.shape, len(uniq), dtype=np.intp)
    day_index[has_text] = rank[inverse]
    texts = uniq[by_first]
    starts = table.doc_start[texts]
    n_docs = table.doc_start[texts + 1] - starts
    doc_rows = np.repeat(starts - np.cumsum(n_docs) + n_docs, n_docs) + np.arange(n_docs.sum())
    ids = table.docs[doc_rows]
    seg = np.repeat(np.arange(len(texts)), n_docs)
    if model.arch is ArchKind.GRU_ONLY:
        keep = ids != 0
        seg = np.repeat(seg, keep.sum(axis=1))
        ids = ids[keep]
    return (day_index.reshape(day_rows.shape), table.features[day_rows], ids, seg,
            np.bincount(seg, minlength=len(texts)))


def _conv_plan(model: CnnGruModel) -> tuple[np.ndarray, int]:
    """(token positions of each conv window (out_len, width), documents per chunk)."""
    cfg = model.cfg
    out_len = conv_output_length(cfg.max_doc_len, cfg.kernel_width, cfg.conv_stride)
    windows = (np.arange(out_len) * cfg.conv_stride)[:, None] + np.arange(cfg.kernel_width)
    return windows, max(1, CHUNK_VALUES // (windows.size * cfg.embed_dim))


def _conv_encode(model: CnnGruModel, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pooled, winners) of every document: embed, conv as one im2col GEMM per
    chunk, ReLU, max-pool over time (ties go to the earliest step)."""
    table = model.embedding.table.data
    kernel = model.conv.kernel.data
    windows, step = _conv_plan(model)
    pooled = np.empty((len(ids), kernel.shape[1]))
    winners = np.empty((len(ids), kernel.shape[1]), dtype=np.intp)
    for s in range(0, len(ids), step):
        tok = ids[s : s + step][:, windows]  # (n, out_len, width)
        n, out_len = tok.shape[:2]
        act = np.maximum(table[tok].reshape(n * out_len, -1) @ kernel, 0.0)
        act = act.reshape(n, out_len, -1)
        win = np.argmax(act, axis=1)
        winners[s : s + step] = win
        pooled[s : s + step] = np.take_along_axis(act, win[:, None, :], axis=1)[:, 0]
    return pooled, winners


def _conv_backward(model: CnnGruModel, cache: BatchCache, d_pooled: np.ndarray,
                   d_embed: np.ndarray) -> np.ndarray:
    """Kernel-matrix gradient; adds the embedding gradient into d_embed."""
    table = model.embedding.table.data
    windows, step = _conv_plan(model)
    kernel = model.conv.kernel.data
    d_kernel = np.zeros_like(kernel)
    # the ReLU passes gradient only where the winning pre-activation was positive
    g = d_pooled * (cache.pooled > 0.0)
    for s in range(0, len(cache.ids), step):
        tok = cache.ids[s : s + step][:, windows]
        n, out_len = tok.shape[:2]
        d_act = np.zeros((n, out_len, kernel.shape[1]))
        np.put_along_axis(d_act, cache.winners[s : s + step, None, :], g[s : s + step, None, :],
                          axis=1)
        d_act = d_act.reshape(n * out_len, -1)
        d_kernel += table[tok].reshape(n * out_len, -1).T @ d_act
        np.add.at(d_embed, tok.ravel(), (d_act @ kernel.T).reshape(tok.size, -1))
    return d_kernel


def _gru_weights(gru: GRUParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(input halves of W_z, W_r, W stacked (3h, d), h halves of W_z, W_r
    stacked (2h, h), h half of W (h, h))."""
    h = gru.hidden_size
    w_z, w_r, w = gru.w_z.data, gru.w_r.data, gru.w.data
    return (np.concatenate([w_z[:, h:], w_r[:, h:], w[:, h:]]),
            np.concatenate([w_z[:, :h], w_r[:, :h]]), w[:, :h])


def _gru_forward(gru: GRUParams, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(z, r, candidate, hidden), each (B, T, h).

    The input-side products of every step come from one GEMM before the
    recurrence; only the h-side products stay in the loop.
    """
    h = gru.hidden_size
    b, t_len, d = x.shape
    w_x, w_zr, w_hh = _gru_weights(gru)
    x_proj = (x.reshape(b * t_len, d) @ w_x.T).reshape(b, t_len, 3 * h)
    z, r, cand, hid = (np.empty((b, t_len, h)) for _ in range(4))
    h_prev = np.zeros((b, h))
    for t in range(t_len):
        zr = _sigmoid_array(h_prev @ w_zr.T + x_proj[:, t, : 2 * h])
        z[:, t], r[:, t] = zr[:, :h], zr[:, h:]
        cand[:, t] = np.tanh((r[:, t] * h_prev) @ w_hh.T + x_proj[:, t, 2 * h :])
        h_prev = hid[:, t] = (1.0 - z[:, t]) * h_prev + z[:, t] * cand[:, t]
    return z, r, cand, hid


def _gru_backward(gru: GRUParams, x: np.ndarray, states: tuple[np.ndarray, ...],
                  d_hid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_x, d_w_z, d_w_r, d_w); d_hid holds the gradient reaching each h_t
    from outside the chain. Weight and input gradients come from GEMMs over
    all steps after the loop."""
    z, r, cand, hid = states
    h = gru.hidden_size
    b, t_len, d = x.shape
    w_x, w_zr, w_hh = _gru_weights(gru)
    h_prev = np.concatenate([np.zeros((b, 1, h)), hid[:, :-1]], axis=1)
    d_pre = np.empty((b, t_len, 3 * h))  # pre-activation gradients of z, r, candidate
    carry = np.zeros((b, h))
    for t in range(t_len - 1, -1, -1):
        dh = carry + d_hid[:, t]
        zt, rt, ct, hp = z[:, t], r[:, t], cand[:, t], h_prev[:, t]
        d_c = dh * zt * (1.0 - ct * ct)
        d_rh = d_c @ w_hh
        d_pre[:, t, :h] = dh * (ct - hp) * zt * (1.0 - zt)
        d_pre[:, t, h : 2 * h] = d_rh * hp * rt * (1.0 - rt)
        d_pre[:, t, 2 * h :] = d_c
        carry = dh * (1.0 - zt) + d_rh * rt + d_pre[:, t, : 2 * h] @ w_zr
    flat = d_pre.reshape(b * t_len, 3 * h)
    d_wx = flat.T @ x.reshape(b * t_len, d)
    d_wzr = flat[:, : 2 * h].T @ h_prev.reshape(b * t_len, h)
    d_whh = flat[:, 2 * h :].T @ (r * h_prev).reshape(b * t_len, h)
    return (
        (flat @ w_x).reshape(b, t_len, d),
        np.concatenate([d_wzr[:h], d_wx[:h]], axis=1),
        np.concatenate([d_wzr[h:], d_wx[h : 2 * h]], axis=1),
        np.concatenate([d_whh, d_wx[2 * h :]], axis=1),
    )


def _attention_forward(attn: AttentionParams, hid: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tanh(W_a h) (B, T, a), weights (B, T), context (B, h))."""
    acts = np.tanh(hid @ attn.w_a.data.T)
    scores = acts @ attn.u.data[:, 0]
    ex = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha = ex / ex.sum(axis=1, keepdims=True)
    return acts, alpha, np.einsum("bt,bth->bh", alpha, hid)


def _attention_backward(attn: AttentionParams, hid: np.ndarray, acts: np.ndarray,
                        alpha: np.ndarray, d_ctx: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_hid, d_w_a, d_u)."""
    d_alpha = np.einsum("bth,bh->bt", hid, d_ctx)
    d_scores = alpha * (d_alpha - np.sum(d_alpha * alpha, axis=1, keepdims=True))
    d_act = d_scores[:, :, None] * attn.u.data[:, 0] * (1.0 - acts * acts)
    a, h = acts.shape[2], hid.shape[2]
    d_w_a = d_act.reshape(-1, a).T @ hid.reshape(-1, h)
    d_u = (acts.reshape(-1, a).T @ d_scores.reshape(-1))[:, None]
    d_hid = alpha[:, :, None] * d_ctx[:, None, :] + d_act @ attn.w_a.data
    return d_hid, d_w_a, d_u


def batch_forward(model: CnnGruModel, samples: Sequence[WindowSample]) -> BatchCache:
    """One forward pass over a batch of windows; the cache's pred (B,) and
    logits (B, C) equal what model_forward gives each window."""
    return table_forward(model, day_table(model.cfg, samples), np.arange(len(samples)))


def table_forward(model: CnnGruModel, table: DayTable, index: np.ndarray) -> BatchCache:
    """One forward pass over the windows of table that index names, in its order."""
    if not len(index):
        raise ShapeError("a forward pass needs at least one window")
    day_index, feats, ids, seg, counts = _gather(model, table, index)
    winners = pooled = None
    if model.arch is ArchKind.GRU_ONLY:
        items = model.embedding.table.data[ids]
    else:
        pooled, winners = _conv_encode(model, ids)
        items = pooled
    vecs = np.zeros((len(counts) + 1, _text_dim(model.cfg, model.arch)))
    np.add.at(vecs, seg, items)
    vecs[:-1] /= np.maximum(counts, 1)[:, None]
    x = np.concatenate([vecs[day_index], feats], axis=2)

    gru = attn = None
    if model.arch is ArchKind.CNN_ONLY:
        ctx = x.mean(axis=1)
    else:
        gru = _gru_forward(model.gru, x)
        if model.attention is not None:
            acts, alpha, ctx = _attention_forward(model.attention, gru[3])
            attn = (acts, alpha)
        else:
            ctx = gru[3][:, -1]
    pred = (ctx @ model.head_reg.w.data.T + model.head_reg.b.data.T)[:, 0]
    logits = ctx @ model.head_cls.w.data.T + model.head_cls.b.data.T
    return BatchCache(day_index=day_index, ids=ids, seg=seg, counts=counts,
                      winners=winners, pooled=pooled, x=x, gru=gru, attn=attn,
                      ctx=ctx, pred=pred, logits=logits)


def batch_backward(model: CnnGruModel, cache: BatchCache, target_returns: np.ndarray,
                   target_classes: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of mse_weight*MSE + (1-mse_weight)*CE for every named tensor,
    summed over the batch."""
    lam = model.cfg.mse_weight
    d_pred = lam * 2.0 * (cache.pred - target_returns)
    d_logits = softmax_rows(cache.logits)
    d_logits[np.arange(len(d_logits)), target_classes] -= 1.0
    d_logits *= 1.0 - lam
    grads: dict[str, np.ndarray] = {
        "head_reg/w": d_pred[None, :] @ cache.ctx,
        "head_reg/b": np.array([[d_pred.sum()]]),
        "head_cls/w": d_logits.T @ cache.ctx,
        "head_cls/b": d_logits.sum(axis=0)[:, None],
    }
    d_ctx = d_pred[:, None] @ model.head_reg.w.data + d_logits @ model.head_cls.w.data

    if model.arch is ArchKind.CNN_ONLY:
        d_x = np.broadcast_to(d_ctx[:, None, :] / model.cfg.window, cache.x.shape)
    else:
        hid = cache.gru[3]
        if model.attention is not None:
            d_hid, grads["attn/w_a"], grads["attn/u"] = _attention_backward(
                model.attention, hid, *cache.attn, d_ctx)
        else:
            d_hid = np.zeros_like(hid)
            d_hid[:, -1] = d_ctx
        d_x, grads["gru/w_z"], grads["gru/w_r"], grads["gru/w"] = _gru_backward(
            model.gru, cache.x, cache.gru, d_hid)

    text_dim = _text_dim(model.cfg, model.arch)
    d_vecs = np.zeros((len(cache.counts) + 1, text_dim))
    np.add.at(d_vecs, cache.day_index.ravel(), d_x[:, :, :text_dim].reshape(-1, text_dim))
    d_items = d_vecs[cache.seg] / cache.counts[cache.seg][:, None]
    d_embed = np.zeros_like(model.embedding.table.data)
    if model.arch is ArchKind.GRU_ONLY:
        np.add.at(d_embed, cache.ids, d_items)
    else:
        grads["conv/k"] = _conv_backward(model, cache, d_items, d_embed)
    d_embed[0, :] = 0.0  # pad row is frozen
    grads["embedding"] = d_embed
    return {name: grads[name] for name in named_params(model)}


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(model: CnnGruModel, path: str | Path) -> None:
    """Versioned JSON: config block plus named tensors as nested float lists.

    Format 2 stores the conv filters as the one conv/k tensor; load_checkpoint
    rejects format 1 (one conv/k<i> tensor per filter), whose models must be
    retrained.

    Python's repr-based float serialization round-trips every finite float64
    bit-exactly, which load_checkpoint relies on.
    """
    tensors = {}
    for name, t in named_params(model).items():
        if not np.all(np.isfinite(t.data)):
            raise CheckpointError(f"tensor {name} contains non-finite values")
        tensors[name] = {"rows": t.rows, "cols": t.cols, "values": t.to_lists()}
    obj = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "arch": model.arch.value,
        "config": model.cfg.to_dict(),
        "tensors": tensors,
    }
    Path(path).write_text(json.dumps(obj) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> CnnGruModel:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise CheckpointError(f"checkpoint {path} is not a json object")
    version = obj.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format_version {version!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    for key in ("arch", "config", "tensors"):
        if key not in obj:
            raise CheckpointError(f"checkpoint missing key {key!r}")
    try:
        arch = ArchKind(obj["arch"])
    except ValueError:
        raise CheckpointError(f"unknown arch {obj['arch']!r}") from None
    try:
        cfg = ModelConfig.from_dict(obj["config"])
    except TypeError as exc:
        raise CheckpointError(f"bad config block: {exc}") from None
    model = build_model(cfg, arch)
    expected = named_params(model)
    stored = obj["tensors"]
    missing = sorted(set(expected) - set(stored))
    if missing:
        raise CheckpointError(f"checkpoint missing tensors: {missing}")
    extra = sorted(set(stored) - set(expected))
    if extra:
        raise CheckpointError(f"checkpoint has unexpected tensors: {extra}")
    params: dict[str, Matrix] = {}
    for name, spec in stored.items():
        try:
            rows, cols, values = spec["rows"], spec["cols"], spec["values"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"tensor {name} malformed: {exc}") from None
        want = expected[name].shape
        if (rows, cols) != want:
            raise CheckpointError(
                f"tensor {name} has shape {(rows, cols)}, expected {want}"
            )
        if not isinstance(values, list) or not all(isinstance(r, list) for r in values):
            raise CheckpointError(f"tensor {name} values must be nested lists")
        flat = [v for row in values for v in row]
        if len(flat) != rows * cols:
            raise CheckpointError(
                f"tensor {name} holds {len(flat)} values, expected {rows * cols}"
            )
        try:
            params[name] = Matrix(rows, cols, flat)
        except (ShapeError, NumericError, ValueError, TypeError) as exc:
            raise CheckpointError(f"tensor {name} invalid: {exc}") from None
    return set_named_params(model, params)
