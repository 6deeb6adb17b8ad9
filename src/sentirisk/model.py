"""Model assembly: the CNN-GRU network, its two ablations, and checkpoints.

Per-day encoding (CnnGru, CnnOnly): each document is embedded, convolved,
ReLU'd, and global-max-pooled; pooled vectors are averaged over the day's
documents and concatenated with the day's market features. GruOnly replaces
the convolutional text encoder with the mean of the day's token embeddings.
CnnGru and GruOnly run a GRU over the window and pool its hidden states with
additive attention (or take the last hidden state); CnnOnly averages the day
vectors directly. Two dense heads emit the scalar return prediction and the
3-class sentiment logits. The conv filters are one (kernel_width * embed_dim,
num_filters) tensor, conv/k; the batched path below reads it regrouped as
(embed_dim, kernel_width * num_filters).

Two paths compute this network from the same parameters. table_forward and
batch_backward run a whole batch of windows on raw ndarrays, the model's
tensors: the batched core behind training, validation, evaluate, predict
and alert (train.score_windows scores a list of windows). model_forward and
model_backward run one window on Matrix values, layer by layer through
layers.py: the per-window reference the batched core is tested against,
which nothing else in the package calls, and the only reader of the model's
six Matrix containers. A DayTable holds the distinct days of a split as
read-only arrays, built once with the checks the model's config sets (window
length, token ids): a prepared dataset's split builds it from the dataset's
columns, with no window object, and any other list of windows from its
objects, through the same constructor. A data.Split keeps its table for each
text configuration, so every train, evaluate or score call on it after the
first reuses the table; a batch is a list of window indices into it.
Each distinct day text of the batch is encoded once: one matrix product
gives each distinct token its response to every filter at
every window position, a window sums those of its tokens, and only the
windows that start at or before the last token of the table's longest
document run (later windows see only padding and cannot win the max-pool).
GruOnly's mean embedding keeps no row per token: one bincount per chunk
of text rows tallies how many times each token id occurs in each, the text
vectors are that tally times those ids' embedding rows, over each row's
token count, and the embedding gradient is the transposed tally times the
text rows' gradients over the same counts.
Every per-(window, day) array is time-major, with time the leading axis.
day_index (T, B) and the market features (T, B, 5) are batch-major within
a step; the recurrent half is feature-major, (T, features, B): the GRU's
input projections, gates, candidates and hidden states, attention's
activations and the hidden-state gradient, so each step's slice is one
contiguous (features, B) block and the step products put the weights on
the left (W h). The heads read the context as a (B, h) view. The GRU's
h-side and feature-column weight gradients and attention's W_a and u
gradients are sums over the T steps of one product per step, in step
order. The GRU takes its input projections for all steps before the
recurrence, the text side's over the batch's distinct texts only; its
backward pass sums the gate gradients into those text rows before the text
side's products. Rows are summed by one np.bincount over flat
indices each. batch_forward(model, samples) builds a table of its
samples and runs them all. Every reduction runs in a fixed order, so
seeded reruns are bitwise identical.

A Workspace keeps every batch-sized array of the batched core (market
features, pooled conv outputs, GRU projections and states, attention
activations, the kernels' scratch, input gradients, the gradient vector)
resident from one call to the next, so a training run does not hand them
back to the allocator and fault them in again each batch; arrays that are
never alive at once share a buffer. train and score_windows borrow one from
a process-wide pool of idle workspaces for the length of the call (see
train.py); with none, table_forward and batch_backward allocate afresh.
Aliasing rule: a BatchCache built with a workspace is valid until the next
table_forward on that workspace, and a gradient vector batch_backward
returns from one until the next batch_backward on it.

A model's weights are one float64 vector, params, laid out as param_shapes
lists the tensors, and tensors names their read-only views of it;
build_model, load_checkpoint and train all build the model over such a
vector, and batch_backward's gradients share its layout.

A checkpoint (format 3) is one JSON object: format_version, arch, the config
block, a "tensors" index of name -> [rows, cols] in param_shapes order, and
"values", the base64 of params as little-endian float64 bytes. The payload
is the weights' raw bits, so a save/load round trip is bit-exact without
printing or parsing a float.
"""

from __future__ import annotations

import base64
import enum
import json
import math
import typing
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import (
    N_MARKET_FEATURES,
    Split,
    WindowSample,
    atomic_write,
    check_fields,
    read_json,
)
from .errors import CheckpointError, DataValidationError, ShapeError
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
from .matrix import Matrix
from .text import NUM_CLASSES

CHECKPOINT_FORMAT_VERSION = 3


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
            "attn_size": self.attention_size,
        }
        for name, v in counts.items():
            if v < 1:
                raise ShapeError(f"{name} must be positive, got {v}")
            if v >= 2**63:  # numpy sizes and indexes arrays with int64
                raise ShapeError(f"{name} must be below 2**63, got {v}")
        if self.vocab_size < 2:
            raise ShapeError("vocab_size must cover the pad and unknown ids")
        if self.max_doc_len < self.kernel_width:
            raise ShapeError(
                f"max_doc_len {self.max_doc_len} shorter than kernel width {self.kernel_width}"
            )
        if not 0.0 <= self.mse_weight <= 1.0:
            raise ShapeError(f"mse_weight must lie in [0, 1], got {self.mse_weight}")
        if self.seed < 0:
            raise ShapeError(f"seed must be non-negative, got {self.seed}")

    @property
    def attention_size(self) -> int:
        return self.attn_size if self.attn_size is not None else self.gru_hidden

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class CnnGruModel:
    """The network of cfg and arch over params, one float64 vector laid out as
    param_shapes lists the tensors. tensors (read by the batched core) and the
    six parts below (the per-window reference's) are read-only views of it,
    built here and nowhere else; a write to the vector (train's optimizer)
    shows through them. Models compare by identity."""

    cfg: ModelConfig
    arch: ArchKind
    params: np.ndarray
    # each tensor's (span of params, (rows, cols)), in param_shapes order
    layout: dict[str, tuple[slice, tuple[int, int]]] = field(init=False, repr=False)
    tensors: dict[str, np.ndarray] = field(init=False)
    embedding: EmbeddingTable = field(init=False)
    conv: Conv1DParams | None = field(init=False)
    gru: GRUParams | None = field(init=False)
    attention: AttentionParams | None = field(init=False)
    head_reg: DenseParams = field(init=False)
    head_cls: DenseParams = field(init=False)

    def __post_init__(self) -> None:
        self.layout, at = {}, 0
        for name, (rows, cols) in param_shapes(self.cfg, self.arch).items():
            self.layout[name] = (slice(at, at + rows * cols), (rows, cols))
            at += rows * cols
        self.params = self.params.view()
        self.params.flags.writeable = False
        self.tensors = param_views(self, self.params)
        t = {name: Matrix._wrap(v) for name, v in self.tensors.items()}
        self.embedding = EmbeddingTable(t["embedding"])  # checks the zero pad row
        self.conv = (Conv1DParams(t["conv/k"], self.cfg.kernel_width, self.cfg.conv_stride)
                     if "conv/k" in t else None)
        self.gru = GRUParams(t["gru/w_z"], t["gru/w_r"], t["gru/w"]) if "gru/w" in t else None
        self.attention = AttentionParams(t["attn/w_a"], t["attn/u"]) if "attn/u" in t else None
        self.head_reg = DenseParams(t["head_reg/w"], t["head_reg/b"])
        self.head_cls = DenseParams(t["head_cls/w"], t["head_cls/b"])


def _text_dim(cfg: ModelConfig, arch: ArchKind) -> int:
    """Size of a day's text vector: mean embedding (GruOnly) or pooled filters."""
    return cfg.embed_dim if arch is ArchKind.GRU_ONLY else cfg.num_filters


def param_shapes(cfg: ModelConfig, arch: ArchKind) -> dict[str, tuple[int, int]]:
    """(rows, cols) of every tensor of the model cfg and arch describe, in the
    order of its params vector: what build_model draws and a checkpoint lists."""
    day_dim = _text_dim(cfg, arch) + N_MARKET_FEATURES
    head_in = day_dim if arch is ArchKind.CNN_ONLY else cfg.gru_hidden
    shapes = {"embedding": (cfg.vocab_size, cfg.embed_dim)}
    if arch is not ArchKind.GRU_ONLY:
        shapes["conv/k"] = (cfg.kernel_width * cfg.embed_dim, cfg.num_filters)
    if arch is not ArchKind.CNN_ONLY:
        shapes |= dict.fromkeys(("gru/w_z", "gru/w_r", "gru/w"),
                                (cfg.gru_hidden, cfg.gru_hidden + day_dim))
        if cfg.attention_enabled:
            shapes |= {"attn/w_a": (cfg.attention_size, cfg.gru_hidden),
                       "attn/u": (cfg.attention_size, 1)}
    return shapes | {"head_reg/w": (1, head_in), "head_reg/b": (1, 1),
                     "head_cls/w": (NUM_CLASSES, head_in), "head_cls/b": (NUM_CLASSES, 1)}


def param_views(model: CnnGruModel, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Every tensor of model by name, as a (rows, cols) view of its span of
    flat: a contiguous float64 vector laid out as model.params, such as the
    parameters themselves or batch_backward's gradients."""
    size = max(span.stop for span, _ in model.layout.values())
    if flat.dtype != np.float64 or flat.shape != (size,) or not flat.flags.c_contiguous:
        raise ShapeError(f"flat parameters must be a contiguous float64 vector of shape "
                         f"({size},), got {flat.dtype} {flat.shape}")
    return {name: flat[span].reshape(shape) for name, (span, shape) in model.layout.items()}


def build_model(cfg: ModelConfig, arch: ArchKind) -> CnnGruModel:
    """Deterministic seeded build: the tensors of param_shapes drawn in its
    order from one PCG64 stream of cfg.seed, concatenated into params."""
    shapes = param_shapes(cfg, arch)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    drawn = [init_embedding(rng, *shapes["embedding"]).table]
    if "conv/k" in shapes:
        drawn.append(init_conv(rng, cfg.num_filters, cfg.kernel_width, cfg.embed_dim,
                               cfg.conv_stride).kernel)
    if "gru/w" in shapes:
        hidden, cols = shapes["gru/w"]
        gru = init_gru(rng, hidden, cols - hidden)
        drawn += [gru.w_z, gru.w_r, gru.w]
    if "attn/w_a" in shapes:
        attention = init_attention(rng, *shapes["attn/w_a"])
        drawn += [attention.w_a, attention.u]
    for head in ("head_reg/w", "head_cls/w"):
        dense = init_dense(rng, *shapes[head])
        drawn += [dense.w, dense.b]
    return CnnGruModel(cfg, arch, np.concatenate([t.data.ravel() for t in drawn]))


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


def model_forward(model: CnnGruModel, sample: WindowSample
                  ) -> tuple[float, Matrix, ModelCache]:
    cfg = model.cfg
    _check_window(cfg, sample)
    text_dim = _text_dim(cfg, model.arch)
    day_text: list[DayTextCache | None] = []
    day_vecs: list[Matrix] = []
    for day in sample.inputs:
        if day.token_seqs:
            if model.arch is ArchKind.GRU_ONLY:
                text_vec, cache = _day_text_mean_embed(model, day.token_seqs)
            else:
                text_vec, cache = _day_text_conv(model, day.token_seqs)
        else:
            text_vec, cache = Matrix.zeros(text_dim, 1), None
        day_text.append(cache)
        day_vecs.append(Matrix._wrap(np.concatenate([text_vec.data[:, 0], day.features])[:, None]))

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

    expected = set(param_shapes(cfg, model.arch))
    if set(grads) != expected:
        raise ShapeError(f"gradient names {sorted(grads)} do not match {sorted(expected)}")
    return grads


# ---------------------------------------------------------------------------
# batched core: a whole mini-batch as raw ndarrays
# ---------------------------------------------------------------------------

# values of the (documents, windows, filters) pre-activations per chunk of
# documents (512 KB of float64): bounds the text encoder's scratch arrays
# whatever the batch size
CHUNK_VALUES = 1 << 16


class Workspace:
    """Named scratch arrays that the batched core reuses across calls.

    take(name, shape, dtype) returns a C-contiguous view of the front of one
    flat buffer per name, grown only when more bytes are asked for, so one
    buffer serves every batch width up to the largest seen: full batches, a
    ragged last batch and validation blocks alike. A view is uninitialized
    and is overwritten by the next take of its name.

    Names whose arrays outlive the function that takes them hold one array
    each: the BatchCache's feats, items (pooled outputs), winners, zr, cand,
    hid and acts; batch_backward's grads, d_hid and d_items; Adam's adam/m
    and adam/v. The names scratch0, scratch1 and scratch2 are shared: a
    kernel takes them for arrays that die before it returns, and never
    passes one to another kernel, so the workspace holds one kernel's
    temporaries at a time, not their sum.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buf = self._buffers.get(name)
        if buf is None or buf.nbytes < nbytes:
            buf = self._buffers[name] = np.empty(-(-nbytes // 8))  # 8-byte aligned
        return buf.view(np.uint8)[:nbytes].view(dtype).reshape(shape)


# a _conv_plan: (token positions of the conv windows to run, the distinct
# token ids they read, each token id's row among them, documents per chunk)
ConvPlan = tuple[np.ndarray, np.ndarray, np.ndarray, int]
# a _tally: for each chunk of text rows, (its first row, the distinct non-pad
# token ids of its documents, ascending, and (rows, ids) float64 counts of
# each id in each row)
Tally = list[tuple[int, np.ndarray, np.ndarray]]


@dataclass
class BatchCache:
    """What batch_backward needs from batch_forward, for B windows of T days.

    Each distinct text of the batch is encoded once. day_index maps every
    (window, day) to its row of the text table vecs, whose last row, U, is
    the zero vector of the days without text; nothing joins a day's text
    row to its features. The conv path keeps only the token ids, its plan
    and the max-pool winners of each document; the mean path keeps its
    tally, the count of each token id in each text row. Every per-(window,
    day) array is time-major; gru and attn's activations are feature-major
    within each step. Built with a Workspace, feats, gru, attn's
    activations and, without attention, ctx are views of it.
    """

    day_index: np.ndarray  # (T, B)
    ids: np.ndarray  # (N, W) padded documents (DayTable.docs)
    seg: np.ndarray  # (N,) the text row of each document
    counts: np.ndarray  # (U,) conv: documents per text row; mean: non-pad tokens
    plan: ConvPlan | None  # conv: _conv_plan of ids
    tally: Tally | None  # mean: _tally of ids
    winners: np.ndarray | None  # conv: (N, F) max-pool time step per filter
    pooled: np.ndarray | None  # conv: (N, F) pooled ReLU outputs
    vecs: np.ndarray  # (U + 1, k) text vectors; row U is zero
    feats: np.ndarray  # (T, B, 5) market features
    # z and r (T, 2h, B), candidate (T, h, B), hidden (T + 1, h, B) from h_0 = 0
    gru: tuple[np.ndarray, np.ndarray, np.ndarray] | None
    attn: tuple[np.ndarray, np.ndarray] | None  # tanh(W_a h) (T, a, B), weights (T, B)
    ctx: np.ndarray  # (B, head_in); without attention a view of the last (h, B) state
    pred: np.ndarray  # (B,)
    logits: np.ndarray  # (B, C)


@dataclass(frozen=True)
class DayTable:
    """The distinct days of a list of windows, as read-only arrays built and
    checked once.

    Days are rows numbered by first appearance: a prepared dataset's day rows
    (day_table of its split), or day objects by identity (_build_table). Texts
    are rows by their truncated token ids, so copies of a day, or two dates
    with the same text, share one text row. A batch is a list of window
    indices into the table.
    """

    windows: np.ndarray  # (n_windows, T) day rows
    features: np.ndarray  # (n_days, 5)
    text: np.ndarray  # (n_days,) text row, -1 for a day without text
    # (n_docs, W) padded token ids, grouped by text row: W holds the longest
    # document and every conv window that starts at or before its last token,
    # the windows _conv_plan runs, and at most max_doc_len ids
    docs: np.ndarray
    doc_start: np.ndarray  # (n_texts + 1,) first document of each text row


def _first_hits(values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(position of each distinct value's first appearance, in order of first
    appearance; each value's number in that order) for values in [0, n),
    without sorting: np.minimum.at marks each value's first position among n
    slots."""
    at = np.arange(len(values))
    first_at = np.full(n, len(values), dtype=np.intp)
    np.minimum.at(first_at, values, at)
    first = np.flatnonzero(first_at[values] == at)
    number = np.empty(n, dtype=np.intp)  # only the slots of values are read
    number[values[first]] = np.arange(len(first))
    return first, number[values]


def day_table(cfg: ModelConfig, samples: Sequence[WindowSample]) -> DayTable:
    """The table of samples. A Split keeps the table its first call builds
    under each text configuration (the cfg fields _table reads) and returns
    that table on later calls; a prepared dataset's split builds it from the
    dataset's columns (_split_table), any other sequence from its window
    objects (_build_table), anew on every call."""
    if not isinstance(samples, Split):
        return _build_table(cfg, samples)
    key = (cfg.window, cfg.max_doc_len, cfg.kernel_width, cfg.conv_stride, cfg.vocab_size)
    if (table := samples.tables.get(key)) is None:
        build = _build_table if samples.dataset is None else _split_table
        table = samples.tables.setdefault(key, build(cfg, samples))
    return table


def _split_table(cfg: ModelConfig, split: Split) -> DayTable:
    """The table of a prepared dataset's split, read off the dataset's columns:
    window i's days are rows start_i + arange(T) of its days, renumbered by
    first appearance, so the table is _build_table's of the same windows,
    whose days are shared objects, one per row."""
    ds, rows = split.dataset, split.window_rows
    if ds.window != cfg.window:
        raise ShapeError(f"sample has {ds.window} days, model expects {cfg.window}")
    starts = np.array(ds.windows.start[rows.start : rows.stop], dtype=np.intp)
    flat = (starts[:, None] + np.arange(cfg.window)).ravel()
    first, number = _first_hits(flat, len(ds.days.date))
    days = flat[first]
    return _table(cfg, number.reshape(len(starts), cfg.window), ds.features[days],
                  [ds.days.token_seqs[day] for day in days])


def _build_table(cfg: ModelConfig, samples: Sequence[WindowSample]) -> DayTable:
    """The table of window objects: days are rows by object identity, so
    copies of a day are rows of their own. Rows are numbered by first
    appearance, so the Python loop below runs once per distinct day, not
    once per (window, day)."""
    for sample in samples:
        _check_window(cfg, sample)
    flat = [day for sample in samples for day in sample.inputs]
    # flat holds every day object, so no id is reused while this runs
    row_of: dict[int, int] = {}
    rows = np.array([row_of.setdefault(id(day), len(row_of)) for day in flat], dtype=np.intp)
    days = list({id(day): day for day in flat}.values())
    features = np.array([day.features for day in days], dtype=np.float64)
    return _table(cfg, rows.reshape(len(samples), cfg.window),
                  features.reshape(-1, N_MARKET_FEATURES), [day.token_seqs for day in days])


def _table(cfg: ModelConfig, windows: np.ndarray, features: np.ndarray,
           token_seqs: Sequence[tuple[tuple[int, ...], ...]]) -> DayTable:
    """The DayTable of windows (n_windows, T), rows into features (n_days, 5)
    and token_seqs, each day's documents; the token-id check runs here.
    Texts are rows by their truncated token ids, numbered in day order. The
    arrays are made read-only, since a Split shares its table among calls."""
    texts: dict[tuple[tuple[int, ...], ...], int] = {}
    text = np.full(len(token_seqs), -1, dtype=np.intp)
    for row, seqs in enumerate(token_seqs):
        if seqs:
            key = tuple(seq[: cfg.max_doc_len] for seq in seqs)
            text[row] = texts.setdefault(key, len(texts))
    counts = np.array([len(key) for key in texts], dtype=np.intp)
    longest = max((len(seq) for key in texts for seq in key), default=0)
    width = min(cfg.max_doc_len, max(longest, (max(longest, 1) - 1) // cfg.conv_stride
                                     * cfg.conv_stride + cfg.kernel_width))
    docs = np.zeros((int(counts.sum()), width), dtype=np.intp)
    for i, seq in enumerate(seq for key in texts for seq in key):
        docs[i, : len(seq)] = seq
    bad = docs[(docs < 0) | (docs >= cfg.vocab_size)]
    if bad.size:
        raise ShapeError(f"token id {bad[0]} out of range for vocab of {cfg.vocab_size}")
    table = DayTable(windows=windows, features=features, text=text, docs=docs,
                     doc_start=np.concatenate([[0], np.cumsum(counts)]))
    for array in vars(table).values():
        array.flags.writeable = False
    return table


def _gather(table: DayTable, index: np.ndarray, ws: Workspace
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(day_index (T, B), features (T, B, 5) in ws, ids, seg, counts) of
    the windows index names.

    The batch's text rows are numbered in order of first appearance, window
    by window; ids holds their padded documents, grouped by text row, seg
    each document's text row and counts the documents of each text row.
    """
    day_rows = table.windows[index]
    text_rows = table.text[day_rows].ravel()
    has_text = text_rows >= 0
    with_text = text_rows[has_text]
    first, rank = _first_hits(with_text, len(table.doc_start) - 1)
    day_index = np.full(text_rows.shape, len(first), dtype=np.intp)
    day_index[has_text] = rank
    texts = with_text[first]
    starts = table.doc_start[texts]
    n_docs = table.doc_start[texts + 1] - starts
    doc_rows = np.repeat(starts - np.cumsum(n_docs) + n_docs, n_docs) + np.arange(n_docs.sum())
    ids = table.docs[doc_rows]
    seg = np.repeat(np.arange(len(texts)), n_docs)
    feats = np.take(table.features, day_rows.T, axis=0, mode="clip",
                    out=ws.take("feats", (*day_rows.T.shape, N_MARKET_FEATURES)))
    return day_index.reshape(day_rows.shape).T, feats, ids, seg, n_docs


def _row_sums(rows: np.ndarray, values: np.ndarray, n_rows: int, ws: Workspace
              ) -> np.ndarray:
    """(n_rows, width): the rows of values (..., width) summed by their row
    in rows (of values' leading shape), as np.add.at into zeros would, but as
    one np.bincount over flat indices (in ws), which adds the same elements
    in the same order: the same bits, several times faster."""
    width = values.shape[-1]
    flat = np.multiply(rows.reshape(-1, 1), width,
                       out=ws.take("scratch0", (rows.size, width), np.intp))
    flat += np.arange(width)
    sums = np.bincount(flat.ravel(), weights=values.reshape(-1), minlength=n_rows * width)
    # an empty index gives integer zeros, weights or not
    return sums.astype(np.float64, copy=False).reshape(n_rows, width)


def _tally(model: CnnGruModel, ids: np.ndarray, seg: np.ndarray, n_docs: np.ndarray
           ) -> tuple[Tally, np.ndarray]:
    """(tally, counts) of the padded documents ids (N, W) of text rows seg
    (N,), n_docs (U,) documents each: the chunks of a _tally, and each text
    row's number of non-pad tokens. One pass over the vocabulary finds the
    batch's distinct ids; a chunk of several takes its own by sorting its
    documents' ids. One bincount per chunk counts every id, the pad's in
    column 0, which the tally drops. A chunk takes at most CHUNK_VALUES //
    (the batch's distinct ids, the pad included) text rows, so its counts
    hold at most CHUNK_VALUES values whatever the batch size or vocabulary,
    and it has a column only for the ids its rows hold.
    """
    seen = np.zeros(model.cfg.vocab_size, dtype=bool)
    seen[ids] = True
    seen[0] = True  # column 0: the pad
    batch_ids = np.flatnonzero(seen)
    step = max(1, CHUNK_VALUES // len(batch_ids))
    first_doc = np.concatenate([[0], np.cumsum(n_docs)])
    col = np.empty(len(seen), dtype=np.intp)  # only the slots of a chunk's ids are read
    tally, counts = [], np.empty(len(n_docs), dtype=np.intp)
    for s in range(0, len(n_docs), step):
        n_rows = min(step, len(n_docs) - s)
        docs = slice(first_doc[s], first_doc[s + n_rows])
        # one chunk takes the batch's ids, with no sort: on the ablation workload,
        # sorting every chunk cost 1.3% of train_s, np.unique 2.0% (and
        # 1.6 MB of peak RSS)
        tokens = batch_ids
        if n_rows < len(n_docs):  # one of several chunks: the ids it holds, ascending
            held = np.sort(np.append(ids[docs], 0))
            tokens = held[np.append(True, held[1:] != held[:-1])]
        col[tokens] = np.arange(len(tokens))
        cells = col[ids[docs]]
        cells += ((seg[docs] - s) * len(tokens))[:, None]
        rows = np.bincount(cells.ravel(), minlength=n_rows * len(tokens)).reshape(n_rows, -1)
        counts[s : s + n_rows] = rows[:, 1:].sum(axis=1)
        tally.append((s, tokens[1:], rows[:, 1:].astype(np.float64)))
    return tally, counts


def _conv_plan(model: CnnGruModel, ids: np.ndarray) -> ConvPlan:
    """(token positions of the conv windows to run (n_windows, width), the
    distinct token ids those windows read, ascending, each token id's row
    among them, documents per chunk); table_forward makes it once per batch
    and keeps it in the BatchCache for _conv_backward.

    The windows are all that fit in the width of ids, which day_table sets
    just wide enough for the table's longest document: those that start at
    or before its last token, and at least one. Every later window of the
    max_doc_len grid sees only the all-zero pad row, so its ReLU output is 0,
    which never beats an earlier window under max-over-time pooling (ties go
    to the earliest step): the pooled values, winners and gradients are
    those of the full grid of windows. The pad id is always one of the
    tokens, so the token set, and with it every bit of the per-token
    projections, does not depend on the width either.
    """
    cfg = model.cfg
    n_windows = conv_output_length(ids.shape[1], cfg.kernel_width, cfg.conv_stride)
    windows = (np.arange(n_windows) * cfg.conv_stride)[:, None] + np.arange(cfg.kernel_width)
    seen = np.zeros(cfg.vocab_size, dtype=bool)
    seen[0] = True
    seen[ids[:, windows.ravel()]] = True
    tokens = np.flatnonzero(seen)
    row = np.zeros(cfg.vocab_size, dtype=np.intp)
    row[tokens] = np.arange(len(tokens))
    return windows, tokens, row, max(1, CHUNK_VALUES // (n_windows * cfg.num_filters))


def _regroup(kernel: np.ndarray, width: int) -> np.ndarray:
    """A (width * E, F) kernel as (E, width * F): column k * F + f holds the
    weights filter f gives the token at window position k."""
    return kernel.reshape(width, -1, kernel.shape[1]).transpose(1, 0, 2).reshape(
        -1, width * kernel.shape[1])


def _conv_encode(model: CnnGruModel, ids: np.ndarray, plan: ConvPlan, ws: Workspace
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(pooled, winners) of every document, views of ws: conv, ReLU, max-pool
    over time (ties go to the earliest step); plan is _conv_plan(model, ids).

    The conv is linear in the embedded tokens, so one product gives every
    distinct token's response to each filter at each window position,
    proj (U * width, F) with row u * width + k for token u at position k,
    and a window's pre-activation is the sum of width gathered rows of it,
    added in position order. Activations are window-major, so the pooling
    reduces over whole (documents, F) slabs.
    """
    width = model.cfg.kernel_width
    kernel = model.tensors["conv/k"]
    n_filters = kernel.shape[1]
    windows, tokens, row, step = plan
    emb = np.take(model.tensors["embedding"], tokens, axis=0, mode="clip",
                  out=ws.take("scratch1", (len(tokens), model.cfg.embed_dim)))
    proj = np.matmul(emb, _regroup(kernel, width),
                     out=ws.take("scratch2", (len(tokens), width * n_filters)))
    proj = proj.reshape(len(tokens) * width, n_filters)
    # window j weighs n_windows - j: the heaviest window at the max is the earliest
    weight = np.arange(len(windows), 0, -1, dtype=np.min_scalar_type(len(windows)))
    pooled = ws.take("items", (len(ids), n_filters))
    winners = ws.take("winners", (len(ids), n_filters), np.intp)
    for s in range(0, len(ids), step):
        tok = row[ids[s : s + step].T[windows]]  # (n_windows, width, n)
        tok *= width
        tok += np.arange(width)[:, None]  # proj's row of each token at its position
        shape = (len(windows), tok.shape[2], n_filters)
        act = np.take(proj, tok[:, 0], axis=0, mode="clip", out=ws.take("scratch0", shape))
        term = ws.take("scratch1", shape)
        for k in range(1, width):
            act += np.take(proj, tok[:, k], axis=0, mode="clip", out=term)
        np.maximum(act, 0.0, out=act)
        best = np.max(act, axis=0, out=pooled[s : s + step])
        # not below the max: the max itself, or every window when it is NaN
        top = ~(act < best) * weight[:, None, None]
        winners[s : s + step] = len(windows) - top.max(axis=0)
    return pooled, winners


def _conv_backward(model: CnnGruModel, cache: BatchCache, d_pooled: np.ndarray,
                   d_embed: np.ndarray, ws: Workspace) -> np.ndarray:
    """Kernel-matrix gradient; adds the embedding gradient into d_embed. The
    scratch arrays are views of ws.

    Only each filter's winning window carries gradient, so it is scattered
    straight into the gradient of proj, one add per (document, filter,
    position); two products then take it back to the kernel and to the
    embedding rows of the batch's tokens.
    """
    cfg = model.cfg
    width = cfg.kernel_width
    kernel = model.tensors["conv/k"]
    n_filters = kernel.shape[1]
    _, tokens, row, step = cache.plan
    d_proj = ws.take("scratch0", (len(tokens) * width * n_filters,))
    d_proj.fill(0.0)
    # the ReLU passes gradient only where the winning pre-activation was positive
    g = np.multiply(d_pooled, cache.pooled > 0.0, out=ws.take("scratch1", d_pooled.shape))
    filters = np.arange(n_filters)
    for s in range(0, len(cache.ids), step):
        ids = cache.ids[s : s + step]
        # flat position in ids of each (document, filter)'s winning window
        start = cache.winners[s : s + step] * cfg.conv_stride
        start += (np.arange(len(ids)) * ids.shape[1])[:, None]
        for k in range(width):
            at = row[ids.reshape(-1)[start + k]]  # (n, F) rows of d_proj, position k
            at *= width * n_filters
            at += k * n_filters + filters
            np.add.at(d_proj, at.ravel(), g[s : s + step].ravel())
    d_proj = d_proj.reshape(len(tokens), width * n_filters)
    shape = (len(tokens), cfg.embed_dim)
    d_rows = np.matmul(d_proj, _regroup(kernel, width).T, out=ws.take("scratch2", shape))
    rows = np.take(d_embed, tokens, axis=0, mode="clip", out=ws.take("scratch1", shape))
    rows += d_rows
    d_embed[tokens] = rows
    emb = np.take(model.tensors["embedding"], tokens, axis=0, mode="clip",
                  out=ws.take("scratch1", shape))
    d_regrouped = emb.T @ d_proj  # (E, width * F)
    return d_regrouped.reshape(-1, width, n_filters).transpose(1, 0, 2).reshape(kernel.shape)


def _gru_block(model: CnnGruModel, flat: np.ndarray) -> np.ndarray:
    """W_z, W_r and W stacked (3h, h + d), as one view of flat, a vector laid
    out as model.params, where param_shapes lists the three next to each other."""
    span, (hidden, cols) = model.layout["gru/w_z"]
    return flat[span.start : span.start + 3 * hidden * cols].reshape(3 * hidden, cols)


def _gru_forward(w: np.ndarray, vecs: np.ndarray, day_index: np.ndarray, feats: np.ndarray,
                 ws: Workspace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z and r (T, 2h, B), candidate (T, h, B), hidden (T + 1, h, B) whose
    step 0 is h_0 = 0) of the day vectors [vecs[day_index], feats]: text rows
    vecs (U + 1, k), day_index (T, B) and features feats (T, B, f); w is
    _gru_block. The states and the input projections are views of ws, each
    step's slice one contiguous (features, B) block.

    The input-side products of every step come before the recurrence, the
    text columns' over the U + 1 text rows, gathered to each (window, day);
    only the h-side products stay in the loop, which writes each step in
    place. The gates take sigmoid(a) = 0.5 + 0.5 tanh(a / 2), with the exact
    halving folded into the z and r weights: three passes, and no overflow
    for any a.
    """
    h = len(w) // 3
    t_len, b = day_index.shape
    k = vecs.shape[1]
    w_x = w[:, h:].copy()  # the input halves of W_z, W_r and W
    w_x[: 2 * h] *= 0.5
    x_proj = np.matmul(w_x[:, k:], feats.transpose(0, 2, 1),
                       out=ws.take("scratch0", (t_len, 3 * h, b)))
    text = np.take(vecs @ w_x[:, :k].T, day_index, axis=0, mode="clip",
                   out=ws.take("scratch1", (t_len, b, 3 * h)))
    x_proj += text.transpose(0, 2, 1)
    w_zr = 0.5 * w[: 2 * h, :h]
    w_hh = w[2 * h :, :h].copy()
    zr = ws.take("zr", (t_len, 2 * h, b))
    cand = ws.take("cand", (t_len, h, b))
    hid = ws.take("hid", (t_len + 1, h, b))
    hid[0] = 0.0
    rh = np.empty((h, b))
    for gates, c, h_prev, h_next, x in zip(zr, cand, hid[:-1], hid[1:], x_proj):
        np.dot(w_zr, h_prev, out=gates)
        gates += x[: 2 * h]
        np.tanh(gates, out=gates)
        gates *= 0.5
        gates += 0.5
        np.multiply(gates[h:], h_prev, out=rh)
        np.dot(w_hh, rh, out=c)
        c += x[2 * h :]
        np.tanh(c, out=c)
        # h_t = (1 - z) h_{t-1} + z c, as h_{t-1} + z (c - h_{t-1})
        np.subtract(c, h_prev, out=h_next)
        h_next *= gates[:h]
        h_next += h_prev
    return zr, cand, hid


def _gru_backward(w: np.ndarray, vecs: np.ndarray, day_index: np.ndarray, feats: np.ndarray,
                  states: tuple[np.ndarray, ...], d_hid: np.ndarray, d_w: np.ndarray,
                  ws: Workspace) -> np.ndarray:
    """Writes the gradient of w (_gru_block) into d_w of its shape and returns
    that of the text rows vecs (U + 1, k); vecs, day_index and feats are as
    _gru_forward takes them, states as it returns them. The scratch arrays
    are views of ws. d_hid (T, h, B) holds the gradient reaching each h_t
    from outside the chain.

    The factors of each step that do not depend on the carried gradient are
    computed for all steps before the loop, into the z|r|candidate
    pre-activation gradient (T, 3h, B) that each step then scales in place.
    A step holds [dh | d(r h_{t-1})] as one (2h, B) block, which scales z|r
    in one call and, times [1 - z | r] and summed by halves, carries dh to
    h_{t-1}; step 0 stops before the carry, since nothing reads h_0's
    gradient. After the loop, each weight gradient of the h-side and feature
    columns is a sum over the T steps of one product per step; the text
    side's products run over the U + 1 text rows, into which one np.bincount
    sums the gate gradients, each row's in (t, b) order.
    """
    zr, cand, hid = states
    h = len(w) // 3
    t_len, b = day_index.shape
    n_rows, k = vecs.shape
    h_prev = hid[:-1]
    d_pre = ws.take("scratch1", (t_len, 3 * h, b))
    d_zr, d_c = d_pre[:, : 2 * h], d_pre[:, 2 * h :]
    keep = np.subtract(1.0, zr, out=ws.take("scratch0", zr.shape))
    # times dh: (c - h_{t-1}) z (1 - z); times d(r h_{t-1}): h_{t-1} r (1 - r)
    np.subtract(cand, h_prev, out=d_pre[:, :h])
    d_pre[:, h : 2 * h] = h_prev
    d_zr *= zr
    d_zr *= keep
    keep[:, h:] = zr[:, h:]  # [1 - z | r]: [dh | d(r h_{t-1})] -> h_{t-1}
    np.multiply(cand, cand, out=d_c)  # times dh: z (1 - c^2)
    np.subtract(1.0, d_c, out=d_c)
    d_c *= zr[:, :h]
    w_zr_t, w_hh_t = w[: 2 * h, :h].T.copy(), w[2 * h :, :h].T.copy()
    pair, back = np.empty((2 * h, b)), np.empty((h, b))
    carry = np.zeros((h, b))
    for t in range(t_len - 1, -1, -1):
        np.add(carry, d_hid[t], out=pair[:h])
        d_c[t] *= pair[:h]
        np.dot(w_hh_t, d_c[t], out=pair[h:])
        d_zr[t] *= pair
        if t == 0:
            break
        pair *= keep[t]
        np.add(pair[:h], pair[h:], out=carry)
        np.dot(w_zr_t, d_zr[t], out=back)
        carry += back
    d_w[:, h + k :] = np.matmul(d_pre, feats).sum(axis=0)
    d_w[: 2 * h, :h] = np.matmul(d_zr, h_prev.transpose(0, 2, 1)).sum(axis=0)
    rh = np.multiply(zr[:, h:], h_prev, out=ws.take("scratch0", cand.shape))
    d_w[2 * h :, :h] = np.matmul(d_c, rh.transpose(0, 2, 1)).sum(axis=0)
    # flat index feature * (U + 1) + text row of every (t, feature, b)
    at = np.add(day_index[:, None, :], (np.arange(3 * h) * n_rows)[:, None],
                out=ws.take("scratch0", d_pre.shape, np.intp))
    sums = np.bincount(at.ravel(), weights=d_pre.ravel(), minlength=3 * h * n_rows)
    sums = sums.reshape(3 * h, n_rows)  # (3h, U + 1)
    d_w[:, h : h + k] = sums @ vecs
    return sums.T @ w[:, h : h + k]


def _attention_forward(w_a: np.ndarray, u: np.ndarray, hid: np.ndarray, ws: Workspace
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tanh(W_a h) (T, a, B), a view of ws; weights (T, B), a softmax over
    the T steps; context (B, h)) of hidden states hid (T, h, B); u is (a, 1)."""
    acts = np.matmul(w_a, hid, out=ws.take("acts", (len(hid), len(w_a), hid.shape[2])))
    np.tanh(acts, out=acts)
    scores = np.matmul(u[:, 0], acts)
    ex = np.exp(scores - scores.max(axis=0, keepdims=True))
    alpha = ex / ex.sum(axis=0, keepdims=True)
    return acts, alpha, np.einsum("tb,thb->bh", alpha, hid)


def _attention_backward(w_a: np.ndarray, u: np.ndarray, hid: np.ndarray, acts: np.ndarray,
                        alpha: np.ndarray, d_ctx: np.ndarray, ws: Workspace
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_hid (T, h, B), a view of ws; d_w_a; d_u) of hidden states hid
    (T, h, B) and context gradient d_ctx (B, h)."""
    d_alpha = np.einsum("thb,bh->tb", hid, d_ctx)
    d_scores = alpha * (d_alpha - np.sum(d_alpha * alpha, axis=0, keepdims=True))
    # d_scores u (1 - acts^2), multiplied in that order
    d_act = np.multiply(d_scores[:, None, :], u, out=ws.take("scratch0", acts.shape))
    slope = np.multiply(acts, acts, out=ws.take("scratch1", acts.shape))
    np.subtract(1.0, slope, out=slope)
    d_act *= slope
    d_w_a = np.matmul(d_act, hid.transpose(0, 2, 1)).sum(axis=0)
    d_u = np.matmul(acts, d_scores[:, :, None]).sum(axis=0)
    d_hid = np.multiply(alpha[:, None, :], d_ctx.T, out=ws.take("d_hid", hid.shape))
    d_hid += np.matmul(w_a.T, d_act, out=ws.take("scratch2", hid.shape))
    return d_hid, d_w_a, d_u


def batch_forward(model: CnnGruModel, samples: Sequence[WindowSample]) -> BatchCache:
    """One forward pass over a batch of windows; the cache's pred (B,) and
    logits (B, C) equal what model_forward gives each window."""
    return table_forward(model, day_table(model.cfg, samples), np.arange(len(samples)))


def table_forward(model: CnnGruModel, table: DayTable, index: np.ndarray,
                  ws: Workspace | None = None) -> BatchCache:
    """One forward pass over the windows of table that index names, in its
    order; its large arrays are views of ws, or fresh ones without it."""
    if not len(index):
        raise ShapeError("a forward pass needs at least one window")
    ws = Workspace() if ws is None else ws
    day_index, feats, ids, seg, counts = _gather(table, index, ws)
    t = model.tensors
    plan = tally = winners = pooled = None
    if model.arch is ArchKind.GRU_ONLY:
        tally, counts = _tally(model, ids, seg, counts)
        vecs = np.zeros((len(counts) + 1, model.cfg.embed_dim))  # row U: the days without text
        for start, tokens, rows in tally:
            np.matmul(rows, t["embedding"][tokens], out=vecs[start : start + len(rows)])
    else:
        plan = _conv_plan(model, ids)
        pooled, winners = _conv_encode(model, ids, plan, ws)
        vecs = _row_sums(seg, pooled, len(counts) + 1, ws)  # row U: the days without text
    vecs[:-1] /= np.maximum(counts, 1)[:, None]

    gru = attn = None
    if model.arch is ArchKind.CNN_ONLY:
        text = np.take(vecs, day_index, axis=0, mode="clip",  # "raise" would buffer
                       out=ws.take("scratch0", (*day_index.shape, vecs.shape[1])))
        ctx = np.concatenate([text.mean(axis=0), feats.mean(axis=0)], axis=1)
    else:
        gru = _gru_forward(_gru_block(model, model.params), vecs, day_index, feats, ws)
        if model.cfg.attention_enabled:
            acts, alpha, ctx = _attention_forward(t["attn/w_a"], t["attn/u"], gru[2][1:], ws)
            attn = (acts, alpha)
        else:
            ctx = gru[2][-1].T
    pred = (ctx @ t["head_reg/w"].T + t["head_reg/b"].T)[:, 0]
    logits = ctx @ t["head_cls/w"].T + t["head_cls/b"].T
    return BatchCache(day_index=day_index, ids=ids, seg=seg, counts=counts, plan=plan,
                      tally=tally, winners=winners, pooled=pooled, vecs=vecs, feats=feats,
                      gru=gru, attn=attn, ctx=ctx, pred=pred, logits=logits)


def batch_backward(model: CnnGruModel, cache: BatchCache, target_returns: np.ndarray,
                   target_classes: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Gradients of mse_weight*MSE + (1-mse_weight)*CE, summed over the batch,
    as one vector laid out as model.params, each written into its view; the
    vector and the scratch arrays are views of ws, or fresh ones without it."""
    ws = Workspace() if ws is None else ws
    lam = model.cfg.mse_weight
    d_pred = lam * 2.0 * (cache.pred - target_returns)
    d_logits = softmax_rows(cache.logits)
    d_logits[np.arange(len(d_logits)), target_classes] -= 1.0
    d_logits *= 1.0 - lam
    grads = ws.take("grads", model.params.shape)
    grads.fill(0.0)
    g = param_views(model, grads)
    g["head_reg/w"][:] = d_pred[None, :] @ cache.ctx
    g["head_reg/b"][:] = d_pred.sum()
    g["head_cls/w"][:] = d_logits.T @ cache.ctx
    g["head_cls/b"][:, 0] = d_logits.sum(axis=0)
    t = model.tensors
    d_ctx = d_pred[:, None] @ t["head_reg/w"] + d_logits @ t["head_cls/w"]

    text_dim = _text_dim(model.cfg, model.arch)
    if model.arch is ArchKind.CNN_ONLY:
        d_text = np.broadcast_to(d_ctx[:, :text_dim] / model.cfg.window,
                                 (*cache.day_index.shape, text_dim))
        d_vecs = _row_sums(cache.day_index, d_text, len(cache.vecs), ws)
    else:
        hid = cache.gru[2][1:]
        if model.cfg.attention_enabled:
            d_hid, g["attn/w_a"][:], g["attn/u"][:] = _attention_backward(
                t["attn/w_a"], t["attn/u"], hid, *cache.attn, d_ctx, ws)
        else:
            d_hid = ws.take("d_hid", hid.shape)
            d_hid.fill(0.0)
            d_hid[-1] = d_ctx.T
        d_vecs = _gru_backward(_gru_block(model, model.params), cache.vecs, cache.day_index,
                               cache.feats, cache.gru, d_hid, _gru_block(model, grads), ws)
    d_embed = g["embedding"]
    if model.arch is ArchKind.GRU_ONLY:
        d_vecs = d_vecs[:-1] / np.maximum(cache.counts, 1)[:, None]
        for start, tokens, rows in cache.tally:
            d_embed[tokens] += rows.T @ d_vecs[start : start + len(rows)]
    else:
        d_items = np.take(d_vecs, cache.seg, axis=0, mode="clip",
                          out=ws.take("d_items", (len(cache.seg), text_dim)))
        d_items /= cache.counts[cache.seg][:, None]
        g["conv/k"][:] = _conv_backward(model, cache, d_items, d_embed, ws)
    d_embed[0, :] = 0.0  # pad row is frozen
    return grads


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _check_finite(model: CnnGruModel, where: str = "") -> None:
    """CheckpointError naming model's first tensor with a non-finite value;
    one isfinite pass over params clears the common case."""
    if not np.isfinite(model.params).all():
        bad = next(name for name, t in model.tensors.items() if not np.isfinite(t).all())
        raise CheckpointError(f"{where}tensor {bad} contains non-finite values")


def save_checkpoint(model: CnnGruModel, path: str | Path) -> None:
    """Versioned JSON: arch, config block, tensor index and one binary payload.

    Format 3: "tensors" maps each name to [rows, cols] in param_shapes order,
    and "values" is the base64 of model.params as little-endian float64 ("<f8")
    bytes. The payload is the raw bits of every weight, so load_checkpoint
    gets back the same bits, -0.0 and subnormals included, with no float
    printing or parsing. Formats 1 and 2 (one JSON float list per tensor) are
    rejected on load; their models must be retrained.
    """
    _check_finite(model)
    head = json.dumps({
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "arch": model.arch.value,
        "config": model.cfg.to_dict(),
        "tensors": {name: list(shape) for name, (_, shape) in model.layout.items()},
    })
    # the weights' own buffer, copied only on a big-endian host
    values = base64.b64encode(model.params.astype("<f8", copy=False))
    # json.dumps of the whole object, "values" last: base64 needs no escaping,
    # so its ASCII bytes go to the file as they are, past the text layer
    with atomic_write(path) as fh:
        fh.write(head[:-1] + ', "values": "')
        fh.flush()
        fh.buffer.write(values)
        fh.buffer.write(b'"}\n')


# the keys of a checkpoint; formats 1 and 2 had no "values"
_CHECKPOINT_FIELDS = {"format_version": int, "arch": str, "config": dict, "tensors": dict,
                      "values": str}


def load_checkpoint(path: str | Path) -> CnnGruModel:
    """The model save_checkpoint wrote to path; every defect is a CheckpointError
    naming the full path and its cause: what data.read_json rejects, the format
    version, a missing key, the arch, the config block, a tensor missing, extra,
    misshapen or out of param_shapes order, a payload that is not base64 of
    exactly the index's float64 count, non-finite values, a nonzero pad row.
    The model is built over the decoded payload; nothing is drawn."""
    obj = read_json(path, _CHECKPOINT_FIELDS, CheckpointError)
    version = obj.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has unsupported format_version {version!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    for key in _CHECKPOINT_FIELDS:
        if key not in obj:
            raise CheckpointError(f"checkpoint {path} missing key {key!r}")
    try:
        arch = ArchKind(obj["arch"])
    except ValueError:
        raise CheckpointError(f"checkpoint {path}: unknown arch {obj['arch']!r}") from None
    try:  # a missing vocab_size is a TypeError
        check_fields(obj["config"], typing.get_type_hints(ModelConfig))
        cfg = ModelConfig(**obj["config"])
    except (DataValidationError, TypeError, ShapeError) as exc:
        raise CheckpointError(f"bad config block in {path}: {exc}") from None
    # the index is checked before anything the config asks for is allocated
    index = {name: tuple(shape) if isinstance(shape, list) else shape
             for name, shape in obj["tensors"].items()}
    shapes = param_shapes(cfg, arch)
    if set(index) != set(shapes):
        raise CheckpointError(f"checkpoint {path}: parameter name mismatch: missing "
                              f"{sorted(set(shapes) - set(index))}, extra "
                              f"{sorted(set(index) - set(shapes))}")
    for name, want in shapes.items():
        if index[name] != want:
            raise CheckpointError(
                f"checkpoint {path}: tensor {name} has shape {index[name]}, expected {want}")
    if list(index) != list(shapes):  # same-shape tensors would swap silently
        raise CheckpointError(
            f"checkpoint {path}: tensors listed as {list(index)}, expected {list(shapes)}")
    try:
        raw = base64.b64decode(obj["values"], validate=True)
    except ValueError:  # binascii.Error
        raise CheckpointError(f"checkpoint {path}: values must be a base64 string") from None
    size = sum(rows * cols for rows, cols in shapes.values())
    if len(raw) != 8 * size:
        raise CheckpointError(f"checkpoint {path}: values hold {len(raw)} bytes, expected "
                              f"{8 * size} ({size} float64 values)")
    flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    try:  # the zero embedding pad row
        model = CnnGruModel(cfg, arch, flat)
    except ShapeError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    _check_finite(model, f"checkpoint {path}: ")
    return model
