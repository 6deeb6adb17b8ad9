"""Layer forward/backward passes: embedding, 1-D conv, max pool, GRU, attention, dense.

Every forward op returns whatever cache its backward pass needs; backward
passes return exact analytic gradients and are validated against the
finite-difference oracle in the test suite. The GRU follows

    z_t = sigmoid(W_z . [h_prev; x_t])
    r_t = sigmoid(W_r . [h_prev; x_t])
    h~  = tanh(W . [r_t * h_prev; x_t])
    h_t = (1 - z_t) * h_prev + z_t * h~

with the hidden state first in the concatenation and no bias terms; the
dense output heads carry the only biases in the network. The convolution's
filters are one (width * channels, filters) matrix, so its forward and
backward passes are matrix products with the flattened input windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .matrix import Matrix, _sigmoid_array


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------


@dataclass
class EmbeddingTable:
    """Token embeddings; row 0 is the padding token, all-zero and frozen."""

    table: Matrix

    def __post_init__(self) -> None:
        if any(v != 0.0 for v in self.table.data[0]):
            raise ShapeError("embedding row 0 is the pad token and must be all-zero")

    @property
    def vocab_size(self) -> int:
        return self.table.rows

    @property
    def embed_dim(self) -> int:
        return self.table.cols


@dataclass
class Conv1DParams:
    """The filter bank as one (width * in_channels, num_filters) matrix, plus stride.

    Column f is kernel f, a width x in_channels window flattened row-major, so
    a convolution is one product of the flattened input windows with kernel.
    """

    kernel: Matrix
    width: int
    stride: int

    def __post_init__(self) -> None:
        if self.width < 1 or self.stride < 1:
            raise ShapeError("kernel width and stride must be >= 1")
        if self.kernel.rows % self.width:
            raise ShapeError(
                f"kernel has {self.kernel.rows} rows, not a multiple of width {self.width}"
            )

    @property
    def in_channels(self) -> int:
        return self.kernel.rows // self.width

    @property
    def num_filters(self) -> int:
        return self.kernel.cols


@dataclass
class GRUParams:
    """Gate weights W_z, W_r and candidate weights W, all h x (h + d)."""

    w_z: Matrix
    w_r: Matrix
    w: Matrix

    def __post_init__(self) -> None:
        if not (self.w_z.shape == self.w_r.shape == self.w.shape):
            raise ShapeError(
                f"GRU weights must share one shape, got {self.w_z.shape}, "
                f"{self.w_r.shape}, {self.w.shape}"
            )
        h, hd = self.w_z.shape
        if hd <= h:
            raise ShapeError(f"GRU weight shape {h}x{hd} leaves no room for an input")

    @property
    def hidden_size(self) -> int:
        return self.w_z.rows

    @property
    def input_size(self) -> int:
        return self.w_z.cols - self.w_z.rows


@dataclass
class DenseParams:
    w: Matrix
    b: Matrix

    def __post_init__(self) -> None:
        if self.b.shape != (self.w.rows, 1):
            raise ShapeError(f"bias shape {self.b.shape} does not match W {self.w.shape}")


@dataclass
class AttentionParams:
    """Additive attention: score_i = u^T tanh(W_a h_i)."""

    w_a: Matrix
    u: Matrix

    def __post_init__(self) -> None:
        if self.u.shape != (self.w_a.rows, 1):
            raise ShapeError(f"context vector {self.u.shape} does not match W_a {self.w_a.shape}")


# ---------------------------------------------------------------------------
# seeded initialization
# ---------------------------------------------------------------------------


def uniform_init(rng: np.random.Generator, rows: int, cols: int,
                 fan_in: int, fan_out: int) -> Matrix:
    """Uniform in [-s, s] with s = sqrt(6 / (fan_in + fan_out))."""
    s = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return Matrix._wrap(rng.uniform(-s, s, size=(rows, cols)))


def init_embedding(rng: np.random.Generator, vocab_size: int, embed_dim: int) -> EmbeddingTable:
    m = uniform_init(rng, vocab_size, embed_dim, embed_dim, embed_dim)
    arr = m.data.copy()
    arr[0, :] = 0.0  # pad row
    return EmbeddingTable(Matrix._wrap(arr))


def init_conv(rng: np.random.Generator, num_filters: int, kernel_width: int,
              in_channels: int, stride: int) -> Conv1DParams:
    """One (num_filters, width * in_channels) draw, transposed: filter f gets the
    same values as the f-th of num_filters (width, in_channels) draws."""
    fan_in = kernel_width * in_channels
    draws = uniform_init(rng, num_filters, fan_in, fan_in, num_filters)
    return Conv1DParams(kernel=Matrix._wrap(draws.data.T), width=kernel_width, stride=stride)


def init_gru(rng: np.random.Generator, hidden: int, input_size: int) -> GRUParams:
    cols = hidden + input_size
    return GRUParams(
        w_z=uniform_init(rng, hidden, cols, cols, hidden),
        w_r=uniform_init(rng, hidden, cols, cols, hidden),
        w=uniform_init(rng, hidden, cols, cols, hidden),
    )


def init_dense(rng: np.random.Generator, out_size: int, in_size: int) -> DenseParams:
    return DenseParams(
        w=uniform_init(rng, out_size, in_size, in_size, out_size),
        b=Matrix.zeros(out_size, 1),
    )


def init_attention(rng: np.random.Generator, attn_size: int, hidden: int) -> AttentionParams:
    return AttentionParams(
        w_a=uniform_init(rng, attn_size, hidden, hidden, attn_size),
        u=uniform_init(rng, attn_size, 1, attn_size, 1),
    )


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


def pad_or_truncate(ids: Sequence[int], max_len: int) -> list[int]:
    """Truncate to max_len and right-pad with the pad id 0."""
    if max_len < 1:
        raise ShapeError(f"max_len must be >= 1, got {max_len}")
    clipped = list(ids[:max_len])
    return clipped + [0] * (max_len - len(clipped))


def embed_lookup(table: EmbeddingTable, ids: Sequence[int], max_len: int) -> Matrix:
    """Row-gather of token embeddings, padded/truncated to max_len rows."""
    padded = pad_or_truncate(ids, max_len)
    for tok in padded:
        if not (0 <= tok < table.vocab_size):
            raise ShapeError(f"token id {tok} out of range for vocab of {table.vocab_size}")
    return Matrix._wrap(table.table.data[np.array(padded, dtype=np.intp)].copy())


def embed_backward(table: EmbeddingTable, padded_ids: Sequence[int], d_out: Matrix) -> Matrix:
    """Scatter-add row gradients; the pad row gradient is forced to zero."""
    if d_out.rows != len(padded_ids) or d_out.cols != table.embed_dim:
        raise ShapeError(
            f"embedding grad shape {d_out.shape} does not match "
            f"{len(padded_ids)}x{table.embed_dim}"
        )
    grad = np.zeros_like(table.table.data)
    np.add.at(grad, np.array(padded_ids, dtype=np.intp), d_out.data)
    grad[0, :] = 0.0
    return Matrix._wrap(grad)


# ---------------------------------------------------------------------------
# 1-D convolution over token positions
# ---------------------------------------------------------------------------


@dataclass
class Conv1DCache:
    input: Matrix
    out_len: int


def conv_output_length(length: int, kernel_width: int, stride: int) -> int:
    return (length - kernel_width) // stride + 1


def conv1d_forward(params: Conv1DParams, input: Matrix) -> tuple[Matrix, Conv1DCache]:
    """Strided valid convolution; output[t, f] = <window_t, kernel_f>.

    The caller applies its own nonlinearity; nothing is fused here.
    """
    width = params.width
    if input.cols != params.in_channels:
        raise ShapeError(
            f"conv input has {input.cols} channels, the kernel expects {params.in_channels}"
        )
    if input.rows < width:
        raise ShapeError(
            f"conv input length {input.rows} is shorter than kernel width {width}"
        )
    out_len = conv_output_length(input.rows, width, params.stride)
    # windows: out_len x (width * channels), flattened like the kernel's columns
    starts = np.arange(out_len) * params.stride
    idx = starts[:, None] + np.arange(width)[None, :]
    windows = input.data[idx].reshape(out_len, width * params.in_channels)
    out = np.einsum("ik,kj->ij", windows, params.kernel.data)
    return Matrix._wrap(out), Conv1DCache(input=input, out_len=out_len)


def conv1d_backward(params: Conv1DParams, cache: Conv1DCache,
                    d_out: Matrix) -> tuple[Matrix, Matrix]:
    """Gradients w.r.t. the input and the kernel matrix."""
    if d_out.shape != (cache.out_len, params.num_filters):
        raise ShapeError(
            f"conv upstream grad {d_out.shape} does not match "
            f"{(cache.out_len, params.num_filters)}"
        )
    width = params.width
    stride = params.stride
    starts = np.arange(cache.out_len) * stride
    idx = starts[:, None] + np.arange(width)[None, :]
    windows = cache.input.data[idx].reshape(cache.out_len, width * params.in_channels)

    d_kernel = np.einsum("ik,ij->kj", windows, d_out.data)
    d_windows = np.einsum("ij,kj->ik", d_out.data, params.kernel.data)
    d_input = np.zeros_like(cache.input.data)
    d_win = d_windows.reshape(cache.out_len, width, params.in_channels)
    np.add.at(d_input, idx.ravel(), d_win.reshape(-1, params.in_channels))
    return Matrix._wrap(d_input), Matrix._wrap(d_kernel)


# ---------------------------------------------------------------------------
# global max pooling over time
# ---------------------------------------------------------------------------


def global_max_pool(featmap: Matrix) -> tuple[Matrix, list[int]]:
    """Per-filter max over time; memo holds the winning time index per filter.

    Ties break toward the smallest index so the backward pass is deterministic.
    """
    if featmap.rows < 1:
        raise ShapeError("cannot max-pool an empty feature map")
    memo = np.argmax(featmap.data, axis=0)  # first occurrence wins ties
    pooled = featmap.data[memo, np.arange(featmap.cols)].reshape(-1, 1)
    return Matrix._wrap(pooled.copy()), memo.tolist()


def max_pool_backward(memo: Sequence[int], out_len: int, d_pooled: Matrix) -> Matrix:
    """Route gradient only through the argmax winners."""
    if d_pooled.shape != (len(memo), 1):
        raise ShapeError(f"pool grad shape {d_pooled.shape} does not match {len(memo)} filters")
    grad = np.zeros((out_len, len(memo)))
    grad[np.array(memo, dtype=np.intp), np.arange(len(memo))] = d_pooled.data.ravel()
    return Matrix._wrap(grad)


# ---------------------------------------------------------------------------
# GRU cell and unrolled sequence
# ---------------------------------------------------------------------------


@dataclass
class GRUStepCache:
    x_t: Matrix
    h_prev: Matrix
    z_t: Matrix
    r_t: Matrix
    h_tilde: Matrix
    h_t: Matrix


@dataclass
class GRUGrads:
    d_w_z: Matrix
    d_w_r: Matrix
    d_w: Matrix


def gru_step(params: GRUParams, h_prev: Matrix, x_t: Matrix) -> tuple[Matrix, GRUStepCache]:
    h, d = params.hidden_size, params.input_size
    if h_prev.shape != (h, 1):
        raise ShapeError(f"h_prev shape {h_prev.shape} does not match hidden size {h}")
    if x_t.shape != (d, 1):
        raise ShapeError(f"x_t shape {x_t.shape} does not match input size {d}")

    concat = h_prev.concat_rows(x_t)  # [h_prev; x_t]
    z_arr = _sigmoid_array(params.w_z.data @ concat.data)
    r_arr = _sigmoid_array(params.w_r.data @ concat.data)
    gated = np.concatenate([r_arr * h_prev.data, x_t.data], axis=0)
    h_tilde_arr = np.tanh(params.w.data @ gated)
    h_t_arr = (1.0 - z_arr) * h_prev.data + z_arr * h_tilde_arr

    cache = GRUStepCache(
        x_t=x_t,
        h_prev=h_prev,
        z_t=Matrix._wrap(z_arr),
        r_t=Matrix._wrap(r_arr),
        h_tilde=Matrix._wrap(h_tilde_arr),
        h_t=Matrix._wrap(h_t_arr),
    )
    return cache.h_t, cache


def gru_forward(params: GRUParams, inputs: Sequence[Matrix],
                h0: Matrix | None = None) -> tuple[list[Matrix], list[GRUStepCache]]:
    """Sequential fold of gru_step over the input sequence."""
    if not inputs:
        raise ShapeError("GRU forward needs a non-empty input sequence")
    h = h0 if h0 is not None else Matrix.zeros(params.hidden_size, 1)
    hiddens: list[Matrix] = []
    caches: list[GRUStepCache] = []
    for x_t in inputs:
        h, cache = gru_step(params, h, x_t)
        hiddens.append(h)
        caches.append(cache)
    return hiddens, caches


def gru_step_backward(params: GRUParams, cache: GRUStepCache,
                      d_h: Matrix) -> tuple[Matrix, Matrix, GRUGrads]:
    """Backprop through one step; returns (d_h_prev, d_x, weight grads)."""
    h = params.hidden_size
    if d_h.shape != (h, 1):
        raise ShapeError(f"upstream grad shape {d_h.shape} does not match hidden size {h}")

    x, h_prev = cache.x_t.data, cache.h_prev.data
    z, r, h_tilde = cache.z_t.data, cache.r_t.data, cache.h_tilde.data
    dh = d_h.data

    # h_t = (1 - z) * h_prev + z * h_tilde
    d_z = dh * (h_tilde - h_prev)
    d_h_tilde = dh * z
    d_h_prev = dh * (1.0 - z)

    # h_tilde = tanh(W . [r * h_prev; x])
    d_a = d_h_tilde * (1.0 - h_tilde * h_tilde)
    gated = np.concatenate([r * h_prev, x], axis=0)
    d_w = d_a @ gated.T
    d_gated = params.w.data.T @ d_a
    d_rh = d_gated[:h]
    d_x = d_gated[h:].copy()
    d_r = d_rh * h_prev
    d_h_prev = d_h_prev + d_rh * r

    concat = np.concatenate([h_prev, x], axis=0)

    # r = sigmoid(W_r . [h_prev; x])
    d_ar = d_r * r * (1.0 - r)
    d_w_r = d_ar @ concat.T
    d_concat = params.w_r.data.T @ d_ar

    # z = sigmoid(W_z . [h_prev; x])
    d_az = d_z * z * (1.0 - z)
    d_w_z = d_az @ concat.T
    d_concat = d_concat + params.w_z.data.T @ d_az

    d_h_prev = d_h_prev + d_concat[:h]
    d_x = d_x + d_concat[h:]

    return (
        Matrix._wrap(d_h_prev),
        Matrix._wrap(d_x),
        GRUGrads(d_w_z=Matrix._wrap(d_w_z), d_w_r=Matrix._wrap(d_w_r), d_w=Matrix._wrap(d_w)),
    )


def gru_sequence_backward(
    params: GRUParams,
    caches: Sequence[GRUStepCache],
    d_hiddens: Sequence[Matrix | None],
) -> tuple[list[Matrix], Matrix, GRUGrads]:
    """Backprop through time; weight gradients accumulate across all steps.

    d_hiddens[t] is the gradient arriving at h_t from outside the chain
    (None for steps that feed nothing downstream directly).
    """
    if len(caches) != len(d_hiddens):
        raise ShapeError(f"{len(caches)} caches but {len(d_hiddens)} upstream grads")
    h = params.hidden_size
    acc_z = np.zeros_like(params.w_z.data)
    acc_r = np.zeros_like(params.w_r.data)
    acc_w = np.zeros_like(params.w.data)
    d_inputs: list[Matrix] = [None] * len(caches)  # type: ignore[list-item]
    carry = Matrix.zeros(h, 1)
    for t in range(len(caches) - 1, -1, -1):
        upstream = d_hiddens[t]
        d_h = carry if upstream is None else carry + upstream
        carry, d_x, grads = gru_step_backward(params, caches[t], d_h)
        d_inputs[t] = d_x
        acc_z += grads.d_w_z.data
        acc_r += grads.d_w_r.data
        acc_w += grads.d_w.data
    return (
        d_inputs,
        carry,
        GRUGrads(d_w_z=Matrix._wrap(acc_z), d_w_r=Matrix._wrap(acc_r), d_w=Matrix._wrap(acc_w)),
    )


# ---------------------------------------------------------------------------
# additive attention pooling over the hidden sequence
# ---------------------------------------------------------------------------


@dataclass
class AttentionCache:
    hiddens: list[Matrix]
    tanh_acts: list[Matrix]
    weights: Matrix  # T x 1


def attention_pool(params: AttentionParams,
                   hiddens: Sequence[Matrix]) -> tuple[Matrix, Matrix, AttentionCache]:
    """score_i = u^T tanh(W_a h_i); context = sum_i softmax(score)_i h_i."""
    if not hiddens:
        raise ShapeError("attention needs a non-empty hidden sequence")
    tanh_acts = [np.tanh(params.w_a.data @ h.data) for h in hiddens]
    scores = np.array([float((params.u.data.T @ t).item()) for t in tanh_acts]).reshape(-1, 1)
    shifted = scores - scores.max()
    ex = np.exp(shifted)
    alpha = ex / ex.sum()
    context = np.zeros_like(hiddens[0].data)
    for a, h in zip(alpha.ravel(), hiddens):
        context = context + a * h.data
    weights = Matrix._wrap(alpha)
    cache = AttentionCache(
        hiddens=list(hiddens),
        tanh_acts=[Matrix._wrap(t) for t in tanh_acts],
        weights=weights,
    )
    return Matrix._wrap(context), weights, cache


def attention_backward(params: AttentionParams, cache: AttentionCache,
                       d_context: Matrix) -> tuple[list[Matrix], Matrix, Matrix]:
    """Returns (d_hiddens, d_w_a, d_u)."""
    alpha = cache.weights.data.ravel()
    n = len(cache.hiddens)
    if d_context.shape != cache.hiddens[0].shape:
        raise ShapeError(
            f"context grad {d_context.shape} does not match hidden {cache.hiddens[0].shape}"
        )
    d_alpha = np.array([float((h.data.T @ d_context.data).item()) for h in cache.hiddens])
    d_hiddens_arr = [alpha[i] * d_context.data for i in range(n)]

    # softmax backward
    dot = float((d_alpha * alpha).sum())
    d_scores = alpha * (d_alpha - dot)

    d_w_a = np.zeros_like(params.w_a.data)
    d_u = np.zeros_like(params.u.data)
    for i in range(n):
        t = cache.tanh_acts[i].data
        d_u += d_scores[i] * t
        d_t = d_scores[i] * params.u.data
        d_a = d_t * (1.0 - t * t)
        d_w_a += d_a @ cache.hiddens[i].data.T
        d_hiddens_arr[i] = d_hiddens_arr[i] + params.w_a.data.T @ d_a

    return (
        [Matrix._wrap(g) for g in d_hiddens_arr],
        Matrix._wrap(d_w_a),
        Matrix._wrap(d_u),
    )


# ---------------------------------------------------------------------------
# dense layer
# ---------------------------------------------------------------------------


def dense_forward(params: DenseParams, x: Matrix) -> Matrix:
    """W x + b."""
    if x.shape != (params.w.cols, 1):
        raise ShapeError(f"dense input {x.shape} does not match W {params.w.shape}")
    return Matrix._wrap(params.w.data @ x.data + params.b.data)


def dense_backward(params: DenseParams, x: Matrix,
                   d_y: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Returns (d_x, d_w, d_b)."""
    if d_y.shape != (params.w.rows, 1):
        raise ShapeError(f"dense upstream grad {d_y.shape} does not match W {params.w.shape}")
    d_w = d_y.data @ x.data.T
    d_x = params.w.data.T @ d_y.data
    return Matrix._wrap(d_x), Matrix._wrap(d_w), Matrix._wrap(d_y.data.copy())


def relu_backward(pre_activation: Matrix, d_out: Matrix) -> Matrix:
    """Gradient mask for relu applied after a cached pre-activation."""
    if pre_activation.shape != d_out.shape:
        raise ShapeError(
            f"relu grad {d_out.shape} does not match pre-activation {pre_activation.shape}"
        )
    return Matrix._wrap(d_out.data * (pre_activation.data > 0.0))
