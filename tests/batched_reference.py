"""The batched core's earlier conv and GRU kernels, kept as test references.

The conv is one im2col matrix product per chunk of documents, with a dense
max-pool gradient scattered back through the same windows; the GRU keeps
its states batch-major, (B, T, h), and applies the logistic sigmoid
directly. model.py computes the same functions in another order (per-token
filter projections; a feature-major recurrence with the tanh form of the
sigmoid), so the two agree to rounding, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from sentirisk.layers import conv_output_length
from sentirisk.matrix import _sigmoid_array


def add_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    width = out.shape[1]
    flat = rows.reshape(-1, 1) * width + np.arange(width)
    np.add.at(out.reshape(-1), flat.ravel(), values.ravel())


def conv_plan(model, ids: np.ndarray, chunk_values: int) -> tuple[np.ndarray, int]:
    """(token positions of the windows up to the last non-pad column, documents per chunk)."""
    cfg = model.cfg
    out_len = conv_output_length(cfg.max_doc_len, cfg.kernel_width, cfg.conv_stride)
    cols = np.flatnonzero(ids.any(axis=0))
    n_windows = min(out_len, int(cols[-1]) // cfg.conv_stride + 1) if cols.size else 1
    windows = (np.arange(n_windows) * cfg.conv_stride)[:, None] + np.arange(cfg.kernel_width)
    return windows, max(1, chunk_values // (out_len * cfg.kernel_width * cfg.embed_dim))


def conv_encode(model, ids: np.ndarray, chunk_values: int) -> tuple[np.ndarray, np.ndarray]:
    """(pooled, winners) of every document."""
    table = model.embedding.table.data
    kernel = model.conv.kernel.data
    windows, step = conv_plan(model, ids, chunk_values)
    pooled = np.empty((len(ids), kernel.shape[1]))
    winners = np.empty((len(ids), kernel.shape[1]), dtype=np.intp)
    for s in range(0, len(ids), step):
        tok = ids[s : s + step][:, windows]
        n, out_len = tok.shape[:2]
        act = np.maximum(table[tok].reshape(n * out_len, -1) @ kernel, 0.0)
        act = act.reshape(n, out_len, -1)
        win = np.argmax(act, axis=1)
        winners[s : s + step] = win
        pooled[s : s + step] = np.take_along_axis(act, win[:, None, :], axis=1)[:, 0]
    return pooled, winners


def conv_backward(model, ids: np.ndarray, pooled: np.ndarray, winners: np.ndarray,
                  d_pooled: np.ndarray, d_embed: np.ndarray, chunk_values: int) -> np.ndarray:
    """Kernel gradient; adds the embedding gradient into d_embed."""
    table = model.embedding.table.data
    windows, step = conv_plan(model, ids, chunk_values)
    kernel = model.conv.kernel.data
    d_kernel = np.zeros_like(kernel)
    g = d_pooled * (pooled > 0.0)
    for s in range(0, len(ids), step):
        tok = ids[s : s + step][:, windows]
        n, out_len = tok.shape[:2]
        d_act = np.zeros((n, out_len, kernel.shape[1]))
        np.put_along_axis(d_act, winners[s : s + step, None, :], g[s : s + step, None, :],
                          axis=1)
        d_act = d_act.reshape(n * out_len, -1)
        d_kernel += table[tok].reshape(n * out_len, -1).T @ d_act
        add_rows(d_embed, tok, d_act @ kernel.T)
    return d_kernel


def gru_weights(gru) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h = gru.hidden_size
    w_z, w_r, w = gru.w_z.data, gru.w_r.data, gru.w.data
    return (np.concatenate([w_z[:, h:], w_r[:, h:], w[:, h:]]),
            np.concatenate([w_z[:, :h], w_r[:, :h]]), w[:, :h])


def gru_forward(gru, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """(z, r, candidate, hidden), each (B, T, h), for x (B, T, d)."""
    h = gru.hidden_size
    b, t_len, d = x.shape
    w_x, w_zr, w_hh = gru_weights(gru)
    x_proj = (x.reshape(b * t_len, d) @ w_x.T).reshape(b, t_len, 3 * h)
    z, r, cand, hid = (np.empty((b, t_len, h)) for _ in range(4))
    h_prev = np.zeros((b, h))
    for t in range(t_len):
        zr = _sigmoid_array(h_prev @ w_zr.T + x_proj[:, t, : 2 * h])
        z[:, t], r[:, t] = zr[:, :h], zr[:, h:]
        cand[:, t] = np.tanh((r[:, t] * h_prev) @ w_hh.T + x_proj[:, t, 2 * h :])
        h_prev = hid[:, t] = (1.0 - z[:, t]) * h_prev + z[:, t] * cand[:, t]
    return z, r, cand, hid


def gru_backward(gru, x: np.ndarray, states: tuple[np.ndarray, ...], d_hid: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(d_x, d_w_z, d_w_r, d_w) for x and d_hid of shape (B, T, ·)."""
    z, r, cand, hid = states
    h = gru.hidden_size
    b, t_len, d = x.shape
    w_x, w_zr, w_hh = gru_weights(gru)
    h_prev = np.concatenate([np.zeros((b, 1, h)), hid[:, :-1]], axis=1)
    d_pre = np.empty((b, t_len, 3 * h))
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
