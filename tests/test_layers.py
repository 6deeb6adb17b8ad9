"""Layer forward passes vs independent oracles; backward passes vs finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentirisk import layers as L
from sentirisk.errors import ShapeError
from sentirisk.matrix import Matrix

RNG = np.random.Generator(np.random.PCG64(77))
REL_TOL = 1e-4
FD_H = 1e-5


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def fd_check(loss_fn, x: Matrix, analytic: Matrix, skip_rows=(), max_coords=150,
             seed=0) -> float:
    """Central-difference check over sampled coordinates; returns worst rel err."""
    rng = np.random.Generator(np.random.PCG64(seed))
    coords = [(i, j) for i in range(x.rows) for j in range(x.cols)
              if i not in skip_rows]
    if len(coords) > max_coords:
        idx = rng.choice(len(coords), size=max_coords, replace=False)
        coords = [coords[k] for k in idx]
    worst = 0.0
    for i, j in coords:
        v = x.at(i, j)
        up = loss_fn(x.with_value(i, j, v + FD_H))
        down = loss_fn(x.with_value(i, j, v - FD_H))
        fd = (up - down) / (2.0 * FD_H)
        worst = max(worst, rel_err(analytic.at(i, j), fd))
    return worst


def rand_matrix(rows, cols, scale=1.0, rng=RNG) -> Matrix:
    return Matrix._wrap(rng.standard_normal((rows, cols)) * scale)


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------


class TestEmbedding:
    def table(self):
        arr = RNG.standard_normal((6, 2))
        arr[0, :] = 0.0
        arr[2, :] = [1.0, 5.0]
        return L.EmbeddingTable(Matrix._wrap(arr))

    def test_pad_rows_are_zero(self):
        out = L.embed_lookup(self.table(), [0, 0], max_len=2)
        assert out.to_lists() == [[0.0, 0.0], [0.0, 0.0]]

    def test_direct_lookup(self):
        out = L.embed_lookup(self.table(), [2], max_len=1)
        assert out.to_lists() == [[1.0, 5.0]]

    def test_matches_gather_oracle(self):
        table = self.table()
        ids = [int(v) for v in RNG.integers(0, 6, size=9)]
        out = L.embed_lookup(table, ids, max_len=9)
        for row, tok in enumerate(ids):
            assert out.to_lists()[row] == table.table.to_lists()[tok]

    def test_truncation_and_padding(self):
        table = self.table()
        assert L.embed_lookup(table, [2, 3, 4], max_len=2).rows == 2
        padded = L.embed_lookup(table, [2], max_len=3)
        assert padded.to_lists()[1] == [0.0, 0.0]
        assert padded.to_lists()[2] == [0.0, 0.0]

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ShapeError, match="99"):
            L.embed_lookup(self.table(), [99], max_len=1)

    def test_nonzero_pad_row_rejected(self):
        with pytest.raises(ShapeError):
            L.EmbeddingTable(Matrix.from_rows([[0.1], [1.0]]))

    def test_backward_scatter_and_frozen_pad_row(self):
        table = self.table()
        ids = [2, 3, 2, 0]  # repeated id exercises accumulation; pad present
        c = rand_matrix(4, 2)

        def loss(t):
            out = L.embed_lookup(L.EmbeddingTable(_zero_pad_row(t)), ids, max_len=4)
            return out.hadamard(c).data.sum()

        out = L.embed_lookup(table, ids, max_len=4)
        grad = L.embed_backward(table, ids, c)
        assert out.rows == 4
        assert all(v == 0.0 for v in grad.to_lists()[0])  # pad row frozen
        worst = fd_check(loss, table.table, grad, skip_rows=(0,))
        assert worst <= REL_TOL


def _zero_pad_row(t: Matrix) -> Matrix:
    arr = t.data.copy()
    arr[0, :] = 0.0
    return Matrix._wrap(arr)


class TestPadOrTruncate:
    def test_pads_right_with_zero(self):
        assert L.pad_or_truncate([5, 6], 4) == [5, 6, 0, 0]

    def test_truncates(self):
        assert L.pad_or_truncate([5, 6, 7], 1) == [5]

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ShapeError):
            L.pad_or_truncate([1], 0)


# ---------------------------------------------------------------------------
# conv1d
# ---------------------------------------------------------------------------


def naive_conv(kernel, input_lists, width, stride):
    # quadruple loop, written without the production code's vectorization;
    # row w * chans + c of the kernel weighs channel c at window offset w
    chans = len(input_lists[0])
    filters = len(kernel[0])
    out_len = (len(input_lists) - width) // stride + 1
    out = [[0.0] * filters for _ in range(out_len)]
    for t in range(out_len):
        for f in range(filters):
            s = 0.0
            for w in range(width):
                for c in range(chans):
                    s += input_lists[t * stride + w][c] * kernel[w * chans + c][f]
            out[t][f] = s
    return out


def rand_kernel(filters, width, chans) -> Matrix:
    """A (width * chans, filters) kernel; column f holds the f-th of `filters`
    sequential (width, chans) draws from RNG, flattened row-major."""
    return Matrix._wrap(rand_matrix(filters, width * chans).data.T)


class TestConv1d:
    def test_sum_kernel_hand_arithmetic(self):
        params = L.Conv1DParams(kernel=Matrix.column([1.0, 1.0, 1.0]), width=3, stride=3)
        x = Matrix.column([1, 2, 3, 4, 5, 6, 7])
        out, cache = L.conv1d_forward(params, x)
        assert out.to_lists() == [[6.0], [15.0]]
        assert cache.out_len == 2

    def test_selector_kernel(self):
        params = L.Conv1DParams(kernel=Matrix.column([1.0, 0.0, 0.0]), width=3, stride=1)
        x = Matrix.column([11.0, 22.0, 33.0, 44.0])
        out, _ = L.conv1d_forward(params, x)
        assert out.to_lists() == [[11.0], [22.0]]

    def test_matches_quadruple_loop_oracle(self):
        params = L.Conv1DParams(kernel=rand_kernel(4, 3, 2), width=3, stride=2)
        x = rand_matrix(11, 2)
        out, _ = L.conv1d_forward(params, x)
        want = naive_conv(params.kernel.to_lists(), x.to_lists(), 3, 2)
        assert np.allclose(out.data, np.array(want), atol=1e-12, rtol=0.0)

    def test_input_shorter_than_kernel_rejected(self):
        params = L.Conv1DParams(kernel=Matrix.column([1.0, 1.0, 1.0]), width=3, stride=1)
        with pytest.raises(ShapeError):
            L.conv1d_forward(params, Matrix.column([1.0, 2.0]))

    def test_channel_mismatch_rejected(self):
        params = L.Conv1DParams(kernel=rand_kernel(1, 3, 2), width=3, stride=1)
        with pytest.raises(ShapeError):
            L.conv1d_forward(params, rand_matrix(5, 3))

    def test_kernel_rows_must_be_whole_windows(self):
        with pytest.raises(ShapeError):
            L.Conv1DParams(kernel=Matrix.zeros(5, 2), width=3, stride=1)

    @settings(max_examples=60, deadline=None)
    @given(
        length=st.integers(1, 40),
        width=st.integers(1, 8),
        stride=st.integers(1, 5),
    )
    def test_output_length_law(self, length, width, stride):
        if length < width:
            return
        params = L.Conv1DParams(kernel=Matrix.zeros(width, 1), width=width, stride=stride)
        out, _ = L.conv1d_forward(params, Matrix.zeros(length, 1))
        assert out.rows == (length - width) // stride + 1
        assert out.rows == L.conv_output_length(length, width, stride)

    def test_backward_vs_finite_difference(self):
        params = L.Conv1DParams(kernel=rand_kernel(3, 3, 2), width=3, stride=2)
        x = rand_matrix(9, 2)
        out, cache = L.conv1d_forward(params, x)
        c = rand_matrix(out.rows, out.cols)
        d_in, d_kernel = L.conv1d_backward(params, cache, c)

        def loss_of_input(xv):
            o, _ = L.conv1d_forward(params, xv)
            return o.hadamard(c).data.sum()

        assert fd_check(loss_of_input, x, d_in) <= REL_TOL

        def loss_of_kernel(kv):
            o, _ = L.conv1d_forward(L.Conv1DParams(kernel=kv, width=3, stride=2), x)
            return o.hadamard(c).data.sum()

        assert fd_check(loss_of_kernel, params.kernel, d_kernel) <= REL_TOL


# ---------------------------------------------------------------------------
# global max pool
# ---------------------------------------------------------------------------


class TestGlobalMaxPool:
    def test_basic(self):
        out, memo = L.global_max_pool(Matrix.column([1.0, 9.0, 3.0]))
        assert out.to_lists() == [[9.0]]
        assert memo == [1]

    def test_tie_breaks_to_first_index(self):
        out, memo = L.global_max_pool(Matrix.column([4.0, 4.0, 4.0]))
        assert out.to_lists() == [[4.0]]
        assert memo == [0]

    def test_matches_scan_oracle(self):
        fm = rand_matrix(13, 5)
        out, memo = L.global_max_pool(fm)
        rows = fm.to_lists()
        for f in range(5):
            col = [rows[t][f] for t in range(13)]
            best = max(col)
            assert out.at(f, 0) == best
            assert memo[f] == col.index(best)

    def test_backward_routes_only_winners(self):
        fm = Matrix.from_rows([[1.0, 8.0], [5.0, 2.0], [3.0, 4.0]])
        out, memo = L.global_max_pool(fm)
        grad = L.max_pool_backward(memo, 3, Matrix.column([10.0, 20.0]))
        assert grad.to_lists() == [[0.0, 20.0], [10.0, 0.0], [0.0, 0.0]]

    def test_backward_vs_finite_difference_through_conv_relu_pool(self):
        params = L.Conv1DParams(kernel=rand_kernel(4, 3, 2), width=3, stride=3)
        x = rand_matrix(12, 2)
        c = rand_matrix(4, 1)

        def loss(xv):
            pre, _ = L.conv1d_forward(params, xv)
            relu = Matrix._wrap(np.maximum(pre.data, 0.0))
            pooled, _ = L.global_max_pool(relu)
            return pooled.hadamard(c).data.sum()

        pre, cache = L.conv1d_forward(params, x)
        relu = Matrix._wrap(np.maximum(pre.data, 0.0))
        pooled, memo = L.global_max_pool(relu)
        d_relu = L.max_pool_backward(memo, cache.out_len, c)
        d_pre = L.relu_backward(pre, d_relu)
        d_in, _ = L.conv1d_backward(params, cache, d_pre)
        assert fd_check(loss, x, d_in) <= REL_TOL


# ---------------------------------------------------------------------------
# GRU
# ---------------------------------------------------------------------------


def scalar_gru_step(wz, wr, w, h_prev, x):
    """Hand expansion of the gate equations in pure python scalars."""
    h = len(h_prev)

    def mv(mat, vec):
        return [sum(mat[i][k] * vec[k] for k in range(len(vec))) for i in range(len(mat))]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    concat = list(h_prev) + list(x)
    z = [sig(a) for a in mv(wz, concat)]
    r = [sig(a) for a in mv(wr, concat)]
    gated = [r[i] * h_prev[i] for i in range(h)] + list(x)
    h_tilde = [math.tanh(a) for a in mv(w, gated)]
    h_t = [(1.0 - z[i]) * h_prev[i] + z[i] * h_tilde[i] for i in range(h)]
    return z, r, h_tilde, h_t


def small_gru(h=3, d=2, scale=0.7, seed=5) -> L.GRUParams:
    rng = np.random.Generator(np.random.PCG64(seed))
    return L.GRUParams(
        w_z=Matrix._wrap(rng.standard_normal((h, h + d)) * scale),
        w_r=Matrix._wrap(rng.standard_normal((h, h + d)) * scale),
        w=Matrix._wrap(rng.standard_normal((h, h + d)) * scale),
    )


class TestGRUStep:
    def test_zero_weights_fixed_values(self):
        params = L.GRUParams(w_z=Matrix.zeros(1, 2), w_r=Matrix.zeros(1, 2),
                             w=Matrix.zeros(1, 2))
        h_prev = Matrix.column([0.4])
        x = Matrix.column([123.0])
        h_t, cache = L.gru_step(params, h_prev, x)
        assert cache.z_t.item() == 0.5
        assert cache.r_t.item() == 0.5
        assert cache.h_tilde.item() == 0.0
        assert abs(h_t.item() - 0.2) < 1e-15

    def test_zero_weights_zero_state_is_fixed_point(self):
        params = L.GRUParams(w_z=Matrix.zeros(2, 3), w_r=Matrix.zeros(2, 3),
                             w=Matrix.zeros(2, 3))
        h_t, _ = L.gru_step(params, Matrix.zeros(2, 1), Matrix.column([5.0]))
        assert h_t.to_lists() == [[0.0], [0.0]]

    def test_matches_scalar_hand_expansion(self):
        params = small_gru(h=3, d=2)
        h_prev = Matrix.column([0.1, -0.4, 0.7])
        x = Matrix.column([0.9, -1.1])
        h_t, cache = L.gru_step(params, h_prev, x)
        z, r, h_tilde, want = scalar_gru_step(
            params.w_z.to_lists(), params.w_r.to_lists(), params.w.to_lists(),
            [0.1, -0.4, 0.7], [0.9, -1.1],
        )
        assert np.allclose(cache.z_t.data.ravel(), z, atol=1e-12, rtol=0.0)
        assert np.allclose(cache.r_t.data.ravel(), r, atol=1e-12, rtol=0.0)
        assert np.allclose(cache.h_tilde.data.ravel(), h_tilde, atol=1e-12, rtol=0.0)
        assert np.allclose(h_t.data.ravel(), want, atol=1e-12, rtol=0.0)

    def test_shape_mismatch_rejected(self):
        params = small_gru(h=3, d=2)
        with pytest.raises(ShapeError):
            L.gru_step(params, Matrix.zeros(2, 1), Matrix.zeros(2, 1))
        with pytest.raises(ShapeError):
            L.gru_step(params, Matrix.zeros(3, 1), Matrix.zeros(3, 1))

    def test_mismatched_gate_shapes_rejected(self):
        with pytest.raises(ShapeError):
            L.GRUParams(w_z=Matrix.zeros(2, 4), w_r=Matrix.zeros(2, 4),
                        w=Matrix.zeros(2, 5))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gate_ranges_and_interpolation(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        h, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        params = L.GRUParams(
            w_z=Matrix._wrap(rng.standard_normal((h, h + d))),
            w_r=Matrix._wrap(rng.standard_normal((h, h + d))),
            w=Matrix._wrap(rng.standard_normal((h, h + d))),
        )
        h_prev = Matrix._wrap(rng.standard_normal((h, 1)))
        x = Matrix._wrap(rng.standard_normal((d, 1)))
        h_t, cache = L.gru_step(params, h_prev, x)
        assert np.all((cache.z_t.data > 0.0) & (cache.z_t.data < 1.0))
        assert np.all((cache.r_t.data > 0.0) & (cache.r_t.data < 1.0))
        assert np.all((cache.h_tilde.data > -1.0) & (cache.h_tilde.data < 1.0))
        lo = np.minimum(h_prev.data, cache.h_tilde.data)
        hi = np.maximum(h_prev.data, cache.h_tilde.data)
        assert np.all(h_t.data >= lo) and np.all(h_t.data <= hi)

    def test_step_backward_vs_finite_difference(self):
        params = small_gru(h=3, d=2, seed=11)
        h_prev = rand_matrix(3, 1)
        x = rand_matrix(2, 1)
        c = rand_matrix(3, 1)
        _, cache = L.gru_step(params, h_prev, x)
        d_h_prev, d_x, grads = L.gru_step_backward(params, cache, c)

        def loss(wz=None, wr=None, w=None, hp=None, xv=None):
            p = L.GRUParams(
                w_z=wz if wz is not None else params.w_z,
                w_r=wr if wr is not None else params.w_r,
                w=w if w is not None else params.w,
            )
            h_t, _ = L.gru_step(p, hp if hp is not None else h_prev,
                                xv if xv is not None else x)
            return h_t.hadamard(c).data.sum()

        assert fd_check(lambda m: loss(wz=m), params.w_z, grads.d_w_z) <= REL_TOL
        assert fd_check(lambda m: loss(wr=m), params.w_r, grads.d_w_r) <= REL_TOL
        assert fd_check(lambda m: loss(w=m), params.w, grads.d_w) <= REL_TOL
        assert fd_check(lambda m: loss(hp=m), h_prev, d_h_prev) <= REL_TOL
        assert fd_check(lambda m: loss(xv=m), x, d_x) <= REL_TOL

    def test_saturated_update_gate_kills_h_prev_carry(self):
        # z ~= 1 and W = W_r = 0: every backward path into h_prev dies, so
        # the (1 - z) carry term is what the remaining gradient measures.
        h, d = 2, 2
        params = L.GRUParams(
            w_z=Matrix.full(h, h + d, 50.0),
            w_r=Matrix.zeros(h, h + d),
            w=Matrix.zeros(h, h + d),
        )
        h_prev = Matrix.column([0.5, 0.5])
        x = Matrix.column([0.5, 0.5])
        _, cache = L.gru_step(params, h_prev, x)
        assert np.all(cache.z_t.data > 1.0 - 1e-12)
        d_h_prev, _, _ = L.gru_step_backward(params, cache, Matrix.full(h, 1, 1.0))
        assert np.all(np.abs(d_h_prev.data) < 1e-6)


class TestGRUSequence:
    def test_length_one_equals_single_step(self):
        params = small_gru()
        x = rand_matrix(2, 1)
        hiddens, caches = L.gru_forward(params, [x])
        step_h, _ = L.gru_step(params, Matrix.zeros(3, 1), x)
        assert hiddens[0] == step_h
        assert len(caches) == 1

    def test_zero_weights_propagate_zero_state(self):
        params = L.GRUParams(w_z=Matrix.zeros(2, 3), w_r=Matrix.zeros(2, 3),
                             w=Matrix.zeros(2, 3))
        hiddens, _ = L.gru_forward(params, [rand_matrix(1, 1) for _ in range(4)])
        for h_t in hiddens:
            assert h_t.to_lists() == [[0.0], [0.0]]

    def test_matches_repeated_step_oracle(self):
        params = small_gru(seed=21)
        inputs = [rand_matrix(2, 1) for _ in range(5)]
        hiddens, _ = L.gru_forward(params, inputs)
        h = Matrix.zeros(3, 1)
        for t, x in enumerate(inputs):
            h, _ = L.gru_step(params, h, x)
            assert hiddens[t] == h

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            L.gru_forward(small_gru(), [])

    def test_unrolled_backward_vs_finite_difference(self):
        params = small_gru(h=3, d=2, seed=31)
        inputs = [rand_matrix(2, 1, rng=RNG) for _ in range(5)]
        cs = [rand_matrix(3, 1, rng=RNG) for _ in range(5)]

        def loss(wz=None, wr=None, w=None, xs=None):
            p = L.GRUParams(
                w_z=wz if wz is not None else params.w_z,
                w_r=wr if wr is not None else params.w_r,
                w=w if w is not None else params.w,
            )
            hiddens, _ = L.gru_forward(p, xs if xs is not None else inputs)
            return sum(h.hadamard(c).data.sum() for h, c in zip(hiddens, cs))

        _, caches = L.gru_forward(params, inputs)
        d_inputs, d_h0, grads = L.gru_sequence_backward(params, caches, cs)

        assert fd_check(lambda m: loss(wz=m), params.w_z, grads.d_w_z) <= REL_TOL
        assert fd_check(lambda m: loss(wr=m), params.w_r, grads.d_w_r) <= REL_TOL
        assert fd_check(lambda m: loss(w=m), params.w, grads.d_w) <= REL_TOL
        for t in range(5):
            def loss_x(m, t=t):
                xs = list(inputs)
                xs[t] = m
                return loss(xs=xs)

            assert fd_check(loss_x, inputs[t], d_inputs[t]) <= REL_TOL

    def test_partial_upstream_grads(self):
        # only the last step feeds the loss; earlier entries are None
        params = small_gru(seed=41)
        inputs = [rand_matrix(2, 1) for _ in range(4)]
        c = rand_matrix(3, 1)
        _, caches = L.gru_forward(params, inputs)
        upstream = [None, None, None, c]
        _, _, grads = L.gru_sequence_backward(params, caches, upstream)

        def loss(m):
            p = L.GRUParams(w_z=m, w_r=params.w_r, w=params.w)
            hiddens, _ = L.gru_forward(p, inputs)
            return hiddens[-1].hadamard(c).data.sum()

        assert fd_check(loss, params.w_z, grads.d_w_z) <= REL_TOL


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------


class TestAttention:
    def params(self, a=2, h=3, seed=51):
        rng = np.random.Generator(np.random.PCG64(seed))
        return L.AttentionParams(
            w_a=Matrix._wrap(rng.standard_normal((a, h))),
            u=Matrix._wrap(rng.standard_normal((a, 1))),
        )

    def test_equal_hiddens_give_uniform_weights(self):
        params = self.params()
        h = Matrix.column([0.3, -0.5, 0.9])
        ctx, weights, _ = L.attention_pool(params, [h, h, h, h])
        assert np.allclose(weights.data, 0.25, atol=1e-15)
        assert np.allclose(ctx.data, h.data, atol=1e-15)

    def test_saturated_scores_select_first_hidden(self):
        params = L.AttentionParams(w_a=Matrix.from_rows([[1.0]]),
                                   u=Matrix.from_rows([[100.0]]))
        h1, h2 = Matrix.column([3.0]), Matrix.column([0.0])
        ctx, _, _ = L.attention_pool(params, [h1, h2])
        assert abs(ctx.item() - h1.item()) < 1e-9

    def test_matches_direct_formula_oracle(self):
        params = self.params(seed=61)
        hiddens = [rand_matrix(3, 1) for _ in range(6)]
        ctx, weights, _ = L.attention_pool(params, hiddens)

        scores = []
        for h in hiddens:
            t = np.tanh(params.w_a.data @ h.data)
            scores.append(float((params.u.data.T @ t).item()))
        ex = np.exp(np.array(scores) - max(scores))
        alpha = ex / ex.sum()
        want = sum(a * h.data for a, h in zip(alpha, hiddens))
        assert np.allclose(weights.data.ravel(), alpha, atol=1e-12, rtol=0.0)
        assert np.allclose(ctx.data, want, atol=1e-12, rtol=0.0)

    def test_weights_nonnegative_sum_to_one(self):
        params = self.params(seed=71)
        for _ in range(25):
            hiddens = [rand_matrix(3, 1, scale=3.0) for _ in range(5)]
            _, weights, _ = L.attention_pool(params, hiddens)
            assert np.all(weights.data >= 0.0)
            assert abs(weights.data.sum() - 1.0) < 1e-12

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            L.attention_pool(self.params(), [])

    def test_backward_vs_finite_difference(self):
        params = self.params(seed=81)
        hiddens = [rand_matrix(3, 1) for _ in range(4)]
        c = rand_matrix(3, 1)
        _, _, cache = L.attention_pool(params, hiddens)
        d_hiddens, d_w_a, d_u = L.attention_backward(params, cache, c)

        def loss(w_a=None, u=None, hs=None):
            p = L.AttentionParams(
                w_a=w_a if w_a is not None else params.w_a,
                u=u if u is not None else params.u,
            )
            ctx, _, _ = L.attention_pool(p, hs if hs is not None else hiddens)
            return ctx.hadamard(c).data.sum()

        assert fd_check(lambda m: loss(w_a=m), params.w_a, d_w_a) <= REL_TOL
        assert fd_check(lambda m: loss(u=m), params.u, d_u) <= REL_TOL
        for t in range(4):
            def loss_h(m, t=t):
                hs = list(hiddens)
                hs[t] = m
                return loss(hs=hs)

            assert fd_check(loss_h, hiddens[t], d_hiddens[t]) <= REL_TOL


# ---------------------------------------------------------------------------
# dense + relu
# ---------------------------------------------------------------------------


class TestDense:
    def test_identity(self):
        params = L.DenseParams(w=Matrix.from_rows([[1, 0], [0, 1]]), b=Matrix.zeros(2, 1))
        x = Matrix.column([4.0, -2.0])
        assert L.dense_forward(params, x) == x

    def test_bias_only(self):
        params = L.DenseParams(w=Matrix.zeros(1, 3), b=Matrix.column([3.0]))
        assert L.dense_forward(params, Matrix.column([9, 9, 9])).item() == 3.0

    def test_matches_matmul_add_oracle(self):
        w, b, x = rand_matrix(4, 3), rand_matrix(4, 1), rand_matrix(3, 1)
        params = L.DenseParams(w=w, b=b)
        want = w.data @ x.data + b.data
        assert np.allclose(L.dense_forward(params, x).data, want, atol=1e-15)

    def test_identity_jacobian(self):
        params = L.DenseParams(w=Matrix.from_rows([[1, 0], [0, 1]]), b=Matrix.zeros(2, 1))
        x = rand_matrix(2, 1)
        c = rand_matrix(2, 1)
        d_x, _, _ = L.dense_backward(params, x, c)
        assert d_x == c

    def test_shape_mismatch_rejected(self):
        params = L.DenseParams(w=Matrix.zeros(2, 3), b=Matrix.zeros(2, 1))
        with pytest.raises(ShapeError):
            L.dense_forward(params, Matrix.zeros(2, 1))
        with pytest.raises(ShapeError):
            L.DenseParams(w=Matrix.zeros(2, 3), b=Matrix.zeros(3, 1))

    def test_backward_vs_finite_difference(self):
        w, b, x = rand_matrix(4, 3), rand_matrix(4, 1), rand_matrix(3, 1)
        params = L.DenseParams(w=w, b=b)
        c = rand_matrix(4, 1)
        d_x, d_w, d_b = L.dense_backward(params, x, c)

        def loss(wv=None, bv=None, xv=None):
            p = L.DenseParams(w=wv if wv is not None else w, b=bv if bv is not None else b)
            return L.dense_forward(p, xv if xv is not None else x).hadamard(c).data.sum()

        assert fd_check(lambda m: loss(wv=m), w, d_w) <= REL_TOL
        assert fd_check(lambda m: loss(bv=m), b, d_b) <= REL_TOL
        assert fd_check(lambda m: loss(xv=m), x, d_x) <= REL_TOL


class TestReluBackward:
    def test_masks_nonpositive_preactivations(self):
        pre = Matrix.from_rows([[1.0, -2.0], [0.0, 3.0]])
        d_out = Matrix.from_rows([[10.0, 20.0], [30.0, 40.0]])
        grad = L.relu_backward(pre, d_out)
        assert grad.to_lists() == [[10.0, 0.0], [0.0, 40.0]]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


class TestInit:
    def test_uniform_bounds(self):
        rng = np.random.Generator(np.random.PCG64(0))
        m = L.uniform_init(rng, 50, 40, 40, 50)
        s = math.sqrt(6.0 / 90.0)
        assert np.all(np.abs(m.data) <= s)

    def test_seeded_determinism(self):
        a = L.init_gru(np.random.Generator(np.random.PCG64(9)), 4, 3)
        b = L.init_gru(np.random.Generator(np.random.PCG64(9)), 4, 3)
        assert a.w_z == b.w_z and a.w_r == b.w_r and a.w == b.w

    def test_embedding_pad_row_zeroed(self):
        emb = L.init_embedding(np.random.Generator(np.random.PCG64(1)), 7, 3)
        assert emb.table.to_lists()[0] == [0.0, 0.0, 0.0]
