"""Loss arithmetic vs hand oracles; optimizer steps vs textbook formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentirisk.errors import ShapeError
from sentirisk.losses import (
    cross_entropy,
    cross_entropy_grad,
    joint_loss,
    mse,
    mse_grad,
)
from sentirisk.matrix import Matrix, finite_diff_grad, softmax
from sentirisk.model import ModelConfig
from sentirisk.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    Optimizer,
    adam_step,
    sgd_step,
)
from sentirisk.train import TrainConfig

RNG = np.random.Generator(np.random.PCG64(33))


def rand_col(n, scale=1.0):
    return Matrix._wrap(RNG.standard_normal((n, 1)) * scale)


class TestMSE:
    def test_perfect_prediction_is_zero(self):
        p = rand_col(5)
        assert mse(p, p) == 0.0

    def test_single_element_arithmetic(self):
        assert mse(Matrix.column([1.0]), Matrix.column([3.0])) == 4.0

    def test_matches_scalar_loop_oracle(self):
        p, t = rand_col(7), rand_col(7)
        want = 0.0
        for i in range(7):
            want += (p.at(i, 0) - t.at(i, 0)) ** 2
        want /= 7.0
        assert abs(mse(p, t) - want) < 1e-14

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            mse(Matrix.zeros(2, 1), Matrix.zeros(3, 1))

    def test_grad_vs_finite_difference(self):
        p, t = rand_col(6), rand_col(6)
        grad = mse_grad(p, t)
        fd = finite_diff_grad(lambda m: mse(m, t), p)
        assert np.allclose(grad.data, fd.data, rtol=1e-6, atol=1e-8)


class TestCrossEntropy:
    def test_uniform_logits_give_ln_c(self):
        logits = Matrix.column([0.0, 0.0, 0.0])
        for label in range(3):
            assert abs(cross_entropy(logits, label) - math.log(3.0)) < 1e-12

    def test_confident_correct_is_near_zero(self):
        assert cross_entropy(Matrix.column([100.0, 0.0, 0.0]), 0) < 1e-12

    def test_matches_softmax_log_oracle(self):
        for _ in range(20):
            logits = rand_col(3, scale=2.0)
            label = int(RNG.integers(0, 3))
            probs = softmax(logits)
            want = -math.log(max(probs.at(label, 0), 1e-12))
            assert abs(cross_entropy(logits, label) - want) < 1e-12

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ShapeError):
            cross_entropy(Matrix.column([0.0, 0.0]), 2)
        with pytest.raises(ShapeError):
            cross_entropy(Matrix.column([0.0, 0.0]), -1)

    def test_nonnegative_always(self):
        for _ in range(200):
            logits = rand_col(3, scale=5.0)
            assert cross_entropy(logits, int(RNG.integers(0, 3))) >= 0.0

    def test_grad_is_softmax_minus_onehot(self):
        logits = rand_col(4, scale=2.0)
        grad = cross_entropy_grad(logits, 2)
        probs = softmax(logits)
        want = probs.data.copy()
        want[2, 0] -= 1.0
        assert np.allclose(grad.data, want, atol=1e-15)

    def test_grad_vs_finite_difference(self):
        logits = rand_col(3, scale=1.5)
        grad = cross_entropy_grad(logits, 1)
        fd = finite_diff_grad(lambda m: cross_entropy(m, 1), logits)
        rel = np.abs(grad.data - fd.data) / np.maximum(
            1e-8, np.abs(grad.data) + np.abs(fd.data)
        )
        assert rel.max() <= 1e-4


class TestJointLoss:
    def test_lambda_one_is_pure_mse(self):
        assert joint_loss(0.37, 0.91, 1.0) == 0.37

    def test_lambda_zero_is_pure_ce(self):
        assert joint_loss(0.37, 0.91, 0.0) == 0.91

    def test_equal_weight_arithmetic(self):
        assert joint_loss(0.2, 0.8, 0.5) == 0.5

    def test_weight_outside_unit_interval_rejected(self):
        # the weight is a model setting; ModelConfig checks its range
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=2, mse_weight=1.5)
        with pytest.raises(ValueError):
            ModelConfig(vocab_size=2, mse_weight=-0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        lam=st.floats(0.0, 1.0),
        m1=st.floats(0.0, 10.0),
        m2=st.floats(0.0, 10.0),
        c1=st.floats(0.0, 10.0),
        c2=st.floats(0.0, 10.0),
    )
    def test_monotone_in_each_argument(self, lam, m1, m2, c1, c2):
        lo_m, hi_m = min(m1, m2), max(m1, m2)
        lo_c, hi_c = min(c1, c2), max(c1, c2)
        assert joint_loss(lo_m, lo_c, lam) <= joint_loss(hi_m, lo_c, lam)
        assert joint_loss(lo_m, lo_c, lam) <= joint_loss(lo_m, hi_c, lam)


class TestSGD:
    def test_basic_arithmetic(self):
        out = sgd_step(Matrix.column([1.0]), Matrix.column([2.0]), 0.1)
        assert abs(out.item() - 0.8) < 1e-15

    def test_zero_grad_is_stationary(self):
        p = rand_col(4)
        out = sgd_step(p, Matrix.zeros(4, 1), 0.1)
        assert out == p

    def test_decay_only_arithmetic(self):
        out = sgd_step(Matrix.column([1.0]), Matrix.column([0.0]), 0.1, weight_decay=0.1)
        assert abs(out.item() - 0.99) < 1e-15

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            sgd_step(Matrix.zeros(2, 1), Matrix.zeros(3, 1), 0.1)

    def test_nonpositive_alpha_rejected(self):
        # the learning rate is a training setting; TrainConfig checks its range
        with pytest.raises(ValueError):
            TrainConfig(optimizer="sgd", lr=0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        w=st.floats(-10.0, 10.0),
        target=st.floats(-10.0, 10.0),
        alpha=st.floats(1e-3, 0.99),
    )
    def test_descends_quadratic(self, w, target, alpha):
        # f(w) = 0.5 (w - target)^2, grad = w - target
        if abs(w - target) < 1e-9:
            return
        f_before = 0.5 * (w - target) ** 2
        stepped = sgd_step(Matrix.column([w]), Matrix.column([w - target]), alpha).item()
        f_after = 0.5 * (stepped - target) ** 2
        assert f_after < f_before


def textbook_adam(param, grads, lr, b1, b2, eps):
    """Straight transcription of the published update rule, scalar numpy."""
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    p = param.copy()
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        p = p - lr * m_hat / (np.sqrt(v_hat) + eps)
    return p


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        lr = 1e-3
        for g in (0.01, 1.0, 250.0, -7.0):
            p = Matrix.column([0.5])
            new_p, state = adam_step(p, Matrix.column([g]), AdamState.zeros_like(p), lr)
            step = abs(new_p.item() - 0.5)
            # m_hat/sqrt(v_hat) = sign(g) on the first step, up to eps
            assert abs(step - lr) < lr * 1e-3
            assert state.t == 1

    def test_zero_grad_never_moves(self):
        p = rand_col(3)
        state = AdamState.zeros_like(p)
        for _ in range(5):
            p2, state = adam_step(p, Matrix.zeros(3, 1), state, 1e-4)
            assert p2 == p
            p = p2

    def test_ten_steps_match_textbook_oracle(self):
        lr = 3e-3
        p = rand_col(4)
        grads = [rand_col(4) for _ in range(10)]
        state = AdamState.zeros_like(p)
        got = p
        for g in grads:
            got, state = adam_step(got, g, state, lr)
        want = textbook_adam(p.data, [g.data for g in grads],
                             lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
        assert np.allclose(got.data, want, rtol=1e-12, atol=1e-15)
        assert state.t == 10

    def test_default_learning_rate(self):
        assert TrainConfig().optimizer == "adam"
        assert TrainConfig().lr == 1e-4

    def test_shape_mismatch_rejected(self):
        p = Matrix.zeros(2, 1)
        with pytest.raises(ShapeError):
            adam_step(p, Matrix.zeros(3, 1), AdamState.zeros_like(p), 1e-4)

    def test_second_moment_stays_nonnegative(self):
        p = rand_col(3)
        state = AdamState.zeros_like(p)
        for _ in range(8):
            p, state = adam_step(p, rand_col(3, scale=4.0), state, 1e-4)
            assert np.all(state.v.data >= 0.0)


class TestOptimizerWrapper:
    def test_applies_to_every_named_tensor(self):
        opt = Optimizer(kind="sgd", lr=0.5)
        params = {"a": Matrix.column([1.0]), "b": Matrix.column([2.0])}
        grads = {"a": Matrix.column([1.0]), "b": Matrix.column([1.0])}
        out = opt.apply(params, grads)
        assert out["a"].item() == 0.5
        assert out["b"].item() == 1.5

    def test_adam_state_tracked_per_tensor(self):
        opt = Optimizer(kind="adam", lr=0.1)
        params = {"a": Matrix.column([0.0]), "b": Matrix.column([0.0])}
        grads = {"a": Matrix.column([1.0]), "b": Matrix.column([0.0])}
        out = opt.apply(params, grads)
        assert abs(out["a"].item() + 0.1) < 1e-4  # moved by ~lr
        assert out["b"].item() == 0.0  # zero grad, zero moments: no motion
