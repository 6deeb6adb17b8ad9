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
from sentirisk.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, Optimizer
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


def sgd(p, g, lr, weight_decay=0.0):
    """One SGD step on a copy of p; returns the stepped copy."""
    p = np.array(p, dtype=float)
    cfg = TrainConfig(optimizer="sgd", lr=lr, weight_decay=weight_decay)
    Optimizer(cfg).apply(p, np.array(g, dtype=float))
    return p


class TestSGD:
    def test_basic_arithmetic(self):
        assert abs(sgd([1.0], [2.0], 0.1)[0] - 0.8) < 1e-15

    def test_zero_grad_is_stationary(self):
        p = RNG.standard_normal(4)
        assert sgd(p, np.zeros(4), 0.1).tobytes() == p.tobytes()

    def test_decay_only_arithmetic(self):
        assert abs(sgd([1.0], [0.0], 0.1, weight_decay=0.1)[0] - 0.99) < 1e-15

    def test_steps_in_place(self):
        p = np.array([1.0, 2.0])
        before = p
        Optimizer(TrainConfig(optimizer="sgd", lr=0.5)).apply(p, np.array([1.0, 1.0]))
        assert p is before
        assert p.tolist() == [0.5, 1.5]

    def test_shape_mismatch_rejected(self):
        opt = Optimizer(TrainConfig(optimizer="sgd", lr=0.1))
        with pytest.raises(ShapeError):
            opt.apply(np.zeros(2), np.zeros(3))
        with pytest.raises(ShapeError):  # a flat vector, not a tensor
            opt.apply(np.zeros((2, 1)), np.zeros((2, 1)))

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
        stepped = sgd([w], [w - target], alpha)[0]
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
            opt = Optimizer(TrainConfig(optimizer="adam", lr=lr))
            p = np.array([0.5])
            opt.apply(p, np.array([g]))
            # m_hat/sqrt(v_hat) = sign(g) on the first step, up to eps
            assert abs(abs(p[0] - 0.5) - lr) < lr * 1e-3
            assert opt.t == 1

    def test_zero_grad_never_moves(self):
        opt = Optimizer(TrainConfig(optimizer="adam", lr=1e-4))
        p = RNG.standard_normal(3)
        start = p.copy()
        for _ in range(5):
            opt.apply(p, np.zeros(3))
            assert p.tobytes() == start.tobytes()

    def test_ten_steps_match_textbook_oracle(self):
        # the update runs the textbook's per-element operations in its order,
        # so the result is equal to the last bit
        lr = 3e-3
        p = RNG.standard_normal(4)
        grads = [RNG.standard_normal(4) for _ in range(10)]
        opt = Optimizer(TrainConfig(optimizer="adam", lr=lr))
        got = p.copy()
        for g in grads:
            opt.apply(got, g)
        want = textbook_adam(p, grads, lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
        assert got.tobytes() == want.tobytes()
        assert opt.t == 10

    def test_reused_gradient_vector_matches_textbook_oracle(self):
        # train hands apply one gradient vector, overwritten every batch; the
        # update reads it, never keeps or writes it, and reuses its own scratch
        lr = 1e-2
        p = RNG.standard_normal(1000)
        grads = [RNG.standard_normal(1000) * 10.0 ** RNG.integers(-6, 6) for _ in range(6)]
        opt = Optimizer(TrainConfig(optimizer="adam", lr=lr))
        got, buf = p.copy(), np.empty(1000)
        for t, g in enumerate(grads, start=1):
            buf[:] = g
            opt.apply(got, buf)
            assert buf.tobytes() == g.tobytes()
            want = textbook_adam(p, grads[:t], lr, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
            assert got.tobytes() == want.tobytes()

    def test_default_learning_rate(self):
        assert TrainConfig().optimizer == "adam"
        assert TrainConfig().lr == 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Optimizer(TrainConfig(optimizer="adam", lr=1e-4)).apply(np.zeros(2), np.zeros(3))

    def test_params_of_another_length_rejected_after_first_step(self):
        opt = Optimizer(TrainConfig(optimizer="adam", lr=1e-4))
        opt.apply(np.zeros(2), np.ones(2))
        with pytest.raises(ShapeError):
            opt.apply(np.zeros(3), np.ones(3))

    def test_second_moment_stays_nonnegative(self):
        opt = Optimizer(TrainConfig(optimizer="adam", lr=1e-4))
        p = RNG.standard_normal(3)
        for _ in range(8):
            opt.apply(p, RNG.standard_normal(3) * 4.0)
            assert np.all(opt.v >= 0.0)


class TestOptimizerState:
    def test_no_state_before_first_step(self):
        opt = Optimizer(TrainConfig(optimizer="adam", lr=0.1))
        assert opt.m is None and opt.v is None and opt.t == 0

    def test_each_element_keeps_its_own_moments(self):
        opt = Optimizer(TrainConfig(optimizer="adam", lr=0.1))
        p = np.zeros(2)
        opt.apply(p, np.array([1.0, 0.0]))
        assert abs(p[0] + 0.1) < 1e-4  # moved by ~lr
        assert p[1] == 0.0  # zero grad, zero moments: no motion
        assert opt.m[1] == 0.0 and opt.v[1] == 0.0
        opt.apply(p, np.array([0.0, 1.0]))
        # element 0 decays its moments, element 1 takes its first gradient
        assert np.allclose(opt.m, [0.9 * 0.1, 0.1], rtol=1e-15, atol=0.0)
        assert np.allclose(opt.v, [0.999 * 0.001, 0.001], rtol=1e-15, atol=0.0)
        assert p[0] < -0.1 and p[1] < 0.0
