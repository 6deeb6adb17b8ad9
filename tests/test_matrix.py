"""Matrix carrier, activations, softmax, and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentirisk.errors import NumericError, ShapeError
from sentirisk.matrix import (
    Matrix,
    activate,
    finite_diff_grad,
    matmul,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from sentirisk.matrix import _sigmoid_array

RNG = np.random.Generator(np.random.PCG64(1234))


def naive_matmul(a: Matrix, b: Matrix) -> list[list[float]]:
    # independent triple loop, summed left to right
    out = [[0.0] * b.cols for _ in range(a.rows)]
    for i in range(a.rows):
        for j in range(b.cols):
            s = 0.0
            for k in range(a.cols):
                s += a.at(i, k) * b.at(k, j)
            out[i][j] = s
    return out


class TestConstruction:
    def test_values_length_must_match(self):
        with pytest.raises(ShapeError):
            Matrix(2, 2, [1.0, 2.0, 3.0])

    def test_dimensions_positive(self):
        with pytest.raises(ShapeError):
            Matrix(0, 2, [])

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            Matrix(1, 2, [1.0, float("nan")])
        with pytest.raises(NumericError):
            Matrix(1, 1, [float("inf")])

    def test_immutable(self):
        m = Matrix(2, 2, [1, 2, 3, 4])
        with pytest.raises(ValueError):
            m.data[0, 0] = 99.0

    def test_round_trip_accessors(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m.values == [1.0, 2.0, 3.0, 4.0]
        assert m.to_lists() == [[1.0, 2.0], [3.0, 4.0]]
        assert m.at(1, 0) == 3.0

    def test_column_and_item(self):
        assert Matrix.column([5.0]).item() == 5.0
        with pytest.raises(ShapeError):
            Matrix.column([1.0, 2.0]).item()


class TestMatmul:
    def test_identity(self):
        ident = Matrix.from_rows([[1, 0], [0, 1]])
        v = Matrix.from_rows([[3], [7]])
        assert matmul(ident, v).to_lists() == [[3.0], [7.0]]

    def test_hand_arithmetic(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[1], [1]])
        assert matmul(a, b).to_lists() == [[3.0], [7.0]]

    def test_matches_triple_loop_oracle_bitwise(self):
        a = Matrix._wrap(RNG.standard_normal((5, 4)))
        b = Matrix._wrap(RNG.standard_normal((4, 3)))
        got = matmul(a, b).to_lists()
        want = naive_matmul(a, b)
        for gr, wr in zip(got, want):
            for g, w in zip(gr, wr):
                assert g == w  # identical summation order, no tolerance

    def test_dimension_mismatch_reports_both_shapes(self):
        a = Matrix.zeros(2, 3)
        b = Matrix.zeros(2, 3)
        with pytest.raises(ShapeError, match="2x3.*2x3"):
            matmul(a, b)

    def test_operator_form(self):
        a = Matrix.from_rows([[2]])
        b = Matrix.from_rows([[3]])
        assert (a @ b).item() == 6.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_associativity(self, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        a = Matrix._wrap(rng.standard_normal((3, 4)))
        b = Matrix._wrap(rng.standard_normal((4, 2)))
        c = Matrix._wrap(rng.standard_normal((2, 5)))
        left = matmul(matmul(a, b), c)
        right = matmul(a, matmul(b, c))
        assert np.allclose(left.data, right.data, rtol=1e-9, atol=1e-9)


class TestElementwiseOps:
    def test_add_sub_hadamard_scale(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[10, 20], [30, 40]])
        assert (a + b).to_lists() == [[11.0, 22.0], [33.0, 44.0]]
        assert (b - a).to_lists() == [[9.0, 18.0], [27.0, 36.0]]
        assert a.hadamard(b).to_lists() == [[10.0, 40.0], [90.0, 160.0]]
        assert a.scale(2.0).to_lists() == [[2.0, 4.0], [6.0, 8.0]]

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            Matrix.zeros(2, 2) + Matrix.zeros(2, 3)
        with pytest.raises(ShapeError):
            Matrix.zeros(2, 2).hadamard(Matrix.zeros(3, 2))

    def test_concat_and_slice(self):
        top = Matrix.from_rows([[1], [2]])
        bottom = Matrix.from_rows([[3]])
        cat = top.concat_rows(bottom)
        assert cat.to_lists() == [[1.0], [2.0], [3.0]]
        assert cat.row_slice(1, 3).to_lists() == [[2.0], [3.0]]

    def test_transpose_and_sum(self):
        m = Matrix.from_rows([[1, 2, 3]])
        assert m.transpose().to_lists() == [[1.0], [2.0], [3.0]]
        assert m.sum() == 6.0


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert sigmoid(Matrix.column([0.0])).item() == 0.5

    def test_forced_values(self):
        assert tanh(Matrix.column([0.0])).item() == 0.0
        assert relu(Matrix.column([-2.0])).item() == 0.0
        assert relu(Matrix.column([3.0])).item() == 3.0

    def test_sigmoid_complement_identity(self):
        xs = RNG.standard_normal(100) * 4.0
        for x in xs:
            s = sigmoid(Matrix.column([float(x)])).item()
            c = sigmoid(Matrix.column([float(-x)])).item()
            assert abs(s + c - 1.0) < 1e-12

    def test_ranges_on_random_inputs(self):
        # |x| <= 15 keeps the strict interior representable in float64;
        # past ~19 tanh correctly rounds to the boundary itself.
        xs = Matrix._wrap(RNG.uniform(-15.0, 15.0, size=(100, 100)))
        sig = activate("sigmoid", xs)
        th = activate("tanh", xs)
        re_ = activate("relu", xs)
        assert np.all((sig.data > 0.0) & (sig.data < 1.0))
        assert np.all((th.data > -1.0) & (th.data < 1.0))
        assert np.all(re_.data >= 0.0)

    def test_extreme_inputs_stay_finite_and_bounded(self):
        out = sigmoid(Matrix.column([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out.data))
        assert np.all((out.data >= 0.0) & (out.data <= 1.0))
        th = activate("tanh", Matrix.column([-1000.0, 1000.0]))
        assert np.all(np.isfinite(th.data))
        assert np.all((th.data >= -1.0) & (th.data <= 1.0))

    def test_sigmoid_array_equals_the_two_branch_formula_bit_for_bit(self):
        def two_branch(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 800.0, -800.0,
                   np.inf, -np.inf]
        x = np.concatenate([special, RNG.standard_normal(1000) * 10.0]).reshape(-1, 10)
        got = _sigmoid_array(x)
        assert got.shape == x.shape
        assert got.tobytes() == two_branch(x).tobytes()
        assert np.isnan(_sigmoid_array(np.array([np.nan, 1.0])))[0]

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError):
            activate("gelu", Matrix.zeros(1, 1))


class TestSoftmax:
    def test_equal_logits(self):
        out = softmax(Matrix.column([0.0, 0.0]))
        assert out.to_lists() == [[0.5], [0.5]]

    def test_saturation(self):
        # the dominant weight is 1/(1+e^-100); float64 rounds both it and
        # 1 - 1e-20 to exactly 1.0, so >= is the representable comparison
        out = softmax(Matrix.column([100.0, 0.0]))
        assert out.at(0, 0) >= 1.0 - 1e-20
        assert out.at(1, 0) <= 1e-20

    def test_matches_extended_precision_oracle(self):
        from fractions import Fraction
        import math

        logits = [1.0, 2.0, 3.0]
        exps = [Fraction(math.exp(v)) for v in logits]  # exact arithmetic on floats
        total = sum(exps)
        want = [float(e / total) for e in exps]
        got = softmax(Matrix.column(logits)).values
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-12

    def test_positive_and_sums_to_one(self):
        for _ in range(50):
            v = Matrix._wrap(RNG.standard_normal((7, 1)) * 10.0)
            out = softmax(v)
            assert np.all(out.data > 0.0)
            assert abs(out.data.sum() - 1.0) < 1e-12

    def test_translation_invariance(self):
        v = Matrix.column([0.3, -1.2, 2.5])
        shifted = Matrix.column([0.3 + 7.0, -1.2 + 7.0, 2.5 + 7.0])
        a, b = softmax(v), softmax(shifted)
        assert np.allclose(a.data, b.data, atol=1e-12, rtol=0.0)

    def test_requires_column(self):
        with pytest.raises(ShapeError):
            softmax(Matrix.zeros(2, 2))


class TestFiniteDiff:
    def test_linear_function_all_ones(self):
        x = Matrix._wrap(RNG.standard_normal((3, 2)))
        grad = finite_diff_grad(lambda m: m.sum(), x)
        assert np.allclose(grad.data, 1.0, atol=1e-9)

    def test_quadratic_analytic_gradient(self):
        x = Matrix.from_rows([[1.0, 2.0]])
        grad = finite_diff_grad(lambda m: m.hadamard(m).sum(), x)
        assert abs(grad.at(0, 0) - 2.0) < 1e-6
        assert abs(grad.at(0, 1) - 4.0) < 1e-6

    def test_matches_closed_forms_within_1e6(self):
        x = Matrix._wrap(RNG.standard_normal((4, 4)))
        a = Matrix._wrap(RNG.standard_normal((4, 4)))

        def f(m):
            return matmul(a, m).hadamard(matmul(a, m)).sum()

        grad = finite_diff_grad(f, x)
        want = 2.0 * a.data.T @ (a.data @ x.data)
        assert np.allclose(grad.data, want, atol=1e-6, rtol=1e-6)

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda m: m.sum(), Matrix.zeros(1, 1), h=0.0)
