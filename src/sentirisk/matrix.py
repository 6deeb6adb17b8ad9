"""Dense 64-bit matrix arithmetic, the sigmoid, and a finite-difference oracle.

This is the validated numeric type of the per-window reference (layers.py,
model.model_forward/model_backward, their six weight containers and the
per-sample losses); sentirisk does not re-export its names. Training, scoring
and alert records run on ndarrays (model.table_forward over model.tensors).
_sigmoid_array, the gate activation of the per-window GRU (layers.py), is
branch-free and cannot overflow. Values live in a read-only float64 numpy
array and every operation allocates a fresh output. A model's containers
wrap read-only views of its one parameter vector; only train() writes
behind them, between batches, in its own copy of that vector.
Matrix products are evaluated with a fixed row-major, left-to-right summation
order (np.einsum), which makes the naive triple-loop oracle an exact match.

No broadcasting anywhere: shapes must line up exactly or the call is
rejected with both shapes in the message.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

__all__ = [
    "Matrix",
    "matmul",
    "softmax",
    "finite_diff_grad",
]


class Matrix:
    """Immutable dense rows x cols matrix of float64, row-major."""

    __slots__ = ("data",)

    def __init__(self, rows: int, cols: int, values: Iterable[float]):
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        arr = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.float64).ravel()
        if arr.size != rows * cols:
            raise ShapeError(
                f"expected {rows * cols} values for a {rows}x{cols} matrix, got {arr.size}"
            )
        if not np.isfinite(arr).all():
            raise NumericError("matrix values must be finite")
        arr = np.ascontiguousarray(arr.reshape(rows, cols))
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Matrix":
        """Adopt a freshly allocated 2-D float64 array without re-validating."""
        m = object.__new__(cls)
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        arr.flags.writeable = False
        object.__setattr__(m, "data", arr)
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        if rows < 1 or cols < 1:
            raise ShapeError(f"matrix dimensions must be positive, got {rows}x{cols}")
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def full(cls, rows: int, cols: int, value: float) -> "Matrix":
        return cls(rows, cols, [float(value)] * (rows * cols))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[float]]) -> "Matrix":
        if not rows:
            raise ShapeError("from_rows needs at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ShapeError(f"ragged rows: expected width {width}, got {len(r)}")
        return cls(len(rows), width, [float(v) for row in rows for v in row])

    @classmethod
    def column(cls, values: Sequence[float]) -> "Matrix":
        return cls(len(values), 1, values)

    # -- basic accessors ------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def values(self) -> list[float]:
        """Flat row-major copy of the entries."""
        return self.data.ravel().tolist()

    def to_lists(self) -> list[list[float]]:
        return self.data.tolist()

    def at(self, i: int, j: int) -> float:
        return float(self.data[i, j])

    def item(self) -> float:
        if self.shape != (1, 1):
            raise ShapeError(f"item() needs a 1x1 matrix, got {self.rows}x{self.cols}")
        return float(self.data[0, 0])

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # alerts.DailyPrediction's Matrix case; both go with ROADMAP item 1c
        return np.array(self.data, dtype=dtype, copy=copy)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Matrix({self.rows}x{self.cols}, {self.data.ravel()[:6]}...)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Matrix) and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:  # immutable, but hashing whole arrays is a trap
        return id(self)

    # -- arithmetic (all allocate fresh outputs) ------------------------------

    def _require_same_shape(self, other: "Matrix", op: str) -> None:
        if self.shape != other.shape:
            raise ShapeError(
                f"{op} needs equal shapes, got {self.rows}x{self.cols} "
                f"and {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other, "add")
        return Matrix._wrap(self.data + other.data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other, "subtract")
        return Matrix._wrap(self.data - other.data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

    def hadamard(self, other: "Matrix") -> "Matrix":
        self._require_same_shape(other, "hadamard")
        return Matrix._wrap(self.data * other.data)

    def concat_rows(self, bottom: "Matrix") -> "Matrix":
        """Stack vertically: [self; bottom]."""
        if self.cols != bottom.cols:
            raise ShapeError(
                f"concat_rows needs equal column counts, got {self.rows}x{self.cols} "
                f"and {bottom.rows}x{bottom.cols}"
            )
        return Matrix._wrap(np.concatenate([self.data, bottom.data], axis=0))

    def with_value(self, i: int, j: int, value: float) -> "Matrix":
        """Copy with a single entry replaced (used by the finite-difference oracle)."""
        arr = self.data.copy()
        arr[i, j] = value
        return Matrix._wrap(arr)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Textbook matrix product with row-major left-to-right summation order."""
    if a.cols != b.rows:
        raise ShapeError(
            f"matmul dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}"
        )
    out = np.einsum("ik,kj->ij", a.data, b.data)
    if not np.isfinite(out).all():
        raise NumericError("matmul produced non-finite values")
    return Matrix._wrap(out)


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def softmax(logits: Matrix) -> Matrix:
    """Stable softmax over an n x 1 column; outputs are positive and sum to 1."""
    if logits.cols != 1:
        raise ShapeError(f"softmax expects an nx1 column, got {logits.rows}x{logits.cols}")
    shifted = logits.data - logits.data.max()
    ex = np.exp(shifted)
    out = ex / ex.sum()
    if not np.isfinite(out).all():
        raise NumericError("softmax produced non-finite values")
    return Matrix._wrap(out)


def finite_diff_grad(f: Callable[[Matrix], float], x: Matrix, h: float = 1e-5) -> Matrix:
    """Central-difference gradient of a scalar function, one coordinate at a time.

    This is the verification oracle every manual backward pass is checked
    against; it must stay independent of any analytic gradient code.
    """
    if h <= 0:
        raise ValueError(f"step size must be positive, got {h}")
    grad = np.zeros((x.rows, x.cols))
    for i in range(x.rows):
        for j in range(x.cols):
            v = x.at(i, j)
            up = f(x.with_value(i, j, v + h))
            down = f(x.with_value(i, j, v - h))
            grad[i, j] = (up - down) / (2.0 * h)
    return Matrix._wrap(grad)
