"""Loss functions and their exact gradients.

The training objective is a convex combination of a regression MSE (next-day
normalized return) and a 3-class cross entropy (next-day sentiment class):

    J = mse_weight * MSE + (1 - mse_weight) * CE

mse_weight is a ModelConfig field, which checks that it lies in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .matrix import Matrix

PROB_FLOOR = 1e-12  # clamp applied before the log; the gradient ignores it


def mse(pred: Matrix, target: Matrix) -> float:
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    diff = pred.data - target.data
    return float(np.mean(diff * diff))


def mse_grad(pred: Matrix, target: Matrix) -> Matrix:
    """d mse / d pred = 2 (pred - target) / n."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    n = pred.rows * pred.cols
    return Matrix._wrap(2.0 * (pred.data - target.data) / n)


def cross_entropy(logits: Matrix, label: int) -> float:
    """-log softmax(logits)[label], probabilities clamped below at 1e-12."""
    c = logits.rows
    if logits.cols != 1:
        raise ShapeError(f"logits must be a column, got {logits.shape}")
    if not 0 <= label < c:
        raise ShapeError(f"label {label} out of range for {c} classes")
    shifted = logits.data - logits.data.max()
    ex = np.exp(shifted)
    probs = ex / ex.sum()
    return float(-np.log(max(PROB_FLOOR, float(probs[label, 0]))))


def cross_entropy_grad(logits: Matrix, label: int) -> Matrix:
    """d CE / d logits = softmax(logits) - onehot(label)."""
    c = logits.rows
    if logits.cols != 1:
        raise ShapeError(f"logits must be a column, got {logits.shape}")
    if not 0 <= label < c:
        raise ShapeError(f"label {label} out of range for {c} classes")
    shifted = logits.data - logits.data.max()
    ex = np.exp(shifted)
    probs = ex / ex.sum()
    grad = probs.copy()
    grad[label, 0] -= 1.0
    return Matrix._wrap(grad)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Stable softmax of each row of a (B, C) array of logits."""
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    return ex / ex.sum(axis=1, keepdims=True)


def batch_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """cross_entropy of each row of a (B, C) array against its label."""
    c = logits.shape[1]
    if len(labels) and (labels.min() < 0 or labels.max() >= c):
        raise ShapeError(f"labels must lie in [0, {c}), got {labels.min()}..{labels.max()}")
    probs = softmax_rows(logits)[np.arange(len(labels)), labels]
    return -np.log(np.maximum(PROB_FLOOR, probs))


def joint_loss(mse_val: float, ce_val: float, mse_weight: float) -> float:
    return mse_weight * mse_val + (1.0 - mse_weight) * ce_val
