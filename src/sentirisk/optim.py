"""Parameter updates: plain SGD with optional L2 decay, and Adam.

Optimizer.apply steps a model's parameters, the float64 vector model.params,
in place with a few whole-vector operations, given gradients in the same
layout (model.batch_backward); Adam's moments are two more vectors of that
layout, and it works in two scratch vectors of it, made on its first step
and reused by every later one. The learning rate and decay come from
train.TrainConfig, which checks their ranges; Adam's betas and epsilon are
the published defaults, fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Optimizer:
    """Applies one update rule to a flat parameter vector, in place."""

    kind: str  # "sgd" | "adam"
    lr: float
    weight_decay: float = 0.0  # sgd only
    # Adam's moments, scratch vectors and step count, created on the first step
    m: np.ndarray | None = field(init=False, default=None, repr=False)
    v: np.ndarray | None = field(init=False, default=None, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(init=False, default=None,
                                                          repr=False)
    t: int = field(init=False, default=0)

    def apply(self, params: np.ndarray, grads: np.ndarray) -> None:
        """SGD: p - lr * (g + weight_decay * p). Adam: the bias-corrected
        update, in the textbook's per-element operation order."""
        if params.ndim != 1 or params.shape != grads.shape:
            raise ShapeError(f"optimizer needs 1-D params and grads of one length, "
                             f"got {params.shape} and {grads.shape}")
        if self.kind == "sgd":
            params -= self.lr * (grads + self.weight_decay * params)
            return
        if self.m is None:
            self.m, self.v = np.zeros_like(params), np.zeros_like(params)
            self.scratch = np.empty_like(params), np.empty_like(params)
        elif self.m.shape != params.shape:
            raise ShapeError(f"adam state holds {self.m.size} values, params {params.size}")
        self.t += 1
        a, b = self.scratch
        # each line keeps the textbook's operands and order: products commute exactly
        self.m *= ADAM_BETA1
        self.m += np.multiply(grads, 1.0 - ADAM_BETA1, out=a)  # (1 - beta1) g
        self.v *= ADAM_BETA2
        np.multiply(grads, 1.0 - ADAM_BETA2, out=a)
        self.v += np.multiply(a, grads, out=a)  # (1 - beta2) g g
        np.divide(self.m, 1.0 - ADAM_BETA1 ** self.t, out=a)  # m_hat
        np.divide(self.v, 1.0 - ADAM_BETA2 ** self.t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPS
        a *= self.lr
        a /= b
        params -= a  # lr m_hat / (sqrt(v_hat) + eps)
