"""Parameter updates: plain SGD with optional L2 decay, and Adam.

Optimizer.apply steps a model's parameters, the float64 vector model.params,
in place with a few whole-vector operations, given gradients in the same
layout (model.batch_backward); Adam's moments are two more vectors of that
layout. The learning rate and decay come from train.TrainConfig, which checks
their ranges; Adam's betas and epsilon are the published defaults, fixed.
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
    # Adam's moments and step count, created on the first step
    m: np.ndarray | None = field(init=False, default=None, repr=False)
    v: np.ndarray | None = field(init=False, default=None, repr=False)
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
        elif self.m.shape != params.shape:
            raise ShapeError(f"adam state holds {self.m.size} values, params {params.size}")
        self.t += 1
        self.m *= ADAM_BETA1
        self.m += (1.0 - ADAM_BETA1) * grads
        self.v *= ADAM_BETA2
        self.v += (1.0 - ADAM_BETA2) * grads * grads
        m_hat = self.m / (1.0 - ADAM_BETA1 ** self.t)
        v_hat = self.v / (1.0 - ADAM_BETA2 ** self.t)
        params -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
