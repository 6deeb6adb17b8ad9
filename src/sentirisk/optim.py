"""Parameter updates: plain SGD with optional L2 decay, and Adam.

Both operate on single tensors; ``Optimizer`` lifts them over the model's
named-tensor dict so the training loop can stay agnostic to which rule runs.
The learning rate and decay come from ``train.TrainConfig``, which checks
their ranges; Adam's betas and epsilon are the published defaults, fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError
from .matrix import Matrix

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def sgd_step(param: Matrix, grad: Matrix, lr: float, weight_decay: float = 0.0) -> Matrix:
    """param - lr * (grad + weight_decay * param)."""
    if param.shape != grad.shape:
        raise ShapeError(f"sgd shapes differ: {param.shape} vs {grad.shape}")
    return Matrix._wrap(param.data - lr * (grad.data + weight_decay * param.data))


@dataclass
class AdamState:
    m: Matrix
    v: Matrix
    t: int = 0

    @classmethod
    def zeros_like(cls, param: Matrix) -> "AdamState":
        return cls(m=Matrix.zeros(*param.shape), v=Matrix.zeros(*param.shape), t=0)


def adam_step(param: Matrix, grad: Matrix, state: AdamState,
              lr: float) -> tuple[Matrix, AdamState]:
    """Standard bias-corrected Adam; returns the new param and new state."""
    if param.shape != grad.shape:
        raise ShapeError(f"adam shapes differ: {param.shape} vs {grad.shape}")
    if state.m.shape != param.shape or state.v.shape != param.shape:
        raise ShapeError(f"adam state shape does not match param {param.shape}")
    t = state.t + 1
    m = ADAM_BETA1 * state.m.data + (1.0 - ADAM_BETA1) * grad.data
    v = ADAM_BETA2 * state.v.data + (1.0 - ADAM_BETA2) * grad.data * grad.data
    m_hat = m / (1.0 - ADAM_BETA1 ** t)
    v_hat = v / (1.0 - ADAM_BETA2 ** t)
    new_param = param.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return (
        Matrix._wrap(new_param),
        AdamState(m=Matrix._wrap(m), v=Matrix._wrap(v), t=t),
    )


@dataclass
class Optimizer:
    """Applies one update rule across a dict of named parameter tensors."""

    kind: str  # "sgd" | "adam"
    lr: float
    weight_decay: float = 0.0  # sgd only
    _states: dict[str, AdamState] = field(default_factory=dict)

    def apply(self, params: dict[str, Matrix], grads: dict[str, Matrix]) -> dict[str, Matrix]:
        missing = set(params) - set(grads)
        if missing:
            raise ShapeError(f"missing gradients for {sorted(missing)}")
        out: dict[str, Matrix] = {}
        for name, p in params.items():
            g = grads[name]
            if self.kind == "sgd":
                out[name] = sgd_step(p, g, self.lr, self.weight_decay)
            else:
                st = self._states.get(name)
                if st is None:
                    st = AdamState.zeros_like(p)
                out[name], self._states[name] = adam_step(p, g, st, self.lr)
        return out
