"""Parameter updates: plain SGD with optional L2 decay, and Adam.

Optimizer.apply steps a model's parameters, the float64 vector model.params,
in place with a few whole-vector operations, given gradients in the same
layout (model.batch_backward); Adam's moments are two more vectors of that
layout, zeroed on its first step. The moments and the scratch vectors both
rules work in are views of the optimizer's model.Workspace (train lends it
the run's), so no step allocates a vector. The rule, learning rate and
decay are read off the optimizer's train.TrainConfig: TrainConfig is the
one place that checks the training settings. Adam's betas and epsilon are
the published defaults, fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeError
from .model import Workspace

if TYPE_CHECKING:  # train imports this module
    from .train import TrainConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class Optimizer:
    """Applies one update rule to a flat parameter vector, in place."""

    cfg: TrainConfig  # its optimizer, lr and weight_decay (sgd only)
    # holds the vectors below and the scratch of each step; a new one by default
    ws: Workspace = field(default_factory=Workspace, repr=False)
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
        a = self.ws.take("scratch0", params.shape)
        if self.cfg.optimizer == "sgd":  # products commute exactly
            np.multiply(params, self.cfg.weight_decay, out=a)
            np.add(grads, a, out=a)
            a *= self.cfg.lr
            params -= a
            return
        if self.m is None:
            self.m, self.v = (self.ws.take(name, params.shape) for name in ("adam/m", "adam/v"))
            self.m.fill(0.0)
            self.v.fill(0.0)
        elif self.m.shape != params.shape:
            raise ShapeError(f"adam state holds {self.m.size} values, params {params.size}")
        self.t += 1
        b = self.ws.take("scratch1", params.shape)
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
        a *= self.cfg.lr
        a /= b
        params -= a  # lr m_hat / (sqrt(v_hat) + eps)
