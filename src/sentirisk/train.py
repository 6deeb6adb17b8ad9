"""Mini-batch training, metrics, forward-chaining CV, ablations, exports.

Training runs deterministic seeded epochs: a fresh permutation of the train
split per epoch, batch-averaged gradients, one optimizer step per batch.
The train split's days are gathered once per call into a model.DayTable,
and each mini-batch is a slice of the permutation run through
model.table_forward/batch_backward as whole arrays; validation and evaluate
build a table of the split they score and run it in blocks of indices.
Matrix stays at the boundary, as the model's and the optimizer's named
tensors. A batch with a non-finite loss aborts the run; early stopping
watches the validation joint loss and the best-validation parameter
snapshot is what the caller gets back.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .data import NormStats, WindowSample, split_chronological
from .errors import DataValidationError, ShapeError, TrainingDivergedError
from .losses import JointLossConfig, batch_cross_entropy, joint_loss
from .matrix import Matrix
from .model import (
    ArchKind,
    CnnGruModel,
    DayTable,
    ModelConfig,
    batch_backward,
    build_model,
    day_table,
    model_forward,
    named_params,
    set_named_params,
    table_forward,
)
from .optim import AdamConfig, Optimizer, SGDConfig
from .text import NUM_CLASSES

log = logging.getLogger(__name__)

ARCH_DISPLAY = {
    ArchKind.CNN_ONLY: "CNN",
    ArchKind.GRU_ONLY: "GRU",
    ArchKind.CNN_GRU: "CNN+GRU",
}


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 50
    epochs: int = 100
    patience: int = 10  # 0 disables early stopping
    optimizer: str = "adam"
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise DataValidationError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise DataValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise DataValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 0:
            raise DataValidationError(f"patience must be >= 0, got {self.patience}")
        if self.optimizer not in ("sgd", "adam"):
            raise DataValidationError(f"optimizer must be sgd or adam, got {self.optimizer!r}")


def _make_optimizer(cfg: TrainConfig) -> Optimizer:
    if cfg.optimizer == "sgd":
        return Optimizer("sgd", sgd=SGDConfig(alpha=cfg.lr, weight_decay=cfg.weight_decay))
    return Optimizer("adam", adam=AdamConfig(lr=cfg.lr))


# windows per batched forward pass when scoring a whole split: about one
# default training batch, so scoring needs no more memory than training
FORWARD_BLOCK = 64


def _targets(samples: Sequence[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """(normalized target returns, target classes) of a batch."""
    for s in samples:
        if s.target_return is None:
            raise DataValidationError(f"sample {s.target_date} has no normalized target")
    return (np.array([s.target_return for s in samples]),
            np.array([s.target_class for s in samples], dtype=np.intp))


def _split_outputs(model: CnnGruModel, split: Sequence[WindowSample]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Predictions (n,) and logits (n, C) of a split, FORWARD_BLOCK windows at a time."""
    table = day_table(model.cfg, split)
    outs = [_block_outputs(model, table, np.arange(i, min(i + FORWARD_BLOCK, len(split))))
            for i in range(0, len(split), FORWARD_BLOCK)]
    return np.concatenate([p for p, _ in outs]), np.concatenate([lg for _, lg in outs])


def _block_outputs(model: CnnGruModel, table: DayTable, index: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """(pred, logits) of a block; its activations are freed on return."""
    cache = table_forward(model, table, index)
    return cache.pred, cache.logits


def _batch_step(model: CnnGruModel, table: DayTable, index: np.ndarray,
                returns: np.ndarray, classes: np.ndarray
                ) -> tuple[float, float, dict[str, np.ndarray]]:
    """(summed squared error, summed cross entropy, summed gradients) of a batch.

    Its own function so the batch's activations are freed before the next one.
    """
    cache = table_forward(model, table, index)
    returns, classes = returns[index], classes[index]
    sq_err = float(np.sum((cache.pred - returns) ** 2))
    ce = float(np.sum(batch_cross_entropy(cache.logits, classes)))
    return sq_err, ce, batch_backward(model, cache, returns, classes)


def split_joint_loss(model: CnnGruModel, split: Sequence[WindowSample]) -> float:
    """Mean joint loss over a split."""
    if not split:
        raise DataValidationError("cannot score an empty split")
    jcfg = JointLossConfig(mse_weight=model.cfg.mse_weight)
    returns, classes = _targets(split)
    pred, logits = _split_outputs(model, split)
    return joint_loss(float(np.mean((pred - returns) ** 2)),
                      float(np.mean(batch_cross_entropy(logits, classes))), jcfg)


def train(model: CnnGruModel, train_split: Sequence[WindowSample],
          val_split: Sequence[WindowSample], cfg: TrainConfig
          ) -> tuple[CnnGruModel, list[dict]]:
    """Returns the best-validation-loss model and the per-epoch history."""
    if not train_split:
        raise DataValidationError("training split is empty")
    if not val_split:
        raise DataValidationError("validation split is empty")

    jcfg = JointLossConfig(mse_weight=model.cfg.mse_weight)
    opt = _make_optimizer(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    params = named_params(model)
    best_params = dict(params)
    best_val = math.inf
    bad_epochs = 0
    history: list[dict] = []

    n = len(train_split)
    returns, classes = _targets(train_split)
    table = day_table(model.cfg, train_split)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        epoch_mse = 0.0
        epoch_ce = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            sq_err, ce, grads = _batch_step(model, table, batch, returns, classes)
            if not (math.isfinite(sq_err) and math.isfinite(ce)):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size + 1}: "
                    f"squared error={sq_err}, cross entropy={ce}"
                )
            epoch_mse += sq_err
            epoch_ce += ce
            mean_grads = {name: Matrix._wrap(g / len(batch)) for name, g in grads.items()}
            params = opt.apply(params, mean_grads)
            model = set_named_params(model, params)

        train_mse = epoch_mse / n
        train_ce = epoch_ce / n
        train_loss = joint_loss(train_mse, train_ce, jcfg)
        val_loss = split_joint_loss(model, val_split)
        if not (math.isfinite(train_loss) and math.isfinite(val_loss)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch}: train={train_loss}, val={val_loss}"
            )
        history.append({
            "epoch": epoch,
            "train_loss": train_loss,
            "val_loss": val_loss,
            "train_mse": train_mse,
            "train_ce": train_ce,
        })
        log.info("epoch %d: train %.6f val %.6f", epoch, train_loss, val_loss)

        if val_loss < best_val:
            best_val = val_loss
            best_params = dict(params)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if cfg.patience > 0 and bad_epochs >= cfg.patience:
                break

    return set_named_params(model, best_params), history


def save_history(history: Sequence[dict], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in history:
            fh.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_recall: float
    macro_precision: float
    macro_f1: float
    regression_mse: float
    confusion: tuple[tuple[int, ...], ...]  # rows = true class, cols = predicted
    n: int

    @classmethod
    def from_confusion(cls, confusion: Sequence[Sequence[int]],
                       regression_mse: float) -> "MetricsReport":
        c = len(confusion)
        total = sum(sum(row) for row in confusion)
        if total == 0:
            raise DataValidationError("empty confusion matrix")
        correct = sum(confusion[i][i] for i in range(c))
        recalls, precisions, f1s = [], [], []
        for i in range(c):
            row_sum = sum(confusion[i])
            col_sum = sum(confusion[j][i] for j in range(c))
            r = confusion[i][i] / row_sum if row_sum else 0.0
            p = confusion[i][i] / col_sum if col_sum else 0.0
            f1 = 2 * p * r / (p + r) if (p + r) > 0 else 0.0
            recalls.append(r)
            precisions.append(p)
            f1s.append(f1)
        return cls(
            accuracy=correct / total,
            macro_recall=sum(recalls) / c,
            macro_precision=sum(precisions) / c,
            macro_f1=sum(f1s) / c,
            regression_mse=regression_mse,
            confusion=tuple(tuple(row) for row in confusion),
            n=total,
        )

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "macro_recall": self.macro_recall,
            "macro_precision": self.macro_precision,
            "macro_f1": self.macro_f1,
            "regression_mse": self.regression_mse,
            "confusion": [list(row) for row in self.confusion],
            "n": self.n,
        }


def evaluate(model: CnnGruModel, split: Sequence[WindowSample]) -> MetricsReport:
    if not split:
        raise DataValidationError("cannot evaluate an empty split")
    confusion = [[0] * NUM_CLASSES for _ in range(NUM_CLASSES)]
    returns, classes = _targets(split)
    pred, logits = _split_outputs(model, split)
    for true, guess in zip(classes, np.argmax(logits, axis=1)):
        confusion[true][guess] += 1
    sq_err = float(np.sum((pred - returns) ** 2))
    return MetricsReport.from_confusion(confusion, sq_err / len(split))


# ---------------------------------------------------------------------------
# forward-chaining cross-validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CVPlan:
    k: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise DataValidationError(f"cross-validation needs k >= 2, got {self.k}")

    def fold_bounds(self, n: int) -> list[tuple[int, int]]:
        """Near-equal chronological folds covering [0, n)."""
        if n < self.k:
            raise DataValidationError(f"{n} samples cannot fill {self.k} folds")
        bounds = []
        start = 0
        for i in range(self.k):
            size = n // self.k + (1 if i < n % self.k else 0)
            bounds.append((start, start + size))
            start += size
        return bounds


def cross_validate(grid: Sequence[tuple[ModelConfig, TrainConfig]],
                   samples: Sequence[WindowSample], plan: CVPlan,
                   arch: ArchKind = ArchKind.CNN_GRU,
                   ) -> tuple[tuple[ModelConfig, TrainConfig], list[float]]:
    """Forward-chaining CV; returns (best grid entry, per-entry mean val loss).

    Fold i validates on fold i's span and trains on everything before it;
    ties in mean validation joint loss keep the earliest grid entry.
    """
    if not grid:
        raise DataValidationError("empty hyperparameter grid")
    bounds = plan.fold_bounds(len(samples))
    mean_losses: list[float] = []
    for mcfg, tcfg in grid:
        losses = []
        for i in range(1, plan.k):
            train_part = list(samples[: bounds[i][0]])
            val_part = list(samples[bounds[i][0] : bounds[i][1]])
            model = build_model(mcfg, arch)
            best, _ = train(model, train_part, val_part, tcfg)
            losses.append(split_joint_loss(best, val_part))
        mean_losses.append(sum(losses) / len(losses))
    best_idx = min(range(len(grid)), key=lambda i: mean_losses[i])
    return grid[best_idx], mean_losses


# ---------------------------------------------------------------------------
# ablation comparison
# ---------------------------------------------------------------------------


def compare_ablations(samples: Sequence[WindowSample], mcfg: ModelConfig,
                      tcfg: TrainConfig,
                      ratios: tuple[float, float, float] = (0.7, 0.15, 0.15),
                      ) -> dict[ArchKind, MetricsReport]:
    """Trains all three architectures under identical seeds/splits/budgets."""
    train_split, val_split, test_split = split_chronological(samples, ratios)
    reports: dict[ArchKind, MetricsReport] = {}
    for arch in (ArchKind.CNN_ONLY, ArchKind.GRU_ONLY, ArchKind.CNN_GRU):
        log.info("training %s", arch.value)
        model = build_model(mcfg, arch)
        best, _ = train(model, train_split, val_split, tcfg)
        reports[arch] = evaluate(best, test_split)
    return reports


def render_comparison_table(rows: dict[ArchKind, tuple[float, float, float]]) -> str:
    """Fixed Model/Ac/Rec/F1 layout; Ac and Rec as percentages, F1 plain.

    rows maps each architecture to (accuracy, recall, f1) as fractions.
    """
    order = [ArchKind.CNN_ONLY, ArchKind.GRU_ONLY, ArchKind.CNN_GRU]
    lines = [f"{'Model':<9}{'Ac':>8}{'Rec':>8}{'F1':>6}"]
    for arch in order:
        if arch not in rows:
            continue
        ac, rec, f1 = rows[arch]
        lines.append(
            f"{ARCH_DISPLAY[arch]:<9}{ac * 100:>7.2f}%{rec * 100:>7.2f}%{f1:>6.2f}"
        )
    return "\n".join(lines)


def report_rows(reports: dict[ArchKind, MetricsReport]
                ) -> dict[ArchKind, tuple[float, float, float]]:
    return {
        arch: (r.accuracy, r.macro_recall, r.macro_f1) for arch, r in reports.items()
    }


# ---------------------------------------------------------------------------
# prediction export
# ---------------------------------------------------------------------------


def export_predictions(model: CnnGruModel, split: Sequence[WindowSample],
                       stats: NormStats | None, path: str | Path) -> None:
    """CSV of date,true_close,pred_close with returns inverted to price levels.

    pred_close = prev_close * exp(denormalized predicted log return).
    """
    if stats is None:
        raise DataValidationError("prediction export needs normalization statistics")
    if not split:
        raise DataValidationError("cannot export predictions for an empty split")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "true_close", "pred_close"])
        for sample in split:
            pred_z, _, _ = model_forward(model, sample)
            raw = stats.denormalize_return(pred_z)
            pred_close = sample.prev_close * math.exp(raw)
            writer.writerow([
                sample.target_date.isoformat(),
                repr(float(sample.target_close)),
                repr(float(pred_close)),
            ])
