"""Mini-batch training, scoring, metrics, ablations, exports.

Training runs deterministic seeded epochs: a fresh permutation of the train
split per epoch, batch-averaged gradients, one optimizer step per batch.
The train and validation splits' days are gathered into a model.DayTable
each (model.day_table: a data.Split keeps its table, so a later call on
the same split reuses it), and each mini-batch is a slice of the
permutation run through model.table_forward/batch_backward as whole
arrays. score_windows, behind evaluate, split_joint_loss,
export_predictions and the CLI's alert, runs one table of a list of
windows FORWARD_BLOCK windows at a time, as validation does. Each train and
score_windows call borrows a model.Workspace from a process-wide pool of
idle ones, works in it for every batch, validation block and optimizer
step, and gives it back when it returns. A workspace holds one batch's
working set, and the pool as many workspaces as calls ever ran at once (in
threads, or one inside another, each borrows its own), so a repeated call
finds its memory mapped already. Nothing a call returns is a view of a
pooled buffer. The optimizer steps a copy of model.params in place, under a
model built once over it, so the caller's model is never written; each
batch's gradients come from batch_backward in the same layout. A batch with
a non-finite loss aborts the run; early stopping watches the validation
joint loss, and a model over a copy of the vector at the best one is what
the caller gets back.
TrainConfig is the one place that checks the training settings, the
optimizer's among them.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import json
import logging
import math
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .data import DEFAULT_RATIOS, NormStats, Split, WindowSample, atomic_write, split_chronological
from .errors import DataValidationError, NumericError, ShapeError, TrainingDivergedError
from .losses import batch_cross_entropy, joint_loss
from .model import (
    ArchKind,
    CnnGruModel,
    DayTable,
    ModelConfig,
    Workspace,
    batch_backward,
    build_model,
    day_table,
    table_forward,
)
from .optim import Optimizer
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
    weight_decay: float = 0.0  # L2 decay, sgd only
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.lr < math.inf:
            raise DataValidationError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise DataValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise DataValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 0:
            raise DataValidationError(f"patience must be >= 0, got {self.patience}")
        if self.optimizer not in ("sgd", "adam"):
            raise DataValidationError(f"optimizer must be sgd or adam, got {self.optimizer!r}")
        if not 0 <= self.weight_decay < math.inf:
            raise DataValidationError(
                f"weight_decay must be nonnegative and finite, got {self.weight_decay}")
        if self.weight_decay > 0 and self.optimizer != "sgd":
            raise DataValidationError(
                f"weight_decay {self.weight_decay} needs optimizer sgd, got {self.optimizer!r}")
        if self.seed < 0:
            raise DataValidationError(f"seed must be non-negative, got {self.seed}")


# windows per batched forward pass when scoring a whole split: about one
# default training batch, so scoring needs no more memory than training
FORWARD_BLOCK = 64


def _targets(samples: Sequence[WindowSample]) -> tuple[np.ndarray, np.ndarray]:
    """(normalized target returns, target classes) of a batch: a prepared
    dataset's split reads its rows of the dataset's columns."""
    if isinstance(samples, Split) and samples.dataset is not None:
        ds, rows = samples.dataset, samples.window_rows
        return (ds.target_return[rows.start : rows.stop],
                np.array(ds.windows.target_class[rows.start : rows.stop], dtype=np.intp))
    return (np.array([s.target_return for s in samples]),
            np.array([s.target_class for s in samples], dtype=np.intp))


def target_columns(windows: Sequence[WindowSample]
                   ) -> tuple[Sequence[dt.date], Sequence[float], Sequence[float]]:
    """(target dates, target closes, previous closes) of windows, a window's
    previous close being its last input day's: a prepared dataset's split
    reads its rows of the dataset's columns, building no window object."""
    if isinstance(windows, Split) and windows.dataset is not None:
        ds, rows = windows.dataset, slice(windows.window_rows.start, windows.window_rows.stop)
        last = ds.window - 1
        return (ds.windows.target_date[rows], ds.windows.target_close[rows],
                [ds.days.close[t + last] for t in ds.windows.start[rows]])
    return ([s.target_date for s in windows], [s.target_close for s in windows],
            [s.prev_close for s in windows])


# the workspaces no call is using; see _borrowed_workspace
_IDLE: list[Workspace] = []
_IDLE_LOCK = threading.Lock()


@contextlib.contextmanager
def _borrowed_workspace() -> Iterator[Workspace]:
    """An idle workspace from the pool, or a new one when every pooled one is
    in use; it goes back to the pool when the block exits, raised or not."""
    with _IDLE_LOCK:
        ws = _IDLE.pop() if _IDLE else Workspace()
    try:
        yield ws
    finally:
        with _IDLE_LOCK:
            _IDLE.append(ws)


def score_windows(model: CnnGruModel, windows: Sequence[WindowSample]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Predicted normalized returns (n,) and logits (n, C) of windows: their
    day table (a Split's kept one, or a list's built for this call), run
    through the batched core FORWARD_BLOCK windows at a time. NumericError
    names the first target date whose return or logits are not finite."""
    if not windows:
        raise DataValidationError("cannot score an empty split")
    # an overflow is no warning here: it is the NumericError below
    with _borrowed_workspace() as ws, np.errstate(over="ignore", invalid="ignore"):
        pred, logits = _split_outputs(model, day_table(model.cfg, windows), ws)
    finite = np.isfinite(pred) & np.isfinite(logits).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericError(f"model outputs for {target_columns(windows)[0][i]} are not finite: "
                           f"predicted return {float(pred[i])!r}, logits {logits[i].tolist()}")
    return pred, logits


def _split_outputs(model: CnnGruModel, table: DayTable, ws: Workspace
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Predictions (n,) and logits (n, C) of every window of table, new
    arrays, FORWARD_BLOCK windows at a time, each block's activations in ws."""
    n = len(table.windows)
    blocks = (table_forward(model, table, np.arange(i, min(i + FORWARD_BLOCK, n)), ws)
              for i in range(0, n, FORWARD_BLOCK))
    outs = [(cache.pred, cache.logits) for cache in blocks]
    return np.concatenate([p for p, _ in outs]), np.concatenate([lg for _, lg in outs])


def _joint_loss(model: CnnGruModel, pred: np.ndarray, logits: np.ndarray,
                returns: np.ndarray, classes: np.ndarray) -> float:
    """Mean joint loss of a split's outputs against its targets."""
    return joint_loss(float(np.mean((pred - returns) ** 2)),
                      float(np.mean(batch_cross_entropy(logits, classes))),
                      model.cfg.mse_weight)


def _batch_step(model: CnnGruModel, table: DayTable, index: np.ndarray,
                returns: np.ndarray, classes: np.ndarray, ws: Workspace
                ) -> tuple[float, float, np.ndarray]:
    """(summed squared error, summed cross entropy, summed gradients laid out as
    model.params, a view of ws) of a batch.

    Its own function so the batch's arrays outside ws are freed before the next one.
    """
    cache = table_forward(model, table, index, ws)
    returns, classes = returns[index], classes[index]
    sq_err = float(np.sum((cache.pred - returns) ** 2))
    ce = float(np.sum(batch_cross_entropy(cache.logits, classes)))
    return sq_err, ce, batch_backward(model, cache, returns, classes, ws)


def split_joint_loss(model: CnnGruModel, split: Sequence[WindowSample]) -> float:
    """Mean joint loss over a split."""
    returns, classes = _targets(split)
    return _joint_loss(model, *score_windows(model, split), returns, classes)


def train(model: CnnGruModel, train_split: Sequence[WindowSample],
          val_split: Sequence[WindowSample], cfg: TrainConfig
          ) -> tuple[CnnGruModel, list[dict]]:
    """Returns the best-validation-loss model and the per-epoch history."""
    if not train_split:
        raise DataValidationError("training split is empty")
    if not val_split:
        raise DataValidationError("validation split is empty")

    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    flat = model.params.copy()  # the caller's model is never written
    model = CnnGruModel(model.cfg, model.arch, flat)
    best = flat.copy()
    best_val = math.inf
    bad_epochs = 0
    history: list[dict] = []

    n = len(train_split)
    returns, classes = _targets(train_split)
    table = day_table(model.cfg, train_split)
    val_returns, val_classes = _targets(val_split)
    val_table = day_table(model.cfg, val_split)
    # every batch's arrays and the optimizer's live in ws
    with _borrowed_workspace() as ws:
        opt = Optimizer(cfg, ws)
        for epoch in range(1, cfg.epochs + 1):
            order = rng.permutation(n)
            epoch_mse = 0.0
            epoch_ce = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                sq_err, ce, grads = _batch_step(model, table, batch, returns, classes, ws)
                if not (math.isfinite(sq_err) and math.isfinite(ce)):
                    raise TrainingDivergedError(
                        f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size + 1}: "
                        f"squared error={sq_err}, cross entropy={ce}"
                    )
                epoch_mse += sq_err
                epoch_ce += ce
                grads /= len(batch)
                opt.apply(flat, grads)

            train_mse = epoch_mse / n
            train_ce = epoch_ce / n
            train_loss = joint_loss(train_mse, train_ce, model.cfg.mse_weight)
            val_loss = _joint_loss(model, *_split_outputs(model, val_table, ws), val_returns,
                                   val_classes)
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
                best[:] = flat
                bad_epochs = 0
            else:
                bad_epochs += 1
                if cfg.patience > 0 and bad_epochs >= cfg.patience:
                    break

    return CnnGruModel(model.cfg, model.arch, best), history


def save_history(history: Sequence[dict], path: str | Path) -> None:
    with atomic_write(path) as fh:
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
    """The split's metrics; NumericError if regression_mse is not finite."""
    confusion = [[0] * NUM_CLASSES for _ in range(NUM_CLASSES)]
    returns, classes = _targets(split)
    pred, logits = score_windows(model, split)
    for true, guess in zip(classes, np.argmax(logits, axis=1)):
        confusion[true][guess] += 1
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum raises below
        sq_err = float(np.sum((pred - returns) ** 2))
    if not math.isfinite(sq_err):
        raise NumericError(f"regression_mse is {sq_err / len(split)}, not finite: the "
                           f"model's predicted returns overflow")
    return MetricsReport.from_confusion(confusion, sq_err / len(split))


# ---------------------------------------------------------------------------
# ablation comparison
# ---------------------------------------------------------------------------


def compare_ablations(samples: Sequence[WindowSample] | tuple[Split, Split, Split],
                      mcfg: ModelConfig, tcfg: TrainConfig,
                      ratios: tuple[float, float, float] = DEFAULT_RATIOS,
                      ) -> dict[ArchKind, MetricsReport]:
    """Trains all three architectures under identical seeds/splits/budgets:
    on windows cut chronologically by ratios, or on three splits as they are
    (a PreparedDataset's splits(), which read its columns)."""
    if len(samples) == 3 and all(isinstance(s, Split) for s in samples):
        train_split, val_split, test_split = samples
    else:
        train_split, val_split, test_split = split_chronological(samples, ratios)
    reports: dict[ArchKind, MetricsReport] = {}
    for arch in (ArchKind.CNN_ONLY, ArchKind.GRU_ONLY, ArchKind.CNN_GRU):
        log.info("training %s", arch.value)
        model = build_model(mcfg, arch)
        best, _ = train(model, train_split, val_split, tcfg)
        reports[arch] = evaluate(best, test_split)
    return reports


def render_comparison_table(reports: dict[ArchKind, MetricsReport]) -> str:
    """Fixed Model/Ac/Rec/F1 layout, a row per architecture reported in ARCH_DISPLAY's
    order: accuracy and macro recall as percentages, macro F1 plain."""
    lines = [f"{'Model':<9}{'Ac':>8}{'Rec':>8}{'F1':>6}"]
    for arch, name in ARCH_DISPLAY.items():
        if (r := reports.get(arch)) is not None:
            lines.append(f"{name:<9}{r.accuracy * 100:>7.2f}%"
                         f"{r.macro_recall * 100:>7.2f}%{r.macro_f1:>6.2f}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# prediction export
# ---------------------------------------------------------------------------


def export_predictions(model: CnnGruModel, split: Sequence[WindowSample],
                       stats: NormStats, path: str | Path) -> None:
    """CSV of date,true_close,pred_close with returns inverted to price levels.

    pred_close = prev_close * exp(denormalized predicted log return); NumericError,
    writing nothing, naming the first target date whose pred_close is not finite.
    """
    pred, _ = score_windows(model, split)
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "true_close", "pred_close"])
        for date, close, prev_close, pred_z in zip(*target_columns(split), pred.tolist()):
            raw = stats.denormalize_return(pred_z)
            try:
                pred_close = prev_close * math.exp(raw)
            except OverflowError:
                pred_close = math.inf
            if not math.isfinite(pred_close):
                raise NumericError(f"predicted close for {date} is not finite: "
                                   f"predicted log return {raw!r}")
            writer.writerow([date.isoformat(), repr(float(close)), repr(float(pred_close))])
