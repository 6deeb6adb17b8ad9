"""Risk scoring and sentiment-inflection alerts over daily predictions.

A bearish_flip fires when the predicted class moves positive → negative on
consecutive days (bullish_flip is the mirror); a risk_threshold alert fires
on any day whose risk score reaches the configured threshold. Within one
day, flip alerts precede threshold alerts; the stream stays chronological.
A DailyPrediction is checked once, by its constructor, and trusted after.
"""

from __future__ import annotations

import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .data import check_dates_increasing, check_fields, read_jsonl
from .errors import DataValidationError
from .text import CLASS_INDEX, CLASS_NAMES, NEGATIVE, NUM_CLASSES, POSITIVE


@dataclass(frozen=True)
class AlertRuleConfig:
    risk_threshold: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 < self.risk_threshold < 1.0:
            raise DataValidationError(
                f"risk_threshold must lie in (0, 1), got {self.risk_threshold}"
            )


@dataclass(frozen=True)
class DailyPrediction:
    date: dt.date
    predicted_class: int
    probs: tuple[float, ...]  # (negative, neutral, positive)
    predicted_return: float

    def __post_init__(self) -> None:  # a row, a list, or a Matrix until ROADMAP 1c is done
        probs = tuple(np.asarray(self.probs, float).ravel().tolist())
        object.__setattr__(self, "probs", probs)
        if len(probs) != NUM_CLASSES:
            fault = f"need {NUM_CLASSES} probabilities, got {len(probs)}"
        elif not all(map(math.isfinite, probs)):
            fault = f"probs must be finite, got {list(probs)}"
        elif min(probs) < -1e-12:
            fault = f"negative probability in {list(probs)}"
        elif abs(sum(probs) - 1.0) > 1e-9:
            fault = f"probabilities sum to {sum(probs)}, expected 1"
        elif not math.isfinite(self.predicted_return):
            fault = f"predicted_return must be finite, got {self.predicted_return}"
        elif not 0 <= self.predicted_class < NUM_CLASSES:
            fault = f"predicted_class {self.predicted_class} is not a class index"
        else:
            return
        raise DataValidationError(f"{self.date}: {fault}")


@dataclass(frozen=True)
class Alert:
    date: dt.date
    kind: str  # bearish_flip | bullish_flip | risk_threshold
    confidence: float  # probability of the predicted class
    predicted_class: int
    predicted_return: float
    risk_score: float

    def to_dict(self) -> dict:
        return {
            "date": self.date.isoformat(),
            "kind": self.kind,
            "confidence": self.confidence,
            "predicted_class": CLASS_NAMES[self.predicted_class],
            "predicted_return": self.predicted_return,
            "risk_score": self.risk_score,
        }


def risk_score(class_probs: Sequence[float], predicted_return: float) -> float:
    """p(negative), plus half the clamped predicted loss when return < 0."""
    p_neg = class_probs[CLASS_INDEX["negative"]]
    if predicted_return >= 0:
        return p_neg
    penalty = 0.5 * min(max(-predicted_return, 0.0), 1.0)
    return min(1.0, p_neg + penalty)


def detect_inflections(predictions: Sequence[DailyPrediction],
                       rules: AlertRuleConfig) -> list[Alert]:
    """One alert per (day, kind); output sorted chronologically."""
    check_dates_increasing([p.date for p in predictions])
    alerts: list[Alert] = []
    for i, p in enumerate(predictions):
        risk = risk_score(p.probs, p.predicted_return)
        confidence = p.probs[p.predicted_class]
        if i > 0:
            prev = predictions[i - 1].predicted_class
            if prev == POSITIVE and p.predicted_class == NEGATIVE:
                alerts.append(Alert(p.date, "bearish_flip", confidence,
                                    p.predicted_class, p.predicted_return, risk))
            elif prev == NEGATIVE and p.predicted_class == POSITIVE:
                alerts.append(Alert(p.date, "bullish_flip", confidence,
                                    p.predicted_class, p.predicted_return, risk))
        if risk >= rules.risk_threshold:
            alerts.append(Alert(p.date, "risk_threshold", confidence,
                                p.predicted_class, p.predicted_return, risk))
    return alerts


def write_alerts_jsonl(alerts: Iterable[Alert], out: TextIO) -> None:
    for a in alerts:
        out.write(json.dumps(a.to_dict()) + "\n")


_PREDICTION_FIELDS = {"date": str, "probs": list[float], "predicted_return": float,
                      "predicted_class": str}


def load_predictions_jsonl(path: str | Path) -> list[DailyPrediction]:
    """Reads {date, probs: [3], predicted_return, optional predicted_class}.

    Without an explicit predicted_class the argmax of probs is used. A key
    check_fields rejects, an unknown class name or a prediction
    DailyPrediction refuses is rejected naming the line, and dates that do
    not strictly increase naming the file.
    """
    preds = read_jsonl(path, _prediction_from_obj)
    check_dates_increasing([p.date for p in preds], f"{path}: ")
    return preds


def _prediction_from_obj(obj: dict) -> DailyPrediction:
    check_fields(obj, _PREDICTION_FIELDS)
    probs = obj["probs"]  # DailyPrediction makes them floats
    if "predicted_class" in obj:
        name = obj["predicted_class"]
        if name not in CLASS_INDEX:
            raise DataValidationError(f"unknown predicted_class {name!r}")
        cls = CLASS_INDEX[name]
    else:  # the first of equal probabilities; DailyPrediction checks their count
        cls = max(range(len(probs)), key=probs.__getitem__, default=0)
    return DailyPrediction(date=dt.date.fromisoformat(obj["date"]), predicted_class=cls,
                           probs=probs, predicted_return=float(obj["predicted_return"]))
