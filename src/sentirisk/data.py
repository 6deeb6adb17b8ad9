"""Market/text ingestion, day alignment, windowing, splits, normalization.

Pipeline order: load bars + raw docs, clean and label each doc, build the
vocabulary, encode docs, align docs onto trading days (roll-forward), build
sliding-window samples, split chronologically, fit normalization statistics
on the training span only, then normalize every day and target.

A prepared directory (format 2) holds vocab.txt (line i is the token with id
i+2); days.jsonl, one line per distinct day; windows.jsonl, one line per
sample: its targets and the row indices of its days in days.jsonl; and
norm_stats.json: stats, window, ratios, format_version, n_days, n_samples.
load_prepared rejects any other format_version (none means format 1), row
counts other than n_days/n_samples (a truncated file), bad day indices and
token ids outside vocab.txt (a truncated vocabulary).
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import logging
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from .errors import DataValidationError
from .matrix import Matrix
from .text import (
    CLASS_INDEX,
    CLASS_NAMES,
    Lexicon,
    Vocabulary,
    build_vocab,
    clean_text,
    encode_doc,
    label_sentiment,
)

log = logging.getLogger(__name__)

MARKET_CSV_HEADER = ["date", "open", "high", "low", "close", "volume"]
N_MARKET_FEATURES = 5  # logret, range, gap, log volume, has_text
DEFAULT_RATIOS = (0.7, 0.15, 0.15)
PREPARED_FORMAT_VERSION = 2
T = TypeVar("T")


# ---------------------------------------------------------------------------
# raw records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketBar:
    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self) -> None:
        if self.low > min(self.open, self.close):
            raise DataValidationError(
                f"{self.date}: low {self.low} exceeds min(open, close)"
            )
        if self.high < max(self.open, self.close):
            raise DataValidationError(
                f"{self.date}: high {self.high} is below max(open, close)"
            )
        if self.low > self.high:
            raise DataValidationError(f"{self.date}: low {self.low} exceeds high {self.high}")
        if self.volume < 0:
            raise DataValidationError(f"{self.date}: negative volume {self.volume}")
        if min(self.open, self.high, self.low, self.close) <= 0:
            raise DataValidationError(f"{self.date}: nonpositive price")


@dataclass(frozen=True)
class RawTextDoc:
    timestamp: dt.datetime
    text: str
    source: str
    label: str | None = None

    def __post_init__(self) -> None:
        if not self.text:
            raise DataValidationError("document text is empty")
        if self.label is not None and self.label not in CLASS_INDEX:
            raise DataValidationError(f"unknown label {self.label!r}")


@dataclass(frozen=True)
class LabeledDoc:
    """A cleaned, labeled, encoded document ready for alignment."""

    timestamp: dt.datetime
    token_ids: list[int]
    label: int  # class index


@dataclass(frozen=True)
class AlignedDay:
    """One trading day: market features plus that day's encoded documents.

    raw holds the unnormalized feature tuple (logret, range, gap, log volume);
    features holds the normalized 5x1 column (the four z-scored values plus
    the has_text indicator) once statistics exist.
    """

    date: dt.date
    raw: tuple[float, float, float, float]
    token_seqs: list[list[int]]
    label: int
    has_text: bool
    close: float
    features: Matrix | None = None


@dataclass(frozen=True)
class WindowSample:
    inputs: list[AlignedDay]
    target_date: dt.date
    target_class: int
    target_return_raw: float
    target_close: float
    prev_close: float
    target_return: float | None = None  # normalized, set once stats exist

    def __post_init__(self) -> None:
        if not self.inputs:
            raise DataValidationError("window sample has no input days")


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


def load_market_csv(path: str | Path) -> list[MarketBar]:
    """Header must be exactly date,open,high,low,close,volume; dates ISO."""
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"market csv not found: {path}")
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty market csv") from None
        if header != MARKET_CSV_HEADER:
            raise DataValidationError(
                f"{path}: bad header {header!r}, expected {MARKET_CSV_HEADER!r}"
            )
        bars: list[MarketBar] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise DataValidationError(f"{path}:{lineno}: expected 6 fields, got {len(row)}")
            try:
                bar = MarketBar(
                    date=dt.date.fromisoformat(row[0]),
                    open=float(row[1]),
                    high=float(row[2]),
                    low=float(row[3]),
                    close=float(row[4]),
                    volume=float(row[5]),
                )
            except (ValueError, DataValidationError) as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from None
            bars.append(bar)
    _check_sorted_unique(bars)
    return bars


def _check_sorted_unique(bars: Sequence[MarketBar]) -> None:
    for i in range(1, len(bars)):
        if bars[i].date <= bars[i - 1].date:
            raise DataValidationError(
                f"bar dates must be strictly increasing: "
                f"{bars[i - 1].date} then {bars[i].date}"
            )


def load_text_jsonl(path: str | Path) -> list[RawTextDoc]:
    """One JSON object per line: timestamp, text, source, optional label."""
    path = Path(path)
    if not path.is_file():
        raise DataValidationError(f"text jsonl not found: {path}")
    return _read_jsonl(path, lambda obj: RawTextDoc(
        timestamp=_parse_timestamp(obj["timestamp"]),
        text=obj["text"],
        source=obj.get("source", ""),
        label=obj.get("label"),
    ))


def _read_jsonl(path: Path, parse: Callable[[dict], T]) -> list[T]:
    """parse() of each non-blank line; every error names the file and line."""
    rows: list[T] = []
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(parse(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise DataValidationError(f"{path}:{lineno}: bad json ({exc.msg})") from None
            except KeyError as exc:
                raise DataValidationError(f"{path}:{lineno}: missing key {exc}") from None
            except (DataValidationError, ValueError, TypeError) as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from None
    return rows


def _parse_timestamp(value: str) -> dt.datetime:
    if not isinstance(value, str):
        raise DataValidationError(f"timestamp must be a string, got {type(value).__name__}")
    ts = dt.datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is not None:
        ts = ts.astimezone(dt.timezone.utc).replace(tzinfo=None)
    return ts


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def align_days(bars: Sequence[MarketBar], docs: Sequence[LabeledDoc]) -> list[AlignedDay]:
    """Attach each doc to the first trading date >= its calendar date.

    Docs dated after the last bar are dropped (logged). Day label is the
    majority vote over doc labels, any tie for the top count → neutral.
    """
    if not bars:
        raise DataValidationError("no market bars to align against")
    _check_sorted_unique(bars)
    dates = [b.date for b in bars]
    buckets: list[list[LabeledDoc]] = [[] for _ in bars]
    for doc in docs:
        idx = bisect_left(dates, doc.timestamp.date())
        if idx == len(dates):
            log.info(
                "dropping document at %s: after last trading day %s",
                doc.timestamp.isoformat(), dates[-1].isoformat(),
            )
            continue
        buckets[idx].append(doc)

    days: list[AlignedDay] = []
    prev_close: float | None = None
    for bar, bucket in zip(bars, buckets):
        logret = 0.0 if prev_close is None else math.log(bar.close / prev_close)
        raw = (
            logret,
            (bar.high - bar.low) / bar.close,
            (bar.close - bar.open) / bar.open,
            math.log1p(bar.volume),
        )
        days.append(
            AlignedDay(
                date=bar.date,
                raw=raw,
                token_seqs=[d.token_ids for d in bucket],
                label=_majority_label([d.label for d in bucket]),
                has_text=bool(bucket),
                close=bar.close,
            )
        )
        prev_close = bar.close
    return days


def _majority_label(labels: Sequence[int]) -> int:
    if not labels:
        return CLASS_INDEX["neutral"]
    counts = [0, 0, 0]
    for lab in labels:
        counts[lab] += 1
    top = max(counts)
    winners = [i for i, c in enumerate(counts) if c == top]
    return winners[0] if len(winners) == 1 else CLASS_INDEX["neutral"]


# ---------------------------------------------------------------------------
# windows and splits
# ---------------------------------------------------------------------------


def make_windows(days: Sequence[AlignedDay], window: int = 20) -> list[WindowSample]:
    """One sample per position t: inputs days[t, t+window), targets from t+window."""
    if window < 1:
        raise DataValidationError(f"window must be >= 1, got {window}")
    if len(days) <= window:
        raise DataValidationError(
            f"need more than {window} days to form a window, got {len(days)}"
        )
    samples: list[WindowSample] = []
    for t in range(len(days) - window):
        target = days[t + window]
        samples.append(
            WindowSample(
                inputs=list(days[t : t + window]),
                target_date=target.date,
                target_class=target.label,
                target_return_raw=target.raw[0],
                target_close=target.close,
                prev_close=days[t + window - 1].close,
            )
        )
    return samples


def split_chronological(samples: Sequence, ratios: tuple[float, float, float]
                        ) -> tuple[list, list, list]:
    """Contiguous chronological partition by cumulative floor boundaries.

    Boundaries are floor(n*r_train) and floor(n*(r_train+r_val)); any
    fractional remainder therefore lands in the trailing (test) cut of the
    floor allocation, e.g. 10 samples at (0.7, 0.15, 0.15) → 7/1/2.
    """
    r1, r2, r3 = ratios
    if min(r1, r2, r3) <= 0.0:
        raise DataValidationError(f"split ratios must all be positive, got {ratios}")
    if abs((r1 + r2 + r3) - 1.0) > 1e-9:
        raise DataValidationError(f"split ratios must sum to 1, got {ratios}")
    n = len(samples)
    train_end = int(math.floor(n * r1))
    val_end = int(math.floor(n * (r1 + r2)))
    return list(samples[:train_end]), list(samples[train_end:val_end]), list(samples[val_end:])


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormStats:
    """Per-feature mean/std of the four numeric market features.

    Index 0 (log close return) doubles as the target-return scale.
    """

    means: tuple[float, float, float, float]
    stds: tuple[float, float, float, float]

    @classmethod
    def fit(cls, days: Sequence[AlignedDay]) -> "NormStats":
        if not days:
            raise DataValidationError("cannot fit normalization stats on zero days")
        cols = list(zip(*(d.raw for d in days)))
        means = tuple(sum(c) / len(c) for c in cols)
        stds = []
        for c, m in zip(cols, means):
            var = sum((v - m) ** 2 for v in c) / len(c)
            sd = math.sqrt(var)
            stds.append(sd if sd > 1e-12 else 1.0)
        return cls(means=tuple(means), stds=tuple(stds))

    def normalize_day(self, day: AlignedDay) -> Matrix:
        vals = [(v - m) / s for v, m, s in zip(day.raw, self.means, self.stds)]
        vals.append(1.0 if day.has_text else 0.0)
        return Matrix(N_MARKET_FEATURES, 1, vals)

    def normalize_return(self, raw_logret: float) -> float:
        return (raw_logret - self.means[0]) / self.stds[0]

    def denormalize_return(self, z: float) -> float:
        return z * self.stds[0] + self.means[0]

    def to_dict(self) -> dict:
        return {"means": list(self.means), "stds": list(self.stds)}

    @classmethod
    def from_dict(cls, obj: dict) -> "NormStats":
        try:
            means = tuple(float(v) for v in obj["means"])
            stds = tuple(float(v) for v in obj["stds"])
        except (KeyError, TypeError, ValueError) as exc:
            raise DataValidationError(f"bad normalization stats: {exc}") from None
        if len(means) != 4 or len(stds) != 4:
            raise DataValidationError("normalization stats need 4 means and 4 stds")
        return cls(means=means, stds=stds)


# ---------------------------------------------------------------------------
# full preparation
# ---------------------------------------------------------------------------


@dataclass
class PrepareConfig:
    window: int = 20
    max_doc_len: int = 30
    min_freq: int = 1
    max_vocab: int = 20000
    ratios: tuple[float, float, float] = DEFAULT_RATIOS


@dataclass
class PreparedDataset:
    vocab: Vocabulary
    samples: list[WindowSample]
    stats: NormStats
    window: int
    ratios: tuple[float, float, float]

    def splits(self) -> tuple[list[WindowSample], list[WindowSample], list[WindowSample]]:
        return split_chronological(self.samples, self.ratios)


def prepare_dataset(bars: Sequence[MarketBar], raw_docs: Sequence[RawTextDoc],
                    lexicon: Lexicon, cfg: PrepareConfig) -> PreparedDataset:
    cleaned: list[str] = []
    labels: list[int] = []
    for doc in raw_docs:
        c = clean_text(doc.text)
        cleaned.append(c)
        labels.append(CLASS_INDEX[label_sentiment(c, lexicon, presupplied=doc.label)])
    vocab = build_vocab(cleaned, min_freq=cfg.min_freq, max_size=cfg.max_vocab)
    encoded = [
        LabeledDoc(
            timestamp=doc.timestamp,
            token_ids=encode_doc(c, vocab, cfg.max_doc_len),
            label=lab,
        )
        for doc, c, lab in zip(raw_docs, cleaned, labels)
    ]
    days_raw = align_days(bars, encoded)
    raw_samples = make_windows(days_raw, window=cfg.window)

    n_train = len(split_chronological(raw_samples, cfg.ratios)[0])
    if n_train == 0:
        raise DataValidationError("training split is empty; need more days")
    # every day a training sample touches (inputs and target)
    train_span = days_raw[: n_train + cfg.window]
    stats = NormStats.fit(train_span)

    days = [replace(d, features=stats.normalize_day(d)) for d in days_raw]
    samples = [
        replace(
            s,
            inputs=days[t : t + cfg.window],
            target_return=stats.normalize_return(s.target_return_raw),
        )
        for t, s in enumerate(raw_samples)
    ]
    return PreparedDataset(
        vocab=vocab, samples=samples, stats=stats,
        window=cfg.window, ratios=cfg.ratios,
    )


# ---------------------------------------------------------------------------
# prepared-directory serialization
# ---------------------------------------------------------------------------


def save_prepared(ds: PreparedDataset, out_dir: str | Path) -> None:
    """Writes a prepared directory; each distinct day object (by identity) once."""
    days = list({id(d): d for s in ds.samples for d in s.inputs}.values())
    rows = {id(d): i for i, d in enumerate(days)}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "vocab.txt").write_text(
        "".join(line + "\n" for line in ds.vocab.to_lines()), encoding="utf-8"
    )
    meta = {**ds.stats.to_dict(), "window": ds.window, "ratios": list(ds.ratios),
            "format_version": PREPARED_FORMAT_VERSION, "n_days": len(days),
            "n_samples": len(ds.samples)}
    (out / "norm_stats.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    with (out / "days.jsonl").open("w", encoding="utf-8") as fh:
        for d in days:
            fh.write(json.dumps({
                "date": d.date.isoformat(),
                "raw": list(d.raw),
                "features": [v for row in d.features.to_lists() for v in row]
                if d.features is not None else None,
                "token_seqs": d.token_seqs,
                "label": CLASS_NAMES[d.label],
                "has_text": d.has_text,
                "close": d.close,
            }) + "\n")
    with (out / "windows.jsonl").open("w", encoding="utf-8") as fh:
        for s in ds.samples:
            fh.write(json.dumps({
                "days": [rows[id(d)] for d in s.inputs],
                "target_date": s.target_date.isoformat(),
                "target_class": CLASS_NAMES[s.target_class],
                "target_return": s.target_return,
                "target_return_raw": s.target_return_raw,
                "target_close": s.target_close,
                "prev_close": s.prev_close,
            }) + "\n")


def _day_from_obj(obj: dict, vocab_size: int) -> AlignedDay:
    """A day whose token ids all lie in [0, vocab_size)."""
    token_seqs = [list(map(int, seq)) for seq in obj["token_seqs"]]
    for seq in token_seqs:
        if seq and not 0 <= min(seq) <= max(seq) < vocab_size:
            bad = next(tok for tok in seq if not 0 <= tok < vocab_size)
            raise DataValidationError(f"token id {bad} out of range for vocab of {vocab_size}")
    return AlignedDay(
        date=dt.date.fromisoformat(obj["date"]),
        raw=tuple(float(v) for v in obj["raw"]),
        token_seqs=token_seqs,
        label=CLASS_INDEX[obj["label"]],
        has_text=bool(obj["has_text"]),
        close=float(obj["close"]),
        features=Matrix(N_MARKET_FEATURES, 1, [float(v) for v in obj["features"]])
        if obj["features"] is not None else None,
    )


def _window_from_obj(obj: dict, days: list[AlignedDay], window: int) -> WindowSample:
    """A sample whose inputs are the shared day objects its indices name."""
    index = obj["days"]
    if len(index) != window or any(type(i) is not int or not 0 <= i < len(days)
                                   for i in index):
        raise DataValidationError(f"need {window} day indices in [0, {len(days)}), got {index}")
    return WindowSample(
        inputs=[days[i] for i in index],
        target_date=dt.date.fromisoformat(obj["target_date"]),
        target_class=CLASS_INDEX[obj["target_class"]],
        target_return_raw=float(obj["target_return_raw"]),
        target_close=float(obj["target_close"]),
        prev_close=float(obj["prev_close"]),
        target_return=float(obj["target_return"])
        if obj["target_return"] is not None else None,
    )


def load_prepared(in_dir: str | Path) -> PreparedDataset:
    """Reads save_prepared's directory; every window shares the loaded day objects."""
    root = Path(in_dir)
    if not (root / "norm_stats.json").is_file():
        raise DataValidationError(f"prepared dataset file missing: {root / 'norm_stats.json'}")
    try:
        meta = json.loads((root / "norm_stats.json").read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"norm_stats.json: bad json ({exc.msg})") from None
    stats = NormStats.from_dict(meta)
    version = meta.get("format_version", 1)
    if version != PREPARED_FORMAT_VERSION:
        raise DataValidationError(
            f"prepared dataset format {version} is not supported, expected "
            f"{PREPARED_FORMAT_VERSION}; re-run `sentirisk prepare`"
        )
    try:
        window = int(meta["window"])
        ratios = tuple(float(r) for r in meta["ratios"])
        n_days, n_samples = int(meta["n_days"]), int(meta["n_samples"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataValidationError(f"norm_stats.json: {exc}") from None
    if len(ratios) != 3:
        raise DataValidationError(f"norm_stats.json: need 3 ratios, got {len(ratios)}")
    for name in ("vocab.txt", "days.jsonl", "windows.jsonl"):
        if not (root / name).is_file():
            raise DataValidationError(f"prepared dataset file missing: {root / name}")
    vocab = Vocabulary.from_lines(
        (root / "vocab.txt").read_text(encoding="utf-8").splitlines()
    )
    days = _read_jsonl(root / "days.jsonl", lambda obj: _day_from_obj(obj, vocab.size))
    if len(days) != n_days:
        raise DataValidationError(f"days.jsonl: {len(days)} rows, norm_stats.json n_days {n_days}")
    samples = _read_jsonl(root / "windows.jsonl",
                          lambda obj: _window_from_obj(obj, days, window))
    if len(samples) != n_samples:
        raise DataValidationError(f"windows.jsonl: {len(samples)} rows, "
                                  f"norm_stats.json n_samples {n_samples}")
    return PreparedDataset(
        vocab=vocab, samples=samples, stats=stats, window=window, ratios=ratios,
    )
