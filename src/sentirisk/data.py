"""Market/text ingestion, day alignment, windowing, splits, normalization.

Pipeline order: load bars + raw docs, clean and label each doc (one that
cleans to no tokens, such as a bare URL, is dropped), build the vocabulary,
encode docs, align docs onto trading days (roll-forward), build sliding-window
samples, split chronologically, fit normalization statistics on the training
span only, then normalize every day and target. The splits are three
immutable Splits; a PreparedDataset cuts its own once.

A prepared directory (format 4) stores each fact once: vocab.txt (line i is
the token with id i+2); days.json, one JSON object of columns with one entry
per input day in date order: date, raw, close, label and its documents' token
ids as read (only the model pads them); windows.json, columns with one entry
per sample: start (its first day's row) and its targets; norm_stats.json:
stats, window, ratios, format_version, n_days, n_samples. Each file is one
json.dumps and one json.loads. normalized_samples derives the features and
the normalized return at prepare and at load alike; has_text and prev_close
are computed on read. load_prepared checks each column whole, in the file's
column order: other format_versions, a missing or unknown column, a column
whose length is not n_days or n_samples, an entry of the wrong type, dates
out of order, a start outside days.json, a target_date outside its slot,
token ids outside vocab.txt and non-finite numbers are refused naming the
full path, the column and the first bad row. read_json reads every JSON
document; check_fields is the one type rule for its keys and for every
texts.jsonl row, and _fits the one rule for a column's entries.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import itertools
import json
import logging
import math
import os
import typing
from bisect import bisect_left
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

from .errors import DataValidationError
from .text import (
    CLASS_INDEX,
    CLASS_NAMES,
    Lexicon,
    Vocabulary,
    clean_text,
    encode_doc,
    label_tokens,
    open_text,
    read_text,
    vocab_from_counts,
)

log = logging.getLogger(__name__)

MARKET_CSV_HEADER = ["date", "open", "high", "low", "close", "volume"]
N_MARKET_FEATURES = 5  # logret, range, gap, log volume, has_text
DEFAULT_RATIOS = (0.7, 0.15, 0.15)
PREPARED_FORMAT_VERSION = 4
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
        # every comparison below is False for NaN. One check of the sum passes
        # all five finite values; the loop names the field, and finds none when
        # finite values only overflowed the sum
        if not math.isfinite(self.open + self.high + self.low + self.close + self.volume):
            for name in ("open", "high", "low", "close", "volume"):
                value = getattr(self, name)
                if not math.isfinite(value):
                    raise DataValidationError(f"{self.date}: {name} {value} is not finite")
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
        if not isinstance(self.text, str) or not self.text:
            raise DataValidationError(f"document text must be a non-empty string, "
                                      f"got {self.text!r:.40}")
        if self.label is not None and (type(self.label) is not str
                                       or self.label not in CLASS_INDEX):
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
    features holds the normalized five (the four z-scored values plus the
    has_text indicator) once statistics exist. token_seqs and features, as a
    WindowSample's inputs, are made tuples on construction: both are values.
    """

    date: dt.date
    raw: tuple[float, float, float, float]
    token_seqs: tuple[tuple[int, ...], ...]
    label: int
    close: float
    features: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "token_seqs", tuple(map(tuple, self.token_seqs)))
        if self.features is not None:
            object.__setattr__(self, "features", tuple(self.features))

    @property
    def has_text(self) -> bool:
        return bool(self.token_seqs)


@dataclass(frozen=True)
class WindowSample:
    inputs: tuple[AlignedDay, ...]
    target_date: dt.date
    target_class: int
    target_return_raw: float
    target_close: float
    target_return: float | None = None  # normalized, set once stats exist

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.inputs:
            raise DataValidationError("window sample has no input days")

    @property
    def prev_close(self) -> float:
        return self.inputs[-1].close


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               str: "a string", dict: "a json object", list[float]: "a list of numbers",
               list[list[int]]: "a list of lists of integers", type(None): "null"}


def _kinds(hint: type) -> frozenset[type]:
    """The types of the JSON values that fit a scalar annotation."""
    return frozenset({int, float} if hint is float else {hint})


@functools.cache
def _fits(hint) -> Callable[[object], bool]:
    """Whether a JSON value fits a field annotation, built once per annotation.
    json.loads makes values of exact types: an int is a float, a bool no number.
    A list of scalars is tested by the set of its items' types, in one pass;
    object takes any value (a key whose loader checks it with its own message)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        if typing.get_origin(args[0]) is None:  # a list of scalars
            return lambda v, kinds=_kinds(args[0]): (type(v) is list
                                                     and set(map(type, v)) <= kinds)
        return lambda v, item=_fits(args[0]): type(v) is list and all(map(item, v))
    if args:  # X | None
        return lambda v, each=tuple(map(_fits, args)): any(f(v) for f in each)
    if hint is object:
        return lambda v: True
    return lambda v, kinds=_kinds(hint): type(v) in kinds


def _type_name(hint) -> str:
    members = () if typing.get_origin(hint) is list else typing.get_args(hint)
    return " or ".join(_TYPE_NAMES[h] for h in members or (hint,))


def check_fields(obj, hints: dict) -> None:
    """DataValidationError unless obj is a JSON object whose every key is in
    hints with a value that fits its hint (_fits); keys may be absent."""
    if not isinstance(obj, dict):
        raise DataValidationError("not a json object")
    if not obj.keys() <= hints.keys():
        raise DataValidationError(f"unknown keys {sorted(set(obj) - set(hints))}")
    for key, value in obj.items():
        if not _fits(hints[key])(value):
            raise DataValidationError(
                f"{key} must be {_type_name(hints[key])}, got {json.dumps(value)}")


def read_json(path: str | Path, hints: dict,
              error: type[Exception] = DataValidationError) -> dict:
    """The JSON object in path that check_fields accepts; any fault raises
    error naming the full path."""
    text = read_text(path, error)
    try:
        obj = json.loads(text)
        check_fields(obj, hints)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: bad json ({exc.msg})") from None
    except DataValidationError as exc:
        raise error(f"{path}: {exc}") from None
    return obj


_RAW_DECODE = json.JSONDecoder().raw_decode


def _loads_line(line: str):
    """json.loads(line), by one raw_decode where that gives its value: a value
    at the line's start followed by nothing but JSON whitespace. Any other
    line (leading space, a BOM, extra data, bad JSON) goes to json.loads, so
    every value and every message is json.loads' own."""
    try:
        value, end = _RAW_DECODE(line)
        if not line[end:].strip(" \t\n\r"):
            return value
    except ValueError:
        pass
    return json.loads(line)


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """parse() of each non-blank line; every error names the file and line.
    The file object splits the lines, at newlines only: str.splitlines would
    also split at a U+2028 that a JSON string may hold raw."""
    path = Path(path)
    rows: list[T] = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rows.append(parse(_loads_line(line)))
            except json.JSONDecodeError as exc:
                raise DataValidationError(f"{path}:{lineno}: bad json ({exc.msg})") from None
            except KeyError as exc:
                raise DataValidationError(f"{path}:{lineno}: missing key {exc}") from None
            except (DataValidationError, ValueError, TypeError) as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from None
    return rows


def load_market_csv(path: str | Path) -> list[MarketBar]:
    """Header must be exactly date,open,high,low,close,volume; dates ISO."""
    path = Path(path)
    with open_text(path, missing="market csv not found", encoding="utf-8-sig",
                   newline="") as fh:
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
    check_dates_increasing([b.date for b in bars])
    return bars


def check_dates_increasing(dates: Sequence[dt.date], where: str = "") -> None:
    """DataValidationError, prefixed by where, unless dates strictly increase."""
    for i in range(1, len(dates)):
        if dates[i] <= dates[i - 1]:
            raise DataValidationError(
                f"{where}dates must be strictly increasing: {dates[i - 1]} then {dates[i]}"
            )


# RawTextDoc and _parse_timestamp check timestamp, text and label, with their messages
_DOC_FIELDS = {"timestamp": object, "text": object, "source": str, "label": object}


def load_text_jsonl(path: str | Path) -> list[RawTextDoc]:
    """One JSON object per line: timestamp, text, optional source and label."""
    return read_jsonl(path, _doc_from_obj)


def _doc_from_obj(obj) -> RawTextDoc:
    check_fields(obj, _DOC_FIELDS)
    return RawTextDoc(timestamp=_parse_timestamp(obj["timestamp"]), text=obj["text"],
                      source=obj.get("source", ""), label=obj.get("label"))


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
    return [AlignedDay(*row) for row in _day_rows(bars, docs)]


def _day_rows(bars: Sequence[MarketBar], docs: Sequence[LabeledDoc]) -> list[tuple]:
    """align_days' days as rows (date, raw, token_seqs, label, close): an
    AlignedDay's fields but features, in its order."""
    if not bars:
        raise DataValidationError("no market bars to align against")
    dates = [b.date for b in bars]
    check_dates_increasing(dates)
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

    days = []
    for i, (bar, bucket) in enumerate(zip(bars, buckets)):
        logret = math.log(bar.close / bars[i - 1].close) if i else 0.0
        raw = (logret, (bar.high - bar.low) / bar.close, (bar.close - bar.open) / bar.open,
               math.log1p(bar.volume))
        days.append((bar.date, raw, [d.token_ids for d in bucket],
                     _majority_label([d.label for d in bucket]), bar.close))
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
    rows = [(d.date, d.raw, d.token_seqs, d.label, d.close) for d in days]
    return [WindowSample(inputs=days[t : t + window], target_date=date, target_class=cls,
                         target_return_raw=ret, target_close=close)
            for t, date, cls, ret, close in _window_targets(rows, window)]


def _window_targets(rows: Sequence[tuple], window: int) -> list[tuple]:
    """make_windows' samples of day rows (_day_rows) as window rows: (start,
    target date, class, raw return, close), the target being row start +
    window."""
    if window < 1:
        raise DataValidationError(f"window must be >= 1, got {window}")
    if len(rows) <= window:
        raise DataValidationError(
            f"need more than {window} days to form a window, got {len(rows)}"
        )
    return [(t, date, label, raw[0], close)
            for t, (date, raw, _, label, close) in enumerate(rows[window:])]


class Split(Sequence[T]):
    """An immutable run of samples, as split_chronological cuts them.

    It reads as a list does: len, iteration, indexing, == with a list, and
    a slice or + with a split or a list on either side is a new list. It
    cannot be appended to or assigned into, and its windows and their days
    are values (tuples down to the token ids), so what is derived from it
    holds for its life: model.day_table keeps the split's DayTable for each
    text configuration in tables, and every later call on the split reuses it.
    """

    __slots__ = ("_items", "tables")

    def __init__(self, items: Iterable[T]) -> None:
        self._items = tuple(items)
        self.tables: dict = {}

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __getitem__(self, index):
        return list(self._items[index]) if isinstance(index, slice) else self._items[index]

    def __add__(self, other):
        return [*self._items, *other] if isinstance(other, (Split, list)) else NotImplemented

    def __radd__(self, other):
        return [*other, *self._items] if isinstance(other, list) else NotImplemented

    def __eq__(self, other):  # defining it leaves a split unhashable, as a list is
        return self._items == tuple(other) if isinstance(other, (Split, list)) else NotImplemented

    def __repr__(self) -> str:
        return f"Split({list(self._items)!r})"


def split_chronological(samples: Sequence[T], ratios: tuple[float, float, float]
                        ) -> tuple[Split[T], Split[T], Split[T]]:
    """Contiguous chronological partition by cumulative floor boundaries.

    Boundaries are floor(n*r_train) and floor(n*(r_train+r_val)); any
    fractional remainder therefore lands in the trailing (test) cut of the
    floor allocation, e.g. 10 samples at (0.7, 0.15, 0.15) → 7/1/2.
    """
    r1, r2, r3 = ratios
    if not all(0.0 < r < math.inf for r in ratios):
        raise DataValidationError(f"split ratios must all be positive and finite, got {ratios}")
    if abs((r1 + r2 + r3) - 1.0) > 1e-9:
        raise DataValidationError(f"split ratios must sum to 1, got {ratios}")
    n = len(samples)
    train_end = int(math.floor(n * r1))
    val_end = int(math.floor(n * (r1 + r2)))
    return Split(samples[:train_end]), Split(samples[train_end:val_end]), Split(samples[val_end:])


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

    def __post_init__(self) -> None:
        for name, values, low, kind in (("means", self.means, -math.inf, "finite"),
                                        ("stds", self.stds, 0.0, "finite positive")):
            if len(values) != 4 or not all(low < v < math.inf for v in values):
                raise DataValidationError(f"{name} must be 4 {kind} numbers, got {list(values)}")

    @classmethod
    def fit(cls, raws: Sequence[Sequence[float]]) -> "NormStats":
        """The statistics of days' raw values."""
        if not raws:
            raise DataValidationError("cannot fit normalization stats on zero days")
        cols = list(zip(*raws))
        means = tuple(sum(c) / len(c) for c in cols)
        stds = []
        for c, m in zip(cols, means):
            var = sum((v - m) ** 2 for v in c) / len(c)
            sd = math.sqrt(var)
            stds.append(sd if sd > 1e-12 else 1.0)
        return cls(means=tuple(means), stds=tuple(stds))

    def normalize_days(self, raws: Sequence[Sequence[float]],
                       has_text: Sequence[bool]) -> np.ndarray:
        """(len(raws), 5) features of days: the raw values z-scored, then has_text
        as 1.0 or 0.0; elementwise IEEE arithmetic, the bits a loop of floats gives."""
        raw = np.array(raws, dtype=np.float64).reshape(len(raws), 4)
        return np.column_stack(((raw - self.means) / self.stds, has_text))

    def normalize_return(self, raw_logret: float) -> float:
        return (raw_logret - self.means[0]) / self.stds[0]

    def denormalize_return(self, z: float) -> float:
        return z * self.stds[0] + self.means[0]

    def to_dict(self) -> dict:
        return {"means": list(self.means), "stds": list(self.stds)}


# ---------------------------------------------------------------------------
# full preparation
# ---------------------------------------------------------------------------


@dataclass
class PrepareConfig:
    window: int = 20
    min_freq: int = 1
    max_vocab: int = 20000
    ratios: tuple[float, float, float] = DEFAULT_RATIOS


@dataclass(frozen=True)
class PreparedDataset:
    """A prepared dataset; frozen, its samples a tuple, so splits() cuts them
    once and returns the same three Split objects, and the day tables they
    keep, on every call."""

    vocab: Vocabulary
    samples: tuple[WindowSample, ...]
    stats: NormStats
    window: int
    ratios: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", tuple(self.samples))

    def splits(self) -> tuple[Split[WindowSample], Split[WindowSample], Split[WindowSample]]:
        return self._splits

    @functools.cached_property
    def _splits(self) -> tuple[Split[WindowSample], Split[WindowSample], Split[WindowSample]]:
        return split_chronological(self.samples, self.ratios)


def prepare_dataset(bars: Sequence[MarketBar], raw_docs: Sequence[RawTextDoc],
                    lexicon: Lexicon, cfg: PrepareConfig) -> PreparedDataset:
    """A kept document's token list feeds the vocabulary counts and its lexicon
    label; its ids re-split the cleaned text, so no token list outlives its
    document's pass (holding them all until the vocabulary exists costs about
    1 MB of peak memory on a 2,000-document corpus)."""
    # a doc that cleans to no tokens (a bare URL) would vote in its day's label
    kept = [(doc, c) for doc in raw_docs if (c := clean_text(doc.text))]
    if len(kept) < len(raw_docs):
        log.info("dropping %d documents with no tokens after cleaning",
                 len(raw_docs) - len(kept))
    counts: Counter[str] = Counter()
    labels = []
    for doc, cleaned in kept:
        tokens = cleaned.split()
        counts.update(tokens)
        labels.append(CLASS_INDEX[label_tokens(tokens, lexicon, presupplied=doc.label)])
    vocab = vocab_from_counts(counts, min_freq=cfg.min_freq, max_size=cfg.max_vocab)
    encoded = [LabeledDoc(timestamp=doc.timestamp, token_ids=encode_doc(cleaned, vocab),
                          label=label)
               for (doc, cleaned), label in zip(kept, labels)]
    days_raw = _day_rows(bars, encoded)
    targets = _window_targets(days_raw, cfg.window)

    n_train = len(split_chronological(targets, cfg.ratios)[0])
    if n_train == 0:
        raise DataValidationError("training split is empty; need more days")
    # every day a training sample touches (inputs and target)
    stats = NormStats.fit([r[1] for r in days_raw[: n_train + cfg.window]])
    return PreparedDataset(vocab=vocab, stats=stats, window=cfg.window, ratios=cfg.ratios,
                           samples=normalized_samples(stats, days_raw, cfg.window, targets))


def normalized_samples(stats: NormStats, rows: Sequence[tuple], window: int,
                       targets: Iterable[tuple]) -> list[WindowSample]:
    """The samples of prepare_dataset and load_prepared: each day row (_day_rows)
    is built once into its day with features from stats; target (start, date,
    class, raw return, close), a window row, reads days[start : start +
    window] and gets target_return."""
    features = stats.normalize_days([r[1] for r in rows], [bool(r[2]) for r in rows])
    days = tuple(AlignedDay(*row, features=f) for row, f in zip(rows, features.tolist()))
    return [WindowSample(inputs=days[t : t + window], target_date=date, target_class=cls,
                         target_return_raw=ret, target_close=close,
                         target_return=stats.normalize_return(ret))
            for t, date, cls, ret, close in targets]


# ---------------------------------------------------------------------------
# prepared-directory serialization
# ---------------------------------------------------------------------------


# numbers atomic_write's temp files, so no two calls of one process share one
_TMP_IDS = itertools.count()


@contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A temp text file beside path, its own to this call (named by the pid
    and a process-wide counter, so threads writing one path never share it),
    that os.replace moves over path when the with-block completes; if
    anything raises, it is deleted and path is untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    fh = tmp.open("w", encoding="utf-8", newline="")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_target_date(date: dt.date, dates: Sequence[dt.date], start: int,
                       window: int) -> None:
    """DataValidationError unless date, the target of the window of rows
    [start, end) of dates, is after its last day and, where dates holds row
    end, not after that day."""
    end = start + window
    if date <= dates[end - 1] or (end < len(dates) and date > dates[end]):
        after = f" and not after {dates[end]}" if end < len(dates) else ""
        raise DataValidationError(f"target_date {date} must be after the window's last day "
                                  f"{dates[end - 1]}{after}")


def _stored_days(ds: PreparedDataset) -> tuple[tuple[AlignedDay, ...], list[int]]:
    """ds's input days in date order and each sample's start row; DataValidationError
    for two different days with one date, a window not a run of consecutive days
    or a target_date that _check_target_date rejects."""
    by_date: dict[dt.date, AlignedDay] = {}
    for d in {id(d): d for s in ds.samples for d in s.inputs}.values():
        if (first := by_date.setdefault(d.date, d)) is not d and first != d:
            raise DataValidationError(f"two different days dated {d.date}")
    days = tuple(sorted(by_date.values(), key=lambda d: d.date))
    dates = [d.date for d in days]
    row = {date: i for i, date in enumerate(dates)}
    starts = [row[s.inputs[0].date] for s in ds.samples]
    for s, t in zip(ds.samples, starts):
        if s.inputs != days[t : t + ds.window]:  # tuple == tries identity first
            raise DataValidationError(f"window for {s.target_date} is not a run of "
                                      f"{ds.window} consecutive days")
        _check_target_date(s.target_date, dates, t, ds.window)
    return days, starts


def _check_derived(name: str, stored, derived, where: Callable[[int], str]) -> None:
    """DataValidationError at where(i) for the first stored value of name that is
    not, bit for bit, its derivation (one comparison when all are)."""
    stored, derived = np.asarray(stored, np.float64), np.asarray(derived, np.float64)
    if stored.tobytes() != derived.tobytes():
        i = next(i for i, (a, b) in enumerate(zip(stored, derived)) if a.tobytes() != b.tobytes())
        raise DataValidationError(f"{where(i)}: {name} {stored[i].tolist()} is not "
                                  f"{derived[i].tolist()}, the value loading derives")


def save_prepared(ds: PreparedDataset, out_dir: str | Path) -> None:
    """Writes format 4, each file one json.dumps, through atomic_write:
    norm_stats.json last and no file before all are written. DataValidationError,
    writing nothing, for what _stored_days rejects or a stored copy other than
    normalized_samples derives."""
    days, starts = _stored_days(ds)
    _check_derived("features", [d.features if d.features is not None
                                else [math.nan] * N_MARKET_FEATURES for d in days],
                   ds.stats.normalize_days([d.raw for d in days], [d.has_text for d in days]),
                   lambda i: f"day {days[i].date}")
    _check_derived("target_return", [s.target_return for s in ds.samples],
                   [ds.stats.normalize_return(s.target_return_raw) for s in ds.samples],
                   lambda i: f"window for {ds.samples[i].target_date}")
    meta = {**ds.stats.to_dict(), "window": ds.window, "ratios": list(ds.ratios),
            "format_version": PREPARED_FORMAT_VERSION, "n_days": len(days),
            "n_samples": len(ds.samples)}
    files = {  # entered first, so ExitStack moves norm_stats.json into place last
        "norm_stats.json": [json.dumps(meta, indent=2)],
        "vocab.txt": ds.vocab.to_lines(),
        "days.json": [json.dumps({"date": [d.date.isoformat() for d in days],
                                  "raw": [d.raw for d in days],
                                  "close": [d.close for d in days],
                                  "label": [CLASS_NAMES[d.label] for d in days],
                                  "token_seqs": [d.token_seqs for d in days]})],
        "windows.json": [json.dumps({
            "start": starts, "target_date": [s.target_date.isoformat() for s in ds.samples],
            "target_class": [CLASS_NAMES[s.target_class] for s in ds.samples],
            "target_return_raw": [s.target_return_raw for s in ds.samples],
            "target_close": [s.target_close for s in ds.samples]})]}
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        for name, lines in files.items():
            stack.enter_context(atomic_write(Path(out_dir) / name)).writelines(
                line + "\n" for line in lines)


# each column's entry type, a format-3 row's field type
_DAY_COLUMNS = {"date": str, "raw": list[float], "close": float, "label": str,
                "token_seqs": list[list[int]]}
_WINDOW_COLUMNS = {"start": int, "target_date": str, "target_class": str,
                   "target_return_raw": float, "target_close": float}


def _columns(path: Path, hints: dict, n: int, count: str
             ) -> Callable[[str, Callable[[list], list]], list]:
    """column(name, convert): column name of the JSON object in path, whose
    keys must be exactly those of hints, as convert returns it. The column
    must be a list of n entries (count says whose n) that fit its hint
    (_fits). convert raises DataValidationError describing the first bad
    entry, judging each entry alone or against earlier rows, so a column's
    first bad row ends its shortest failing prefix, which a bisection finds
    only once the whole column has failed. Every fault raises naming path,
    the column and that 0-based row."""
    cols = read_json(path, dict.fromkeys(hints, object))

    def checked(entries: list, hint, convert: Callable[[list], list]) -> list:
        if not _fits(list[hint])(entries):
            bad = next(v for v in entries if not _fits(hint)(v))
            raise DataValidationError(f"must be {_type_name(hint)}, got {json.dumps(bad)}")
        return convert(entries)

    def column(name: str, convert: Callable[[list], list]) -> list:
        if name not in cols:
            raise DataValidationError(f"{path}: missing column {name!r}")
        values, hint = cols[name], hints[name]
        if type(values) is not list:
            raise DataValidationError(
                f"{path}: {name} must be a list, got {_TYPE_NAMES[type(values)]}")
        if len(values) != n:
            raise DataValidationError(f"{path}: {name} has {len(values)} entries, {count}")
        try:
            return checked(values, hint, convert)
        except DataValidationError as exc:
            fault = exc
        good, bad = 0, n  # values[:good] passes; values[:bad] fails, with fault
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                checked(values[:mid], hint, convert)
                good = mid
            except DataValidationError as exc:
                bad, fault = mid, exc
        raise DataValidationError(f"{path}: {name}[{bad - 1}]: {fault}") from None

    return column


def _iso_dates(entries: list) -> list[dt.date]:
    try:
        return list(map(dt.date.fromisoformat, entries))
    except ValueError as exc:
        raise DataValidationError(str(exc)) from None


def _increasing_dates(entries: list) -> list[dt.date]:
    dates = _iso_dates(entries)
    check_dates_increasing(dates)
    return dates


def _raws(entries: list) -> list[tuple[float, ...]]:
    if not (set(map(len, entries)) <= {4}
            and all(map(math.isfinite, itertools.chain.from_iterable(entries)))):
        bad = next(r for r in entries if len(r) != 4 or not all(map(math.isfinite, r)))
        raise DataValidationError(f"must be 4 finite numbers, got {json.dumps(bad)}")
    return [tuple(map(float, r)) for r in entries]


def _finite(entries: list) -> list[float]:
    if not all(map(math.isfinite, entries)):
        bad = next(v for v in entries if not math.isfinite(v))
        raise DataValidationError(f"must be finite, got {json.dumps(bad)}")
    return list(map(float, entries))


def _classes(entries: list) -> list[int]:
    try:
        return list(map(CLASS_INDEX.__getitem__, entries))
    except KeyError as exc:
        raise DataValidationError(f"unknown class {exc.args[0]!r}") from None


def _token_ids_below(size: int, entries: list) -> list:
    tokens = list(itertools.chain.from_iterable(itertools.chain.from_iterable(entries)))
    if tokens and not 0 <= min(tokens) <= max(tokens) < size:
        bad = next(tok for tok in tokens if not 0 <= tok < size)
        raise DataValidationError(f"token id {bad} out of range for vocab of {size}")
    return entries


def _starts_within(last: int, entries: list) -> list[int]:
    if entries and not 0 <= min(entries) <= max(entries) <= last:
        bad = next(t for t in entries if not 0 <= t <= last)
        raise DataValidationError(f"must lie in [0, {last}], got {bad}")
    return entries


def _target_dates(starts: Sequence[int], dates: Sequence[dt.date], window: int,
                  entries: list) -> list[dt.date]:
    targets = _iso_dates(entries)
    for date, start in zip(targets, starts):
        _check_target_date(date, dates, start, window)
    return targets


# every key of norm_stats.json: format 1 had no format_version or n_days
_META_FIELDS = {"means": list[float], "stds": list[float], "window": int,
                "ratios": list[float], "format_version": int, "n_days": int, "n_samples": int}


def load_prepared(in_dir: str | Path) -> PreparedDataset:
    """Reads save_prepared's directory; every window shares the loaded day objects."""
    root = Path(in_dir)
    meta_path = root / "norm_stats.json"
    meta = read_json(meta_path, _META_FIELDS)
    version = meta.get("format_version", 1)
    if version != PREPARED_FORMAT_VERSION:
        raise DataValidationError(
            f"{meta_path}: prepared dataset format {version} is not supported, expected "
            f"{PREPARED_FORMAT_VERSION}; re-run `sentirisk prepare`"
        )
    try:
        stats = NormStats(means=tuple(meta["means"]), stds=tuple(meta["stds"]))
        window, ratios = meta["window"], tuple(meta["ratios"])
        n_days, n_samples = meta["n_days"], meta["n_samples"]
    except KeyError as exc:
        raise DataValidationError(f"{meta_path}: missing key {exc}") from None
    except DataValidationError as exc:
        raise DataValidationError(f"{meta_path}: {exc}") from None
    if len(ratios) != 3 or window < 1:
        raise DataValidationError(f"{meta_path}: need 3 ratios and a positive window")
    vocab = Vocabulary.from_lines(read_text(root / "vocab.txt").splitlines())
    column = _columns(root / "days.json", _DAY_COLUMNS, n_days, f"{meta_path} n_days {n_days}")
    dates = column("date", _increasing_dates)
    raws, closes = column("raw", _raws), column("close", _finite)
    labels = column("label", _classes)
    token_seqs = column("token_seqs", functools.partial(_token_ids_below, vocab.size))
    column = _columns(root / "windows.json", _WINDOW_COLUMNS, n_samples,
                      f"{meta_path} n_samples {n_samples}")
    starts = column("start", functools.partial(_starts_within, n_days - window))
    target_dates = column("target_date", functools.partial(_target_dates, starts, dates, window))
    targets = zip(starts, target_dates, column("target_class", _classes),
                  column("target_return_raw", _finite), column("target_close", _finite))
    days = list(zip(dates, raws, token_seqs, labels, closes))
    return PreparedDataset(
        vocab=vocab, samples=normalized_samples(stats, days, window, targets), stats=stats,
        window=window, ratios=ratios,
    )
