"""Day alignment, windowing, splits, normalization, the prepared dataset.

Pipeline order: load bars + raw docs as columns (ingest.MarketColumns,
ingest.TextColumns), tokenize each doc once (one with no tokens, such as a
bare URL, is dropped), count the vocabulary, label and encode the docs,
align them onto trading days (roll-forward), build sliding-window targets,
split chronologically, fit normalization statistics on the training span
only. A PreparedDataset holds the result as columns, DayColumns and
WindowColumns, from prepare to the day table: prepare_dataset and
load_prepared build no AlignedDay or WindowSample, and the window objects
(ds.samples, or a split iterated) are built from the columns on first use.
Each record is checked once, by its constructor, and trusted by what reads it.

A prepared directory (format 4) stores each fact once: vocab.txt (line i is
the token with id i+2); days.json and windows.json, each one JSON object of
the dataset's columns (token ids as read: only the model pads them);
norm_stats.json: stats, window, ratios, format_version, n_days, n_samples.
Each file is one json.dumps and one json.loads; the two column files are
compact, with no space after a separator, and spaced ones load the same.
The normalized features and returns, has_text and prev_close are derived
on read. load_prepared checks each column whole, in a fixed number of
Python calls, in the file's column order: other format_versions, a
missing or unknown column, a column whose length is not n_days or n_samples,
an entry of the wrong type, dates out of order, a start outside days.json, a
target_date outside its slot, token ids outside vocab.txt and non-finite
numbers are refused naming the full path, the column and the first bad row
(_fits is the one rule for a column's entries).
"""

from __future__ import annotations

import datetime as dt
import functools
import itertools
import json
import logging
import math
import operator
import os
import sys
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import FrozenInstanceError, dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

from .errors import DataValidationError
from .ingest import (  # the loaders too: perfbench calls them as data.*
    _TYPE_NAMES,
    MarketBar,
    MarketColumns,
    RawTextDoc,
    TextColumns,
    _as_columns,
    _fits,
    _type_name,
    check_dates_increasing,
    load_market_csv,
    load_text_jsonl,
    read_json,
)
from .text import (
    CLASS_INDEX,
    CLASS_NAMES,
    UNK_ID,
    Lexicon,
    Vocabulary,
    read_text,
    score_label,
    tokenize,
    vocab_from_counts,
)

log = logging.getLogger(__name__)

N_MARKET_FEATURES = 5  # logret, range, gap, log volume, has_text
DEFAULT_RATIOS = (0.7, 0.15, 0.15)
PREPARED_FORMAT_VERSION = 4
T = TypeVar("T")


# ---------------------------------------------------------------------------
# days and windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlignedDay:
    """One trading day: market features plus that day's encoded documents.

    raw holds the unnormalized feature tuple (logret, range, gap, log volume);
    features holds the normalized five (the four z-scored values plus the
    has_text indicator). Construction makes both tuples, as it does token_seqs,
    and refuses a label or features that are not a class index and five finite
    numbers with a DataValidationError naming the date.
    """

    date: dt.date
    raw: tuple[float, float, float, float]
    token_seqs: tuple[tuple[int, ...], ...]
    label: int
    close: float
    features: tuple[float, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.label < len(CLASS_NAMES):
            raise DataValidationError(f"day {self.date}: label {self.label} is not a class index")
        object.__setattr__(self, "token_seqs", tuple(map(tuple, self.token_seqs)))
        features = tuple(self.features)
        object.__setattr__(self, "features", features)
        # one check of the sum passes five finite values, as MarketBar's does
        if len(features) != N_MARKET_FEATURES or (not math.isfinite(sum(features))
                                                  and not all(map(math.isfinite, features))):
            raise DataValidationError(f"day {self.date}: features {list(features)} are not "
                                      f"{N_MARKET_FEATURES} finite numbers")

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
    target_return: float  # normalized

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if not self.inputs:
            raise DataValidationError("window sample has no input days")
        if not 0 <= self.target_class < len(CLASS_NAMES):
            raise DataValidationError(f"window for {self.target_date}: target_class "
                                      f"{self.target_class} is not a class index")

    @property
    def prev_close(self) -> float:
        return self.inputs[-1].close


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def _day_rows(bars: MarketColumns, timestamps: Sequence[dt.datetime],
              token_ids: Sequence[tuple[int, ...]], labels: Sequence[int]) -> list[tuple]:
    """One row (date, raw, token_seqs, label, close) per bar, an AlignedDay's
    fields but features, in its order: document i (timestamps[i],
    token_ids[i], class labels[i]) is attached to the first trading date >=
    its calendar date.

    Docs dated after the last bar are dropped (logged). Day label is the
    majority vote over doc labels, any tie for the top count → neutral.
    Raw values are math.log/math.log1p of each bar's floats.
    """
    dates = bars.date
    n = len(dates)
    if not n:
        raise DataValidationError("no market bars to align against")
    rows = np.searchsorted(_ordinals(dates), _ordinals(timestamps))  # bisect_left
    seqs: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]  # row n: after the last bar
    for row, ids in zip(rows.tolist(), token_ids):
        seqs[row].append(ids)
    for when in itertools.compress(timestamps, rows == n):
        log.info("dropping document at %s: after last trading day %s",
                 when.isoformat(), dates[-1].isoformat())
    votes = np.bincount(rows * len(CLASS_NAMES) + np.asarray(labels, dtype=np.intp),
                        minlength=(n + 1) * len(CLASS_NAMES)).reshape(n + 1, -1)[:n]
    ties = (votes == votes.max(axis=1, keepdims=True)).sum(axis=1) > 1
    day_labels = np.where(ties, CLASS_INDEX["neutral"], votes.argmax(axis=1)).tolist()
    div, sub = operator.truediv, operator.sub
    close = bars.close
    raw = zip([0.0, *map(math.log, map(div, close[1:], close[:-1]))],
              map(div, map(sub, bars.high, bars.low), close),
              map(div, map(sub, close, bars.open), bars.open),
              map(math.log1p, bars.volume))
    return list(zip(dates, raw, map(tuple, seqs), day_labels, close))


def _ordinals(days: Sequence[dt.date]) -> np.ndarray:
    """The proleptic ordinals of days' (or datetimes') calendar dates."""
    return np.fromiter(map(dt.date.toordinal, days), dtype=np.int64, count=len(days))


# ---------------------------------------------------------------------------
# windows and splits
# ---------------------------------------------------------------------------


def _window_targets(rows: Sequence[tuple], window: int) -> list[tuple]:
    """One window row (start, target date, class, raw return, close) per
    position start of day rows (_day_rows): inputs rows [start, start +
    window), targets from row start + window."""
    if window < 1:
        raise DataValidationError(f"window must be >= 1, got {window}")
    if len(rows) <= window:
        raise DataValidationError(
            f"need more than {window} days to form a window, got {len(rows)}"
        )
    return [(t, date, label, raw[0], close)
            for t, (date, raw, _, label, close) in enumerate(rows[window:])]


class Split(Sequence[T]):
    """An immutable run of windows, as split_chronological or a PreparedDataset
    cuts them.

    It reads as a list does: len, iteration, indexing, == with a list, and
    a slice or + with a split or a list on either side is a new list. It
    cannot be appended to or assigned into, and its windows and their days
    are values (tuples down to the token ids), so what is derived from it
    holds for its life: model.day_table keeps the split's DayTable for each
    text configuration in tables, and every later call on the split reuses it.
    A dataset's split is its range window_rows of the dataset's windows, which
    model.day_table and train read as columns; it takes its slice of
    dataset.samples only when it is iterated or indexed.
    """

    __slots__ = ("_items", "dataset", "window_rows", "tables")

    def __init__(self, items: Iterable[T], dataset: PreparedDataset | None = None) -> None:
        # a dataset's split is given the range of its window rows as items
        self.dataset = dataset
        self._items = None if dataset is not None else tuple(items)
        self.window_rows = items if dataset is not None else range(len(self._items))
        self.tables: dict = {}

    def _windows(self) -> tuple:
        if self._items is None:
            self._items = self.dataset.samples[self.window_rows.start : self.window_rows.stop]
        return self._items

    def __len__(self) -> int:
        return len(self.window_rows)

    def __iter__(self) -> Iterator[T]:
        return iter(self._windows())

    def __getitem__(self, index):
        items = self._windows()
        return list(items[index]) if isinstance(index, slice) else items[index]

    def __add__(self, other):
        return [*self, *other] if isinstance(other, (Split, list)) else NotImplemented

    def __radd__(self, other):
        return [*other, *self] if isinstance(other, list) else NotImplemented

    def __eq__(self, other):  # defining it leaves a split unhashable, as a list is
        if not isinstance(other, (Split, list)):
            return NotImplemented
        return self._windows() == tuple(other)

    def __repr__(self) -> str:
        return f"Split({list(self)!r})"


def split_chronological(samples: Sequence[T], ratios: tuple[float, float, float],
                        dataset: PreparedDataset | None = None
                        ) -> tuple[Split[T], Split[T], Split[T]]:
    """Contiguous chronological partition by cumulative floor boundaries; of
    dataset, samples is the range of its window rows.

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
    return (Split(samples[:train_end], dataset), Split(samples[train_end:val_end], dataset),
            Split(samples[val_end:], dataset))


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
        with np.errstate(over="ignore"):  # PreparedDataset.of_columns refuses an inf
            return np.column_stack(((raw - self.means) / self.stds, has_text))

    def normalize_return(self, raw_logret):
        """The z-scored log return of a float, or elementwise of an array (the
        same IEEE arithmetic, so the same bits)."""
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


_CLASS_INDICES = frozenset(range(len(CLASS_NAMES)))


def _check_classes(classes: tuple, where: Callable[[int], str], name: str) -> None:
    """DataValidationError at where(i) for the first of classes that is not a class index."""
    if not _CLASS_INDICES.issuperset(classes):
        i = next(i for i, c in enumerate(classes) if c not in _CLASS_INDICES)
        raise DataValidationError(f"{where(i)}: {name} {classes[i]} is not a class index")


def _all_tuples(items: Iterable) -> bool:
    return set(map(type, items)) <= {tuple}


@dataclass(frozen=True)
class DayColumns:
    """A dataset's input days in date order, entry i of each column being day
    row i's: an AlignedDay's fields but features. Construction makes each
    column a tuple, raw and token_seqs down to the numbers (copying no level
    that is all tuples already, as prepare_dataset and load_prepared give
    them), and refuses a label that is not a class index naming the date, as
    AlignedDay does."""

    date: tuple[dt.date, ...]
    raw: tuple[tuple[float, float, float, float], ...]
    token_seqs: tuple[tuple[tuple[int, ...], ...], ...]
    label: tuple[int, ...]
    close: tuple[float, ...]

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        if not _all_tuples(self.raw):
            object.__setattr__(self, "raw", tuple(map(tuple, self.raw)))
        if not (_all_tuples(self.token_seqs)
                and _all_tuples(itertools.chain.from_iterable(self.token_seqs))):
            object.__setattr__(self, "token_seqs",
                               tuple(tuple(map(tuple, seqs)) for seqs in self.token_seqs))
        _check_classes(self.label, lambda i: f"day {self.date[i]}", "label")


@dataclass(frozen=True)
class WindowColumns:
    """A dataset's windows: start, the day row of a window's first day, then a
    WindowSample's targets but target_return. Construction makes each column
    a tuple and refuses a target_class that is not a class index naming the
    target date, as WindowSample does."""

    start: tuple[int, ...]
    target_date: tuple[dt.date, ...]
    target_class: tuple[int, ...]
    target_return_raw: tuple[float, ...]
    target_close: tuple[float, ...]

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        _check_classes(self.target_class, lambda i: f"window for {self.target_date[i]}",
                       "target_class")


# what two equal datasets share: the derived arrays follow from these
_FACTS = operator.attrgetter("vocab", "stats", "window", "ratios", "days", "windows")


class PreparedDataset:
    """A prepared dataset: vocab, stats, window, ratios, its days and windows
    as columns, and the read-only arrays derived from those with stats:
    features (n_days, 5) and target_return (n_windows,), both normalized.
    samples, the windows as WindowSample objects sharing their days'
    AlignedDays, is built from the columns on first use (or is the objects a
    dataset was built of). A dataset is frozen, and splits() returns the same
    three Splits, and the day tables they keep, on every call. Two datasets
    are equal when all but the derived arrays are.
    """

    def __init__(self, vocab: Vocabulary, samples: Iterable[WindowSample], stats: NormStats,
                 window: int, ratios: tuple[float, float, float]) -> None:
        """The dataset of samples, its columns derived from them; DataValidationError
        for what _stored_days refuses or a stored copy other than of_columns derives."""
        samples = tuple(samples)
        days, starts = _stored_days(samples, window)
        ds = PreparedDataset.of_columns(
            vocab, stats, window, ratios,
            DayColumns(*([getattr(d, f.name) for d in days] for f in fields(DayColumns))),
            WindowColumns(starts, *([getattr(s, f.name) for s in samples]
                                    for f in fields(WindowColumns)[1:])))
        _check_derived("features", [d.features for d in days], ds.features,
                       lambda i: f"day {days[i].date}")
        _check_derived("target_return", [s.target_return for s in samples], ds.target_return,
                       lambda i: f"window for {samples[i].target_date}")
        vars(self).update(vars(ds), samples=samples)

    @classmethod
    def of_columns(cls, vocab: Vocabulary, stats: NormStats, window: int,
                   ratios: tuple[float, float, float], days: DayColumns,
                   windows: WindowColumns) -> PreparedDataset:
        """The dataset of columns, as prepare_dataset and load_prepared build it;
        DataValidationError naming the first day whose features are not 5 finite
        numbers (stats that overflow)."""
        features = stats.normalize_days(days.raw, [bool(seqs) for seqs in days.token_seqs])
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DataValidationError(f"day {days.date[i]}: features {features[i].tolist()} are "
                                      f"not {N_MARKET_FEATURES} finite numbers")
        with np.errstate(over="ignore"):  # a window's target_return may be infinite
            target_return = stats.normalize_return(
                np.array(windows.target_return_raw, dtype=np.float64))
        features.flags.writeable = target_return.flags.writeable = False
        ds = cls.__new__(cls)
        vars(ds).update(vocab=vocab, stats=stats, window=window, ratios=ratios, days=days,
                        windows=windows, features=features, target_return=target_return)
        return ds

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, PreparedDataset):
            return NotImplemented
        return _FACTS(self) == _FACTS(other)

    @functools.cached_property
    def samples(self) -> tuple[WindowSample, ...]:
        """The windows as objects, built from the columns on first use: one
        AlignedDay per day row, shared by every window that holds it."""
        d, w = self.days, self.windows
        days = tuple(map(AlignedDay, d.date, d.raw, d.token_seqs, d.label, d.close,
                         self.features.tolist()))
        return tuple(map(WindowSample, (days[t : t + self.window] for t in w.start),
                         w.target_date, w.target_class, w.target_return_raw, w.target_close,
                         self.target_return.tolist()))

    def splits(self) -> tuple[Split[WindowSample], Split[WindowSample], Split[WindowSample]]:
        return self._splits

    @functools.cached_property
    def _splits(self) -> tuple[Split[WindowSample], Split[WindowSample], Split[WindowSample]]:
        return split_chronological(range(len(self.windows.start)), self.ratios, self)


def prepare_dataset(bars: MarketColumns | Sequence[MarketBar],
                    raw_docs: TextColumns | Sequence[RawTextDoc],
                    lexicon: Lexicon, cfg: PrepareConfig) -> PreparedDataset:
    """The dataset of a market and its documents, given as the loaders'
    columns or as records, which become columns first.

    Each document is tokenized once (text.tokenize); one that gives no
    tokens (a bare URL) is dropped, and the count logged, for it would vote
    in its day's label. The vocabulary counts the kept token lists; a
    document's label is its presupplied one, else score_label of the sum of
    its tokens' lexicon scores (one score per distinct token); its ids map
    each token through the vocabulary. Each token string is interned, so the
    token lists, held until the vocabulary exists, share one string per
    distinct token."""
    bars, docs = _as_columns(MarketColumns, bars), _as_columns(TextColumns, raw_docs)
    tokens = [list(map(sys.intern, tokenize(text))) for text in docs.text]
    if not all(tokens):
        log.info("dropping %d documents with no tokens after cleaning",
                 len(tokens) - sum(map(bool, tokens)))
    timestamps = list(itertools.compress(docs.timestamp, tokens))
    given = list(itertools.compress(docs.label, tokens))
    tokens = list(filter(None, tokens))
    counts = Counter(itertools.chain.from_iterable(tokens))
    vocab = vocab_from_counts(counts, min_freq=cfg.min_freq, max_size=cfg.max_vocab)
    score = {tok: lexicon.score(tok) for tok in counts}.__getitem__
    labels = [CLASS_INDEX[label if label is not None else score_label(sum(map(score, toks)))]
              for toks, label in zip(tokens, given)]
    get = vocab.token_to_id.get
    ids = {tok: get(tok, UNK_ID) for tok in counts}.__getitem__
    days_raw = _day_rows(bars, timestamps, [tuple(map(ids, toks)) for toks in tokens], labels)
    targets = _window_targets(days_raw, cfg.window)

    n_train = len(split_chronological(targets, cfg.ratios)[0])
    if n_train == 0:
        raise DataValidationError("training split is empty; need more days")
    # every day a training sample touches (inputs and target)
    stats = NormStats.fit([r[1] for r in days_raw[: n_train + cfg.window]])
    # the last day is a target only: no window's input, it is not stored
    return PreparedDataset.of_columns(vocab, stats, cfg.window, cfg.ratios,
                                      DayColumns(*zip(*days_raw[:-1])),
                                      WindowColumns(*zip(*targets)))


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
    anything raises, it is deleted and path is untouched. An OSError opening
    it names path."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
    try:
        fh = tmp.open("w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _check_target_dates(targets: Sequence[dt.date], dates: Sequence[dt.date],
                        starts: Sequence[int], window: int) -> None:
    """DataValidationError for the first of targets, each the target of the
    window of rows [start, end) of dates for its row of starts (zipped to
    targets' length), that is not after the window's last day or, where
    dates holds row end, is after that day; by date ordinals, all at once."""
    ends = np.array(starts[: len(targets)], dtype=np.intp) + window
    days = np.append(_ordinals(dates), np.iinfo(np.int64).max)  # no day after the last
    ordinals = _ordinals(targets)
    bad = (ordinals <= days[ends - 1]) | (ordinals > days[ends])
    if bad.any():
        i = int(np.argmax(bad))
        end = int(ends[i])
        after = f" and not after {dates[end]}" if end < len(dates) else ""
        raise DataValidationError(f"target_date {targets[i]} must be after the window's "
                                  f"last day {dates[end - 1]}{after}")


def _stored_days(samples: Sequence[WindowSample], window: int
                 ) -> tuple[tuple[AlignedDay, ...], list[int]]:
    """The input days of samples in date order and each sample's start row;
    DataValidationError for two different days with one date, a window not a
    run of consecutive days or a target_date that _check_target_dates rejects."""
    by_date: dict[dt.date, AlignedDay] = {}
    for d in {id(d): d for s in samples for d in s.inputs}.values():
        if (first := by_date.setdefault(d.date, d)) is not d and first != d:
            raise DataValidationError(f"two different days dated {d.date}")
    days = tuple(sorted(by_date.values(), key=lambda d: d.date))
    dates = [d.date for d in days]
    row = {date: i for i, date in enumerate(dates)}
    starts = [row[s.inputs[0].date] for s in samples]
    for s, t in zip(samples, starts):
        if s.inputs != days[t : t + window]:  # tuple == tries identity first
            raise DataValidationError(f"window for {s.target_date} is not a run of "
                                      f"{window} consecutive days")
    _check_target_dates([s.target_date for s in samples], dates, starts, window)
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
    """Writes format 4, ds's columns as they are, each file one json.dumps
    (the two column files compact, with no space after a separator), through
    atomic_write: norm_stats.json last and no file before all are written."""
    days, windows = ds.days, ds.windows
    meta = {**ds.stats.to_dict(), "window": ds.window, "ratios": list(ds.ratios),
            "format_version": PREPARED_FORMAT_VERSION, "n_days": len(days.date),
            "n_samples": len(windows.start)}
    compact = functools.partial(json.dumps, separators=(",", ":"))
    files = {  # entered first, so ExitStack moves norm_stats.json into place last
        "norm_stats.json": [json.dumps(meta, indent=2)],
        "vocab.txt": ds.vocab.to_lines(),
        "days.json": [compact({"date": [d.isoformat() for d in days.date],
                               "raw": days.raw, "close": days.close,
                               "label": [CLASS_NAMES[c] for c in days.label],
                               "token_seqs": days.token_seqs})],
        "windows.json": [compact({
            "start": windows.start, "target_date": [d.isoformat() for d in windows.target_date],
            "target_class": [CLASS_NAMES[c] for c in windows.target_class],
            "target_return_raw": windows.target_return_raw,
            "target_close": windows.target_close})]}
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        for name, lines in files.items():
            stack.enter_context(atomic_write(Path(out_dir) / name)).writelines(
                map("{}\n".format, lines))


# each column's entry type, a format-3 row's field type
_DAY_COLUMNS = {"date": str, "raw": list[float], "close": float, "label": str,
                "token_seqs": list[list[int]]}
_WINDOW_COLUMNS = {"start": int, "target_date": str, "target_class": str,
                   "target_return_raw": float, "target_close": float}


def _columns(path: Path, hints: dict, n: int, count: str
             ) -> Callable[..., list]:
    """column(name, convert, checks_types=False): column name of the JSON
    object in path, whose keys must be exactly those of hints, as convert
    returns it. The column must be a list of n entries (count says whose n)
    that fit its hint (_fits; checks_types says convert tests that itself,
    with the same message). convert raises DataValidationError describing
    the first bad entry, judging each entry alone or against earlier rows, so
    a column's first bad row ends its shortest failing prefix, which a
    bisection finds only once the whole column has failed. Every fault
    raises naming path, the column and that 0-based row."""
    cols = read_json(path, dict.fromkeys(hints, object))

    def column(name: str, convert: Callable[[list], list], checks_types: bool = False) -> list:
        if name not in cols:
            raise DataValidationError(f"{path}: missing column {name!r}")
        values, hint = cols[name], hints[name]
        if type(values) is not list:
            raise DataValidationError(
                f"{path}: {name} must be a list, got {_TYPE_NAMES[type(values)]}")
        if len(values) != n:
            raise DataValidationError(f"{path}: {name} has {len(values)} entries, {count}")

        def checked(entries: list) -> list:
            if not checks_types and not _fits(list[hint])(entries):
                bad = next(v for v in entries if not _fits(hint)(v))
                raise DataValidationError(f"must be {_type_name(hint)}, got {json.dumps(bad)}")
            return convert(entries)

        try:
            return checked(values)
        except DataValidationError as exc:
            fault = exc
        good, bad = 0, n  # values[:good] passes; values[:bad] fails, with fault
        while bad - good > 1:
            mid = (good + bad) // 2
            try:
                checked(values[:mid])
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


def _token_seqs(size: int, entries: list) -> list[tuple[tuple[int, ...], ...]]:
    """entries as tuples, each a list of lists of token ids below size: the
    type check, the id-range check and the conversion in one function, each
    level of lists flattened once."""
    nested = _fits(list[list])
    seqs = list(itertools.chain.from_iterable(entries)) if nested(entries) else None
    tokens = list(itertools.chain.from_iterable(seqs)) if nested(seqs) else None
    if not _fits(list[int])(tokens):
        hint = _DAY_COLUMNS["token_seqs"]
        bad = next(e for e in entries if not _fits(hint)(e))
        raise DataValidationError(f"must be {_type_name(hint)}, got {json.dumps(bad)}")
    if tokens and not 0 <= min(tokens) <= max(tokens) < size:
        bad = next(tok for tok in tokens if not 0 <= tok < size)
        raise DataValidationError(f"token id {bad} out of range for vocab of {size}")
    return [tuple(map(tuple, e)) for e in entries]


def _starts_within(last: int, entries: list) -> list[int]:
    if entries and not 0 <= min(entries) <= max(entries) <= last:
        bad = next(t for t in entries if not 0 <= t <= last)
        raise DataValidationError(f"must lie in [0, {last}], got {bad}")
    return entries


def _target_dates(starts: Sequence[int], dates: Sequence[dt.date], window: int,
                  entries: list) -> list[dt.date]:
    targets = _iso_dates(entries)
    _check_target_dates(targets, dates, starts, window)
    return targets


# every key of norm_stats.json: format 1 had no format_version or n_days
_META_FIELDS = {"means": list[float], "stds": list[float], "window": int,
                "ratios": list[float], "format_version": int, "n_days": int, "n_samples": int}


def load_prepared(in_dir: str | Path) -> PreparedDataset:
    """The dataset of save_prepared's directory, built of its columns."""
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
        if len(ratios) != 3 or window < 1:
            raise DataValidationError("need 3 ratios and a positive window")
        split_chronological((), ratios)  # the ratios the splits will be cut by
    except KeyError as exc:
        raise DataValidationError(f"{meta_path}: missing key {exc}") from None
    except DataValidationError as exc:
        raise DataValidationError(f"{meta_path}: {exc}") from None
    vocab = Vocabulary.from_lines(read_text(root / "vocab.txt").splitlines())
    column = _columns(root / "days.json", _DAY_COLUMNS, n_days, f"{meta_path} n_days {n_days}")
    dates = column("date", _increasing_dates)
    raws, closes = column("raw", _raws), column("close", _finite)
    labels = column("label", _classes)
    token_seqs = column("token_seqs", functools.partial(_token_seqs, vocab.size),
                        checks_types=True)
    column = _columns(root / "windows.json", _WINDOW_COLUMNS, n_samples,
                      f"{meta_path} n_samples {n_samples}")
    starts = column("start", functools.partial(_starts_within, n_days - window))
    target_dates = column("target_date", functools.partial(_target_dates, starts, dates, window))
    windows = WindowColumns(starts, target_dates, column("target_class", _classes),
                            column("target_return_raw", _finite), column("target_close", _finite))
    days = DayColumns(dates, raws, token_seqs, labels, closes)
    try:  # stats that overflow a day's features
        return PreparedDataset.of_columns(vocab, stats, window, ratios, days, windows)
    except DataValidationError as exc:
        raise DataValidationError(f"{meta_path}: {exc}") from None
