"""Reading sentirisk's input files: the JSON and CSV reading rules, and the
raw inputs, market.csv and texts.jsonl, as records and as columns.

Records against columns: a MarketBar or RawTextDoc is one row, checked by
its constructor; MarketColumns and TextColumns are a whole input, checked
by theirs with the records' rules (_BAR_RULES, _texts_ok, _labels_ok) run
once over each column, a bad row refused with its record's message. The
loaders build columns and no record, checking each column whole; a bad row
is refused naming the file and its line with the message a row-by-row
reading gives, the first bad line winning (_read_rows). data.prepare_dataset
reads columns, and turns records (synthetic data, tests) into columns first.
read_json reads every JSON document; check_fields is the one type rule for
its keys and for every texts.jsonl row, and _fits the one rule for a
prepared column's entries.
"""

from __future__ import annotations

import csv
import datetime as dt
import functools
import itertools
import json
import math
import operator
import typing
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Sequence, TextIO, TypeVar

import numpy as np

from .errors import DataValidationError
from .text import CLASS_INDEX, open_text, read_text

MARKET_CSV_HEADER = ["date", "open", "high", "low", "close", "volume"]
T = TypeVar("T")


# ---------------------------------------------------------------------------
# raw records and columns
# ---------------------------------------------------------------------------


_BAR_VALUES = ("open", "high", "low", "close", "volume")

# A bar's rules in the order it meets them: its values fail the first test
# that is False, with that rule's message. A test reads a MarketBar's numbers
# or, elementwise, MarketColumns' float arrays; a NaN fails every comparison,
# so the finiteness rules come first
_BAR_RULES: tuple[tuple[Callable, Callable[[MarketBar], str]], ...] = (
    *((lambda b, n=n: abs(getattr(b, n)) < math.inf,
       lambda b, n=n: f"{n} {getattr(b, n)} is not finite") for n in _BAR_VALUES),
    (lambda b: (b.low <= b.open) & (b.low <= b.close),
     lambda b: f"low {b.low} exceeds min(open, close)"),
    (lambda b: (b.high >= b.open) & (b.high >= b.close),
     lambda b: f"high {b.high} is below max(open, close)"),
    (lambda b: b.volume >= 0, lambda b: f"negative volume {b.volume}"),
    (lambda b: (b.open > 0) & (b.high > 0) & (b.low > 0) & (b.close > 0),
     lambda b: "nonpositive price"),
)


@dataclass(frozen=True)
class MarketBar:
    """One bar, refused naming its date and the first of _BAR_RULES it fails."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: float

    def __post_init__(self) -> None:
        for test, message in _BAR_RULES:
            if not test(self):
                raise DataValidationError(f"{self.date}: {message(self)}")


@dataclass(frozen=True)
class RawTextDoc:
    timestamp: dt.datetime
    text: str
    source: str
    label: str | None = None

    def __post_init__(self) -> None:
        if not _texts_ok((self.text,)):
            raise DataValidationError(f"document text must be a non-empty string, "
                                      f"got {self.text!r:.40}")
        if not _labels_ok((self.label,)):
            raise DataValidationError(f"unknown label {self.label!r}")


def _texts_ok(texts: Sequence) -> bool:
    """Whether every text is a non-empty string: RawTextDoc's rule, of a column."""
    return set(map(type, texts)) <= {str} and all(texts)


def _labels_ok(labels: Sequence) -> bool:
    """Whether every label is None or a class name: RawTextDoc's rule, of a column."""
    return (set(map(type, labels)) <= {str, type(None)}
            and set(labels) - {None} <= CLASS_INDEX.keys())


@dataclass(frozen=True)
class MarketColumns:
    """Bars as columns, entry i of each being bar i's field: what
    load_market_csv returns and prepare_dataset reads. Construction makes
    each column a tuple and runs _BAR_RULES once over whole columns; the
    first bad row is refused as MarketBar refuses it, then dates that do not
    strictly increase are."""

    date: tuple[dt.date, ...]
    open: tuple[float, ...]
    high: tuple[float, ...]
    low: tuple[float, ...]
    close: tuple[float, ...]
    volume: tuple[float, ...]

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        arrays = SimpleNamespace(**{n: np.array(getattr(self, n), dtype=np.float64)
                                    for n in _BAR_VALUES})
        ok = np.logical_and.reduce([test(arrays) for test, _ in _BAR_RULES])
        if not ok.all():
            i = int(np.argmin(ok))
            MarketBar(*(getattr(self, f.name)[i] for f in fields(self)))  # raises its message
        check_dates_increasing(self.date)

    def __len__(self) -> int:
        return len(self.date)


@dataclass(frozen=True)
class TextColumns:
    """Documents as columns, a RawTextDoc's fields but source (which nothing
    reads): what load_text_jsonl returns and prepare_dataset reads.
    Construction makes each column a tuple and checks the text and label
    columns whole, with RawTextDoc's rules; the first bad row is refused with
    RawTextDoc's message."""

    timestamp: tuple[dt.datetime, ...]
    text: tuple[str, ...]
    label: tuple[str | None, ...]

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))
        if not (_texts_ok(self.text) and _labels_ok(self.label)):
            for when, text, label in zip(self.timestamp, self.text, self.label):
                RawTextDoc(when, text, "", label)  # the first bad row raises its message

    def __len__(self) -> int:
        return len(self.text)


C = TypeVar("C", MarketColumns, TextColumns)


def _as_columns(cls: type[C], records: C | Iterable) -> C:
    """records as cls: columns as they are, records (MarketBars or
    RawTextDocs) by one constructor call of their fields."""
    if isinstance(records, cls):
        return records
    records = list(records)
    return cls(*([getattr(r, f.name) for r in records] for f in fields(cls)))


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
    A list of (lists of) scalars is tested by the set of its items' types at
    each level, in one Python call (_nested_fits); object takes any value (a
    key whose loader checks it with its own message)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        depth, leaf = 0, args[0]
        while typing.get_origin(leaf) is list:
            depth, leaf = depth + 1, typing.get_args(leaf)[0]
        if typing.get_origin(leaf) is None:  # lists of scalars, depth levels down
            return functools.partial(_nested_fits, depth, _kinds(leaf))
        return lambda v, item=_fits(args[0]): type(v) is list and all(map(item, v))
    if args:  # X | None
        return lambda v, each=tuple(map(_fits, args)): any(f(v) for f in each)
    if hint is object:
        return lambda v: True
    return lambda v, kinds=_kinds(hint): type(v) in kinds


def _nested_fits(depth: int, kinds: frozenset[type], v) -> bool:
    """Whether v is a list whose items, depth levels of lists down, are all of
    kinds: each level's types are one set, and the next level one flattening."""
    if type(v) is not list:
        return False
    for _ in range(depth):
        if not set(map(type, v)) <= {list}:
            return False
        v = list(itertools.chain.from_iterable(v))
    return set(map(type, v)) <= kinds


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


def _json_lines(path: Path, fh: TextIO) -> Iterator[tuple[int, object]]:
    """(line number, _loads_line value) of each non-blank line of fh, read
    from path. The file object splits the lines, at newlines only:
    str.splitlines would also split at a U+2028 that a JSON string may hold raw."""
    for lineno, line in enumerate(fh, start=1):
        if line.strip():
            try:
                value = _loads_line(line)
            except json.JSONDecodeError as exc:
                raise DataValidationError(f"{path}:{lineno}: bad json ({exc.msg})") from None
            yield lineno, value


def _read_rows(path: Path, numbered: Iterable[tuple[int, object]],
               build: Callable[[list], T], check_row: Callable[[object], object]) -> T:
    """build of the rows numbered yields, (line, row) pairs read from path.
    build checks the rows whole; where it, or reading a later line, fails,
    the first row that check_row refuses is refused naming path and its line,
    as a row-by-row reading would be, and a fault of no one row (dates out of
    order, a later line's) is raised as it came. check_row's KeyError reads
    "missing key"."""
    rows: list = []
    lines: list[int] = []
    try:
        for line, row in numbered:
            lines.append(line)
            rows.append(row)
        return build(rows)
    except (DataValidationError, ValueError, KeyError, TypeError):
        for line, row in zip(lines, rows):
            try:
                check_row(row)
            except KeyError as exc:
                raise DataValidationError(f"{path}:{line}: missing key {exc}") from None
            except (DataValidationError, ValueError, TypeError) as exc:
                raise DataValidationError(f"{path}:{line}: {exc}") from None
        raise


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """parse() of each non-blank line; every error names the file and line."""
    path = Path(path)
    with open_text(path) as fh:
        return _read_rows(path, _json_lines(path, fh), lambda rows: list(map(parse, rows)), parse)


def load_market_csv(path: str | Path) -> MarketColumns:
    """The bars of a csv whose header is exactly date,open,high,low,close,volume,
    as MarketColumns: each field is parsed a column at a time (dates ISO),
    then checked whole. A bad row is refused naming path and its line, with
    MarketBar's message, and dates out of order with check_dates_increasing's."""
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
        numbered = ((lineno, row) for lineno, row in enumerate(reader, start=2) if row)
        return _read_rows(path, numbered, lambda rows: MarketColumns(*_bar_fields(rows)),
                          lambda row: MarketBar(*(c[0] for c in _bar_fields([row]))))


def _bar_fields(rows: list[list[str]]) -> list[list]:
    """The six columns of csv rows, parsed: dates ISO, the rest floats."""
    if not set(map(len, rows)) <= {6}:
        raise DataValidationError(
            f"expected 6 fields, got {next(len(r) for r in rows if len(r) != 6)}")
    columns = list(zip(*rows)) or [()] * 6
    return [list(map(dt.date.fromisoformat, columns[0])),
            *(list(map(float, c)) for c in columns[1:])]


def check_dates_increasing(dates: Sequence[dt.date], where: str = "") -> None:
    """DataValidationError, prefixed by where, unless dates strictly increase."""
    if not all(map(operator.lt, dates[:-1], dates[1:])):
        i = next(i for i in range(1, len(dates)) if dates[i] <= dates[i - 1])
        raise DataValidationError(
            f"{where}dates must be strictly increasing: {dates[i - 1]} then {dates[i]}"
        )


# RawTextDoc and _parse_timestamp check timestamp, text and label, with their messages
_DOC_FIELDS = {"timestamp": object, "text": object, "source": str, "label": object}


def load_text_jsonl(path: str | Path) -> TextColumns:
    """One JSON object per line: timestamp, text, optional source and label,
    as TextColumns. Each line is decoded alone (_loads_line); each check then
    runs over a whole column (_text_columns). A bad row is refused naming
    path and its line, with the message _doc_from_obj gives it."""
    path = Path(path)
    with open_text(path) as fh:
        return _read_rows(path, _json_lines(path, fh), _text_columns, _doc_from_obj)


def _text_columns(objs: list) -> TextColumns:
    """TextColumns of decoded texts.jsonl rows, each of _doc_from_obj's
    checks run over a whole column. Any error means some row is bad, and
    _read_rows has _doc_from_obj word its refusal."""
    if not (_fits(list[dict])(objs) and set().union(*objs) <= _DOC_FIELDS.keys()
            and _fits(list[_DOC_FIELDS["source"]])([o.get("source", "") for o in objs])):
        raise DataValidationError("a row is not a texts.jsonl object")
    get = operator.itemgetter
    return TextColumns(list(map(_parse_timestamp, map(get("timestamp"), objs))),
                       list(map(get("text"), objs)), [o.get("label") for o in objs])


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
