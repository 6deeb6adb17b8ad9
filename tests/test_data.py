"""Ingestion, alignment, windowing, splits, and normalization contracts."""

import bisect
import datetime as dt
import gc
import json
import logging
import math
import sys
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentirisk import data as data_mod
from sentirisk import ingest
from sentirisk.data import (
    DEFAULT_RATIOS,
    AlignedDay,
    DayColumns,
    NormStats,
    PrepareConfig,
    PreparedDataset,
    Split,
    WindowColumns,
    WindowSample,
    _day_rows,
    _window_targets,
    load_prepared,
    prepare_dataset,
    save_prepared,
    split_chronological,
)
from sentirisk.errors import DataValidationError
from sentirisk.ingest import (
    MarketBar,
    MarketColumns,
    RawTextDoc,
    load_market_csv,
    load_text_jsonl,
)
from sentirisk.layers import pad_or_truncate
from sentirisk.model import ArchKind, DayTable, ModelConfig, build_model, day_table
from sentirisk.synthetic import make_ablation_dataset, make_demo_docs, make_demo_market
from sentirisk.text import Lexicon, Vocabulary
from sentirisk.train import TrainConfig, score_windows, train


def bar(day: dt.date, close: float = 100.0, volume: float = 1e6) -> MarketBar:
    lo = min(close, 100.0) - 1.0
    hi = max(close, 100.0) + 1.0
    return MarketBar(date=day, open=100.0, high=hi, low=lo, close=close, volume=volume)


def columns(bars: list[MarketBar]) -> MarketColumns:
    """bars as prepare_dataset reads them."""
    return ingest._as_columns(MarketColumns, bars)


def day_rows(bars: list[MarketBar], docs: list[tuple]) -> list[tuple]:
    """_day_rows of bars and documents given as (timestamp, token ids, class)."""
    timestamps, token_ids, labels = map(list, zip(*docs)) if docs else ([], [], [])
    return _day_rows(columns(bars), timestamps, token_ids, labels)


def weekdays(start: dt.date, n: int) -> list[dt.date]:
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def simple_rows(n: int, label: int = 1) -> list[tuple]:
    """n textless day rows (date, raw, token_seqs, label, close), as _day_rows
    gives them."""
    return [(d, (0.01 * i, 0.02, 0.001 * i, 13.0 + 0.1 * i), [], label, 100.0 + i)
            for i, d in enumerate(weekdays(dt.date(2024, 1, 2), n))]


def dataset_of_rows(stats: NormStats, rows: list[tuple], window: int, targets: list[tuple],
                    vocab: Vocabulary = Vocabulary({})) -> PreparedDataset:
    """The dataset of day rows (_day_rows) and window rows (_window_targets),
    built of their columns as prepare_dataset builds it: the last row is a
    target only, and not stored."""
    return PreparedDataset.of_columns(vocab, stats, window, DEFAULT_RATIOS,
                                      DayColumns(*zip(*rows[:-1])), WindowColumns(*zip(*targets)))


def windows_of(rows: list[tuple], window: int) -> tuple[WindowSample, ...]:
    """The samples prepare_dataset builds of day rows, with statistics fitted
    on every row."""
    stats = NormStats.fit([r[1] for r in rows])
    return dataset_of_rows(stats, rows, window, _window_targets(rows, window)).samples


def with_samples(ds: PreparedDataset, samples) -> PreparedDataset:
    """ds's vocabulary, stats, window and ratios over other window objects."""
    return PreparedDataset(ds.vocab, samples, ds.stats, ds.window, ds.ratios)


class TestMarketBar:
    def test_valid_bar_accepted(self):
        bar(dt.date(2024, 1, 2), close=101.0)

    def test_low_above_open_rejected(self):
        with pytest.raises(DataValidationError, match="low"):
            MarketBar(dt.date(2024, 1, 2), open=100, high=105, low=101, close=104,
                      volume=10)

    def test_high_below_close_rejected(self):
        with pytest.raises(DataValidationError, match="high"):
            MarketBar(dt.date(2024, 1, 2), open=100, high=102, low=99, close=103,
                      volume=10)

    def test_negative_volume_rejected(self):
        with pytest.raises(DataValidationError, match="volume"):
            MarketBar(dt.date(2024, 1, 2), open=100, high=101, low=99, close=100,
                      volume=-1)

    def test_nonpositive_price_rejected(self):
        with pytest.raises(DataValidationError):
            MarketBar(dt.date(2024, 1, 2), open=1.0, high=1.0, low=0.0, close=0.0,
                      volume=10)

    @pytest.mark.parametrize("field, value", [
        ("open", math.nan), ("high", math.inf), ("low", math.nan), ("close", -math.inf),
        ("volume", math.nan), ("volume", math.inf),
    ])
    def test_non_finite_value_rejected(self, field, value):
        # NaN fails every comparison, so the range checks alone let it through
        values = dict(open=100.0, high=101.0, low=99.0, close=100.0, volume=10.0)
        with pytest.raises(DataValidationError, match=f"{field} {value} is not finite"):
            MarketBar(dt.date(2024, 1, 2), **{**values, field: value})

    def test_finite_values_whose_sum_overflows_accepted(self):
        bar = MarketBar(dt.date(2024, 1, 2), open=1e308, high=1.7e308, low=0.9e308,
                        close=1.5e308, volume=1.7e308)
        assert math.isinf(bar.open + bar.high + bar.low + bar.close + bar.volume)


class TestRawTextDoc:
    def test_empty_text_rejected(self):
        with pytest.raises(DataValidationError):
            RawTextDoc(timestamp=dt.datetime(2024, 1, 2), text="", source="t")

    def test_non_string_text_rejected(self):
        for text in (5, ["x"], None):
            with pytest.raises(DataValidationError, match="must be a non-empty string"):
                RawTextDoc(timestamp=dt.datetime(2024, 1, 2), text=text, source="t")

    def test_bad_label_rejected(self):
        with pytest.raises(DataValidationError):
            RawTextDoc(timestamp=dt.datetime(2024, 1, 2), text="x", source="t",
                       label="bullish")


class TestLoadMarketCsv:
    HEADER = "date,open,high,low,close,volume\n"

    def test_parses_rows(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER + "2024-01-02,100,101,99,100.5,12000\n")
        bars = load_market_csv(p)
        assert len(bars) == 1
        assert bars.date == (dt.date(2024, 1, 2),)
        assert bars.close == (100.5,)

    def test_utf8_bom_tolerated(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf" + (self.HEADER + "2024-01-02,100,101,99,100,1\n").encode())
        assert len(load_market_csv(p)) == 1

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("date,open,high,low,close,vol\n2024-01-02,100,101,99,100,1\n")
        with pytest.raises(DataValidationError, match="header"):
            load_market_csv(p)

    def test_bad_row_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER + "2024-01-02,100,101,99,100,1\nnot-a-date,1,1,1,1,1\n")
        with pytest.raises(DataValidationError, match=":3:"):
            load_market_csv(p)

    def test_unsorted_dates_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER
                     + "2024-01-03,100,101,99,100,1\n2024-01-02,100,101,99,100,1\n")
        with pytest.raises(DataValidationError):
            load_market_csv(p)

    def test_duplicate_dates_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text(self.HEADER
                     + "2024-01-02,100,101,99,100,1\n2024-01-02,100,101,99,100,1\n")
        with pytest.raises(DataValidationError):
            load_market_csv(p)


class TestLoadTextJsonl:
    def test_parses_lines(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(
            json.dumps({"timestamp": "2024-01-02T09:30:00Z", "text": "hi",
                        "source": "x"}) + "\n"
            + json.dumps({"timestamp": "2024-01-03T00:00:00+01:00", "text": "yo",
                          "source": "y", "label": "positive"}) + "\n"
        )
        docs = load_text_jsonl(p)
        assert len(docs) == 2
        assert docs.timestamp[0] == dt.datetime(2024, 1, 2, 9, 30)
        # +01:00 offset converts to 23:00 UTC the previous day
        assert docs.timestamp[1] == dt.datetime(2024, 1, 2, 23, 0)
        assert docs.label == (None, "positive")

    def test_bad_json_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"timestamp": "2024-01-02T00:00:00", "text": "a", "source": "s"}\n{oops\n')
        with pytest.raises(DataValidationError, match=":2:"):
            load_text_jsonl(p)

    def test_missing_text_key_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text('{"timestamp": "2024-01-02T00:00:00", "source": "s"}\n')
        with pytest.raises(DataValidationError, match="missing key"):
            load_text_jsonl(p)

    ROW = {"timestamp": "2024-01-02T09:30:00", "text": "stocks up", "source": "x",
           "label": "positive"}
    # what each one-field change of ROW gives: None loads, a string is the error
    NOT_A_STRING = {
        "timestamp": lambda v: f"timestamp must be a string, got {type(v).__name__}",
        "text": lambda v: "document text must be a non-empty string",
        "source": lambda v: f"source must be a string, got {json.dumps(v)}",
        "label": lambda v: None if v is None else f"unknown label {v!r}",
    }

    @pytest.mark.parametrize("key", list(ROW))
    @pytest.mark.parametrize("value", [True, 2.5, "1", None, ["positive"]],
                             ids=["true", "float", "string", "null", "list"])
    def test_one_field_changed(self, tmp_path, key, value):
        expected = self.NOT_A_STRING[key](value)
        if value == "1":
            expected = {"timestamp": "Invalid isoformat string: '1'", "text": None,
                        "source": None, "label": "unknown label '1'"}[key]
        self.check(tmp_path, {**self.ROW, key: value}, expected)

    @pytest.mark.parametrize("key", list(ROW))
    def test_one_field_deleted(self, tmp_path, key):
        row = {k: v for k, v in self.ROW.items() if k != key}
        self.check(tmp_path, row, f"missing key '{key}'" if key in ("timestamp", "text")
                   else None)

    @pytest.mark.parametrize("row, expected", [
        ({**ROW, "lable": "negative"}, "unknown keys ['lable']"),
        (["x"], "not a json object"),
        ("x", "not a json object"),
    ], ids=["extra-key", "list", "string"])
    def test_malformed_row(self, tmp_path, row, expected):
        self.check(tmp_path, row, expected)

    def check(self, tmp_path, row, expected):
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(self.ROW) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
        if expected is None:
            assert len(load_text_jsonl(p)) == 2
        else:
            with pytest.raises(DataValidationError) as exc:
                load_text_jsonl(p)
            assert str(exc.value).startswith(f"{p}:2: {expected}")


class TestReadJsonl:
    """read_jsonl decodes a line as json.loads does: each line below gives the
    row, or the message, that json.loads on the line as the file yields it gives."""

    LINES = {
        "plain": '{"a": [1, 2.5, "x"]}',
        "leading-and-trailing-spaces": '  {"a": 1}  ',
        "crlf": '{"a": 1}\r\n',
        "blank": "",
        "whitespace-only": " \t ",
        "two-objects": "{} {}",
        "trailing-junk": "{}x",
        "trailing-form-feed": "{}\x0c",  # whitespace to str.strip, not to JSON
        "bom": "\ufeff{}",
        "nan": '{"a": NaN}',
        "raw-u2028-in-a-string": '{"a": "x\u2028y"}',
        "cut-off-object": '{"a": [1, 2',
    }

    @staticmethod
    def by_json_loads(path):
        """The rows, or the message, of read_jsonl written with json.loads per line."""
        rows = []
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    rows.append(json.loads(line))
                except json.JSONDecodeError as exc:
                    return f"{path}:{lineno}: bad json ({exc.msg})"
        return rows

    @pytest.mark.parametrize("name", list(LINES))
    def test_same_row_or_message_as_json_loads(self, tmp_path, name):
        line = self.LINES[name]
        path = tmp_path / "rows.jsonl"
        path.write_bytes(('{"first": true}\n' + line + ("" if line.endswith("\n") else "\n"))
                         .encode("utf-8"))
        expected = self.by_json_loads(path)
        try:
            got = ingest.read_jsonl(path, lambda obj: obj)
        except DataValidationError as exc:
            got = str(exc)
        assert repr(got) == repr(expected)  # repr: a NaN equals itself
        if name == "raw-u2028-in-a-string":
            assert got[1] == {"a": "x\u2028y"}


class TestDayRows:
    def doc(self, when: dt.datetime, label: int = 2) -> tuple:
        """A document as day_rows takes it: (timestamp, token ids, class)."""
        return when, (2, 3), label

    def test_weekend_doc_rolls_forward_to_monday(self):
        fri, mon = dt.date(2024, 1, 5), dt.date(2024, 1, 8)
        bars = [bar(fri), bar(mon)]
        sat_doc = self.doc(dt.datetime(2024, 1, 6, 14, 0))
        rows = day_rows(bars, [sat_doc])
        assert [(r[0], r[2]) for r in rows] == [(fri, ()), (mon, ((2, 3),))]

    def test_majority_vote(self):
        d = dt.date(2024, 1, 2)
        docs = [self.doc(dt.datetime(2024, 1, 2), label=lab) for lab in (2, 2, 0)]
        [(_, _, _, label, _)] = day_rows([bar(d)], docs)
        assert label == 2

    def test_tie_vote_is_neutral(self):
        d = dt.date(2024, 1, 2)
        docs = [self.doc(dt.datetime(2024, 1, 2), label=lab) for lab in (2, 0)]
        [(_, _, _, label, _)] = day_rows([bar(d)], docs)
        assert label == 1

    def test_day_without_docs_is_neutral_no_text(self):
        [(_, _, seqs, label, _)] = day_rows([bar(dt.date(2024, 1, 2))], [])
        assert label == 1
        assert seqs == ()

    def test_doc_after_last_bar_dropped_with_log(self, caplog):
        bars = [bar(dt.date(2024, 1, 2))]
        late = self.doc(dt.datetime(2024, 1, 9))
        with caplog.at_level(logging.INFO, logger="sentirisk.data"):
            [(_, _, seqs, _, _)] = day_rows(bars, [late])
        assert seqs == ()
        assert any("dropping document" in r.message for r in caplog.records)

    def test_unsorted_bars_rejected(self):
        bars = [bar(dt.date(2024, 1, 3)), bar(dt.date(2024, 1, 2))]
        with pytest.raises(DataValidationError):
            day_rows(bars, [])

    def test_duplicate_bar_dates_rejected(self):
        bars = [bar(dt.date(2024, 1, 2)), bar(dt.date(2024, 1, 2))]
        with pytest.raises(DataValidationError):
            day_rows(bars, [])

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 23), st.integers(0, 2)),
                    max_size=30))
    def test_same_rows_as_a_loop_over_the_documents(self, docs):
        # bars on weekdays from 2024-01-02; documents up to a week past the last bar
        bars = [bar(d) for d in weekdays(dt.date(2024, 1, 2), 4)]
        dates = [b.date for b in bars]
        triples = [(dt.datetime(2024, 1, 2, hour) + dt.timedelta(days=day), (day, hour), label)
                   for day, hour, label in docs]
        seqs, votes = [[] for _ in bars], [[0, 0, 0] for _ in bars]
        for when, ids, label in triples:  # the reference: one bisect per document
            if (row := bisect.bisect_left(dates, when.date())) < len(bars):
                seqs[row].append(ids)
                votes[row][label] += 1
        want = [(c.index(max(c)) if c.count(max(c)) == 1 else 1) for c in votes]
        rows = day_rows(bars, triples)
        assert [r[2] for r in rows] == list(map(tuple, seqs))
        assert [r[3] for r in rows] == want

    def test_raw_features(self):
        d1, d2 = dt.date(2024, 1, 2), dt.date(2024, 1, 3)
        b1 = MarketBar(d1, open=100, high=110, low=95, close=105, volume=999)
        b2 = MarketBar(d2, open=105, high=112, low=104, close=110, volume=500)
        rows = day_rows([b1, b2], [])
        logret, rng, gap, vol = rows[0][1]
        assert logret == 0.0  # first day has no previous close
        assert abs(rng - (110 - 95) / 105) < 1e-15
        assert abs(gap - (105 - 100) / 100) < 1e-15
        assert abs(vol - math.log1p(999)) < 1e-15
        assert abs(rows[1][1][0] - math.log(110 / 105)) < 1e-15


class TestWindowTargets:
    def test_count_rule(self):
        assert len(_window_targets(simple_rows(25), window=20)) == 5

    def test_boundary_single_sample(self):
        rows = simple_rows(21)
        assert [t[:2] for t in _window_targets(rows, window=20)] == [(0, rows[20][0])]
        [sample] = windows_of(rows, window=20)
        assert sample.target_date == rows[20][0]
        assert [d.date for d in sample.inputs] == [r[0] for r in rows[:20]]
        assert sample.prev_close == rows[19][4]

    def test_has_text_and_prev_close_follow_their_sources(self):
        # each is computed from the one stored fact, so no copy can disagree
        [sample] = windows_of(simple_rows(6), window=5)
        day = sample.inputs[4]
        with_text = replace(day, token_seqs=[[2, 3]])
        assert (day.has_text, with_text.has_text) == (False, True)
        assert not replace(with_text, token_seqs=[]).has_text
        moved = replace(sample, inputs=[*sample.inputs[:4], replace(day, close=123.0)])
        assert (sample.prev_close, moved.prev_close) == (day.close, 123.0)
        assert "has_text" not in {f.name for f in fields(AlignedDay)}
        assert "prev_close" not in {f.name for f in fields(WindowSample)}

    def test_exact_window_length_rejected(self):
        with pytest.raises(DataValidationError):
            _window_targets(simple_rows(20), window=20)

    def test_targets_come_from_next_day(self):
        rows = simple_rows(8)
        for t, (start, date, cls, ret, close) in enumerate(_window_targets(rows, window=5)):
            assert start == t
            assert (date, ret, cls, close) == (rows[t + 5][0], rows[t + 5][1][0],
                                               rows[t + 5][3], rows[t + 5][4])


class TestSplitChronological:
    def test_even_split(self):
        train, val, test = split_chronological(list(range(10)), (0.6, 0.2, 0.2))
        assert (train, val, test) == ([0, 1, 2, 3, 4, 5], [6, 7], [8, 9])

    def test_uneven_split_floor_boundaries(self):
        train, val, test = split_chronological(list(range(10)), (0.7, 0.15, 0.15))
        assert (len(train), len(val), len(test)) == (7, 1, 2)
        assert train + val + test == list(range(10))

    def test_matches_floor_allocation_oracle(self):
        for n in range(3, 60):
            for ratios in [(0.7, 0.15, 0.15), (0.6, 0.2, 0.2), (0.8, 0.1, 0.1)]:
                train, val, test = split_chronological(list(range(n)), ratios)
                want_train = math.floor(n * ratios[0])
                want_val = math.floor(n * (ratios[0] + ratios[1])) - want_train
                assert len(train) == want_train
                assert len(val) == want_val
                assert train + val + test == list(range(n))

    def test_zero_ratio_rejected(self):
        for ratios in ((1.0, 0.0, 0.0), (0.7, math.nan, 0.15), (math.inf, 0.15, 0.15)):
            with pytest.raises(DataValidationError, match="positive and finite"):
                split_chronological(list(range(10)), ratios)

    def test_bad_sum_rejected(self):
        with pytest.raises(DataValidationError):
            split_chronological(list(range(10)), (0.5, 0.2, 0.2))

    def test_splits_read_as_lists_do(self):
        train, val, test = split_chronological(list(range(10)), (0.6, 0.2, 0.2))
        assert all(type(part) is Split for part in (train, val, test))
        assert (len(train), train[0], train[-1], list(val), 7 in val) == (6, 0, 5, [6, 7], True)
        for joined, want in ((train + val, list(range(8))), (val + [10], [6, 7, 10]),
                             ([-1] + val, [-1, 6, 7]), (train[1:3], [1, 2])):
            assert type(joined) is list and joined == want
        assert val == [6, 7] and [6, 7] == val and val != [6] and val != (6, 7)

    def test_split_cannot_be_changed(self):
        _, val, _ = split_chronological(list(range(10)), (0.6, 0.2, 0.2))
        with pytest.raises(AttributeError):
            val.append(10)
        with pytest.raises(TypeError):
            val[0] = 10
        with pytest.raises(TypeError):
            del val[0]
        with pytest.raises(TypeError):
            hash(val)
        assert list(val) == [6, 7]


class TestNormStats:
    def test_train_features_z_scored(self):
        raws = [r[1] for r in simple_rows(50)]
        stats = NormStats.fit(raws)
        for k in range(4):
            vals = [(raw[k] - stats.means[k]) / stats.stds[k] for raw in raws]
            mean = sum(vals) / len(vals)
            var = sum(v * v for v in vals) / len(vals)
            assert abs(mean) < 1e-9
            if stats.stds[k] != 1.0:  # guarded constant column keeps raw spread
                assert abs(var - 1.0) < 1e-9

    def test_constant_column_uses_unit_std(self):
        stats = NormStats.fit([r[1] for r in simple_rows(10)])
        assert stats.stds[1] == 1.0  # range feature is constant in simple_rows

    def test_normalize_day_appends_text_indicator(self):
        raws = [r[1] for r in simple_rows(10)]
        stats = NormStats.fit(raws)
        features = stats.normalize_days(raws, [i == 1 for i in range(10)])
        assert features.shape == (10, 5)
        assert features[:2, 4].tolist() == [0.0, 1.0]
        for raw, row in zip(raws, features):  # the bits a loop of floats gives
            loop = [(v - m) / s for v, m, s in zip(raw, stats.means, stats.stds)]
            assert row[:4].tobytes() == np.array(loop).tobytes()

    def test_return_round_trip(self):
        stats = NormStats.fit([r[1] for r in simple_rows(10)])
        for raw in (-0.05, 0.0, 0.031):
            z = stats.normalize_return(raw)
            assert abs(stats.denormalize_return(z) - raw) < 1e-12

    @pytest.mark.parametrize("means, stds, message", [
        ((0.0,) * 4, (1.0, 1.0), "stds must be 4 finite positive numbers"),
        ((math.nan, 0.0, 0.0, 0.0), (1.0,) * 4, "means must be 4 finite numbers"),
        ((0.0,) * 4, (0.0, 1.0, 1.0, 1.0), "stds must be 4 finite positive numbers"),
        ((0.0,) * 4, (1.0, -0.02, 1.0, 1.0), "stds must be 4 finite positive numbers"),
        ((0.0,) * 4, (1.0, 1.0, math.inf, 1.0), "stds must be 4 finite positive numbers"),
    ], ids=["two-stds", "nan-mean", "zero-std", "negative-std", "inf-std"])
    def test_bad_stats_rejected(self, means, stds, message):
        with pytest.raises(DataValidationError, match=message):
            NormStats(means=means, stds=stds)


def build_corpus(n_days: int):
    lex = Lexicon(positive=frozenset({"up"}), negative=frozenset({"down"}))
    dates = weekdays(dt.date(2024, 1, 2), n_days)
    bars = []
    prev = 100.0
    for i, d in enumerate(dates):
        close = prev * (1.0 + 0.01 * math.sin(i * 0.7))
        lo = min(prev, close) * 0.99
        hi = max(prev, close) * 1.01
        bars.append(MarketBar(d, open=prev, high=hi, low=lo, close=close,
                              volume=1e6 + 1e4 * i))
        prev = close
    docs = []
    words = ["up", "down", "flat market today", "volume heavy up up",
             "down down selloff"]
    for i, d in enumerate(dates):
        if i % 3 != 2:  # leave every third day textless
            docs.append(RawTextDoc(
                timestamp=dt.datetime(d.year, d.month, d.day, 10, 0),
                text=words[i % len(words)],
                source="unit",
            ))
    return bars, docs, lex


class TestPrepareDataset:
    CFG = PrepareConfig(window=5, ratios=(0.6, 0.2, 0.2))

    def prepared(self, n_days=30):
        bars, docs, lex = build_corpus(n_days)
        return prepare_dataset(bars, docs, lex, self.CFG)

    def test_sample_count(self):
        ds = self.prepared()
        assert len(ds.samples) == 30 - 5

    def test_splits_are_made_once_and_join_to_the_samples(self):
        ds = self.prepared()
        splits = ds.splits()
        assert all(a is b for a, b in zip(ds.splits(), splits))
        train, val, test = splits
        assert type(train + val + test) is list
        assert train + val + test == list(ds.samples)

    def test_prepared_dataset_refuses_assignment(self):
        ds = self.prepared()
        assert type(ds.samples) is tuple
        with pytest.raises(FrozenInstanceError):
            ds.samples = list(ds.samples)
        with pytest.raises(FrozenInstanceError):
            ds.ratios = (0.8, 0.1, 0.1)
        again = PreparedDataset(ds.vocab, list(ds.samples), ds.stats, ds.window, ds.ratios)
        assert type(again.samples) is tuple and again == ds

    def test_split_sizes_and_order(self):
        ds = self.prepared()
        train, val, test = ds.splits()
        assert (len(train), len(val), len(test)) == (15, 5, 5)
        dates = [s.target_date for s in train + val + test]
        assert dates == sorted(dates)

    def test_no_target_leakage_across_boundary(self):
        ds = self.prepared()
        train, val, _ = ds.splits()
        max_train_input = max(d.date for s in train for d in s.inputs)
        min_val_target = min(s.target_date for s in val)
        assert max_train_input < min_val_target

    def test_stats_recomputable_from_train_span_only(self):
        ds = self.prepared()
        train, _, _ = ds.splits()
        # reconstruct the chronological day list the samples were cut from
        days = list(ds.samples[0].inputs) + [s.inputs[-1] for s in ds.samples[1:]]
        span = days[: len(train) + ds.window]
        assert NormStats.fit([d.raw for d in span]) == ds.stats

    def test_normalized_returns_match_stats(self):
        ds = self.prepared()
        for s in ds.samples:
            assert s.target_return == ds.stats.normalize_return(s.target_return_raw)

    def test_empty_train_split_rejected(self):
        bars, docs, lex = build_corpus(7)
        with pytest.raises(DataValidationError):
            prepare_dataset(bars, docs, lex, PrepareConfig(window=5,
                                                           ratios=(0.3, 0.35, 0.35)))

    @staticmethod
    def days_by_date(ds):
        return {d.date: d for s in ds.samples for d in s.inputs}

    @staticmethod
    def url_post(day: dt.date, label=None) -> RawTextDoc:
        return RawTextDoc(timestamp=dt.datetime(day.year, day.month, day.day, 11, 0),
                          text="https://t.co/abc", source="unit", label=label)

    def test_document_without_tokens_dropped(self, caplog):
        # a bare URL cleans to no tokens; beside "up" it would tie the day's
        # label vote to neutral and halve its mean text vector
        bars, docs, lex = build_corpus(30)
        day = bars[0].date
        assert docs[0].text == "up" and docs[0].timestamp.date() == day
        want = prepare_dataset(bars, docs, lex, self.CFG)
        with caplog.at_level(logging.INFO, logger="sentirisk.data"):
            got = prepare_dataset(bars, docs + [self.url_post(day, label="negative")],
                                  lex, self.CFG)
        assert "dropping 1 documents with no tokens" in caplog.text
        a, b = self.days_by_date(want)[day], self.days_by_date(got)[day]
        assert (b.token_seqs, b.label, b.has_text) == (a.token_seqs, a.label, a.has_text)
        assert b.features == a.features
        assert got.vocab == want.vocab
        assert_same_samples(got.samples, want.samples)

    def test_day_with_only_a_tokenless_post_has_no_text(self):
        bars, docs, lex = build_corpus(30)
        day = bars[2].date  # every third day of the corpus has no posts
        assert all(d.timestamp.date() != day for d in docs)
        got = self.days_by_date(
            prepare_dataset(bars, docs + [self.url_post(day)], lex, self.CFG))[day]
        assert not got.has_text
        assert got.token_seqs == ()


def assert_same_samples(loaded, original):
    assert len(loaded) == len(original)
    for a, b in zip(loaded, original):
        assert a.target_date == b.target_date
        assert a.target_class == b.target_class
        assert a.target_return == b.target_return  # json float round-trip is exact
        assert a.target_return_raw == b.target_return_raw
        assert a.target_close == b.target_close
        assert a.prev_close == b.prev_close
        assert len(a.inputs) == len(b.inputs)
        for da, db in zip(a.inputs, b.inputs):
            assert da.date == db.date
            assert da.raw == db.raw
            assert da.token_seqs == db.token_seqs
            assert da.label == db.label
            assert da.has_text == db.has_text
            assert da.close == db.close
            assert da.features == db.features


def read_columns(path):
    return json.loads(path.read_text(encoding="utf-8"))


class TestPreparedRoundTrip:
    def test_save_then_load_preserves_everything(self, tmp_path):
        bars, docs, lex = build_corpus(30)
        ds = prepare_dataset(bars, docs, lex, PrepareConfig(window=5,
                                                            ratios=(0.6, 0.2, 0.2)))
        out = tmp_path / "prepared"
        save_prepared(ds, out)
        assert sorted(p.name for p in out.iterdir()) == [
            "days.json", "norm_stats.json", "vocab.txt", "windows.json",
        ]

        again = load_prepared(out)
        assert again.vocab.token_to_id == ds.vocab.token_to_id
        assert again.stats == ds.stats
        assert again.window == ds.window
        assert tuple(again.ratios) == tuple(ds.ratios)
        assert_same_samples(again.samples, ds.samples)

        # each day is stored once and loaded once, shared by every window holding it
        dates = {d.date for s in ds.samples for d in s.inputs}
        stored = read_columns(out / "days.json")["date"]
        assert sorted(stored) == sorted(d.isoformat() for d in dates)
        assert len({id(d) for s in again.samples for d in s.inputs}) == len(dates)
        meta = json.loads((out / "norm_stats.json").read_text(encoding="utf-8"))
        assert (meta["format_version"], meta["n_days"], meta["n_samples"]) == (
            4, len(dates), len(ds.samples))

    def test_ablation_dataset_round_trip(self, tmp_path):
        # its target_class counts positive days over the window, so unlike
        # prepare_dataset's it is not the target day's label
        samples, vocab_size = make_ablation_dataset(n_days=60)
        vocab = Vocabulary({f"tok{i}": i for i in range(2, vocab_size)})
        ds = PreparedDataset(vocab, samples, NormStats(means=(0.0,) * 4, stds=(1.0,) * 4),
                             window=20, ratios=(0.7, 0.15, 0.15))
        save_prepared(ds, tmp_path)
        again = load_prepared(tmp_path)
        assert_same_samples(again.samples, samples)
        assert len(read_columns(tmp_path / "days.json")["date"]) == 60 - 1  # last: a target only

    def test_windows_holding_copies_of_days_round_trip(self, tmp_path):
        bars, docs, lex = build_corpus(20)
        ds = prepare_dataset(bars, docs, lex, PrepareConfig(window=5,
                                                            ratios=(0.6, 0.2, 0.2)))
        copies = [replace(s, inputs=[replace(d) for d in s.inputs]) for s in ds.samples]
        save_prepared(with_samples(ds, copies), tmp_path)
        # equal copies of a day are one fact: one entry per date
        dates = read_columns(tmp_path / "days.json")["date"]
        assert dates == sorted({d.date.isoformat() for s in ds.samples for d in s.inputs})
        assert_same_samples(load_prepared(tmp_path).samples, ds.samples)

    @pytest.mark.parametrize("source", ["demo", "ablation"])
    def test_derived_fields_load_bit_for_bit(self, tmp_path, source):
        if source == "demo":
            ds = prepare_dataset(*build_corpus(40), PrepareConfig(window=5,
                                                                 ratios=(0.6, 0.2, 0.2)))
        else:  # identity statistics over the generator's normalized features
            samples, vocab_size = make_ablation_dataset(n_days=60, seed=2)
            ds = PreparedDataset(Vocabulary({f"tok{i}": i for i in range(2, vocab_size)}),
                                 samples, NormStats(means=(0.0,) * 4, stds=(1.0,) * 4),
                                 window=20, ratios=(0.7, 0.15, 0.15))
        save_prepared(ds, tmp_path)
        assert not {"features", "has_text"} & set(read_columns(tmp_path / "days.json"))
        assert not {"days", "target_return", "prev_close"} & set(
            read_columns(tmp_path / "windows.json"))
        again = load_prepared(tmp_path)
        for a, b in zip(again.samples, ds.samples):
            assert np.array([a.target_return, a.prev_close]).tobytes() == np.array(
                [b.target_return, b.prev_close]).tobytes()
            for da, db in zip(a.inputs, b.inputs):
                assert np.array(da.features).tobytes() == np.array(db.features).tobytes()
                assert da.has_text is db.has_text

    def refused(self, tmp_path, ds, samples, message):
        # the dataset refuses the windows it is built of, before anything is written
        with pytest.raises(DataValidationError, match=message):
            save_prepared(with_samples(ds, samples), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.fixture
    def demo(self):
        return prepare_dataset(*build_corpus(20), PrepareConfig(window=5,
                                                               ratios=(0.6, 0.2, 0.2)))

    def test_two_days_with_one_date_refused(self, tmp_path, demo):
        first = demo.samples[0]
        other = replace(first.inputs[1], close=first.inputs[1].close + 1.0)
        samples = [replace(first, inputs=[first.inputs[0], other, *first.inputs[2:]]),
                   *demo.samples[1:]]
        self.refused(tmp_path, demo, samples,
                     f"two different days dated {other.date}")

    @pytest.mark.parametrize("inputs", [lambda days: days[4:6] + days[7:10],
                                        lambda days: [days[5], days[4], *days[6:9]]],
                             ids=["gap", "out-of-order"])
    def test_window_not_a_run_of_consecutive_days_refused(self, tmp_path, demo, inputs):
        days = [*(s.inputs[0] for s in demo.samples), *demo.samples[-1].inputs[1:]]
        s = demo.samples[4]
        samples = [*demo.samples[:4], replace(s, inputs=inputs(days)), *demo.samples[5:]]
        self.refused(tmp_path, demo, samples,
                     f"window for {s.target_date} is not a run of 5 consecutive days")

    @pytest.mark.parametrize("row", [None, 6, 8],
                             ids=["before-every-day", "last-input-day", "past-the-next-day"])
    def test_target_date_outside_its_slot_refused(self, tmp_path, demo, row):
        days = [*(s.inputs[0] for s in demo.samples), *demo.samples[-1].inputs[1:]]
        s = demo.samples[2]  # rows 2..6; its target is row 7
        assert s.target_date == days[7].date
        date = dt.date(2000, 1, 1) if row is None else days[row].date
        samples = [*demo.samples[:2], replace(s, target_date=date), *demo.samples[3:]]
        self.refused(tmp_path, demo, samples,
                     f"target_date {date} must be after the window's last day {days[6].date} "
                     f"and not after {days[7].date}")

    @pytest.mark.parametrize("field", ["features", "target_return"])
    def test_stored_copy_other_than_its_derivation_refused(self, tmp_path, demo, field):
        s = demo.samples[2]
        day = s.inputs[0]
        if field == "features":
            edited = replace(day, features=(-day.features[0], *day.features[1:]))
            samples = [replace(w, inputs=[edited if d is day else d for d in w.inputs])
                       for w in demo.samples]
            where = f"day {day.date}: features"
        else:
            samples = [*demo.samples[:2], replace(s, target_return=s.target_return + 1e-9),
                       *demo.samples[3:]]
            where = f"window for {s.target_date}: target_return"
        self.refused(tmp_path, demo, samples, where)

    @pytest.mark.parametrize("cls", [-1, 3])
    @pytest.mark.parametrize("field", ["label", "target_class"])
    def test_class_outside_the_three_refused_where_built(self, tmp_path, demo, field, cls):
        # CLASS_NAMES[-1] would store a -1 as "positive", and a 3 as nothing
        s = demo.samples[2]
        day = s.inputs[0]

        def edited():
            if field == "label":
                return [replace(w, inputs=[replace(d, label=cls) if d is day else d
                                           for d in w.inputs]) for w in demo.samples]
            return [*demo.samples[:2], replace(s, target_class=cls), *demo.samples[3:]]

        where = (f"day {day.date}: label {cls}" if field == "label"
                 else f"window for {s.target_date}: target_class {cls}")
        with pytest.raises(DataValidationError, match=f"{where} is not a class index"):
            save_prepared(with_samples(demo, edited()), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_failed_write_leaves_the_previous_directory(self, tmp_path, demo, monkeypatch):
        out = tmp_path / "prepared"
        save_prepared(demo, out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        real = data_mod.atomic_write

        @contextmanager
        def failing(path):
            with real(path) as fh:
                if Path(path).name == "windows.json":
                    raise OSError("disk full")
                yield fh

        monkeypatch.setattr(data_mod, "atomic_write", failing)
        shorter = prepare_dataset(*build_corpus(15), PrepareConfig(window=5,
                                                                  ratios=(0.6, 0.2, 0.2)))
        with pytest.raises(OSError, match="disk full"):
            save_prepared(shorter, out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert_same_samples(load_prepared(out).samples, demo.samples)

    def test_write_into_a_missing_directory_names_the_target(self, tmp_path):
        target = tmp_path / "nodir" / "m.ckpt.json"
        with pytest.raises(FileNotFoundError) as info:
            with data_mod.atomic_write(target) as fh:
                fh.write("never written")
        assert info.value.filename == str(target)
        assert ".tmp" not in str(info.value)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises((DataValidationError, OSError)):
            load_prepared(tmp_path / "nope")


GOLDEN = Path(__file__).parent / "fixtures" / "golden_prepare"
PREPARED_FILES = ("days.json", "norm_stats.json", "vocab.txt", "windows.json")


def read_files(path: Path) -> dict[str, bytes]:
    return {name: (path / name).read_bytes() for name in PREPARED_FILES}


def golden_format_4() -> dict[str, bytes]:
    """The golden format-3 directory's facts in format 4: each days.jsonl and
    windows.jsonl row's fields as entries of their columns, re-encoded by
    json.dumps with compact separators, which writes every float by its
    shortest round-trip repr, so equal bytes mean the same facts bit for bit."""
    prepared = GOLDEN / "prepared"
    files = {}
    for name in ("days", "windows"):
        rows = [json.loads(line) for line in
                (prepared / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()]
        files[f"{name}.json"] = (json.dumps({key: [row[key] for row in rows]
                                             for key in rows[0]},
                                            separators=(",", ":")) + "\n").encode()
    meta = (prepared / "norm_stats.json").read_bytes()
    assert meta.count(b'"format_version": 3,') == 1
    files["norm_stats.json"] = meta.replace(b'"format_version": 3,', b'"format_version": 4,')
    files["vocab.txt"] = (prepared / "vocab.txt").read_bytes()
    return files


def write_golden_format_4(out: Path) -> Path:
    out.mkdir(parents=True)
    for name, content in golden_format_4().items():
        (out / name).write_bytes(content)
    return out


class TestGoldenPrepared:
    """fixtures/golden_prepare holds a 30-day raw corpus (a URL, $TICKERs, a
    timestamp in UTC and one with an offset, presupplied labels, two documents
    with no tokens, weekend posts and one past the last bar) and the format-3
    directory `sentirisk prepare` made of it before prepare and load were
    rewritten to split each document once and check each row in one pass. Its
    rows are the reference for the facts format 4 stores as columns."""

    def test_prepare_writes_the_golden_facts(self, tmp_path):
        from sentirisk.cli import main

        assert main(["prepare", "--data-dir", str(GOLDEN / "raw"),
                     "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(PREPARED_FILES)
        assert read_files(tmp_path) == golden_format_4()

    def test_load_then_save_rewrites_the_golden_files(self, tmp_path):
        golden = write_golden_format_4(tmp_path / "golden")
        save_prepared(load_prepared(golden), tmp_path / "again")
        assert read_files(tmp_path / "again") == read_files(golden)

    def test_format_3_directory_is_refused(self):
        with pytest.raises(DataValidationError,
                           match=r"format 3 is not supported, expected 4; re-run `sentirisk "
                                 r"prepare`"):
            load_prepared(GOLDEN / "prepared")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308]
finite_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                          st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def prepared_datasets(draw) -> PreparedDataset:
    """A dataset whose days may have no documents (all of them, when market_only
    is drawn) or one-token documents, whose raw values and targets include -0.0,
    subnormals and 1e308, and that may hold a single window."""
    window, n_windows = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    vocab_size = draw(st.integers(2, 6))
    docs = st.lists(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=3),
                    max_size=0 if draw(st.booleans()) else 2)
    date = dt.date(2020, 1, 1)
    rows = []
    for _ in range(window + n_windows):
        date += dt.timedelta(days=draw(st.integers(1, 4)))
        rows.append((date, tuple(draw(st.lists(finite_floats, min_size=4, max_size=4))),
                     draw(docs), draw(st.integers(0, 2)), draw(finite_floats)))
    targets = [(t, rows[t + window][0], draw(st.integers(0, 2)), draw(finite_floats),
                draw(finite_floats)) for t in range(n_windows)]
    stats = NormStats(means=(0.0,) * 4, stds=(1.0,) * 4)  # no overflow at 1e308
    return dataset_of_rows(stats, rows, window, targets,
                           Vocabulary({f"t{i}": i for i in range(2, vocab_size)}))


@settings(max_examples=60, deadline=None)
@given(prepared_datasets())
def test_save_load_save_writes_the_same_bytes(ds):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "first", Path(tmp) / "second"
        save_prepared(ds, first)
        again = load_prepared(first)
        save_prepared(again, second)
        assert read_files(second) == read_files(first)
        assert_same_samples(again.samples, ds.samples)
        # column files with the default separators, a space after each "," and
        # ":", as earlier versions wrote them, load to the same dataset
        spaced, third = Path(tmp) / "spaced", Path(tmp) / "third"
        spaced.mkdir()
        for name in PREPARED_FILES:
            content = (first / name).read_bytes()
            if name in ("days.json", "windows.json"):
                content = (json.dumps(json.loads(content)) + "\n").encode()
            (spaced / name).write_bytes(content)
        assert read_files(spaced) != read_files(first)
        from_spaced = load_prepared(spaced)
        assert from_spaced == again
        save_prepared(from_spaced, third)
        assert read_files(third) == read_files(first)


def python_calls(fn, *args) -> tuple[int, int]:
    """The Python function calls fn(*args) makes, fn's own included, and how
    many of them are of functions defined in sentirisk: the "call" events of
    sys.setprofile, which counts no call of a C function. The collector is
    off meanwhile, so no gc.callbacks entry (hypothesis installs one) is
    counted."""
    package = str(Path(data_mod.__file__).parent)
    calls = own = 0

    def count(frame, event, arg):
        nonlocal calls, own
        if event == "call":
            calls += 1
            own += frame.f_code.co_filename.startswith(package)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls, own


class TestFixedCalls:
    """save_prepared writes and load_prepared checks each column whole, in
    passes that run in C: the Python calls they make, sentirisk's and the
    libraries', do not grow with the days (the 60- and 600-day demos, and
    the score workload's 1,020 days)."""

    DAYS = (60, 600, 1020)

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory) -> dict[int, tuple[PreparedDataset, Path]]:
        out = {}
        for n_days in self.DAYS:
            bars = make_demo_market(n_days=n_days, seed=3)
            ds = prepare_dataset(bars, make_demo_docs(bars, seed=4), Lexicon.bundled(),
                                 PrepareConfig())
            path = tmp_path_factory.mktemp(f"demo-{n_days}")
            save_prepared(ds, path)
            out[n_days] = ds, path
        load_prepared(path)  # the first load fills _fits' cache
        return out

    def test_load_prepared(self, saved):
        calls = {n: python_calls(load_prepared, path) for n, (_, path) in saved.items()}
        assert calls[60] == calls[600] == calls[1020], calls
        assert calls[1020][1] <= 300, calls  # sentirisk's own, whatever the libraries make

    def test_save_prepared(self, saved, tmp_path):
        calls = {n: python_calls(save_prepared, ds, tmp_path / str(n))
                 for n, (ds, _) in saved.items()}
        assert calls[60] == calls[600] == calls[1020], calls
        assert all(read_files(tmp_path / str(n)) == read_files(path)
                   for n, (_, path) in saved.items())


def fits_by_definition(hint, value) -> bool:
    """check_fields' type rule, item by item: a list fits when each item does."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return type(value) is list and all(fits_by_definition(args[0], v) for v in value)
    if args:
        return any(fits_by_definition(h, value) for h in args)
    return type(value) in ({int, float} if hint is float else {hint})


def with_entries(*edits):
    """A change of a columns object that sets entry row of column key to value, or
    to value(old entry) when value is a function, for each (key, row, value)."""
    def change(cols):
        for key, row, value in edits:
            cols[key][row] = value(cols[key][row]) if callable(value) else value
        return cols
    return change


class TestPreparedColumnChecks:
    """Each one-entry change of a column of the golden days.json or windows.json
    gives _fits' message for its column, or a later check's, naming the path,
    the column and the 0-based row; a deleted column is named too."""

    VALUES = [True, 2.5, "1", None, [1]]
    # the changes whose value fits the column's type: a later check speaks, or it loads
    PAST_THE_TYPES = {
        ("date", "1"): "Invalid isoformat string: '1'",
        ("raw", (1,)): "must be 4 finite numbers, got [1]",
        ("close", 2.5): None,
        ("label", "1"): "unknown class '1'",
        ("target_date", "1"): "Invalid isoformat string: '1'",
        ("target_class", "1"): "unknown class '1'",
        ("target_return_raw", 2.5): None,
        ("target_close", 2.5): None,
    }
    COLUMNS = {**data_mod._DAY_COLUMNS, **data_mod._WINDOW_COLUMNS}

    @pytest.mark.parametrize("hint", sorted({*COLUMNS.values(),
                                             *(list[h] for h in COLUMNS.values()),
                                             str | None}, key=str))
    def test_fits_is_its_definition(self, hint):
        values = [*self.VALUES, False, 2, -0.0, "", {}, [], [2.5], [True], [None], [[]],
                  [[1, 2]], [[1, True]], [[1], 2], [[1.0]], [[1], [2.5]], ["a"],
                  [[[1]], [[2, 3], []]], [[[1]], [[2, True]]], [[[1]], [2]], [[[1]], 2],
                  [[1.5, 2], [0.0]], [[1.5], 2.0]]
        for v in values:
            assert ingest._fits(hint)(v) == fits_by_definition(hint, v), v

    def load(self, tmp_path, name, change):
        """load_prepared's error, without the path, or its samples, for the golden
        directory (format 4) whose name holds change() of its columns."""
        prepared = write_golden_format_4(tmp_path / "prepared")
        cols = json.loads((prepared / name).read_text(encoding="utf-8"))
        (prepared / name).write_text(json.dumps(change(cols)), encoding="utf-8")
        try:
            return load_prepared(prepared).samples
        except DataValidationError as exc:
            prefix = f"{prepared / name}: "
            assert str(exc).startswith(prefix)
            return str(exc).removeprefix(prefix)

    def test_target_dates_are_checked_whole_and_refused_at_the_first_bad_row(self, tmp_path):
        # the golden windows start at rows 0..9 of 29 days, 20 days each: the
        # last window ends at the last stored day, so only a lower bound holds
        days = json.loads(golden_format_4()["days.json"])["date"]
        assert self.load(tmp_path / "future", "windows.json",
                         with_entries(("target_date", 9, "2030-01-01")))[-1].target_date == (
            dt.date(2030, 1, 1))
        assert self.load(tmp_path / "last", "windows.json",
                         with_entries(("target_date", 9, days[28]))) == (
            f"target_date[9]: target_date {days[28]} must be after the window's last day "
            f"{days[28]}")
        assert self.load(tmp_path / "two", "windows.json",
                         with_entries(("target_date", 7, days[29 - 3]),
                                      ("target_date", 3, days[24]))) == (
            f"target_date[3]: target_date {days[24]} must be after the window's last day "
            f"{days[22]} and not after {days[23]}")

    @pytest.mark.parametrize("name, row, hints", [
        ("days.json", 1, data_mod._DAY_COLUMNS), ("windows.json", 2, data_mod._WINDOW_COLUMNS)])
    def test_each_entry_set_to_each_kind_or_column_deleted(self, tmp_path, name, row, hints):
        for key, hint in hints.items():
            for value in self.VALUES:
                got = self.load(tmp_path / f"{key}-{value}", name,
                                with_entries((key, row, value)))
                frozen = tuple(value) if isinstance(value, list) else value
                if fits_by_definition(hint, value):
                    expected = self.PAST_THE_TYPES[key, frozen]
                    assert (got == f"{key}[{row}]: {expected}" if expected
                            else isinstance(got, tuple))
                else:
                    assert got == (f"{key}[{row}]: must be {ingest._type_name(hint)}, "
                                   f"got {json.dumps(value)}")
            got = self.load(tmp_path / f"{key}-deleted", name,
                            lambda cols: {k: v for k, v in cols.items() if k != key})
            assert got == f"missing column {key!r}"

    @pytest.mark.parametrize("name, change, message", [
        ("days.json", lambda cols: {**cols, "extra": [1] * len(cols["date"])},
         "unknown keys ['extra']"),
        ("windows.json", lambda cols: {**cols, "extra": []}, "unknown keys ['extra']"),
        ("days.json", with_entries(("token_seqs", 1, [[True, 3]])),
         "token_seqs[1]: must be a list of lists of integers, got [[true, 3]]"),
        ("days.json", with_entries(("token_seqs", 1, [[2, 3.0]])),
         "token_seqs[1]: must be a list of lists of integers, got [[2, 3.0]]"),
        ("days.json", with_entries(("token_seqs", 1, [[2, 3], 4])),
         "token_seqs[1]: must be a list of lists of integers, got [[2, 3], 4]"),
        ("days.json", with_entries(("raw", 1, lambda raw: [*raw[:3], False])),
         "raw[1]: must be a list of numbers, got ["),
        ("days.json", with_entries(("raw", 1, [0.5, 0.25, 2.0])),
         "raw[1]: must be 4 finite numbers, got [0.5, 0.25, 2.0]"),
        ("days.json", with_entries(("token_seqs", 1, [[2, 109]])),  # vocab.txt: 107 tokens
         "token_seqs[1]: token id 109 out of range for vocab of 109"),
        ("days.json", lambda cols: list(cols.values()), "not a json object"),
        ("windows.json", lambda cols: "start", "not a json object"),
        ("days.json", lambda cols: {**cols, "close": {"0": 100.0}},
         "close must be a list, got a json object"),
        ("windows.json", lambda cols: {**cols, "start": None}, "start must be a list, got null"),
    ], ids=["days-extra-column", "windows-extra-column", "bool-token", "float-token",
            "int-in-token-seqs", "bool-raw", "three-raw-values", "token-id-past-vocab",
            "days-list", "windows-string", "object-column", "null-column"])
    def test_malformed_entry_or_column(self, tmp_path, name, change, message):
        assert self.load(tmp_path, name, change).startswith(message)

    @pytest.mark.parametrize("name, change, message", [
        # several faults in one column: its first bad row, whatever the faults' kinds
        ("days.json", with_entries(("raw", 5, [True, 0.0, 0.0, 0.0]),
                                   ("raw", 2, [math.nan, 0.0, 0.0, 0.0])),
         "raw[2]: must be 4 finite numbers, got [NaN, 0.0, 0.0, 0.0]"),
        ("days.json", with_entries(("date", 6, "soon"), ("date", 3, "2022-01-04")),
         "date[3]: dates must be strictly increasing: 2022-01-05 then 2022-01-04"),
        ("days.json", with_entries(("close", 2, "100"), ("close", 1, math.inf)),
         "close[1]: must be finite, got Infinity"),
        # faults in several columns: the first column in the file's order
        ("days.json", with_entries(("token_seqs", 0, [[99999]]), ("label", 4, "bogus")),
         "label[4]: unknown class 'bogus'"),
        ("days.json", lambda cols: with_entries(("token_seqs", 0, [[99999]]))(
            {**cols, "label": cols["label"][:-1]}),
         "label has 28 entries, "),
        ("windows.json", with_entries(("target_close", 0, math.nan), ("start", 7, 99)),
         "start[7]: must lie in [0, 9], got 99"),
    ], ids=["raw-value-before-type", "date-order-before-format", "close-value-before-type",
            "label-before-token_seqs", "label-length-before-token_seqs", "start-before-close"])
    def test_first_column_then_first_row(self, tmp_path, name, change, message):
        assert self.load(tmp_path, name, change).startswith(message)

    def test_valid_edge_entries_load_exactly(self, tmp_path):
        def day(case, *edits):
            return self.load(tmp_path / case, "days.json", with_entries(*edits))[0].inputs[0]

        ints = day("ints", ("close", 0, 102), ("raw", 0, [0, 1, -0.0, 13]))
        assert (ints.close, ints.raw) == (102.0, (0.0, 1.0, -0.0, 13.0))
        assert {type(v) for v in (ints.close, *ints.raw)} == {float}
        assert math.copysign(1.0, ints.raw[2]) == -1.0
        assert not day("no-documents", ("token_seqs", 0, [])).has_text
        assert day("last-token-id", ("token_seqs", 0, [[0, 108]])).token_seqs == ((0, 108),)
        target = self.load(tmp_path / "w", "windows.json", with_entries(
            ("target_close", 0, 97), ("target_return_raw", 0, -0.0)))[0]
        assert type(target.target_close) is float and target.target_close == 97.0
        assert math.copysign(1.0, target.target_return_raw) == -1.0


def long_doc_corpus():
    """build_corpus(30) plus one 40-token document on day 10."""
    bars, docs, lex = build_corpus(30)
    d = bars[10].date
    long_doc = RawTextDoc(timestamp=dt.datetime(d.year, d.month, d.day, 11, 0),
                          text=" ".join(f"w{i}" for i in range(40)), source="unit")
    return bars, docs + [long_doc], lex


def tiny_model_config(vocab_size: int, max_doc_len: int) -> ModelConfig:
    return ModelConfig(vocab_size=vocab_size, embed_dim=3, num_filters=2, kernel_width=2,
                       conv_stride=1, gru_hidden=2, window=5, max_doc_len=max_doc_len, seed=3)


class TestDocumentLength:
    """prepare stores every token id it reads; only the model pads and truncates."""

    CFG = PrepareConfig(window=5, ratios=(0.6, 0.2, 0.2))

    def test_prepare_keeps_every_id_of_a_long_document(self, tmp_path):
        ds = prepare_dataset(*long_doc_corpus(), self.CFG)
        save_prepared(ds, tmp_path)
        stored = [seq for seqs in read_columns(tmp_path / "days.json")["token_seqs"]
                  for seq in seqs]
        assert max(len(seq) for seq in stored) == 40
        assert all(tok != 0 for seq in stored for tok in seq)

        cfg = tiny_model_config(ds.vocab.size, max_doc_len=60)
        docs = day_table(cfg, load_prepared(tmp_path).samples).docs
        assert (docs != 0).sum(axis=1).max() == 40

    def test_ids_padded_to_30_score_and_train_the_same(self, tmp_path):
        # format-2 directories once stored every document padded or cut to 30 ids
        ds = prepare_dataset(*long_doc_corpus(), self.CFG)
        save_prepared(ds, tmp_path / "as_read")
        padded = tmp_path / "padded"
        save_prepared(ds, padded)
        cols = read_columns(padded / "days.json")
        cols["token_seqs"] = [[pad_or_truncate(seq, 30) for seq in seqs]
                              for seqs in cols["token_seqs"]]
        (padded / "days.json").write_text(json.dumps(cols), encoding="utf-8")
        a, b = load_prepared(tmp_path / "as_read"), load_prepared(padded)
        assert a.samples[6].inputs[-1].token_seqs != b.samples[6].inputs[-1].token_seqs  # day 10

        cfg = tiny_model_config(ds.vocab.size, max_doc_len=12)
        ta, tb = day_table(cfg, a.samples), day_table(cfg, b.samples)
        for f in fields(DayTable):
            x, y = getattr(ta, f.name), getattr(tb, f.name)
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        tcfg = TrainConfig(lr=0.01, batch_size=4, epochs=2, patience=0, seed=1)
        for arch in ArchKind:
            ma, mb = build_model(cfg, arch), build_model(cfg, arch)
            for x, y in zip(score_windows(ma, a.samples), score_windows(mb, b.samples)):
                assert np.array_equal(x, y), arch
            best_a, hist_a = train(ma, *a.splits()[:2], tcfg)
            best_b, hist_b = train(mb, *b.splits()[:2], tcfg)
            assert hist_a == hist_b
            for name, p in best_a.tensors.items():
                assert np.array_equal(p, best_b.tensors[name]), (arch, name)


def assert_day_tuples(days):
    """Each day's documents, their token ids and its features are tuples."""
    for d in days:
        assert type(d.token_seqs) is tuple and all(type(q) is tuple for q in d.token_seqs)
        assert type(d.features) is tuple


def assert_window_tuples(samples):
    for s in samples:
        assert type(s.inputs) is tuple
        assert_day_tuples(s.inputs)


class TestDaysAndWindowsAreValues:
    """Every constructor makes a window's inputs and a day's documents and
    features tuples, so nothing edits a day or window under a split's kept table."""

    CFG = PrepareConfig(window=5, ratios=(0.6, 0.2, 0.2))

    def test_built_from_day_rows(self):
        # _day_rows holds each day's documents as given: here lists
        bars, docs, _ = build_corpus(12)
        rows = day_rows(bars, [(d.timestamp, [2, 3, 4], 1) for d in docs])
        assert any(r[2] for r in rows) and not all(r[2] for r in rows)
        samples = windows_of(rows, window=5)
        assert any(d.token_seqs for d in samples[0].inputs)
        assert_window_tuples(samples)

    def test_prepare_and_load(self, tmp_path):
        ds = prepare_dataset(*build_corpus(20), self.CFG)
        assert_window_tuples(ds.samples)
        save_prepared(ds, tmp_path)
        assert_window_tuples(load_prepared(tmp_path).samples)

    def test_ablation_dataset(self):
        assert_window_tuples(make_ablation_dataset(n_days=30)[0])

    def test_built_from_lists(self):
        seqs, features = [[2, 3], [4]], [0.1, 0.2, 0.3, 0.4, 1.0]
        day = AlignedDay(date=dt.date(2024, 1, 2), raw=(0.0,) * 4, token_seqs=seqs, label=1,
                         close=100.0, features=features)
        window = WindowSample(inputs=[day], target_date=dt.date(2024, 1, 3), target_class=1,
                              target_return_raw=0.0, target_close=100.0, target_return=0.0)
        assert_window_tuples([window, replace(window, inputs=[replace(day, token_seqs=[[7]])])])
        # the caller's lists are copied: editing them later leaves the day as it was
        seqs[0].append(5)
        features[0] = 9.0
        assert day.token_seqs == ((2, 3), (4,)) and day.features == (0.1, 0.2, 0.3, 0.4, 1.0)

    def test_a_used_split_cannot_be_edited_under_its_table(self, tmp_path):
        save_prepared(prepare_dataset(*build_corpus(40), self.CFG), tmp_path)
        ds = load_prepared(tmp_path)
        test = ds.splits()[2]
        model = build_model(tiny_model_config(ds.vocab.size, max_doc_len=8), ArchKind.CNN_GRU)
        before = score_windows(model, test)
        window = test[0]
        other = replace(window.inputs[-1], features=(1.0, -1.0, 0.5, 2.0, 1.0))
        with pytest.raises(TypeError):
            window.inputs[-1] = other
        day = next(d for d in window.inputs if d.token_seqs)
        with pytest.raises(AttributeError):  # a tuple has no append
            day.token_seqs[0].append(2)
        with pytest.raises(TypeError):
            day.token_seqs[0][0] = 2
        with pytest.raises(TypeError):
            day.features[0] = 0.0
        for got, want in zip(score_windows(model, test), before):
            assert got.tobytes() == want.tobytes()
        # an edited copy is a new window: in a new split it scores as a fresh list does
        edited = [replace(window, inputs=(*window.inputs[:-1], other)), *test[1:]]
        got, fresh = score_windows(model, Split(edited)), score_windows(model, list(edited))
        assert got[0][0] != before[0][0]
        for x, y in zip(got, fresh):
            assert x.tobytes() == y.tobytes()


class TestRecordsAreWhole:
    """A day has its features and a window its normalized target from
    construction on, and a day's constructor refuses features that are not 5
    finite numbers, naming its date: no reader checks them again."""

    DAY = {"date": dt.date(2024, 1, 2), "raw": (0.0,) * 4, "token_seqs": [], "label": 1,
           "close": 100.0}

    def test_day_without_features_and_window_without_target_not_built(self):
        with pytest.raises(TypeError, match="features"):
            AlignedDay(**self.DAY)
        day = AlignedDay(**self.DAY, features=(0.0,) * 5)
        with pytest.raises(TypeError, match="target_return"):
            WindowSample(inputs=[day], target_date=dt.date(2024, 1, 3), target_class=1,
                         target_return_raw=0.0, target_close=100.0)

    @pytest.mark.parametrize("features", [
        (0.1, 0.2, 0.3, 1.0), (0.0,) * 6, (0.1, math.nan, 0.0, 0.0, 1.0),
        (0.1, 0.0, -math.inf, 0.0, 1.0), (math.inf, -math.inf, 0.0, 0.0, 0.0),
    ], ids=["four", "six", "nan", "-inf", "inf-and-minus-inf"])
    def test_bad_features_refused_naming_the_date(self, features):
        with pytest.raises(DataValidationError, match=r"^day 2024-01-02: features \[.*\] are "
                                                      r"not 5 finite numbers$"):
            AlignedDay(**self.DAY, features=features)

    def test_finite_features_whose_sum_overflows_accepted(self):
        # the sum of finite values may overflow; the check then looks at each one
        day = AlignedDay(**self.DAY, features=[1e308, 1e308, -0.0, 5e-324, 1.0])
        assert day.features == (1e308, 1e308, -0.0, 5e-324, 1.0)

    def test_stats_that_overflow_a_feature_refused_at_load_naming_the_file(self, tmp_path):
        # a std of 1e-320 sends a z-scored log return to +-inf
        save_prepared(prepare_dataset(*build_corpus(20), PrepareConfig(window=5)), tmp_path)
        path = tmp_path / "norm_stats.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["stds"][0] = 1e-320
        path.write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(DataValidationError) as info:
            load_prepared(tmp_path)
        assert str(info.value).startswith(f"{path}: day 2024-01-02: features [")
        assert "inf" in str(info.value)
