"""The raw inputs as columns refuse exactly what their records refuse.

load_market_csv and load_text_jsonl check whole columns (MarketColumns,
TextColumns) instead of building a MarketBar or RawTextDoc per row. A bad row
is still refused with the record's message and its file and line, so
`sentirisk prepare` exits 2 with the message a row-by-row reading gave; and
for any rows, a column constructor accepts exactly the rows every record
constructor accepts.
"""

from __future__ import annotations

import datetime as dt
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sentirisk import ingest
from sentirisk.cli import main
from sentirisk.errors import DataValidationError
from sentirisk.ingest import MarketBar, MarketColumns, RawTextDoc, TextColumns

HEADER = "date,open,high,low,close,volume"
GOOD_BAR = "2024-01-02,100,101,99,100,1000"
GOOD_BAR_2 = "2024-01-04,100,101,99,100,1000"
GOOD_DOC = {"timestamp": "2024-01-02T09:30:00Z", "text": "stocks up", "source": "x",
            "label": "positive"}

# market.csv line 3 (after the header and GOOD_BAR) -> the message it is refused with
BAD_BARS = {
    "date-not-iso": ("2024/01/03,100,101,99,100,1", "Invalid isoformat string: '2024/01/03'"),
    "open-not-a-number": ("2024-01-03,x,101,99,100,1", "could not convert string to float: 'x'"),
    "high-not-a-number": ("2024-01-03,100,,99,100,1", "could not convert string to float: ''"),
    "low-not-a-number": ("2024-01-03,100,101,1e,100,1",
                         "could not convert string to float: '1e'"),
    "close-not-a-number": ("2024-01-03,100,101,99,true,1",
                           "could not convert string to float: 'true'"),
    "volume-not-a-number": ("2024-01-03,100,101,99,100,1_0x",
                            "could not convert string to float: '1_0x'"),
    "open-nan": ("2024-01-03,nan,101,99,100,1", "2024-01-03: open nan is not finite"),
    "close-inf": ("2024-01-03,100,101,99,inf,1", "2024-01-03: close inf is not finite"),
    "volume-minus-inf": ("2024-01-03,100,101,99,100,-inf",
                         "2024-01-03: volume -inf is not finite"),
    "low-above-min-open-close": ("2024-01-03,100,105,101,104,1",
                                 "2024-01-03: low 101.0 exceeds min(open, close)"),
    "high-below-max-open-close": ("2024-01-03,100,102,99,103,1",
                                  "2024-01-03: high 102.0 is below max(open, close)"),
    "negative-volume": ("2024-01-03,100,101,99,100,-1", "2024-01-03: negative volume -1.0"),
    "nonpositive-price": ("2024-01-03,1,1,0,1,1", "2024-01-03: nonpositive price"),
    "five-fields": ("2024-01-03,100,101,99,100", "expected 6 fields, got 5"),
}

# texts.jsonl line 2 (after GOOD_DOC) -> the message it is refused with
BAD_DOCS = {
    "timestamp-a-number": ({**GOOD_DOC, "timestamp": 5}, "timestamp must be a string, got int"),
    "timestamp-not-iso": ({**GOOD_DOC, "timestamp": "yesterday"},
                          "Invalid isoformat string: 'yesterday'"),
    "text-a-number": ({**GOOD_DOC, "text": 5},
                      "document text must be a non-empty string, got 5"),
    "text-a-list": ({**GOOD_DOC, "text": ["up"]},
                    "document text must be a non-empty string, got ['up']"),
    "text-empty": ({**GOOD_DOC, "text": ""}, "document text must be a non-empty string, got ''"),
    "source-a-number": ({**GOOD_DOC, "source": 5}, "source must be a string, got 5"),
    "label-a-number": ({**GOOD_DOC, "label": 5}, "unknown label 5"),
    "label-unknown": ({**GOOD_DOC, "label": "bullish"}, "unknown label 'bullish'"),
    "timestamp-missing": ({"text": "up"}, "missing key 'timestamp'"),
    "text-missing": ({"timestamp": "2024-01-02"}, "missing key 'text'"),
    "unknown-key": ({**GOOD_DOC, "lable": "positive"}, "unknown keys ['lable']"),
    "not-an-object": (["up"], "not a json object"),
}


def prepare(tmp_path, capsys, market: list[str], texts: list[str] | None = None):
    """(exit code, stderr) of `sentirisk prepare` on these market.csv and texts.jsonl lines."""
    (tmp_path / "market.csv").write_text("".join(f"{line}\n" for line in market),
                                         encoding="utf-8")
    if texts is not None:
        (tmp_path / "texts.jsonl").write_text("".join(f"{line}\n" for line in texts),
                                              encoding="utf-8")
    rc = main(["prepare", "--data-dir", str(tmp_path)])
    return rc, capsys.readouterr().err


class TestRefusals:
    """Exit 2 and the message, whole, a row-by-row reading gave."""

    @pytest.mark.parametrize("case", BAD_BARS)
    def test_bad_bar(self, tmp_path, capsys, case):
        line, message = BAD_BARS[case]
        rc, err = prepare(tmp_path, capsys, [HEADER, GOOD_BAR, line, GOOD_BAR_2])
        assert (rc, err) == (2, f"sentirisk: data error: {tmp_path / 'market.csv'}:3: {message}\n")

    @pytest.mark.parametrize("rows, message", [
        ([GOOD_BAR_2, GOOD_BAR], "dates must be strictly increasing: 2024-01-04 then 2024-01-02"),
        ([GOOD_BAR, GOOD_BAR], "dates must be strictly increasing: 2024-01-02 then 2024-01-02"),
    ], ids=["out-of-order", "repeated"])
    def test_dates_not_increasing(self, tmp_path, capsys, rows, message):
        rc, err = prepare(tmp_path, capsys, [HEADER, *rows])
        assert (rc, err) == (2, f"sentirisk: data error: {message}\n")

    def test_bad_header(self, tmp_path, capsys):
        rc, err = prepare(tmp_path, capsys, ["date,open,high,low,close,vol", GOOD_BAR])
        assert (rc, err) == (2, f"sentirisk: data error: {tmp_path / 'market.csv'}: bad header "
                                f"{HEADER.replace('volume', 'vol').split(',')!r}, expected "
                                f"{HEADER.split(',')!r}\n")

    def test_first_bad_row_wins_whatever_the_faults(self, tmp_path, capsys):
        # a rule fault on line 3, a parse fault on line 4 and dates out of order
        rows = [HEADER, GOOD_BAR_2, BAD_BARS["negative-volume"][0], "x,1,1,1,1,1", GOOD_BAR]
        rc, err = prepare(tmp_path, capsys, rows)
        assert (rc, err) == (2, f"sentirisk: data error: {tmp_path / 'market.csv'}:3: "
                                f"{BAD_BARS['negative-volume'][1]}\n")

    @pytest.mark.parametrize("case", BAD_DOCS)
    def test_bad_doc(self, tmp_path, capsys, case):
        row, message = BAD_DOCS[case]
        rc, err = prepare(tmp_path, capsys, [HEADER, GOOD_BAR],
                          [json.dumps(GOOD_DOC), json.dumps(row), json.dumps(GOOD_DOC)])
        assert (rc, err) == (2, f"sentirisk: data error: {tmp_path / 'texts.jsonl'}:2: "
                                f"{message}\n")

    @pytest.mark.parametrize("lines, where, message", [
        (["", json.dumps(GOOD_DOC), "{oops", json.dumps(BAD_DOCS["label-unknown"][0])], 3,
         "bad json (Expecting property name enclosed in double quotes)"),
        ([json.dumps(GOOD_DOC), "  ", json.dumps(BAD_DOCS["text-empty"][0]), "{oops"], 3,
         BAD_DOCS["text-empty"][1]),
        ([json.dumps(BAD_DOCS["label-unknown"][0]), json.dumps(BAD_DOCS["text-missing"][0])], 1,
         BAD_DOCS["label-unknown"][1]),
    ], ids=["bad-json-first", "bad-row-before-bad-json", "two-bad-rows"])
    def test_first_bad_line_wins(self, tmp_path, capsys, lines, where, message):
        rc, err = prepare(tmp_path, capsys, [HEADER, GOOD_BAR], lines)
        assert (rc, err) == (2, f"sentirisk: data error: {tmp_path / 'texts.jsonl'}:{where}: "
                                f"{message}\n")


FIELDS = ("open", "high", "low", "close", "volume")
prices = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([0.0, -0.0, 1.0, 100.0, 101.0, 99.0]))


def refusal(build) -> str | None:
    try:
        build()
    except DataValidationError as exc:
        return str(exc)
    return None


def first_refusal(records) -> str | None:
    """The message of the first record that its constructor refuses, if any."""
    return next(filter(None, map(refusal, records)), None)


class TestColumnsAgreeWithRecords:
    @given(st.lists(st.tuples(*[prices] * 5), max_size=6))
    def test_market_columns_accept_what_every_bar_accepts(self, values):
        dates = [dt.date(2024, 1, 1) + dt.timedelta(days=i) for i in range(len(values))]
        rows = [(d, *v) for d, v in zip(dates, values)]
        want = first_refusal(lambda row=row: MarketBar(*row) for row in rows)
        assert refusal(lambda: MarketColumns(*(zip(*rows) if rows else [()] * 6))) == want

    @given(st.lists(st.tuples(
        st.one_of(st.text(max_size=3), st.integers(), st.none(), st.lists(st.text(), max_size=1)),
        st.one_of(st.sampled_from(["negative", "neutral", "positive", "", "Positive"]),
                  st.none(), st.integers(), st.text(max_size=2))), max_size=6))
    def test_text_columns_accept_what_every_doc_accepts(self, rows):
        stamp = dt.datetime(2024, 1, 2)
        want = first_refusal(lambda text=text, label=label: RawTextDoc(stamp, text, "", label)
                             for text, label in rows)
        got = refusal(lambda: TextColumns([stamp] * len(rows), [t for t, _ in rows],
                                          [lab for _, lab in rows]))
        assert got == want

    def test_market_columns_refuse_dates_after_the_bars(self):
        bars = [MarketBar(dt.date(2024, 1, d), 1.0, 1.0, 1.0, 1.0, 0.0) for d in (3, 2)]
        with pytest.raises(DataValidationError, match="^dates must be strictly increasing: "
                                                      "2024-01-03 then 2024-01-02$"):
            ingest._as_columns(MarketColumns, bars)


class TestLoadersGiveTheRecordsColumns:
    def test_market_csv(self, tmp_path):
        (tmp_path / "m.csv").write_text(f"{HEADER}\n{GOOD_BAR}\n\n{GOOD_BAR_2}\n",
                                        encoding="utf-8")
        bars = [MarketBar(dt.date(2024, 1, d), 100.0, 101.0, 99.0, 100.0, 1000.0) for d in (2, 4)]
        got = ingest.load_market_csv(tmp_path / "m.csv")
        assert got == ingest._as_columns(MarketColumns, bars) and len(got) == 2
        assert {type(v) for f in FIELDS for v in getattr(got, f)} == {float}

    def test_text_jsonl_drops_source(self, tmp_path):
        rows = [GOOD_DOC, {"timestamp": "2024-01-03T00:00:00+01:00", "text": "x"}]
        (tmp_path / "t.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows),
                                          encoding="utf-8")
        got = ingest.load_text_jsonl(tmp_path / "t.jsonl")
        assert got == TextColumns([dt.datetime(2024, 1, 2, 9, 30), dt.datetime(2024, 1, 2, 23)],
                                  ["stocks up", "x"], ["positive", None])
        assert len(got) == 2
