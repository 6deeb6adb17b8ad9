"""Risk scoring and inflection detection rules."""

import datetime as dt
import io
import json
from pathlib import Path

import numpy as np
import pytest

from sentirisk import alerts as alerts_mod
from sentirisk.alerts import (
    AlertRuleConfig,
    DailyPrediction,
    detect_inflections,
    load_predictions_jsonl,
    risk_score,
    write_alerts_jsonl,
)
from sentirisk.cli import main
from sentirisk.errors import DataValidationError
from sentirisk.matrix import Matrix

STREAM = Path(__file__).parent / "fixtures" / "alert_stream.jsonl"

RNG = np.random.Generator(np.random.PCG64(55))


def probs(neg, neu, pos) -> tuple[float, float, float]:
    return (neg, neu, pos)


def day(i: int) -> dt.date:
    return dt.date(2024, 3, 1) + dt.timedelta(days=i)


def pred(i: int, cls: int, p=None, ret=0.0) -> DailyPrediction:
    if p is None:
        p = [0.0, 0.0, 0.0]
        p[cls] = 1.0
    return DailyPrediction(date=day(i), predicted_class=cls,
                           probs=probs(*p), predicted_return=ret)


class TestRiskScore:
    def test_pure_negative(self):
        assert risk_score(probs(1.0, 0.0, 0.0), 1.0) == 1.0

    def test_pure_positive(self):
        assert risk_score(probs(0.0, 0.0, 1.0), 1.0) == 0.0

    def test_negative_return_formula(self):
        got = risk_score(probs(0.4, 0.3, 0.3), -0.2)
        assert abs(got - 0.5) < 1e-15

    def test_capped_at_one(self):
        assert risk_score(probs(0.9, 0.05, 0.05), -5.0) == 1.0

    def test_return_clamped_before_scaling(self):
        # beyond -1 the return term saturates at 0.5
        lo = risk_score(probs(0.2, 0.4, 0.4), -1.0)
        below = risk_score(probs(0.2, 0.4, 0.4), -3.0)
        assert lo == below == 0.2 + 0.5

    def test_monotone_in_negative_probability_and_drawdown(self):
        for _ in range(10_000):
            p_neg = float(RNG.uniform(0.0, 1.0))
            rest = 1.0 - p_neg
            split = float(RNG.uniform(0.0, 1.0))
            vec = probs(p_neg, rest * split, rest * (1.0 - split))
            ret = float(RNG.uniform(-2.0, 2.0))
            base = risk_score(vec, ret)

            # raising p(negative) at fixed return never lowers risk
            bump = min(1.0, p_neg + 0.1)
            shrink = (1.0 - bump) / rest if rest > 0 else 0.0
            vec_up = probs(bump, rest * split * shrink, rest * (1 - split) * shrink)
            assert risk_score(vec_up, ret) >= base - 1e-12

            # pushing the return further down never lowers risk
            assert risk_score(vec, ret - 0.5) >= base - 1e-12


class TestRecord:
    # cmd_alert passes a row of softmax_rows' array, load_predictions_jsonl a
    # list, perfbench a matrix.Matrix column
    @pytest.mark.parametrize("given", [
        lambda p: np.array([[0.0, 0.0, 0.0], p])[1],
        list,
        Matrix.column,
    ], ids=["array row", "list", "Matrix"])
    def test_probs_become_a_tuple_of_floats(self, given):
        rows = [[0.1, 0.2, 0.7], [0.6, 0.3, 0.1], [0.8, 0.15, 0.05], [0.2, 0.6, 0.2]]
        preds = [DailyPrediction(day(i), int(np.argmax(p)), given(p), -0.3 * i)
                 for i, p in enumerate(rows)]
        want = [pred(i, int(np.argmax(p)), p=p, ret=-0.3 * i) for i, p in enumerate(rows)]
        for got in preds:
            assert type(got.probs) is tuple and len(got.probs) == 3
            assert all(type(v) is float for v in got.probs)
        assert preds == want
        rules = AlertRuleConfig(risk_threshold=0.7)
        assert detect_inflections(preds, rules) == detect_inflections(want, rules)
        assert [a.kind for a in detect_inflections(preds, rules)] == [
            "bearish_flip", "risk_threshold", "risk_threshold"]


    @pytest.mark.parametrize("fields, message", [
        ({"probs": (0.5, 0.5)}, "need 3 probabilities, got 2"),
        ({"probs": probs(0.5, 0.4, 0.4)}, "probabilities sum to 1.3"),
        ({"probs": probs(-0.1, 0.6, 0.5)}, "negative probability in [-0.1, 0.6, 0.5]"),
        ({"probs": probs(float("nan"), 0.5, 0.5)}, "probs must be finite, got [nan, 0.5, 0.5]"),
        ({"predicted_return": float("nan")}, "predicted_return must be finite, got nan"),
        ({"predicted_return": -float("inf")}, "predicted_return must be finite, got -inf"),
        ({"predicted_class": 3}, "predicted_class 3 is not a class index"),
        ({"predicted_class": -1}, "predicted_class -1 is not a class index"),
    ], ids=["two-probs", "sum-1.3", "negative-prob", "nan-prob", "nan-return", "-inf-return",
            "class-3", "class-minus-1"])
    def test_malformed_prediction_refused_naming_the_date(self, fields, message):
        # risk_score and detect_inflections read only predictions built whole
        given = {"date": day(2), "predicted_class": 1, "probs": probs(0.2, 0.5, 0.3),
                 "predicted_return": 0.0, **fields}
        with pytest.raises(DataValidationError) as info:
            DailyPrediction(**given)
        assert str(info.value).startswith(f"{day(2)}: {message}")


class TestDetectInflections:
    def cfg(self, tau=0.7):
        return AlertRuleConfig(risk_threshold=tau)

    def test_bearish_flip(self):
        preds = [pred(0, 2), pred(1, 2), pred(2, 0)]
        alerts = detect_inflections(preds, self.cfg(tau=0.999999))
        flips = [a for a in alerts if a.kind == "bearish_flip"]
        assert len(flips) == 1
        assert flips[0].date == day(2)

    def test_bullish_flip(self):
        preds = [pred(0, 0), pred(1, 2)]
        alerts = detect_inflections(preds, self.cfg(tau=0.999999))
        flips = [a for a in alerts if a.kind == "bullish_flip"]
        assert len(flips) == 1
        assert flips[0].date == day(1)

    def test_constant_classes_low_risk_is_empty(self):
        preds = [pred(i, 1, p=[0.1, 0.8, 0.1], ret=0.2) for i in range(5)]
        assert detect_inflections(preds, self.cfg(tau=0.7)) == []

    def test_threshold_alert_emitted(self):
        preds = [pred(0, 1, p=[0.8, 0.1, 0.1], ret=-0.5)]
        alerts = detect_inflections(preds, self.cfg(tau=0.7))
        kinds = [a.kind for a in alerts]
        assert kinds == ["risk_threshold"]
        assert alerts[0].risk_score >= 0.7

    def test_neutral_transitions_do_not_flip(self):
        preds = [pred(0, 2), pred(1, 1), pred(2, 0), pred(3, 1), pred(4, 2)]
        alerts = detect_inflections(preds, self.cfg(tau=0.999999))
        assert [a.kind for a in alerts if a.kind.endswith("_flip")] == []

    def test_one_alert_per_day_and_kind(self):
        preds = [pred(0, 2), pred(1, 0, p=[0.9, 0.05, 0.05], ret=-1.0)]
        alerts = detect_inflections(preds, self.cfg(tau=0.5))
        assert [a.kind for a in alerts] == ["bearish_flip", "risk_threshold"]
        assert alerts[0].date == alerts[1].date == day(1)

    def test_output_chronological_and_dates_exist(self):
        rng = np.random.Generator(np.random.PCG64(9))
        preds = []
        for i in range(60):
            cls = int(rng.integers(0, 3))
            vec = rng.dirichlet([1.0, 1.0, 1.0])
            preds.append(DailyPrediction(
                date=day(i), predicted_class=cls, probs=probs(*vec),
                predicted_return=float(rng.uniform(-1, 1)),
            ))
        alerts = detect_inflections(preds, self.cfg(tau=0.6))
        dates = [a.date for a in alerts]
        assert dates == sorted(dates)
        known = {p.date for p in preds}
        assert all(a.date in known for a in alerts)

    def test_unsorted_input_rejected(self):
        preds = [pred(1, 2), pred(0, 2)]
        with pytest.raises(DataValidationError):
            detect_inflections(preds, self.cfg())

    def test_threshold_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            AlertRuleConfig(risk_threshold=0.0)
        with pytest.raises(ValueError):
            AlertRuleConfig(risk_threshold=1.0)

    def test_confidence_is_predicted_class_probability(self):
        preds = [pred(0, 2, p=[0.1, 0.2, 0.7]), pred(1, 0, p=[0.6, 0.3, 0.1])]
        alerts = detect_inflections(preds, self.cfg(tau=0.999999))
        flip = [a for a in alerts if a.kind == "bearish_flip"][0]
        assert abs(flip.confidence - 0.6) < 1e-15


class TestAlertSerialization:
    def test_jsonl_round_trip_keys(self):
        preds = [pred(0, 2), pred(1, 0, p=[0.9, 0.05, 0.05], ret=-1.0)]
        alerts = detect_inflections(preds, AlertRuleConfig(risk_threshold=0.5))
        buf = io.StringIO()
        write_alerts_jsonl(alerts, buf)
        lines = [json.loads(x) for x in buf.getvalue().splitlines()]
        assert len(lines) == len(alerts)
        for obj in lines:
            assert set(obj) == {"date", "kind", "confidence", "predicted_class",
                                "predicted_return", "risk_score"}
            assert obj["predicted_class"] in {"negative", "neutral", "positive"}

    def test_load_predictions(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            json.dumps({"date": "2024-03-01", "probs": [0.2, 0.3, 0.5],
                        "predicted_return": 0.1}) + "\n"
            + json.dumps({"date": "2024-03-02", "probs": [0.7, 0.2, 0.1],
                          "predicted_return": -0.4, "predicted_class": "negative"}) + "\n"
        )
        preds = load_predictions_jsonl(path)
        assert len(preds) == 2
        assert preds[0].predicted_class == 2  # argmax fallback
        assert preds[1].predicted_class == 0
        assert preds[1].date == dt.date(2024, 3, 2)

    def test_load_rejects_bad_probs(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        good = {"date": "2024-03-01", "probs": [0.2, 0.3, 0.5], "predicted_return": 0.1}
        for bad, message in [  # DailyPrediction's messages name the date
            ({"probs": [0.5, 0.5]}, "2024-03-01: need 3 probabilities"),
            ({"probs": [float("nan"), 0.5, 0.5]}, "2024-03-01: probs must be finite"),
            ({"probs": [float("inf"), 0.0, 0.0]}, "2024-03-01: probs must be finite"),
            ({"predicted_return": float("nan")}, "2024-03-01: predicted_return must be finite"),
            ({"predicted_return": float("-inf")},
             "2024-03-01: predicted_return must be finite"),
            ({"probs": ["0.2", "0.3", "0.5"]}, "probs must be a list of numbers"),
            ({"probs": [True, False, False]}, "probs must be a list of numbers"),
            ({"predicted_return": "0.1"}, "predicted_return must be a number"),
        ]:
            # json.dumps writes the non-finite floats as NaN and -Infinity
            path.write_text(json.dumps(good) + "\n" + json.dumps({**good, **bad}) + "\n")
            with pytest.raises(DataValidationError, match=f":2: {message}"):
                load_predictions_jsonl(path)


class TestDatesCheckedOnce:
    """A prediction stream's dates are checked once, whoever reads it."""

    @pytest.fixture
    def checks(self, monkeypatch) -> list:
        calls: list = []
        check = alerts_mod.check_dates_increasing

        def counted(*args):
            calls.append(args)
            check(*args)

        monkeypatch.setattr(alerts_mod, "check_dates_increasing", counted)
        return calls

    def test_alert_predictions(self, checks, capsys):
        assert main(["alert", "--predictions", str(STREAM)]) == 0
        assert len(checks) == 1 and capsys.readouterr().out

    def test_load_then_detect(self, checks):
        detect_inflections(load_predictions_jsonl(STREAM), AlertRuleConfig())
        assert len(checks) == 1

    def test_a_list_is_checked_by_detect_inflections(self, checks):
        detect_inflections(list(load_predictions_jsonl(STREAM)), AlertRuleConfig())
        assert len(checks) == 2
