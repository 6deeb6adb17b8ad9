"""scripts/ab.py's summary of alternating benchmark pairs, on fixed inputs."""

import importlib.util
import statistics
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
sys.path.insert(0, str(SCRIPT.parent))  # ab.py imports scripts/archive.py, as a run does
spec = importlib.util.spec_from_file_location("ab", SCRIPT)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "score_windows_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
]


def run(setup_s, per_s, rss):
    return {"correct": True, "failed": 0, "metrics": {
        "setup_s": {"value": setup_s, "unit": "s"},
        "score_windows_per_s": {"value": per_s, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


PAIRS = [  # (base, change)
    (run(0.120, 200.0, 56.0), run(0.100, 210.0, 62.0)),
    (run(0.124, 190.0, 56.0), run(0.098, 180.0, 62.0)),
    (run(0.130, 205.0, 56.0), run(0.131, 220.0, 62.0)),
    (run(0.122, 195.0, 56.0), run(0.099, 199.0, 62.0)),
]


def test_summary_rows():
    rows = {r["metric"]: r for r in ab.summarize(PAIRS, END_TO_END)}
    assert list(rows) == ["setup_s", "score_windows_per_s", "peak_rss_mb"]  # absent: skipped
    setup = rows["setup_s"]
    assert setup["base"] == pytest.approx(0.123) and setup["change"] == pytest.approx(0.0995)
    assert setup["base_q"] == pytest.approx((0.1215, 0.1255))
    assert setup["pct"] == pytest.approx(100 * (0.0995 / 0.123 - 1))
    assert (setup["wins"], setup["pairs"], setup["worse"]) == (3, 4, False)
    per_s = rows["score_windows_per_s"]  # higher is better
    assert (per_s["base"], per_s["change"], per_s["wins"], per_s["worse"]) == (
        197.5, 204.5, 3, False)
    rss = rows["peak_rss_mb"]  # 62 / 56 is 10.7% worse, past its 10% bound
    assert (rss["wins"], rss["worse"]) == (0, True)


def test_render_marks_what_is_worse():
    text = ab.render(ab.summarize(PAIRS, END_TO_END))
    lines = text.splitlines()
    assert lines[0].split() == ["metric", "base", "base", "IQR", "change", "%", "ratio", "95%",
                                "CI", "wins"]
    assert lines[1].split()[0] == "setup_s" and "3/4" in lines[1]
    assert not lines[1].endswith("worse") and lines[3].endswith("worse")


def test_a_base_spread_wider_than_a_third_of_the_bound_is_noisy():
    # setup_s: IQR 0.04 about a median of 0.12, past 0.25 / 3 of it (0.01);
    # peak_rss_mb: IQR 1.5 about 56.75, within 0.1 / 3 of it (1.89)
    pairs = [(run(setup, 200.0, rss), run(setup, 200.0, rss))
             for setup, rss in [(0.10, 56.0), (0.14, 57.5), (0.10, 56.0), (0.14, 57.5)]]
    rows = ab.summarize(pairs, END_TO_END)
    assert [(r["metric"], r["noisy"]) for r in rows] == [
        ("setup_s", True), ("score_windows_per_s", False), ("peak_rss_mb", False)]
    lines = ab.render(rows).splitlines()
    assert lines[1].endswith("noisy") and not lines[1].endswith("worse  noisy")
    assert not any(line.endswith("noisy") for line in lines[2:])
    assert not any(r["noisy"] for r in ab.summarize(PAIRS, END_TO_END))


def test_one_pair_has_no_spread():
    [row] = ab.summarize(PAIRS[:1], END_TO_END[:1])
    assert row["base_q"] == (0.120, 0.120) and row["wins"] == 1


def test_ratio_interval_repeats_and_holds_the_ratio_of_medians():
    base = [0.120, 0.124, 0.130, 0.122, 0.127, 0.119, 0.125]
    change = [0.100, 0.098, 0.131, 0.099, 0.104, 0.101, 0.097]
    lo, hi = ab.ratio_interval(base, change)
    assert (lo, hi) == ab.ratio_interval(base, change)  # a fixed RNG seed
    point = statistics.median(change) / statistics.median(base)
    assert lo <= point <= hi < 1.0
    assert (lo, hi) == pytest.approx((0.784, 0.8416667))


def test_ratio_interval_of_a_constant_ratio_is_that_ratio():
    base = [1.0, 2.0, 4.0, 8.0, 3.0]
    assert ab.ratio_interval(base, [0.5 * b for b in base]) == (0.5, 0.5)


def test_ratio_interval_of_a_zero_base_is_nan():
    lo, hi = ab.ratio_interval([0.0, 1.0], [1.0, 1.0])
    assert lo != lo and hi != hi


def test_summary_rows_carry_the_interval():
    rows = {r["metric"]: r for r in ab.summarize(PAIRS, END_TO_END)}
    base = [b["metrics"]["setup_s"]["value"] for b, _ in PAIRS]
    change = [c["metrics"]["setup_s"]["value"] for _, c in PAIRS]
    assert rows["setup_s"]["ratio_ci"] == ab.ratio_interval(base, change)


def test_run_once_passes_the_seed(tmp_path):
    echo = [sys.executable, "-c",
            "import json, sys; print(json.dumps({'argv': sys.argv[1:]}))"]
    argv = ab.run_once(echo, tmp_path, "score", 3, 0.5)["argv"]
    assert argv == ["--workload", "score", "--seed", "3", "--seconds", "0.5", "--trace", "0"]
