"""scripts/ab.py's summary of alternating benchmark pairs, on fixed inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
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
    assert lines[0].split() == ["metric", "base", "base", "IQR", "change", "%", "wins"]
    assert lines[1].split()[0] == "setup_s" and "3/4" in lines[1]
    assert not lines[1].endswith("worse") and lines[3].endswith("worse")


def test_one_pair_has_no_spread():
    [row] = ab.summarize(PAIRS[:1], END_TO_END[:1])
    assert row["base_q"] == (0.120, 0.120) and row["wins"] == 1
