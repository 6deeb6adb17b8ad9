"""scripts/same_outputs.py: the tiny journey run twice on the working tree,
and the comparison of two output trees on fixed files."""

import base64
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "same_outputs.py"
sys.path.insert(0, str(SCRIPT.parent))  # same_outputs.py imports scripts/archive.py
spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
same = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same)

CKPT = ROOT / "tests" / "fixtures" / "tiny.ckpt.json"


def test_the_tiny_journey_twice_on_the_working_tree_is_the_same(tmp_path):
    steps = same.journey("tiny")
    for side in ("base", "change"):
        assert same.run_journey(ROOT, tmp_path / side, steps) == []
    ok, lines = same.compare_trees(tmp_path / "base", tmp_path / "change", {})
    # the steps' stdout and stderr, journey.txt, the inputs and what the steps wrote
    n = int(lines[0].split()[0])
    assert n > 2 * len(steps) and lines == [f"{n} of {n} files identical"]
    assert ok


def test_a_step_that_fails_is_reported(tmp_path):
    steps = [["sentirisk", "evaluate", "--data-dir", "missing", "--model-in", "m.ckpt.json"]]
    assert same.run_journey(ROOT, tmp_path / "work", steps) == [
        "000 exit 2: sentirisk evaluate --data-dir missing --model-in m.ckpt.json"]
    assert "data error" in (tmp_path / "work" / "out" / "000-evaluate.stderr").read_text()


def with_tensor(ckpt: dict, name: str, factor: float) -> dict:
    """ckpt with each value of tensor name multiplied by factor."""
    flat = np.frombuffer(base64.b64decode(ckpt["values"]), dtype="<f8").copy()
    at = 0
    for tensor, (rows, cols) in ckpt["tensors"].items():
        if tensor == name:
            flat[at : at + rows * cols] *= factor
        at += rows * cols
    return {**ckpt, "values": base64.b64encode(flat.tobytes()).decode("ascii")}


def trees(tmp_path: Path, files: dict[str, tuple[str, str]]) -> tuple[Path, Path]:
    """A base and a change tree holding each file's two contents."""
    roots = tmp_path / "base", tmp_path / "change"
    for name, contents in files.items():
        for root, content in zip(roots, contents):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(content, encoding="utf-8")
    return roots


def test_each_kind_of_file_reports_its_largest_relative_difference(tmp_path):
    ckpt = json.loads(CKPT.read_text(encoding="utf-8"))
    cols = {"date": ["2024-01-02"], "raw": [[0.5, -0.0, 1e-300, 2.0]]}
    base, change = trees(tmp_path, {
        "m.ckpt.json": (json.dumps(ckpt), json.dumps(with_tensor(ckpt, "gru/w", 1 + 2**-40))),
        "d/days.json": (json.dumps(cols), json.dumps(cols, separators=(",", ":"))),
        "out/000.stdout": ("mse 0.25 over 10 days\n", "mse 0.2500001 over 10 days\n"),
        "same.txt": ("x\n", "x\n"),
    })
    ok, lines = same.compare_trees(base, change, {})
    assert not ok
    assert lines[0] == "1 of 4 files identical"
    assert lines[1] == ("DIFFERS: d/days.json (not declared): largest relative difference "
                        "0, every number equal")
    # 2**-40 is 9.09e-13; each value's rounding moves it a little, one tensor only
    assert lines[2] == ("DIFFERS: m.ckpt.json (not declared): largest relative "
                        "difference gru/w 9.1e-13")
    assert lines[3] == ("DIFFERS: out/000.stdout (not declared): largest relative "
                        "difference number 0 4e-07")

    ok, lines = same.compare_trees(base, change, {"days.json": 0.0, "*.ckpt.json": 1e-12,
                                                  "out/*": 1e-6})
    assert ok and [line.split(":")[0] for line in lines[1:]] == ["differs"] * 3
    ok, lines = same.compare_trees(base, change, {"days.json": 0.0, "*.ckpt.json": 1e-13,
                                                  "out/*": 1e-6})
    assert not ok and "past its declared bound 1e-13" in lines[2]


def test_a_structural_difference_or_a_lone_file_fails_whatever_is_declared(tmp_path):
    base, change = trees(tmp_path, {
        "a.json": ('{"n": [1, 2]}', '{"n": [1, 2, 3]}'),
        "b.txt": ("exit 0: train\n", "exit 2: train\n"),
        "c.jsonl": ('{"k": "neutral"}\n', '{"k": "positive"}\n'),
        "d.json": ('{"n": [1, 2.5]}', '{"n": [1.0, 2.5]}'),
    })
    (change / "extra.json").write_text("{}", encoding="utf-8")
    ok, lines = same.compare_trees(base, change, {"*": 0.5})
    assert not ok
    assert lines == ["0 of 5 files identical",
                     "ONLY IN CHANGE: extra.json",
                     "DIFFERS: a.json: n: 2 entries against 3",
                     "DIFFERS: b.txt (past its declared bound 0.5): largest relative "
                     "difference number 0 1",
                     'DIFFERS: c.jsonl: [0].k: "neutral" against "positive"',
                     "DIFFERS: d.json: n[0]: 1 against 1.0"]
