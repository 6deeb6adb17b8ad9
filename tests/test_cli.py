"""End-to-end CLI tests.

Every test drives ``main(argv)`` in-process so exit codes, stdout contracts,
and stderr diagnostics are asserted exactly as a shell user would see them.
Fixture data comes from the synthetic generators; model dims are tiny so the
train-dependent tests stay fast.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest

from sentirisk.alerts import AlertRuleConfig
from sentirisk.cli import CONFIG_DEFAULTS, main
from sentirisk.data import PrepareConfig, load_prepared
from sentirisk.model import ArchKind, ModelConfig, load_checkpoint
from sentirisk.train import TrainConfig
from sentirisk.synthetic import (
    make_demo_docs,
    make_demo_market,
    write_docs_jsonl,
    write_market_csv,
)

N_BARS = 60
WINDOW = 5
N_SAMPLES = N_BARS - WINDOW

# floor-boundary split of 55 samples at the default 0.7/0.15/0.15 ratios
N_TRAIN, N_VAL, N_TEST = 38, 8, 9

TINY_CFG = {
    "window": WINDOW,
    "embed_dim": 4,
    "num_filters": 3,
    "kernel_width": 2,
    "conv_stride": 1,
    "gru_hidden": 3,
    "max_doc_len": 6,
    "epochs": 2,
    "patience": 0,
    "batch_size": 16,
    "lr": 1e-3,
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SENTI_RISK_SEED", raising=False)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Data dir with market.csv, texts.jsonl, config.json, and prepared/."""
    root = tmp_path_factory.mktemp("cli_data")
    bars = make_demo_market(n_days=N_BARS, seed=3)
    docs = make_demo_docs(bars, seed=4)
    write_market_csv(bars, root / "market.csv")
    write_docs_jsonl(docs, root / "texts.jsonl")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY_CFG), encoding="utf-8")
    rc = main(["prepare", "--data-dir", str(root), "--config", str(cfg)])
    assert rc == 0
    return {"root": root, "config": cfg, "n_docs": len(docs)}


@pytest.fixture(scope="module")
def trained(workspace):
    """Checkpoint trained once on the shared workspace (seed fixed by flag)."""
    ckpt = workspace["root"] / "model.ckpt.json"
    rc = main([
        "train", "--data-dir", str(workspace["root"]),
        "--config", str(workspace["config"]),
        "--model-out", str(ckpt), "--seed", "0",
    ])
    assert rc == 0
    return ckpt


def write_config(tmp_path, overrides, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({**TINY_CFG, **overrides}), encoding="utf-8")
    return path


class TestPrepare:
    def test_counts_and_stdout(self, workspace, tmp_path, capsys):
        out = tmp_path / "prep"
        capsys.readouterr()
        rc = main([
            "prepare", "--data-dir", str(workspace["root"]),
            "--config", str(workspace["config"]), "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        m = re.match(
            r"prepared (\d+) samples \((\d+) bars, (\d+) docs, vocab (\d+)\) -> (.+)\n",
            captured.out,
        )
        assert m is not None, captured.out
        assert int(m.group(1)) == N_SAMPLES
        assert int(m.group(2)) == N_BARS
        assert int(m.group(3)) == workspace["n_docs"]
        assert m.group(5) == str(out)

        ds = load_prepared(out)
        assert len(ds.samples) == N_SAMPLES
        assert ds.window == WINDOW
        assert ds.vocab.size == int(m.group(4))

    def test_default_out_is_data_dir_prepared(self, workspace):
        for name in ("vocab.txt", "days.jsonl", "windows.jsonl", "norm_stats.json"):
            assert (workspace["root"] / "prepared" / name).is_file()

    def test_market_only_dataset(self, tmp_path, capsys):
        bars = make_demo_market(n_days=20, seed=1)
        write_market_csv(bars, tmp_path / "market.csv")
        cfg = write_config(tmp_path, {})
        capsys.readouterr()
        rc = main(["prepare", "--data-dir", str(tmp_path), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "(20 bars, 0 docs," in captured.out
        assert len(load_prepared(tmp_path / "prepared").samples) == 20 - WINDOW

    def test_missing_market_csv_exits_2(self, tmp_path, capsys):
        rc = main(["prepare", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "data error:" in captured.err
        assert "market csv not found" in captured.err


class TestConfigFile:
    def test_unknown_key_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mystery_knob": 5}), encoding="utf-8")
        rc = main(["prepare", "--data-dir", str(workspace["root"]), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "mystery_knob" in captured.err

    def test_bad_json_exits_2(self, workspace, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{", encoding="utf-8")
        rc = main(["prepare", "--data-dir", str(workspace["root"]), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "bad json" in captured.err

    def test_missing_config_file_exits_2(self, workspace, tmp_path, capsys):
        rc = main([
            "prepare", "--data-dir", str(workspace["root"]),
            "--config", str(tmp_path / "nope.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "config file not found" in captured.err

    def test_explicit_window_mismatch_exits_2(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path, {"window": 7})
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(cfg), "--model-out", str(tmp_path / "m.ckpt.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "window 7" in captured.err
        assert "window 5" in captured.err

    def test_default_window_is_not_checked(self, workspace, tmp_path, capsys):
        # config leaves "window" unset, so the prepared window (5) wins even
        # though the built-in default is 20
        overrides = dict(TINY_CFG, epochs=1)
        del overrides["window"]
        cfg = tmp_path / "nowin.json"
        cfg.write_text(json.dumps(overrides), encoding="utf-8")
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(cfg), "--model-out", str(tmp_path / "m.ckpt.json"),
        ])
        assert rc == 0
        assert load_checkpoint(tmp_path / "m.ckpt.json").cfg.window == WINDOW


class TestSeedPrecedence:
    """Observed through checkpoint bytes: same seed, same file."""

    def _train(self, workspace, tmp_path, name, extra):
        cfg = write_config(tmp_path, {"epochs": 1}, name="seed_cfg.json")
        out = tmp_path / name
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(cfg), "--model-out", str(out), *extra,
        ])
        assert rc == 0
        return out.read_bytes()

    def test_flag_env_config_order(self, workspace, tmp_path, monkeypatch):
        ref = self._train(workspace, tmp_path, "a.ckpt.json", ["--seed", "5"])

        monkeypatch.setenv("SENTI_RISK_SEED", "5")
        assert self._train(workspace, tmp_path, "b.ckpt.json", []) == ref

        monkeypatch.setenv("SENTI_RISK_SEED", "9")
        assert self._train(workspace, tmp_path, "c.ckpt.json", ["--seed", "5"]) == ref
        assert self._train(workspace, tmp_path, "d.ckpt.json", []) != ref
        monkeypatch.delenv("SENTI_RISK_SEED")

    def test_env_beats_config_file(self, workspace, tmp_path, monkeypatch):
        ref = self._train(workspace, tmp_path, "a.ckpt.json", ["--seed", "5"])
        cfg = write_config(tmp_path, {"epochs": 1, "seed": 9}, name="cfg9.json")
        out = tmp_path / "e.ckpt.json"
        monkeypatch.setenv("SENTI_RISK_SEED", "5")
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(cfg), "--model-out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == ref

    def test_config_seed_used_when_nothing_else_set(self, workspace, tmp_path):
        ref = self._train(workspace, tmp_path, "a.ckpt.json", ["--seed", "5"])
        cfg = write_config(tmp_path, {"epochs": 1, "seed": 5}, name="cfg5.json")
        out = tmp_path / "f.ckpt.json"
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(cfg), "--model-out", str(out),
        ])
        assert rc == 0
        assert out.read_bytes() == ref

    def test_non_integer_env_exits_1(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SENTI_RISK_SEED", "abc")
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(workspace["config"]),
            "--model-out", str(tmp_path / "m.ckpt.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "SENTI_RISK_SEED" in captured.err


class TestTrain:
    def test_same_seed_bitwise_identical_artifacts(self, workspace, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            ckpt = tmp_path / f"{name}.ckpt.json"
            rc = main([
                "train", "--data-dir", str(workspace["root"]),
                "--config", str(workspace["config"]),
                "--model-out", str(ckpt), "--seed", "3",
            ])
            assert rc == 0
            outs.append((ckpt.read_bytes(), (tmp_path / f"{name}.history.jsonl").read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_stdout_and_history_naming(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt.json"
        capsys.readouterr()
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(workspace["config"]),
            "--model-out", str(ckpt), "--seed", "0",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "trained cnn-gru for 2 epochs" in captured.out
        history = tmp_path / "model.history.jsonl"
        assert history.is_file()
        assert len(history.read_text(encoding="utf-8").splitlines()) == 2

    def test_history_out_flag(self, workspace, tmp_path):
        ckpt = tmp_path / "m.ckpt.json"
        hist = tmp_path / "custom.jsonl"
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(workspace["config"]),
            "--model-out", str(ckpt), "--history-out", str(hist), "--seed", "0",
        ])
        assert rc == 0
        assert hist.is_file()

    def test_arch_flag_round_trips(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "g.ckpt.json"
        capsys.readouterr()
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(workspace["config"]),
            "--model-out", str(ckpt), "--arch", "gru", "--seed", "0",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "trained gru for" in captured.out
        assert load_checkpoint(ckpt).arch is ArchKind.GRU_ONLY

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan en route to abort
    def test_diverging_run_exits_3_naming_the_batch(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path, {"optimizer": "sgd", "lr": 1e200})
        ckpt = tmp_path / "m.ckpt.json"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(workspace["root"]), "--config", str(cfg),
                   "--model-out", str(ckpt), "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "non-finite loss at epoch 1, batch 2: " in captured.err
        assert "Traceback" not in captured.err
        assert not ckpt.exists()

    def test_missing_data_dir_flag_exits_1(self, tmp_path, capsys):
        rc = main(["train", "--model-out", str(tmp_path / "m.ckpt.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--data-dir is required" in captured.err

    def test_unprepared_dir_exits_2(self, tmp_path, capsys):
        rc = main([
            "train", "--data-dir", str(tmp_path),
            "--model-out", str(tmp_path / "m.ckpt.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no prepared dataset" in captured.err


class TestEvaluate:
    def test_json_report(self, workspace, trained, capsys):
        capsys.readouterr()
        rc = main([
            "evaluate", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        report = json.loads(captured.out)
        assert report["split"] == "test"
        assert report["n"] == N_TEST
        expected_keys = {
            "split", "accuracy", "macro_recall", "macro_precision",
            "macro_f1", "regression_mse", "confusion", "n",
        }
        assert set(report) == expected_keys
        assert len(report["confusion"]) == 3
        assert all(len(row) == 3 for row in report["confusion"])
        assert sum(sum(row) for row in report["confusion"]) == N_TEST

    def test_split_flag(self, workspace, trained, capsys):
        capsys.readouterr()
        rc = main([
            "evaluate", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained), "--split", "val",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert json.loads(captured.out)["n"] == N_VAL

    def test_missing_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        rc = main([
            "evaluate", "--data-dir", str(workspace["root"]),
            "--model-in", str(tmp_path / "ghost.ckpt.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "checkpoint not found" in captured.err

    def test_format_1_checkpoint_exits_2_naming_the_version(self, workspace, trained,
                                                            tmp_path, capsys):
        # format 1 held one (width, embed) tensor per filter, conv/k0, conv/k1, ...,
        # and a num_classes config key
        obj = json.loads(trained.read_text())
        kernel = obj["tensors"].pop("conv/k")
        width = TINY_CFG["kernel_width"]
        chans = kernel["rows"] // width
        for f in range(kernel["cols"]):
            col = [row[f] for row in kernel["values"]]
            obj["tensors"][f"conv/k{f}"] = {
                "rows": width, "cols": chans,
                "values": [col[w * chans : (w + 1) * chans] for w in range(width)],
            }
        obj["config"]["num_classes"] = 3
        obj["format_version"] = 1
        old = tmp_path / "format1.ckpt.json"
        old.write_text(json.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        rc = main([
            "evaluate", "--data-dir", str(workspace["root"]), "--model-in", str(old),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "format_version 1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


def _cut_in_half(path):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
    return f"{path.name}: "


def _cut_days(prep):
    return _cut_in_half(prep / "days.jsonl")


def _cut_windows(prep):
    return _cut_in_half(prep / "windows.jsonl")


def _day_index_out_of_range(prep):
    n_days = json.loads((prep / "norm_stats.json").read_text(encoding="utf-8"))["n_days"]
    rows = [json.loads(line) for line in
            (prep / "windows.jsonl").read_text(encoding="utf-8").splitlines()]
    rows[2]["days"][-1] = n_days
    (prep / "windows.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows),
                                        encoding="utf-8")
    return "windows.jsonl:3: "


def _format_1(prep):
    # format 1 spelled every window's days out in samples.jsonl, and its
    # norm_stats.json had no format_version or n_days
    days = [json.loads(line) for line in
            (prep / "days.jsonl").read_text(encoding="utf-8").splitlines()]
    with (prep / "samples.jsonl").open("w", encoding="utf-8") as fh:
        for line in (prep / "windows.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            row["days"] = [days[i] for i in row["days"]]
            fh.write(json.dumps(row) + "\n")
    (prep / "days.jsonl").unlink()
    (prep / "windows.jsonl").unlink()
    meta = json.loads((prep / "norm_stats.json").read_text(encoding="utf-8"))
    del meta["format_version"], meta["n_days"]
    (prep / "norm_stats.json").write_text(json.dumps(meta), encoding="utf-8")
    return ("prepared dataset format 1 is not supported, expected 2; "
            "re-run `sentirisk prepare`")


class TestDamagedPrepared:
    @pytest.mark.parametrize("damage", [_cut_days, _cut_windows, _day_index_out_of_range,
                                        _format_1], ids=lambda f: f.__name__.lstrip("_"))
    def test_exits_2_naming_the_fault(self, workspace, trained, tmp_path, capsys, damage):
        prep = tmp_path / "prepared"
        prep.mkdir()
        for src in (workspace["root"] / "prepared").iterdir():
            (prep / src.name).write_bytes(src.read_bytes())
        expected = damage(prep)
        capsys.readouterr()
        rc = main(["evaluate", "--data-dir", str(tmp_path), "--model-in", str(trained)])
        captured = capsys.readouterr()
        assert rc == 2
        assert expected in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestTruncatedVocab:
    @pytest.mark.parametrize("command", ["train", "evaluate", "alert"])
    def test_exits_2_naming_the_day(self, workspace, trained, tmp_path, capsys, command):
        prep = tmp_path / "prepared"
        prep.mkdir()
        for src in (workspace["root"] / "prepared").iterdir():
            (prep / src.name).write_bytes(src.read_bytes())
        vocab = (prep / "vocab.txt").read_text(encoding="utf-8").splitlines(keepends=True)
        (prep / "vocab.txt").write_text("".join(vocab[:3]), encoding="utf-8")
        args = {"train": ["--config", str(workspace["config"]),
                          "--model-out", str(tmp_path / "m.ckpt.json")],
                "evaluate": ["--model-in", str(trained)],
                "alert": ["--model-in", str(trained)]}[command]
        capsys.readouterr()
        rc = main([command, "--data-dir", str(tmp_path), *args])
        captured = capsys.readouterr()
        assert rc == 2
        assert re.search(r"days\.jsonl:\d+: token id \d+ out of range for vocab of 5",
                         captured.err)
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestCompare:
    def test_table_and_json_out(self, workspace, tmp_path, capsys):
        cfg = write_config(tmp_path, {"epochs": 1})
        out = tmp_path / "metrics.json"
        capsys.readouterr()
        rc = main([
            "compare", "--data-dir", str(workspace["root"]),
            "--config", str(cfg), "--out", str(out), "--seed", "0",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["Model", "Ac", "Rec", "F1"]
        assert [ln.split()[0] for ln in lines[1:]] == ["CNN", "GRU", "CNN+GRU"]

        obj = json.loads(out.read_text(encoding="utf-8"))
        assert set(obj) == {"cnn", "gru", "cnn-gru"}
        for report in obj.values():
            assert 0.0 <= report["accuracy"] <= 1.0


class TestPredict:
    def test_csv_and_stdout(self, workspace, trained, tmp_path, capsys):
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        rc = main([
            "predict", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained), "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert f"wrote {N_TEST} predictions -> {out}" in captured.out
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "date,true_close,pred_close"
        assert len(rows) == 1 + N_TEST

    def test_missing_out_flag_exits_1(self, workspace, trained, capsys):
        rc = main([
            "predict", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--out is required" in captured.err

    def test_unwritable_out_exits_3(self, workspace, trained, tmp_path, capsys):
        rc = main([
            "predict", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained),
            "--out", str(tmp_path / "no_such_dir" / "preds.csv"),
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert "i/o error:" in captured.err


PRED_ROWS = [
    {"date": "2023-01-02", "predicted_class": "positive",
     "probs": [0.10, 0.20, 0.70], "predicted_return": 0.01},
    {"date": "2023-01-03", "predicted_class": "positive",
     "probs": [0.15, 0.25, 0.60], "predicted_return": 0.02},
    {"date": "2023-01-04", "predicted_class": "negative",
     "probs": [0.50, 0.20, 0.30], "predicted_return": 0.01},
]


def write_predictions(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in PRED_ROWS), encoding="utf-8"
    )
    return path


class TestAlert:
    def test_bearish_flip_from_predictions_file(self, tmp_path, capsys):
        preds = write_predictions(tmp_path)
        capsys.readouterr()
        rc = main(["alert", "--predictions", str(preds)])
        captured = capsys.readouterr()
        assert rc == 0
        lines = captured.out.splitlines()
        assert len(lines) == 1
        alert = json.loads(lines[0])
        assert alert["kind"] == "bearish_flip"
        assert alert["date"] == "2023-01-04"
        assert alert["predicted_class"] == "negative"
        assert alert["confidence"] == pytest.approx(0.50)

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        preds = write_predictions(tmp_path)
        capsys.readouterr()
        rc = main(["alert", "--predictions", str(preds)])
        stdout_text = capsys.readouterr().out
        out = tmp_path / "alerts.jsonl"
        rc2 = main(["alert", "--predictions", str(preds), "--out", str(out)])
        assert rc == rc2 == 0
        assert out.read_text(encoding="utf-8") == stdout_text

    def test_risk_threshold_from_config(self, tmp_path, capsys):
        # lowering tau to 0.45 puts the flip day's risk (0.50) over the line;
        # the flip alert is emitted before the threshold alert for that day
        preds = write_predictions(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"risk_threshold": 0.45}), encoding="utf-8")
        capsys.readouterr()
        rc = main(["alert", "--predictions", str(preds), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 0
        kinds = [json.loads(ln)["kind"] for ln in captured.out.splitlines()]
        assert kinds == ["bearish_flip", "risk_threshold"]

    def test_end_to_end_with_model(self, workspace, trained, capsys):
        capsys.readouterr()
        rc = main([
            "alert", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained), "--split", "test",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        for line in captured.out.splitlines():
            alert = json.loads(line)
            assert alert["kind"] in {"bearish_flip", "bullish_flip", "risk_threshold"}

    def test_needs_predictions_or_data_dir(self, capsys):
        rc = main(["alert"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "--data-dir is required" in captured.err

    def test_missing_predictions_file_exits_2(self, tmp_path, capsys):
        rc = main(["alert", "--predictions", str(tmp_path / "ghost.jsonl")])
        captured = capsys.readouterr()
        assert rc == 2


class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        rc = main([])
        captured = capsys.readouterr()
        assert rc == 1
        assert "usage:" in captured.err
        assert "a subcommand is required" in captured.err

    def test_unknown_flag_exits_1(self, capsys):
        rc = main(["train", "--bogus"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "usage:" in captured.err
        assert "error:" in captured.err

    def test_unknown_subcommand_exits_1(self, capsys):
        rc = main(["frobnicate"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error:" in captured.err

    def test_help_exits_0(self, capsys):
        rc = main(["--help"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "usage:" in captured.out

    def test_config_defaults_cover_every_documented_key(self):
        # a canary against silent key drift: the documented surface is exactly
        # the resolve_config surface
        assert "seed" in CONFIG_DEFAULTS
        assert "risk_threshold" in CONFIG_DEFAULTS
        assert "window" in CONFIG_DEFAULTS

    def test_config_defaults_equal_the_dataclass_defaults(self):
        mcfg, tcfg, pcfg = ModelConfig(vocab_size=2), TrainConfig(), PrepareConfig()
        owners = (mcfg, tcfg, pcfg, AlertRuleConfig())
        renamed = {
            "attention": [mcfg.attention_enabled],
            "train_ratio": [pcfg.ratios[0]],
            "val_ratio": [pcfg.ratios[1]],
            "test_ratio": [pcfg.ratios[2]],
            # lexicon paths: None selects the bundled lexicons
            "lexicon_positive": [None],
            "lexicon_negative": [None],
        }
        for key, value in CONFIG_DEFAULTS.items():
            defaults = renamed.get(key, [getattr(o, key) for o in owners if hasattr(o, key)])
            assert defaults, f"{key} is no config field"
            assert all(d == value for d in defaults), (key, value, defaults)
        # and every model and training field is a config key (vocab_size comes
        # from the prepared dataset, attention_enabled is the "attention" key)
        for f in dataclasses.fields(ModelConfig) + dataclasses.fields(TrainConfig):
            if f.name not in ("vocab_size", "attention_enabled"):
                assert f.name in CONFIG_DEFAULTS, f.name
