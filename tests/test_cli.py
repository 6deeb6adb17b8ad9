"""End-to-end CLI tests.

Every test drives ``main(argv)`` in-process so exit codes, stdout contracts,
and stderr diagnostics are asserted exactly as a shell user would see them;
the one that reads a config from a pipe, the BLAS thread tests and one
alert run under ``-W error`` run ``python -m sentirisk.cli`` or ``python -c``.
Fixture data comes from the synthetic generators; model dims are tiny so the
train-dependent tests stay fast.
"""

from __future__ import annotations

import argparse
import base64
import dataclasses
import datetime as dt
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

from sentirisk import alerts as alerts_mod
from sentirisk import cli as cli_mod
from sentirisk import data as data_mod
from sentirisk import ingest
from sentirisk import train as train_mod
from sentirisk.alerts import AlertRuleConfig
from sentirisk.cli import CONFIG_DEFAULTS, build_config, build_parser, main
from sentirisk.data import PrepareConfig, load_prepared
from sentirisk.matrix import softmax
from sentirisk.model import (
    ArchKind,
    ModelConfig,
    build_model,
    load_checkpoint,
    model_forward,
    save_checkpoint,
)
from sentirisk.text import CLASS_NAMES
from sentirisk.train import TrainConfig
from sentirisk.synthetic import (
    make_demo_docs,
    make_demo_market,
    write_docs_jsonl,
    write_market_csv,
)

from prepared_files import edit_members, read_members, write_members

SRC = Path(__file__).resolve().parent.parent / "src"
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
        for name in ("vocab.txt", "days.npz", "windows.npz", "norm_stats.json"):
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

    @pytest.mark.parametrize("field, value", [("close", "nan"), ("volume", "inf")])
    def test_non_finite_market_value_exits_2_naming_the_line(self, tmp_path, capsys,
                                                              field, value):
        market = tmp_path / "market.csv"
        write_market_csv(make_demo_market(n_days=20, seed=1), market)
        lines = market.read_text(encoding="utf-8").splitlines()
        row = lines[4].split(",")
        row[ingest.MARKET_CSV_HEADER.index(field)] = value
        lines[4] = ",".join(row)
        market.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["prepare", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"{market}:5: " in captured.err
        assert f"{field} {value} is not finite" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "prepared").exists()

    def test_texts_from_a_pipe_are_read(self, tmp_path, capsys):
        bars = make_demo_market(n_days=20, seed=1)
        write_market_csv(bars, tmp_path / "market.csv")
        docs = tmp_path / "docs.jsonl"
        write_docs_jsonl(make_demo_docs(bars, seed=4), docs)
        os.mkfifo(tmp_path / "texts.jsonl")
        # opening a FIFO for writing blocks until prepare opens it for reading;
        # a daemon, so a prepare that never reads it fails the test, not the run
        writer = threading.Thread(
            target=lambda: (tmp_path / "texts.jsonl").write_bytes(docs.read_bytes()),
            daemon=True)
        writer.start()
        rc = main(["prepare", "--data-dir", str(tmp_path),
                   "--config", str(write_config(tmp_path, {}))])
        writer.join(timeout=30)
        assert not writer.is_alive()
        captured = capsys.readouterr()
        assert rc == 0
        n_docs = sum(1 for line in docs.read_text(encoding="utf-8").splitlines() if line)
        assert f"(20 bars, {n_docs} docs," in captured.out

    def test_texts_that_is_a_directory_exits_2(self, tmp_path, capsys):
        write_market_csv(make_demo_market(n_days=20, seed=1), tmp_path / "market.csv")
        (tmp_path / "texts.jsonl").mkdir()
        rc = main(["prepare", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"file not found: {tmp_path / 'texts.jsonl'}" in captured.err
        assert not (tmp_path / "prepared").exists()

    @pytest.mark.parametrize("text", [5, ["stocks", "surge"]], ids=["int", "list"])
    def test_non_string_text_exits_2_naming_the_line(self, tmp_path, capsys, text):
        write_market_csv(make_demo_market(n_days=20, seed=1), tmp_path / "market.csv")
        (tmp_path / "texts.jsonl").write_text(
            json.dumps({"timestamp": "2020-01-06T10:00:00", "text": text}) + "\n",
            encoding="utf-8")
        rc = main(["prepare", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "texts.jsonl:1: document text must be a non-empty string" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "prepared").exists()

    @pytest.mark.parametrize("line, message", [
        ('["x"]', "not a json object"),
        ('{"timestamp": "2020-01-06T10:00:00", "text": "stocks surge", "lable": "negative"}',
         "unknown keys ['lable']"),
        ('{"timestamp": "2020-01-06T10:00:00", "text": "stocks surge", "source": 5}',
         "source must be a string, got 5"),
    ], ids=["not-an-object", "unknown-key", "non-string-source"])
    def test_malformed_row_exits_2_naming_the_line_and_key(self, tmp_path, capsys, line,
                                                            message):
        write_market_csv(make_demo_market(n_days=20, seed=1), tmp_path / "market.csv")
        good = '{"timestamp": "2020-01-06T09:00:00", "text": "calm day", "source": "x"}'
        (tmp_path / "texts.jsonl").write_text(f"{good}\n{line}\n", encoding="utf-8")
        rc = main(["prepare", "--data-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"{tmp_path / 'texts.jsonl'}:2: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "prepared").exists()


class TestConfigFile:
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


    @pytest.mark.parametrize("command,overrides", [
        ("train", {"attention": "off"}),  # bool("off") trained with attention
        ("train", {"epochs": "ten"}),
        ("train", {"batch_size": 2.5}),
        ("train", {"seed": True}),
        ("prepare", {"min_freq": "x"}),
        ("alert", {"risk_threshold": "high"}),
    ], ids=lambda v: v if isinstance(v, str) else next(iter(v)))
    def test_wrong_type_exits_2_naming_file_and_key(self, workspace, tmp_path, capsys,
                                                    command, overrides):
        cfg = write_config(tmp_path, overrides)
        key = next(iter(overrides))
        rc = main(_config_argv(command, workspace, tmp_path, cfg))
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{cfg}: {key} must be " in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "m.ckpt.json").exists()

    @pytest.mark.parametrize("overrides", [
        {"embed_dim": 0},
        {"mse_weight": 2},
        {"weight_decay": 0.9},  # under Adam: trained as if it were 0.0
        {"weight_decay": 0.1},
        {"optimizer": "sgd", "weight_decay": -1},
    ], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items()))
    def test_out_of_range_exits_2_naming_the_key(self, workspace, tmp_path, capsys,
                                                 overrides):
        cfg = write_config(tmp_path, overrides)
        rc = main(_config_argv("train", workspace, tmp_path, cfg))
        captured = capsys.readouterr()
        assert rc == 2
        assert "data error: " in captured.err
        assert list(overrides)[-1] in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "m.ckpt.json").exists()

    def test_config_read_from_a_pipe(self, workspace, tmp_path):
        # /dev/stdin is the read end of a pipe here, not a regular file
        out = tmp_path / "prep"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "sentirisk.cli", "prepare", "--data-dir",
             str(workspace["root"]), "--config", "/dev/stdin", "--out", str(out)],
            input=json.dumps(TINY_CFG), capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert load_prepared(out).window == WINDOW  # the default window is 20

    def test_config_that_is_a_directory_exits_2(self, workspace, tmp_path, capsys):
        rc = main(_config_argv("prepare", workspace, tmp_path, tmp_path))
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: file not found: {tmp_path}" in captured.err
        assert "Traceback" not in captured.err
        assert not (tmp_path / "prep").exists()

    def test_int_for_a_float_and_null_for_an_optional_accepted(self, workspace, tmp_path):
        cfg = write_config(tmp_path, {"epochs": 1, "mse_weight": 1, "attn_size": None})
        rc = main(_config_argv("train", workspace, tmp_path, cfg))
        assert rc == 0
        mcfg = load_checkpoint(tmp_path / "m.ckpt.json").cfg
        assert (mcfg.mse_weight, mcfg.attn_size) == (1, None)


def _config_argv(command, workspace, tmp_path, cfg):
    if command == "alert":
        return ["alert", "--predictions", str(write_predictions(tmp_path)), "--config", str(cfg)]
    argv = [command, "--data-dir", str(workspace["root"]), "--config", str(cfg)]
    if command == "prepare":
        return [*argv, "--out", str(tmp_path / "prep")]
    return [*argv, "--model-out", str(tmp_path / "m.ckpt.json")]


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

    @pytest.mark.parametrize("route, seed", [("flag", -1), ("config", -5), ("env", -3)])
    def test_negative_seed_exits_2_naming_seed(self, workspace, tmp_path, monkeypatch,
                                               capsys, route, seed):
        # PCG64 takes no negative seed: each route ended in a ValueError traceback
        cfg = write_config(tmp_path, {"epochs": 1, "seed": seed} if route == "config"
                           else {"epochs": 1})
        if route == "env":
            monkeypatch.setenv("SENTI_RISK_SEED", str(seed))
        flag = ["--seed", str(seed)] if route == "flag" else []
        out = tmp_path / "m.ckpt.json"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(workspace["root"]), "--config", str(cfg),
                   "--model-out", str(out), *flag])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: seed must be non-negative, got {seed}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_non_integer_env_exits_1(self, workspace, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SENTI_RISK_SEED", "abc")
        rc = main([
            "train", "--data-dir", str(workspace["root"]),
            "--config", str(workspace["config"]),
            "--model-out", str(tmp_path / "m.ckpt.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage: sentirisk train ")
        assert ("sentirisk train: error: SENTI_RISK_SEED must be an integer, got 'abc'\n"
                in captured.err)
        assert captured.out == ""

    def test_env_unread_where_no_seed_is_taken(self, workspace, trained, monkeypatch, capsys):
        # evaluate draws no random numbers: a bad SENTI_RISK_SEED once exited 1 here
        argv = ["evaluate", "--data-dir", str(workspace["root"]), "--model-in", str(trained)]
        capsys.readouterr()
        assert main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setenv("SENTI_RISK_SEED", "abc")
        assert main(argv) == 0
        assert capsys.readouterr().out == want


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

    @pytest.mark.parametrize("arch", ["cnn-gru", "gru"])
    def test_kernel_narrower_than_its_stride_trains(self, workspace, tmp_path, capsys, arch):
        # windows start at 0, 3 and 6 and end by 8: a 9-token document ends past them
        cfg = write_config(tmp_path, {"epochs": 1, "kernel_width": 2, "conv_stride": 3,
                                      "max_doc_len": 9})
        ckpt = tmp_path / "m.ckpt.json"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(workspace["root"]), "--config", str(cfg),
                   "--model-out", str(ckpt), "--arch", arch, "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert f"trained {arch} for 1 epochs" in captured.out
        assert load_checkpoint(ckpt).cfg.max_doc_len == 9

    @pytest.mark.parametrize("flag", ["--model-out", "--history-out"])
    def test_missing_output_directory_exits_3_before_any_epoch(self, workspace, tmp_path,
                                                               capsys, monkeypatch, flag):
        # it once trained every epoch, then named a temp file beside the path
        runs = []
        monkeypatch.setattr(train_mod, "train", lambda *args: runs.append(args))
        missing = tmp_path / "nodir" / "m.out"
        paths = {"--model-out": str(tmp_path / "m.ckpt.json"), flag: str(missing)}
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(workspace["root"]),
                   "--config", str(workspace["config"]), *(x for kv in paths.items() for x in kv)])
        captured = capsys.readouterr()
        assert rc == 3
        assert (f"i/o error: cannot write {missing}: no directory {missing.parent}\n"
                in captured.err)
        assert runs == [] and "epoch" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_missing_data_dir_flag_exits_1(self, tmp_path, capsys):
        rc = main(["train", "--model-out", str(tmp_path / "m.ckpt.json")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "the following arguments are required: --data-dir" in captured.err

    def test_unprepared_dir_exits_2(self, tmp_path, capsys):
        rc = main([
            "train", "--data-dir", str(tmp_path),
            "--model-out", str(tmp_path / "m.ckpt.json"),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "no prepared dataset" in captured.err


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(args, returncode=0, **blas_vars) -> subprocess.CompletedProcess:
    """sys.executable with args, sentirisk on its path, and of the BLAS thread
    variables only those given; it must exit with returncode."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, *args], env={**env, **blas_vars},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == returncode, proc.stderr
    return proc


class TestBlasThreads:
    """import sentirisk pins BLAS to one thread unless the user chose a count."""

    SHOW = f"import os; print([os.environ.get(v) for v in {BLAS_VARS!r}])"

    @pytest.mark.parametrize("first, blas_vars, want", [
        ("import sentirisk", {}, ["1", "1", "1"]),
        ("import sentirisk", {"OMP_NUM_THREADS": "2"}, [None, "2", None]),
        ("import sentirisk", {"MKL_NUM_THREADS": ""}, [None, None, ""]),
        ("import numpy, sentirisk", {}, [None, None, None]),
    ], ids=["unset", "user-set", "user-set-empty", "numpy-first"])
    def test_import_pins_only_unset_variables_before_numpy(self, first, blas_vars, want):
        assert run_python(["-c", f"{first}; {self.SHOW}"], **blas_vars).stdout == f"{want}\n"

    def test_seeded_train_same_bytes_unset_and_pinned(self, tmp_path):
        # the default model on a 60-day demo: on a multi-core machine, BLAS
        # threads would sum its weight gradients in another order
        bars = make_demo_market(n_days=60, seed=3)
        write_market_csv(bars, tmp_path / "market.csv")
        write_docs_jsonl(make_demo_docs(bars, seed=4), tmp_path / "texts.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 3}', encoding="utf-8")
        assert main(["prepare", "--data-dir", str(tmp_path)]) == 0
        outs = []
        for name, blas_vars in (("unset", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
            ckpt = tmp_path / f"{name}.ckpt.json"
            run_python(["-m", "sentirisk.cli", "train", "--data-dir", str(tmp_path),
                        "--config", str(cfg), "--seed", "0", "--model-out", str(ckpt)],
                       **blas_vars)
            outs.append((ckpt.read_bytes(), (tmp_path / f"{name}.history.jsonl").read_bytes()))
        assert outs[0] == outs[1]


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

    def _rejected(self, workspace, path, capsys) -> str:
        """evaluate's stderr for checkpoint path, asserting a clean exit 2."""
        capsys.readouterr()
        rc = main([
            "evaluate", "--data-dir", str(workspace["root"]), "--model-in", str(path),
        ])
        captured = capsys.readouterr()
        assert rc == 2
        assert "data error" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        return captured.err

    def test_overflowing_regression_mse_exits_3_naming_it(self, workspace, trained, tmp_path,
                                                          capsys):
        # a return of 1e300 squares past the largest float: a non-finite metric,
        # not JSON's Infinity, and no numpy overflow warning on the way
        ckpt = with_return_head(trained, tmp_path / "huge.ckpt.json", 1e300)
        capsys.readouterr()
        rc = main(["evaluate", "--data-dir", str(workspace["root"]), "--model-in", str(ckpt)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "numeric/runtime error: regression_mse is inf, not finite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_large_finite_regression_mse_is_reported(self, workspace, trained, tmp_path,
                                                     capsys):
        ckpt = with_return_head(trained, tmp_path / "large.ckpt.json", 1e6)
        capsys.readouterr()
        rc = main(["evaluate", "--data-dir", str(workspace["root"]), "--model-in", str(ckpt)])
        assert rc == 0
        assert 1e11 < json.loads(capsys.readouterr().out)["regression_mse"] < math.inf

    def test_format_1_checkpoint_exits_2_naming_the_version(self, workspace, trained,
                                                            tmp_path, capsys):
        # format 1 held one (width, embed) tensor per filter, conv/k0, conv/k1, ...,
        # as nested float lists, and a num_classes config key
        obj = json.loads(trained.read_text())
        obj["tensors"] = format_2_tensors(obj)
        del obj["values"]
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
        assert "format_version 1" in self._rejected(workspace, old, capsys)

    def test_format_2_checkpoint_exits_2_naming_the_version(self, workspace, trained,
                                                            tmp_path, capsys):
        # format 2 held every tensor as {rows, cols, values} with nested float lists
        obj = json.loads(trained.read_text())
        obj["tensors"] = format_2_tensors(obj)
        del obj["values"]
        obj["format_version"] = 2
        old = tmp_path / "format2.ckpt.json"
        old.write_text(json.dumps(obj), encoding="utf-8")
        assert "format_version 2, expected 3" in self._rejected(workspace, old, capsys)

    def test_nonzero_pad_embedding_exits_2_naming_the_file(self, workspace, trained,
                                                            tmp_path, capsys):
        obj = json.loads(trained.read_text())
        flat = np.frombuffer(base64.b64decode(obj["values"]), dtype="<f8").copy()
        flat[0] = 1.0  # embedding row 0, column 0
        obj["values"] = base64.b64encode(flat.tobytes()).decode("ascii")
        bad = tmp_path / "pad.ckpt.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        err = self._rejected(workspace, bad, capsys)
        assert str(bad) in err and "embedding row 0" in err

    @pytest.mark.parametrize("edit, message", [
        ({"embed_dim": 4.0}, "embed_dim must be an integer, got 4.0"),
        ({"vocab_size": "20"}, 'vocab_size must be an integer, got "20"'),
        ({"seed": -1}, "seed must be non-negative, got -1"),
        *(({key: 10**20}, f"{key} must be below 2**63, got {10**20}")
          for key in ("vocab_size", "embed_dim", "num_filters", "gru_hidden", "max_doc_len",
                      "attn_size", "conv_stride")),
    ], ids=["float-embed_dim", "string-vocab_size", "negative-seed", "huge-vocab_size",
            "huge-embed_dim", "huge-num_filters", "huge-gru_hidden", "huge-max_doc_len",
            "huge-attn_size", "huge-conv_stride"])
    def test_mistyped_config_block_exits_2_naming_file_key_and_type(
            self, workspace, trained, tmp_path, capsys, edit, message):
        obj = json.loads(trained.read_text())
        obj["config"].update(edit)
        bad = tmp_path / "typed.ckpt.json"
        bad.write_text(json.dumps(obj), encoding="utf-8")
        assert f"bad config block in {bad}: {message}" in self._rejected(workspace, bad, capsys)


def format_2_tensors(obj: dict) -> dict:
    """A format-3 checkpoint's tensors as format 2 stored them: nested float lists."""
    flat = np.frombuffer(base64.b64decode(obj["values"]), dtype="<f8")
    tensors, at = {}, 0
    for name, (rows, cols) in obj["tensors"].items():
        values = flat[at : at + rows * cols].reshape(rows, cols).tolist()
        tensors[name] = {"rows": rows, "cols": cols, "values": values}
        at += rows * cols
    return tensors


def with_return_head(ckpt: Path, out: Path, bias: float, weight: float | None = None
                     ) -> Path:
    """A copy of checkpoint ckpt at out whose return head's bias, head_reg/b, is
    bias, and each of whose weights, head_reg/w, is weight if one is given."""
    obj = json.loads(ckpt.read_text())
    flat = np.frombuffer(base64.b64decode(obj["values"]), dtype="<f8").copy()
    fills = {"head_reg/b": bias, **({} if weight is None else {"head_reg/w": weight})}
    at = 0
    for name, (rows, cols) in obj["tensors"].items():
        if name in fills:
            flat[at : at + rows * cols] = fills[name]
        at += rows * cols
    obj["values"] = base64.b64encode(flat.tobytes()).decode("ascii")
    out.write_text(json.dumps(obj), encoding="utf-8")
    return out


class TestNonFiniteOutputs:
    """A checkpoint whose predicted returns overflow to -inf: every scoring
    command exits 3 naming the first target date, writes nothing, and raises
    no numpy warning on the way (alert once wrote -Infinity and exited 0)."""

    def overflowing(self, trained: Path, tmp_path: Path) -> Path:
        return with_return_head(trained, tmp_path / "overflow.ckpt.json", -1.7e308, -1.7e308)

    def argv(self, command: str, workspace, ckpt: Path, out: Path) -> list[str]:
        argv = [command, "--data-dir", str(workspace["root"]), "--model-in", str(ckpt),
                "--split", "train"]
        return argv if command == "evaluate" else [*argv, "--out", str(out)]

    @pytest.mark.parametrize("command", ["evaluate", "predict", "alert"])
    def test_exits_3_naming_the_first_date(self, workspace, trained, tmp_path, capsys,
                                           command):
        out = tmp_path / "out"
        argv = self.argv(command, workspace, self.overflowing(trained, tmp_path), out)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as under -W error
            rc = main(argv)
        captured = capsys.readouterr()
        first = load_prepared(workspace["root"] / "prepared").splits()[0][0].target_date
        assert rc == 3
        assert (f"numeric/runtime error: model outputs for {first} are not finite: "
                f"predicted return -inf, logits [") in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_alert_under_w_error(self, workspace, trained, tmp_path):
        # the installed command as CI runs it: every warning an error
        out = tmp_path / "alerts.jsonl"
        argv = self.argv("alert", workspace, self.overflowing(trained, tmp_path), out)
        proc = run_python(["-W", "error", "-m", "sentirisk.cli", *argv], returncode=3)
        assert "numeric/runtime error: model outputs for " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not out.exists()


class TestNonUtf8Input:
    """One byte that is not UTF-8, appended to any input file, is a data error naming it."""

    @pytest.mark.parametrize("name", ["market.csv", "texts.jsonl", "config", "lexicon",
                                      "vocab.txt", "norm_stats.json",
                                      "checkpoint"])
    def test_exits_2_naming_the_file(self, workspace, trained, tmp_path, capsys, name):
        raw, prep = tmp_path / "raw", tmp_path / "prepared"
        for src_dir, dst in ((workspace["root"], raw), (workspace["root"] / "prepared", prep)):
            dst.mkdir()
            for src in src_dir.iterdir():
                if src.is_file():
                    (dst / src.name).write_bytes(src.read_bytes())
        ckpt = tmp_path / "model.ckpt.json"
        ckpt.write_bytes(trained.read_bytes())
        if name in ("market.csv", "texts.jsonl"):
            bad, argv = raw / name, ["prepare", "--data-dir", str(raw)]
        elif name == "lexicon":
            bad = raw / "positive.txt"
            bad.write_text("surge\n", encoding="utf-8")
            (raw / "negative.txt").write_text("plunge\n", encoding="utf-8")
            cfg = write_config(tmp_path, {"lexicon_positive": str(bad),
                                          "lexicon_negative": str(raw / "negative.txt")})
            argv = ["prepare", "--data-dir", str(raw), "--config", str(cfg)]
        elif name == "config":
            bad = raw / "config.json"
            argv = ["train", "--data-dir", str(prep), "--config", str(bad),
                    "--model-out", str(tmp_path / "out.ckpt.json")]
        else:
            bad = ckpt if name == "checkpoint" else prep / name
            argv = ["evaluate", "--data-dir", str(prep), "--model-in", str(ckpt)]
        with bad.open("ab") as fh:
            fh.write(b"\xff")
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: {bad}: not UTF-8 text" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out.ckpt.json").exists()


class TestLexiconEntries:
    """prepare refuses a lexicon line that could never match a token: exit 2
    naming the file and line, and no prepared/ written. (Every kind of such
    line is refused by Lexicon.from_files, tests/test_text.py.)"""

    def test_exits_2_naming_path_and_line(self, workspace, tmp_path, capsys):
        line = "bull-run"
        raw = tmp_path / "raw"
        raw.mkdir()
        for name in ("market.csv", "texts.jsonl"):
            shutil.copy(workspace["root"] / name, raw / name)
        pos, neg = raw / "positive.txt", raw / "negative.txt"
        pos.write_text(f"{line}\nrally\n", encoding="utf-8")
        neg.write_text("plunge\n", encoding="utf-8")
        cfg = write_config(tmp_path, {"lexicon_positive": str(pos),
                                      "lexicon_negative": str(neg)})
        capsys.readouterr()
        rc = main(["prepare", "--data-dir", str(raw), "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: {pos}:1: lexicon entry {line!r} can never match" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (raw / "prepared").exists()


class TestCheckpointDatasetMismatch:
    @pytest.mark.parametrize("key, delta", [("vocab_size", 6), ("vocab_size", -6),
                                            ("window", 1)],
                             ids=["larger vocab", "smaller vocab", "longer window"])
    @pytest.mark.parametrize("command", ["evaluate", "predict", "alert"])
    def test_exits_2_naming_both_values(self, workspace, trained, tmp_path, capsys,
                                        command, key, delta):
        model = load_checkpoint(trained)
        want = getattr(model.cfg, key)
        other = dataclasses.replace(model.cfg, **{key: want + delta})
        ckpt = tmp_path / "other.ckpt.json"
        save_checkpoint(build_model(other, model.arch), ckpt)
        out = tmp_path / "preds.csv"
        extra = ["--out", str(out)] if command == "predict" else []
        capsys.readouterr()
        rc = main([command, "--data-dir", str(workspace["root"]), "--model-in", str(ckpt),
                   *extra])
        captured = capsys.readouterr()
        assert rc == 2
        assert (f"checkpoint {ckpt} has {key} {want + delta}, but the prepared dataset "
                f"{workspace['root'] / 'prepared'} has {want}") in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


def _cut_in_half(path):
    content = path.read_bytes()
    path.write_bytes(content[: len(content) // 2])
    return f"{path}: not a zip of .npy members ("


def _cut_days(prep):
    return _cut_in_half(prep / "days.npz")


def _cut_windows(prep):
    return _cut_in_half(prep / "windows.npz")


def _meta(prep):
    return json.loads((prep / "norm_stats.json").read_text(encoding="utf-8"))


def _day_index_out_of_range(prep):
    # a window's first day: its days are rows start .. start + WINDOW - 1
    n_days = _meta(prep)["n_days"]
    _rewrite_entry(prep / "windows.npz", "start", 2, n_days - WINDOW + 1)
    return f"windows.npz: start[2]: must lie in [0, {n_days - WINDOW}], got {n_days - WINDOW + 1}"


def _rows(prep):
    """The days and windows of prep as format 3 stored them: one object per row."""
    ds = load_prepared(prep)
    d, w = ds.days, ds.windows
    days = [{"date": date.isoformat(), "raw": list(raw), "close": close,
             "label": CLASS_NAMES[label], "token_seqs": [list(seq) for seq in seqs]}
            for date, raw, seqs, label, close in zip(d.date, d.raw, d.token_seqs, d.label,
                                                     d.close)]
    windows = [{"start": start, "target_date": date.isoformat(),
                "target_class": CLASS_NAMES[cls], "target_return_raw": ret,
                "target_close": close}
               for start, date, cls, ret, close in zip(w.start, w.target_date, w.target_class,
                                                       w.target_return_raw, w.target_close)]
    return days, windows


def _older_format(prep, version, files):
    """prep in format version: days.npz and windows.npz replaced by files, each
    a list of rows written one JSON object per line, or a JSON object."""
    (prep / "days.npz").unlink()
    (prep / "windows.npz").unlink()
    for name, content in files.items():
        text = (json.dumps(content, separators=(",", ":")) + "\n" if isinstance(content, dict)
                else "".join(json.dumps(r) + "\n" for r in content))
        (prep / name).write_text(text, encoding="utf-8")
    meta = _meta(prep)
    meta["format_version"] = version
    if version == 1:  # its norm_stats.json had no format_version or n_days
        del meta["format_version"], meta["n_days"]
    (prep / "norm_stats.json").write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return (f"prepared dataset format {version} is not supported, expected 5; "
            "re-run `sentirisk prepare`")


def _format_1(prep):
    # format 1 spelled every window's days out in samples.jsonl
    days, windows = _rows(prep)
    for row in windows:
        start = row.pop("start")
        row["days"] = days[start : start + WINDOW]
    return _older_format(prep, 1, {"samples.jsonl": windows})


def _format_2(prep):
    # format 2 had format 3's files, with copies of derivable fields in their rows
    days, windows = _rows(prep)
    days = [{**row, "has_text": bool(row["token_seqs"])} for row in days]
    return _older_format(prep, 2, {"days.jsonl": days, "windows.jsonl": windows})


def _format_3(prep):
    # format 3 stored one JSON object per day and per window, one line each
    days, windows = _rows(prep)
    return _older_format(prep, 3, {"days.jsonl": days, "windows.jsonl": windows})


def _format_4(prep):
    # format 4 stored each file's columns as one JSON object
    files = {f"{name}.json": {key: [row[key] for row in rows] for key in rows[0]}
             for name, rows in zip(("days", "windows"), _rows(prep))}
    return _older_format(prep, 4, files)


def _rewrite_entry(path, member, row, value):
    """Sets entry row of member in the column file path; value may be a function
    of the old entry."""
    def rewrite(members):
        old = members[member][row]
        members[member][row] = value(old) if callable(value) else value

    edit_members(path, rewrite)


def _swapped_days(prep):
    def swap(members):
        for key in ("date", "raw", "close", "label", "doc_counts"):
            members[key][[3, 4]] = members[key][[4, 3]]

    edit_members(prep / "days.npz", swap)
    later, earlier = map(dt.date.fromordinal, read_members(prep / "days.npz")["date"][3:5])
    return f"days.npz: date[4]: dates must be strictly increasing: {later} then {earlier}"


def _leftover_has_text(prep):
    # has_text: 0 on a day with text once made the model drop that day's text
    edit_members(prep / "days.npz",
                 lambda m: m.update(has_text=np.zeros(len(m["date"]), np.int8)))
    return f"{prep / 'days.npz'}: unknown members ['has_text']"


def _leftover_features(prep):
    edit_members(prep / "days.npz", lambda m: m.update(features=np.zeros((len(m["date"]), 5))))
    return f"{prep / 'days.npz'}: unknown members ['features']"


def _missing_close(prep):
    edit_members(prep / "days.npz", lambda m: m.pop("close"))
    return f"{prep / 'days.npz'}: missing member 'close'"


def _short_label(prep):
    # a column one entry short, as a row count off by one was in format 3
    edit_members(prep / "days.npz", lambda m: m.update(label=m["label"][:-1]))
    n_days = _meta(prep)["n_days"]
    return (f"{prep / 'days.npz'}: label: int8 of shape ({n_days - 1},), expected int8 of "
            f"shape ({n_days},)")


def _boolean_raw(prep):
    edit_members(prep / "days.npz", lambda m: m.update(raw=m["raw"] != 0))
    n_days = _meta(prep)["n_days"]
    return f"days.npz: raw: bool of shape ({n_days}, 4), expected float64 of shape ({n_days}, 4)"


def _nan_raw(prep):
    _rewrite_entry(prep / "days.npz", "raw", 1, lambda raw: [math.nan, *raw[1:]])
    return "days.npz: raw[1]: must be 4 finite numbers, got [nan, "


def _infinite_close(prep):
    _rewrite_entry(prep / "days.npz", "close", 2, math.inf)
    return "days.npz: close[2]: must be finite, got inf"


def _nan_target_return_raw(prep):
    _rewrite_entry(prep / "windows.npz", "target_return_raw", 1, math.nan)
    return "windows.npz: target_return_raw[1]: must be finite, got nan"


def _infinite_target_close(prep):
    _rewrite_entry(prep / "windows.npz", "target_close", 3, -math.inf)
    return "windows.npz: target_close[3]: must be finite, got -inf"


def _unknown_target_class(prep):
    _rewrite_entry(prep / "windows.npz", "target_class", 1, 3)
    return "windows.npz: target_class[1]: must be a class index (0 to 2), got 3"


def _target_date_in_the_window(prep, row=2, offset=-1):
    # a target_date on the window's last day, or past the day after it, was
    # loaded as is and written into predict's CSV and alert's rows
    dates = list(map(dt.date.fromordinal, read_members(prep / "days.npz")["date"]))
    start = int(read_members(prep / "windows.npz")["start"][row])
    bad = dates[start + WINDOW + offset]
    _rewrite_entry(prep / "windows.npz", "target_date", row, bad.toordinal())
    return (f"windows.npz: target_date[{row}]: target_date {bad} must be after the window's "
            f"last day {dates[start + WINDOW - 1]} and not after {dates[start + WINDOW]}")


def _target_date_past_the_next_day(prep):
    return _target_date_in_the_window(prep, row=1, offset=1)


def _unknown_day_label(prep):
    _rewrite_entry(prep / "days.npz", "label", 2, 7)
    return "days.npz: label[2]: must be a class index (0 to 2), got 7"


def _huge_header(prep, n_days=None):
    # a header claiming 2**40 rows, over a member of 16 bytes
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": "<i4", "fortran_order": False,
                                                  "shape": (2**40,)})
    edit_members(prep / "days.npz", lambda m: m.update(date=header.getvalue() + bytes(16)))
    return (f"{prep / 'days.npz'}: date: int32 of shape ({2**40},), expected int32 of shape "
            f"({_meta(prep)['n_days']},)")


def _huge_header_and_n_days(prep):
    # norm_stats.json agreeing with the header: the member holds too few bytes
    _huge_header(prep)
    meta = _meta(prep)
    meta["n_days"] = 2**40
    (prep / "norm_stats.json").write_text(json.dumps(meta), encoding="utf-8")
    return f"{prep / 'days.npz'}: date: holds 16 bytes of data, expected {4 * 2**40}"


def _deflated_member(prep):
    path = prep / "windows.npz"
    write_members(path, read_members(path), zipfile.ZIP_DEFLATED)
    return f"{path}: start: compressed (zip method 8); format 5 stores members uncompressed"


def _object_member(prep):
    # an object array is a pickle: load_prepared refuses its header, never unpickling it
    edit_members(prep / "days.npz", lambda m: m.update(label=m["label"].astype(object)))
    n_days = _meta(prep)["n_days"]
    return (f"{prep / 'days.npz'}: label: object of shape ({n_days},), expected int8 of shape "
            f"({n_days},)")


def _token_id_equal_to_vocab_size(prep):
    size = len((prep / "vocab.txt").read_text(encoding="utf-8").splitlines()) + 2
    _rewrite_entry(prep / "days.npz", "token_ids", 0, size)
    return f"days.npz: token_ids[0]: token id {size} out of range for vocab of {size}, in day row "


def _counts_past_the_lengths(prep):
    n_docs = len(read_members(prep / "days.npz")["doc_lengths"])
    _rewrite_entry(prep / "days.npz", "doc_counts", 1, lambda n: n + 1)
    return (f"days.npz: doc_lengths: int32 of shape ({n_docs},), expected int32 of shape "
            f"({n_docs + 1},)")


class TestDamagedPrepared:
    @pytest.mark.parametrize("damage", [_cut_days, _cut_windows, _day_index_out_of_range,
                                        _format_1, _unknown_target_class, _unknown_day_label,
                                        _format_2, _format_3, _format_4, _swapped_days,
                                        _leftover_has_text, _missing_close, _short_label,
                                        _leftover_features, _boolean_raw, _nan_raw,
                                        _infinite_close, _nan_target_return_raw,
                                        _infinite_target_close, _target_date_in_the_window,
                                        _target_date_past_the_next_day, _huge_header,
                                        _huge_header_and_n_days, _deflated_member,
                                        _object_member, _token_id_equal_to_vocab_size,
                                        _counts_past_the_lengths],
                             ids=lambda f: f.__name__.lstrip("_"))
    def test_exits_2_naming_the_fault(self, workspace, trained, tmp_path, capsys, damage):
        prep = tmp_path / "prepared"
        prep.mkdir()
        for src in (workspace["root"] / "prepared").iterdir():
            (prep / src.name).write_bytes(src.read_bytes())
        expected = damage(prep)
        size = sum(p.stat().st_size for p in prep.iterdir())
        capsys.readouterr()
        tracemalloc.start()
        try:
            rc = main(["evaluate", "--data-dir", str(tmp_path), "--model-in", str(trained)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert rc == 2
        assert expected in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        # no member is read, or its array allocated, past what the files hold
        assert peak < 4 * size + 2**21, peak

    @pytest.mark.parametrize("version, directory", [(3, "prepared"), (4, "prepared_format4")])
    def test_committed_older_format_directory_exits_2_on_train(self, tmp_path, capsys,
                                                                version, directory):
        # the golden fixtures are directories earlier releases prepared
        shutil.copytree(Path(__file__).parent / "fixtures" / "golden_prepare" / directory,
                        tmp_path / "prepared")
        ckpt = tmp_path / "model.ckpt.json"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(tmp_path), "--model-out", str(ckpt)])
        captured = capsys.readouterr()
        assert rc == 2
        assert (f"prepared dataset format {version} is not supported, expected 5; "
                "re-run `sentirisk prepare`") in captured.err
        assert "Traceback" not in captured.err
        assert not ckpt.exists()

    @pytest.mark.parametrize("ratios, message", [
        ([0.7, 0.3, 0.0], "split ratios must all be positive and finite, got (0.7, 0.3, 0.0)"),
        ([0.5, 0.3, 0.3], "split ratios must sum to 1, got (0.5, 0.3, 0.3)"),
    ], ids=["zero-ratio", "sum-above-1"])
    def test_bad_split_ratios_exit_2_on_train_naming_the_file(self, workspace, tmp_path,
                                                              capsys, ratios, message):
        # split_chronological refused them at train time, without the file's name
        prep = tmp_path / "prepared"
        shutil.copytree(workspace["root"] / "prepared", prep)
        path = prep / "norm_stats.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        meta["ratios"] = ratios
        path.write_text(json.dumps(meta), encoding="utf-8")
        ckpt = tmp_path / "model.ckpt.json"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(tmp_path), "--config", str(workspace["config"]),
                   "--model-out", str(ckpt)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: {path}: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert not ckpt.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(window=str(m["window"])),
         f'window must be an integer, got "{WINDOW}"'),
        (lambda m: m.update(n_days=m["n_days"] + 0.7), "n_days must be an integer, got "),
        (lambda m: m["means"].__setitem__(0, float("nan")),
         "means must be 4 finite numbers, got [nan, "),
        (lambda m: m["stds"].__setitem__(0, 0.0),
         "stds must be 4 finite positive numbers, got [0.0, "),
        (lambda m: m["stds"].__setitem__(1, -0.02), "stds must be 4 finite positive numbers"),
    ], ids=["string-window", "float-n_days", "nan-mean", "zero-std", "negative-std"])
    def test_bad_norm_stats_value_exits_2_naming_path_and_key(self, workspace, trained,
                                                              tmp_path, capsys, edit, message):
        # each was coerced with int()/float() or taken as is, and scored with exit 0
        prep = tmp_path / "prepared"
        prep.mkdir()
        for src in (workspace["root"] / "prepared").iterdir():
            (prep / src.name).write_bytes(src.read_bytes())
        path = prep / "norm_stats.json"
        meta = json.loads(path.read_text(encoding="utf-8"))
        edit(meta)
        path.write_text(json.dumps(meta), encoding="utf-8")
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        rc = main(["predict", "--data-dir", str(prep), "--model-in", str(trained),
                   "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"data error: {path}: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestJsonDocuments:
    """The config file, the checkpoint and norm_stats.json are read by one reader:
    each fault exits 2 naming the file's full path and the key at fault."""

    MISTYPED = {"config": ("epochs", "ten", 'epochs must be an integer, got "ten"'),
                "checkpoint": ("arch", 5, "arch must be a string, got 5"),
                "norm_stats.json": ("window", 20.9, "window must be an integer, got 20.9")}

    @pytest.mark.parametrize("fault", ["missing", "bad-json", "array", "unknown-key",
                                       "mistyped-key"])
    @pytest.mark.parametrize("document", ["config", "checkpoint", "norm_stats.json"])
    def test_exits_2_naming_path_and_key(self, workspace, trained, tmp_path, capsys,
                                         document, fault):
        prep = tmp_path / "prepared"
        prep.mkdir()
        for src in (workspace["root"] / "prepared").iterdir():
            (prep / src.name).write_bytes(src.read_bytes())
        ckpt = tmp_path / "model.ckpt.json"
        ckpt.write_bytes(trained.read_bytes())
        cfg = write_config(tmp_path, {"epochs": 1})
        path = {"config": cfg, "checkpoint": ckpt, "norm_stats.json": prep / "norm_stats.json"}[
            document]
        obj = json.loads(path.read_text(encoding="utf-8"))
        message = {"bad-json": "bad json (", "array": "not a json object",
                   "unknown-key": "unknown keys ['mystery']"}.get(fault)
        if fault == "missing":
            path.unlink()
        elif fault == "bad-json":
            path.write_text("{", encoding="utf-8")
        elif fault == "array":
            path.write_text(json.dumps([obj]), encoding="utf-8")
        else:
            key, value, message = (("mystery", 1, message) if fault == "unknown-key"
                                   else self.MISTYPED[document])
            path.write_text(json.dumps({**obj, key: value}), encoding="utf-8")
        out = tmp_path / "out.ckpt.json"
        argv = (["train", "--data-dir", str(prep), "--config", str(cfg), "--model-out", str(out)]
                if document == "config"
                else ["evaluate", "--data-dir", str(prep), "--model-in", str(ckpt)])
        capsys.readouterr()
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        if fault != "missing":
            assert f"data error: {path}: {message}" in captured.err
        elif document == "norm_stats.json":
            assert f"data error: no prepared dataset under {prep}: no {path} or " in captured.err
        else:
            assert f"data error: file not found: {path}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


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
        assert re.search(r"days\.npz: token_ids\[\d+\]: token id \d+ out of range for "
                         r"vocab of 5, in day row \d+$",
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

    def test_missing_out_directory_exits_3_before_any_training(self, workspace, tmp_path,
                                                                capsys, monkeypatch):
        # it once trained all three archs, then named a temp file beside the path
        runs = []
        monkeypatch.setattr(train_mod, "train", lambda *args: runs.append(args))
        out = tmp_path / "nodir" / "metrics.json"
        capsys.readouterr()
        rc = main(["compare", "--data-dir", str(workspace["root"]),
                   "--config", str(workspace["config"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"i/o error: cannot write {out}: no directory {out.parent}\n" in captured.err
        assert runs == [] and captured.out == ""

    def test_failed_write_leaves_the_previous_out_file(self, workspace, tmp_path, capsys,
                                                       monkeypatch):
        cfg = write_config(tmp_path, {"epochs": 1})
        out = tmp_path / "metrics.json"
        out.write_bytes(b'{"previous": true}\n')

        def fail(src, dst):
            raise OSError(f"cannot replace {dst}")

        monkeypatch.setattr(data_mod.os, "replace", fail)
        rc = main([
            "compare", "--data-dir", str(workspace["root"]),
            "--config", str(cfg), "--out", str(out), "--seed", "0",
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert "i/o error:" in captured.err
        assert out.read_bytes() == b'{"previous": true}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "metrics.json"]


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

    @pytest.mark.parametrize("bias", [1e6, 1e300])
    def test_overflowing_close_exits_3_naming_the_first_date(self, workspace, trained,
                                                             tmp_path, capsys, bias):
        # exp of the denormalized return overflows for every window of the split
        ckpt = with_return_head(trained, tmp_path / "huge.ckpt.json", bias)
        out = tmp_path / "preds.csv"
        capsys.readouterr()
        rc = main(["predict", "--data-dir", str(workspace["root"]), "--model-in", str(ckpt),
                   "--out", str(out)])
        captured = capsys.readouterr()
        first = load_prepared(workspace["root"] / "prepared").splits()[2][0].target_date
        assert rc == 3
        assert f"numeric/runtime error: predicted close for {first} is not finite" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_missing_out_flag_exits_1(self, workspace, trained, capsys):
        rc = main([
            "predict", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained),
        ])
        captured = capsys.readouterr()
        assert rc == 1
        assert "the following arguments are required: --out" in captured.err

    def test_unwritable_out_exits_3(self, workspace, trained, tmp_path, capsys):
        rc = main([
            "predict", "--data-dir", str(workspace["root"]),
            "--model-in", str(trained),
            "--out", str(tmp_path / "no_such_dir" / "preds.csv"),
        ])
        captured = capsys.readouterr()
        assert rc == 3
        assert "i/o error:" in captured.err


class TestOutDirectoryCheckedFirst:
    """predict and alert check that --out's directory exists before they load
    a checkpoint, a dataset or predictions, or score a window."""

    @pytest.fixture
    def nothing_read(self, monkeypatch):
        def called(*args, **kwargs):
            pytest.fail("read or scored before --out's directory was checked")

        for owner, name in ((cli_mod, "load_checkpoint"), (data_mod, "load_prepared"),
                            (train_mod, "score_windows"),
                            (alerts_mod, "load_predictions_jsonl")):
            monkeypatch.setattr(owner, name, called)

    @pytest.mark.parametrize("form", ["predict", "alert --model-in", "alert --predictions"])
    def test_missing_directory_exits_3_naming_the_path(self, workspace, trained, tmp_path,
                                                       capsys, nothing_read, form):
        out = tmp_path / "no_such_dir" / "out.txt"
        model_in = ["--data-dir", str(workspace["root"]), "--model-in", str(trained)]
        argv = {"predict": ["predict", *model_in],
                "alert --model-in": ["alert", *model_in],
                "alert --predictions": ["alert", "--predictions",
                                        str(write_predictions(tmp_path))]}[form]
        rc = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 3
        assert f"i/o error: cannot write {out}: no directory {out.parent}" in captured.err
        assert captured.out == ""


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

    def test_model_run_matches_the_per_window_oracle(self, workspace, trained, tmp_path,
                                                     capsys):
        model = load_checkpoint(trained)
        rows = []
        for s in load_prepared(workspace["root"] / "prepared").splits()[0]:
            pred, logits, _ = model_forward(model, s)
            probs = softmax(logits).values
            rows.append({"date": s.target_date.isoformat(), "probs": probs,
                         "predicted_return": pred,
                         "predicted_class": CLASS_NAMES[max(range(3), key=lambda i: probs[i])]})
        oracle = tmp_path / "oracle.jsonl"
        oracle.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"risk_threshold": 0.33}), encoding="utf-8")
        runs = []
        for source in (["--predictions", str(oracle)],
                       ["--data-dir", str(workspace["root"]), "--model-in", str(trained),
                        "--split", "train"]):
            capsys.readouterr()
            assert main(["alert", *source, "--config", str(cfg)]) == 0
            runs.append([json.loads(line) for line in capsys.readouterr().out.splitlines()])
        want, got = runs
        assert {"bearish_flip", "bullish_flip", "risk_threshold"} <= {a["kind"] for a in want}
        assert ([(a["date"], a["kind"], a["predicted_class"]) for a in got]
                == [(a["date"], a["kind"], a["predicted_class"]) for a in want])
        for a, b in zip(got, want):
            for key in ("confidence", "predicted_return", "risk_score"):
                assert a[key] == pytest.approx(b[key], rel=1e-12, abs=1e-12)

    def test_needs_predictions_or_data_dir(self, capsys):
        rc = main(["alert"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage: sentirisk alert ")
        assert ("sentirisk alert: error: one of the arguments --predictions --model-in "
                "is required\n") in captured.err

    def test_missing_predictions_file_exits_2(self, tmp_path, capsys):
        rc = main(["alert", "--predictions", str(tmp_path / "ghost.jsonl")])
        captured = capsys.readouterr()
        assert rc == 2

    # DailyPrediction refuses a non-finite value naming the row's date too
    @pytest.mark.parametrize("key,value,message", [
        ("predicted_return", float("nan"), "must be finite"),  # was a risk-1.0 alert as NaN
        ("predicted_return", float("inf"), "must be finite"),
        ("probs", [float("nan"), 0.5, 0.5], "must be finite"),  # was exit 3, no line number
        ("probs", [0.0, float("inf"), 0.0], "must be finite"),
        # the three below were taken as numbers, and alerts printed with exit 0
        ("probs", ["0.2", "0.3", "0.5"], "must be a list of numbers"),
        ("probs", [True, False, False], "must be a list of numbers"),
        ("predicted_return", "0.1", "must be a number"),
    ], ids=["nan-return", "inf-return", "nan-prob", "inf-prob", "string-probs", "bool-probs",
            "string-return"])
    def test_bad_prediction_exits_2_naming_the_line(self, tmp_path, capsys, key, value,
                                                    message):
        dated = "2023-01-03: " if message == "must be finite" else ""
        rows = [dict(r) for r in PRED_ROWS]
        rows[1][key] = value
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        capsys.readouterr()
        rc = main(["alert", "--predictions", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{path}:2: {dated}{key} {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("edit, where, message", [
        (lambda rows: rows[1].update(probs=[0.2, 0.2, 0.1]), ":2: 2023-01-03",
         "probabilities sum to 0.5"),
        (lambda rows: rows[1].update(probs=[-0.5, 0.5, 1.0]), ":2: 2023-01-03",
         "negative probability"),
        (lambda rows: rows.insert(0, rows.pop(1)), "",
         "dates must be strictly increasing: 2023-01-03 then 2023-01-02"),
    ], ids=["sum-not-1", "negative-prob", "out-of-order-dates"])
    def test_bad_prediction_stream_exits_2_naming_the_path(self, tmp_path, capsys, edit,
                                                           where, message):
        # each once exited 2 naming neither the file nor the line
        rows = [dict(r) for r in PRED_ROWS]
        edit(rows)
        path = tmp_path / "preds.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        capsys.readouterr()
        rc = main(["alert", "--predictions", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"{path}{where}: {message}" in captured.err
        assert captured.out == ""

class TestUsage:
    def test_no_subcommand_exits_1(self, capsys):
        rc = main([])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage: sentirisk [-h] ")
        assert ("sentirisk: error: the following arguments are required: "
                "{prepare,train,evaluate,compare,predict,alert}\n") in captured.err

    def test_unknown_flag_exits_1(self, capsys):
        rc = main(["train", "--bogus"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage: sentirisk train ")
        assert "sentirisk train: error:" in captured.err

    def test_unknown_flag_before_the_subcommand_is_the_top_level_parsers(self, capsys):
        rc = main(["--bogus", "train", "--data-dir", "d", "--model-out", "m.ckpt.json"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage: sentirisk [-h] ")
        assert "sentirisk: error: unrecognized arguments: --bogus\n" in captured.err

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

    def test_every_key_reaches_every_dataclass_that_holds_it(self):
        # shared keys (seed, window) must set each of their owners
        assert set(NON_DEFAULT) == set(CONFIG_DEFAULTS)
        assert all(NON_DEFAULT[k] != v for k, v in CONFIG_DEFAULTS.items())
        mcfg = build_config(ModelConfig, NON_DEFAULT, vocab_size=50)
        tcfg = build_config(TrainConfig, NON_DEFAULT)
        pcfg = build_config(PrepareConfig, NON_DEFAULT)
        rules = build_config(AlertRuleConfig, NON_DEFAULT)
        assert (mcfg.seed, tcfg.seed) == (7, 7)
        assert (mcfg.window, pcfg.window) == (9, 9)
        assert pcfg.ratios == (0.6, 0.3, 0.1)
        assert mcfg.attention_enabled is False
        for obj in (mcfg, tcfg, pcfg, rules):
            for f in dataclasses.fields(obj):
                if f.name not in ("vocab_size", "attention_enabled", "ratios"):
                    assert getattr(obj, f.name) == NON_DEFAULT[f.name], f.name

    def test_readme_table_matches_config_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Configuration\n", 1)[1].split("\n## ", 1)[0]
        documented = {key: json.loads(value.strip("`"))
                      for key, value in re.findall(r"\| `(\w+)` \| ([^|]+?) \|", table)}
        assert documented == CONFIG_DEFAULTS
        assert ({k: type(v) for k, v in documented.items()}
                == {k: type(v) for k, v in CONFIG_DEFAULTS.items()})


COMMANDS = ("prepare", "train", "evaluate", "compare", "predict", "alert")
# the subcommands that take each flag, as the README's flag table marks them
FLAG_TABLE = {
    "--config": set(COMMANDS),
    "--data-dir": set(COMMANDS),
    "--seed": {"train", "compare"},
    "--arch": {"train"},
    "--attention": {"train", "compare"},
    "--model-in": {"evaluate", "predict", "alert"},
    "--model-out": {"train"},
    "--history-out": {"train"},
    "--split": {"evaluate", "predict", "alert"},
    "--out": {"prepare", "compare", "predict", "alert"},
    "--predictions": {"alert"},
}
# the flags each subcommand requires; alert requires one of its two sources
REQUIRED = {"prepare": [("--data-dir",)], "train": [("--data-dir",), ("--model-out",)],
            "evaluate": [("--data-dir",), ("--model-in",)], "compare": [("--data-dir",)],
            "predict": [("--data-dir",), ("--model-in",), ("--out",)],
            "alert": [("--model-in", "--predictions")]}
FLAG_VALUES = {"--seed": "3", "--arch": "gru", "--attention": "off", "--split": "val"}


def invocation(command: str, flag: str, value: str, tmp_path: Path) -> list[str]:
    """command given flag value, and a path under tmp_path for each required
    flag that flag does not stand for."""
    argv = [command, flag, value]
    for options in REQUIRED[command]:
        if flag not in options:
            argv += [options[0], str(tmp_path / options[0].lstrip("-"))]
    return argv


def declared_flags() -> dict[str, set[str]]:
    """Each subcommand's long flags, read off build_parser()."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in p._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
            for name, p in sub.choices.items()}


class TestFlags:
    """Each subcommand takes only the flags it reads (and --config)."""

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag", FLAG_TABLE)
    def test_flag_taken_exactly_where_the_table_marks_it(self, tmp_path, capsys, flag,
                                                         command):
        value = FLAG_VALUES.get(flag, str(tmp_path / "given"))
        argv = invocation(command, flag, value, tmp_path)
        if command in FLAG_TABLE[flag]:
            args = build_parser().parse_args(argv)
            assert str(getattr(args, flag.lstrip("-").replace("-", "_"))) == value
        else:
            capsys.readouterr()
            assert main(argv) == 1
            err = capsys.readouterr().err
            # the subcommand's parser reports it, not the top-level one
            assert err.startswith(f"usage: sentirisk {command} ")
            assert f"sentirisk {command}: error: unrecognized arguments: {flag} {value}\n" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["train", "--data-dir", "d", "--model-out", "m.ckpt.json", "--model", "x"],
        ["evaluate", "--data-dir", "d", "--model-in", "m.ckpt.json", "--data", "x"],
    ], ids=["train", "evaluate"])
    def test_a_prefix_is_no_flag(self, capsys, argv):
        # argparse's prefix matching read train --model as --model-out
        assert main(argv) == 1
        assert f"unrecognized arguments: {argv[-2]} x" in capsys.readouterr().err

    def test_thirty_flag_slots(self):
        flags = declared_flags()
        assert {c: {f for f in FLAG_TABLE if c in FLAG_TABLE[f]} for c in COMMANDS} == flags
        assert sum(map(len, flags.values())) == 30

    @pytest.mark.parametrize("extra", [
        ["--arch", "gru"],
        ["--attention", "off"],
        ["--seed", "9"],
        ["--model-out", "m.ckpt.json"],
    ], ids=lambda v: v[0])
    def test_evaluate_refuses_a_training_flag(self, workspace, trained, tmp_path,
                                              monkeypatch, capsys, extra):
        # each was accepted and ignored: the JSON matched a plain evaluate
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        rc = main(["evaluate", "--data-dir", str(workspace["root"]),
                   "--model-in", str(trained), *extra])
        captured = capsys.readouterr()
        assert rc == 1
        assert f"unrecognized arguments: {' '.join(extra)}" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_train_refuses_model_in(self, workspace, trained, tmp_path, capsys):
        # train once loaded nothing from --model-in and trained from scratch
        out = tmp_path / "m.ckpt.json"
        capsys.readouterr()
        rc = main(["train", "--data-dir", str(workspace["root"]),
                   "--config", str(workspace["config"]), "--model-out", str(out),
                   "--model-in", str(trained)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage: sentirisk train ")
        assert (f"sentirisk train: error: unrecognized arguments: --model-in {trained}\n"
                in captured.err)
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--model-in", "--data-dir", "--split"])
    def test_alert_predictions_refuses_the_model_inputs(self, workspace, trained, tmp_path,
                                                        capsys, flag):
        value = {"--model-in": str(trained), "--data-dir": str(workspace["root"]),
                 "--split": "train"}[flag]
        out = tmp_path / "alerts.jsonl"
        capsys.readouterr()
        rc = main(["alert", "--predictions", str(write_predictions(tmp_path)),
                   flag, value, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("usage: sentirisk alert ")
        message = ("argument --model-in: not allowed with argument --predictions"
                   if flag == "--model-in" else f"--predictions takes no {flag}")
        assert f"sentirisk alert: error: {message}\n" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("given, message", [
        (["--model-in", "m.ckpt.json"], "--model-in needs --data-dir"),
        (["--data-dir", "data"], "one of the arguments --predictions --model-in is required"),
    ], ids=["no-data-dir", "no-model-in"])
    def test_alert_model_run_needs_both_inputs(self, capsys, given, message):
        rc = main(["alert", *given])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: sentirisk alert ")
        assert f"sentirisk alert: error: {message}\n" in err

    @pytest.mark.parametrize("command, flag", [
        ("train", "--data-dir"), ("train", "--model-out"),
        ("predict", "--model-in"), ("predict", "--out"),
    ])
    def test_empty_required_path_exits_1(self, tmp_path, capsys, command, flag):
        assert main(invocation(command, flag, "", tmp_path)) == 1
        assert f"argument {flag}: must not be empty" in capsys.readouterr().err

    def test_readme_table_matches_the_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Flags\n", 1)[1].split("\n## ", 1)[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in section.splitlines() if line.startswith("| ")]
        header, body = rows[0], rows[1:]
        commands = [c.strip("`") for c in header[1:]]
        documented = {c: set() for c in commands}
        for cells in body:
            for flag in re.findall(r"`(--[\w-]+)`", cells[0]):
                for command, mark in zip(commands, cells[1:]):
                    if mark.startswith("✓"):
                        documented[command].add(flag)
        assert documented == declared_flags()


# a valid value other than the default for every config key
NON_DEFAULT = {
    "embed_dim": 5, "num_filters": 6, "kernel_width": 2, "conv_stride": 1,
    "gru_hidden": 4, "window": 9, "max_doc_len": 11, "attention": False,
    "attn_size": 3, "mse_weight": 0.25, "seed": 7, "lr": 0.01, "batch_size": 8,
    "epochs": 3, "patience": 2, "optimizer": "sgd", "weight_decay": 0.01,
    "min_freq": 2, "max_vocab": 500, "train_ratio": 0.6, "val_ratio": 0.3,
    "test_ratio": 0.1, "risk_threshold": 0.6,
    "lexicon_positive": "pos.txt", "lexicon_negative": "neg.txt",
}
