"""A prepared dataset's columns against its window objects.

prepare_dataset and load_prepared build a dataset of columns, and training,
evaluation and scoring on its splits read those columns: a split's day
table comes from the columns, and no AlignedDay or WindowSample is built
until something asks for the windows as objects (ds.samples, or iterating
or indexing a split). The column-built table must be the one _build_table
makes of the same windows as objects, array for array.
"""

import datetime as dt
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from sentirisk import model as model_mod
from sentirisk.cli import main
from sentirisk.errors import DataValidationError, NumericError
from sentirisk.data import (
    DEFAULT_RATIOS,
    AlignedDay,
    DayColumns,
    NormStats,
    PrepareConfig,
    PreparedDataset,
    WindowColumns,
    WindowSample,
    load_prepared,
    prepare_dataset,
    save_prepared,
)
from sentirisk.ingest import MarketBar, RawTextDoc
from sentirisk.model import (
    ArchKind,
    CnnGruModel,
    DayTable,
    ModelConfig,
    build_model,
    day_table,
    load_checkpoint,
    save_checkpoint,
)
from sentirisk.synthetic import (
    make_ablation_dataset,
    make_demo_docs,
    make_demo_market,
    write_docs_jsonl,
    write_market_csv,
)
from sentirisk.text import Lexicon, Vocabulary
from sentirisk.train import (
    TrainConfig,
    compare_ablations,
    evaluate,
    export_predictions,
    score_windows,
    target_columns,
    train,
)

# the text configurations a table is built under: the defaults, documents
# longer than max_doc_len, and conv windows that skip tokens
CONFIGS = {"default": {}, "short-docs": {"max_doc_len": 3},
           "kernel-under-stride": {"kernel_width": 2, "conv_stride": 3}}
DATASETS = ["demo", "demo-loaded", "ablation", "ablation-loaded", "market-only",
            "market-only-loaded"]


@pytest.fixture(scope="module")
def datasets(tmp_path_factory) -> dict[str, PreparedDataset]:
    """The 60-day demo, acceptance 4's dataset and a market-only dataset,
    each as built and as loaded from its saved directory."""
    bars = make_demo_market(n_days=60, seed=3)
    samples, vocab_size = make_ablation_dataset(n_days=60)
    built = {
        "demo": prepare_dataset(bars, make_demo_docs(bars, seed=4), Lexicon.bundled(),
                                PrepareConfig()),
        "ablation": PreparedDataset(Vocabulary({f"tok{i}": i for i in range(2, vocab_size)}),
                                    samples, NormStats(means=(0.0,) * 4, stds=(1.0,) * 4),
                                    window=20, ratios=DEFAULT_RATIOS),
        "market-only": prepare_dataset(bars, [], Lexicon.bundled(), PrepareConfig()),
    }
    out = {}
    for name, ds in built.items():
        path = tmp_path_factory.mktemp(name)
        save_prepared(ds, path)
        out[name], out[f"{name}-loaded"] = ds, load_prepared(path)
    return out


class TestColumnTables:
    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("name", DATASETS)
    def test_equal_to_the_table_of_the_window_objects(self, datasets, name, config):
        ds = datasets[name]
        cfg = ModelConfig(vocab_size=ds.vocab.size, window=ds.window, **CONFIGS[config])
        for split in ds.splits():
            assert split.dataset is ds
            got, want = day_table(cfg, split), model_mod._build_table(cfg, list(split))
            for f in fields(DayTable):
                a, b = getattr(got, f.name), getattr(want, f.name)
                assert (a.shape, a.dtype, a.flags.writeable) == (b.shape, b.dtype, False), f.name
                assert np.array_equal(a, b), f.name

    def test_the_datasets_hold_what_the_configurations_test(self, datasets):
        longest = max(len(seq) for seqs in datasets["demo"].days.token_seqs for seq in seqs)
        assert longest > CONFIGS["short-docs"]["max_doc_len"]
        assert not any(datasets["market-only"].days.token_seqs)
        assert len(set(map(tuple, datasets["demo"].features.tolist()))) > 1


def count_built(monkeypatch, *classes) -> Counter:
    """The objects of classes built from now on, by class name."""
    counts: Counter = Counter()
    for cls in classes:
        def counted(self, check=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


@pytest.fixture
def built(monkeypatch) -> Counter:
    """The AlignedDay and WindowSample objects built from now on, by class name."""
    return count_built(monkeypatch, AlignedDay, WindowSample)


def demo_inputs(root) -> None:
    """The 60-day demo's market.csv and texts.jsonl in root."""
    bars = make_demo_market(n_days=60, seed=3)
    write_market_csv(bars, root / "market.csv")
    write_docs_jsonl(make_demo_docs(bars, seed=4), root / "texts.jsonl")


def trained_demo(root) -> tuple[list[str], str]:
    """The 60-day demo prepared in root and a seeded one-epoch tiny model
    trained on it by the CLI: the flags naming them, and the checkpoint."""
    demo_inputs(root)
    config = root / "config.json"
    config.write_text('{"window": 5, "epochs": 1, "embed_dim": 4, "num_filters": 3, '
                      '"gru_hidden": 3}', encoding="utf-8")
    ckpt = str(root / "m.ckpt.json")
    common = ["--data-dir", str(root), "--config", str(config)]
    for argv in (["prepare"], ["train", "--seed", "0", "--model-out", ckpt]):
        assert main([*argv, *common]) == 0
    return common, ckpt


TINY = {"embed_dim": 4, "num_filters": 3, "kernel_width": 2, "conv_stride": 1,
        "gru_hidden": 3, "max_doc_len": 6}


class TestNoObjectsBuilt:
    def test_prepare_save_load_train_evaluate_and_score(self, tmp_path, built):
        bars = make_demo_market(n_days=60, seed=3)
        ds = prepare_dataset(bars, make_demo_docs(bars, seed=4), Lexicon.bundled(),
                             PrepareConfig(window=5))
        save_prepared(ds, tmp_path)
        train_split, val_split, test_split = load_prepared(tmp_path).splits()
        model = build_model(ModelConfig(vocab_size=ds.vocab.size, window=5, **TINY),
                            ArchKind.CNN_GRU)
        best, _ = train(model, train_split, val_split, TrainConfig(epochs=1, batch_size=8))
        evaluate(best, test_split)
        score_windows(best, val_split)
        assert not built

    def test_cli_prepare_train_and_evaluate(self, tmp_path, built, capsys):
        demo_inputs(tmp_path)
        config = tmp_path / "config.json"
        config.write_text('{"window": 5, "epochs": 1, "embed_dim": 4, "num_filters": 3, '
                          '"gru_hidden": 3}', encoding="utf-8")
        ckpt = str(tmp_path / "m.ckpt.json")
        for argv in (["prepare"], ["train", "--seed", "0", "--model-out", ckpt],
                     ["evaluate", "--model-in", ckpt]):
            assert main([*argv, "--data-dir", str(tmp_path), "--config", str(config)]) == 0
        assert not built

    def test_cli_prepare_builds_no_record(self, tmp_path, monkeypatch, capsys):
        demo_inputs(tmp_path)
        records = count_built(monkeypatch, MarketBar, RawTextDoc)
        assert main(["prepare", "--data-dir", str(tmp_path)]) == 0
        assert not records

    def test_cli_predict_alert_and_compare(self, tmp_path, monkeypatch, capsys):
        common, ckpt = trained_demo(tmp_path)
        built = count_built(monkeypatch, AlignedDay, WindowSample)
        for argv in (["predict", "--model-in", ckpt, "--out", str(tmp_path / "p.csv")],
                     ["alert", "--model-in", ckpt, "--split", "val"],
                     ["compare", "--seed", "0"]):
            assert main([*argv, *common]) == 0
        assert not built

    def test_cli_non_finite_outputs_are_named_by_the_columns(self, tmp_path, monkeypatch,
                                                              capsys):
        # a return head of 1.7e308 overflows some window's predicted return
        common, ckpt = trained_demo(tmp_path)
        trained = load_checkpoint(ckpt)
        params = trained.params.copy()
        for name in ("head_reg/w", "head_reg/b"):
            params[trained.layout[name][0]] = 1.7e308
        save_checkpoint(CnnGruModel(trained.cfg, trained.arch, params), ckpt)
        # the message scoring the train split's window objects gives
        with pytest.raises(NumericError, match="^model outputs for .* are not finite: ") as raised:
            score_windows(load_checkpoint(ckpt),
                          list(load_prepared(tmp_path / "prepared").splits()[0]))
        built = count_built(monkeypatch, AlignedDay, WindowSample)
        for command in ("evaluate", "alert"):
            capsys.readouterr()
            assert main([command, "--model-in", ckpt, "--split", "train", *common]) == 3
            assert capsys.readouterr().err.endswith(f"numeric/runtime error: {raised.value}\n")
        assert not built

    def test_first_samples_access_builds_each_day_and_window_once(self, tmp_path, built):
        demo_inputs(tmp_path)
        assert main(["prepare", "--data-dir", str(tmp_path)]) == 0
        ds = load_prepared(tmp_path / "prepared")
        n_days, n_windows = len(ds.days.date), len(ds.windows.start)
        samples = ds.samples
        assert built == {"AlignedDay": n_days, "WindowSample": n_windows}
        assert ds.samples is samples and built == {"AlignedDay": n_days,
                                                   "WindowSample": n_windows}
        # every window shares its days, and a split's windows are the dataset's
        assert len({id(d) for s in samples for d in s.inputs}) == n_days
        train_split, val_split, test_split = ds.splits()
        assert all(a is b for a, b in zip([*train_split, *val_split, *test_split], samples))
        assert built == {"AlignedDay": n_days, "WindowSample": n_windows}


class TestColumnChecks:
    """The columns refuse a class outside the three with AlignedDay's and
    WindowSample's messages, and hold tuples down to the numbers."""

    DATES = (dt.date(2024, 1, 2), dt.date(2024, 1, 3))

    @pytest.mark.parametrize("cls", [-1, 3])
    def test_day_label_outside_the_three_refused_naming_the_date(self, cls):
        with pytest.raises(DataValidationError,
                           match=f"^day 2024-01-03: label {cls} is not a class index$"):
            DayColumns(self.DATES, [(0.0,) * 4] * 2, [[], []], [1, cls], [100.0, 101.0])

    @pytest.mark.parametrize("cls", [-1, 3])
    def test_target_class_outside_the_three_refused_naming_the_date(self, cls):
        with pytest.raises(DataValidationError, match=f"^window for 2024-01-03: target_class "
                                                      f"{cls} is not a class index$"):
            WindowColumns([0, 1], self.DATES, [1, cls], [0.0, 0.0], [100.0, 101.0])

    def test_lists_become_tuples(self):
        days = DayColumns(list(self.DATES), [[0.0] * 4] * 2, [[[2, 3], [4]], []], [1, 2],
                          [100.0, 101.0])
        assert days.raw == ((0.0,) * 4,) * 2 and days.token_seqs == (((2, 3), (4,)), ())
        assert all(type(getattr(days, f.name)) is tuple for f in fields(DayColumns))


class TestColumnReadersMatchTheObjects:
    """predict's and compare's column paths give what the window objects give."""

    @pytest.fixture(scope="class")
    def demo(self, tmp_path_factory):
        bars = make_demo_market(n_days=60, seed=3)
        path = tmp_path_factory.mktemp("demo")
        save_prepared(prepare_dataset(bars, make_demo_docs(bars, seed=4), Lexicon.bundled(),
                                      PrepareConfig(window=5)), path)
        ds = load_prepared(path)
        return ds, build_model(ModelConfig(vocab_size=ds.vocab.size, window=5, **TINY),
                               ArchKind.CNN_GRU)

    def test_target_columns_and_predictions_csv(self, demo, tmp_path):
        ds, model = demo
        for split in ds.splits():
            assert list(map(list, target_columns(split))) == list(target_columns(list(split)))
        test = ds.splits()[2]
        export_predictions(model, test, ds.stats, tmp_path / "columns.csv")
        export_predictions(model, list(test), ds.stats, tmp_path / "objects.csv")
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "objects.csv").read_bytes()

    def test_compare_on_the_dataset_splits(self, demo):
        ds, _ = demo
        mcfg = ModelConfig(vocab_size=ds.vocab.size, window=5, **TINY)
        tcfg = TrainConfig(epochs=1, batch_size=8)
        assert (compare_ablations(ds.splits(), mcfg, tcfg)
                == compare_ablations(list(ds.samples), mcfg, tcfg, ratios=ds.ratios))
