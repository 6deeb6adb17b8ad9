"""Training loop, metrics, ablation table, prediction export."""

import csv
import dataclasses
import datetime as dt
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sentirisk import model as model_mod
from sentirisk import train as train_mod
from sentirisk.data import (
    AlignedDay,
    NormStats,
    PrepareConfig,
    WindowSample,
    prepare_dataset,
    split_chronological,
)
from sentirisk.errors import DataValidationError, NumericError, TrainingDivergedError
from sentirisk.losses import batch_cross_entropy, joint_loss
from sentirisk.model import (
    ArchKind,
    CnnGruModel,
    ModelConfig,
    Workspace,
    batch_backward,
    build_model,
    day_table,
    model_forward,
    table_forward,
)
from sentirisk.optim import Optimizer
from sentirisk.synthetic import make_demo_docs, make_demo_market
from sentirisk.text import Lexicon
from sentirisk.train import (
    FORWARD_BLOCK,
    MetricsReport,
    TrainConfig,
    compare_ablations,
    evaluate,
    export_predictions,
    render_comparison_table,
    save_history,
    score_windows,
    split_joint_loss,
    train,
)

TINY = ModelConfig(
    vocab_size=12, embed_dim=3, num_filters=2, kernel_width=2, conv_stride=1,
    gru_hidden=2, window=3, max_doc_len=4, seed=3,
)


def make_samples(cfg: ModelConfig, n: int, seed=0, const_return=None):
    """n window samples over a shared day sequence, random but seeded."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_days = n + cfg.window
    days = []
    for t in range(n_days):
        seqs = [[int(v) for v in rng.integers(2, cfg.vocab_size,
                                              size=int(rng.integers(1, cfg.max_doc_len + 1)))]]
        days.append(AlignedDay(
            date=dt.date(2024, 1, 1) + dt.timedelta(days=t),
            raw=(0.0, 0.0, 0.0, 0.0),
            token_seqs=seqs,
            label=int(rng.integers(0, 3)),
            close=100.0 + t,
            features=tuple(rng.standard_normal(5).tolist()),
        ))
    samples = []
    for t in range(n):
        target = days[t + cfg.window]
        ret = const_return if const_return is not None else float(rng.standard_normal())
        samples.append(WindowSample(
            inputs=days[t : t + cfg.window],
            target_date=target.date,
            target_class=target.label,
            target_return_raw=0.0,
            target_close=target.close,
            target_return=ret,
        ))
    return samples


def reference_train(model, train_split, val_split, cfg):
    """train()'s loop without early stopping, written out over table_forward
    and batch_backward with no workspace: every batch and validation block
    gets fresh arrays. (best parameters, history)."""
    opt = Optimizer(cfg)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    flat = model.params.copy()
    model = CnnGruModel(model.cfg, model.arch, flat)
    tables = day_table(model.cfg, train_split), day_table(model.cfg, val_split)
    targets = [(np.array([s.target_return for s in split]),
                np.array([s.target_class for s in split])) for split in (train_split, val_split)]
    (returns, classes), (val_returns, val_classes) = targets
    n, lam = len(train_split), model.cfg.mse_weight
    best, best_val, history = flat.copy(), math.inf, []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        sq_err = ce = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            cache = table_forward(model, tables[0], batch)
            sq_err += float(np.sum((cache.pred - returns[batch]) ** 2))
            ce += float(np.sum(batch_cross_entropy(cache.logits, classes[batch])))
            grads = batch_backward(model, cache, returns[batch], classes[batch])
            opt.apply(flat, grads / len(batch))
        blocks = [table_forward(model, tables[1], np.arange(i, min(i + FORWARD_BLOCK,
                                                                   len(val_split))))
                  for i in range(0, len(val_split), FORWARD_BLOCK)]
        pred = np.concatenate([c.pred for c in blocks])
        logits = np.concatenate([c.logits for c in blocks])
        val_loss = joint_loss(float(np.mean((pred - val_returns) ** 2)),
                              float(np.mean(batch_cross_entropy(logits, val_classes))), lam)
        history.append({"epoch": epoch, "train_loss": joint_loss(sq_err / n, ce / n, lam),
                        "val_loss": val_loss, "train_mse": sq_err / n, "train_ce": ce / n})
        if val_loss < best_val:
            best, best_val = flat.copy(), val_loss
    return best, history


class TestTrainLoop:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("attention", [True, False], ids=["attention", "no-attention"])
    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_workspace_run_equals_fresh_arrays_bit_for_bit(self, arch, attention, optimizer):
        # ragged last batches, and more than one validation block
        mcfg = dataclasses.replace(TINY, attention_enabled=attention)
        samples = make_samples(mcfg, 40 + FORWARD_BLOCK + 6)
        cfg = TrainConfig(epochs=3, patience=0, batch_size=13, lr=1e-2, optimizer=optimizer,
                          weight_decay=0.01 if optimizer == "sgd" else 0.0, seed=2)
        model = build_model(mcfg, arch)
        got, history = train(model, samples[:40], samples[40:], cfg)
        want, want_history = reference_train(model, samples[:40], samples[40:], cfg)
        assert history == want_history
        assert got.params.tobytes() == want.tobytes()
        assert len({h["val_loss"] for h in history}) == 3  # every epoch moved the model


    def test_single_epoch_boundary(self):
        samples = make_samples(TINY, 8)
        model = build_model(TINY, ArchKind.CNN_GRU)
        _, history = train(model, samples[:6], samples[6:],
                           TrainConfig(epochs=1, patience=0, batch_size=4))
        assert len(history) == 1
        assert set(history[0]) == {"epoch", "train_loss", "val_loss",
                                   "train_mse", "train_ce"}

    def test_same_seed_identical_histories(self):
        samples = make_samples(TINY, 10)
        cfg = TrainConfig(epochs=3, patience=0, batch_size=4, lr=1e-3, seed=5)
        m1, h1 = train(build_model(TINY, ArchKind.CNN_GRU), samples[:8],
                       samples[8:], cfg)
        m2, h2 = train(build_model(TINY, ArchKind.CNN_GRU), samples[:8],
                       samples[8:], cfg)
        assert h1 == h2
        a, b = m1.tensors, m2.tensors
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_repeat_runs_from_one_model_leave_it_unchanged(self):
        # train steps a private copy of the parameters, so one model object can
        # seed any number of runs
        samples = make_samples(TINY, 10)
        cfg = TrainConfig(epochs=3, patience=0, batch_size=4, lr=1e-3, seed=5)
        model = build_model(TINY, ArchKind.CNN_GRU)
        before = {n: p.tobytes() for n, p in model.tensors.items()}
        m1, h1 = train(model, samples[:8], samples[8:], cfg)
        m2, h2 = train(model, samples[:8], samples[8:], cfg)
        assert h1 == h2
        a, b = m1.tensors, m2.tensors
        for name, p in model.tensors.items():
            assert p.tobytes() == before[name], name
            assert np.array_equal(a[name], b[name]), name
            assert not np.array_equal(a[name], p), name  # training moved every tensor
            assert not np.shares_memory(a[name], b[name]), name

    def test_empty_split_rejected(self):
        samples = make_samples(TINY, 4)
        model = build_model(TINY, ArchKind.CNN_GRU)
        with pytest.raises(DataValidationError):
            train(model, [], samples, TrainConfig(epochs=1))
        with pytest.raises(DataValidationError):
            train(model, samples, [], TrainConfig(epochs=1))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf/nan en route to abort
    def test_divergence_aborts_with_numeric_error(self):
        samples = make_samples(TINY, 8, const_return=5.0)
        model = build_model(TINY, ArchKind.CNN_GRU)
        cfg = TrainConfig(epochs=50, patience=0, batch_size=8,
                          optimizer="sgd", lr=1e6)
        with pytest.raises(NumericError):
            train(model, samples[:6], samples[6:], cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_first_non_finite_batch_aborts_naming_epoch_and_batch(self):
        # the first step leaves weights near 1e200, so batch 2's loss overflows
        samples = make_samples(TINY, 14)
        cfg = TrainConfig(epochs=3, patience=0, batch_size=4, optimizer="sgd", lr=1e200)
        with pytest.raises(TrainingDivergedError, match="non-finite loss at epoch 1, batch 2: "):
            train(build_model(TINY, ArchKind.CNN_GRU), samples[:12], samples[12:], cfg)

    def test_zero_patience_disables_early_stopping(self):
        samples = make_samples(TINY, 8)
        # a vanishing learning rate keeps validation loss flat forever
        cfg = TrainConfig(epochs=5, patience=0, batch_size=8, lr=1e-15)
        _, history = train(build_model(TINY, ArchKind.CNN_GRU), samples[:6],
                           samples[6:], cfg)
        assert len(history) == 5

    def test_patience_one_stops_after_first_flat_epoch(self):
        samples = make_samples(TINY, 8)
        cfg = TrainConfig(epochs=5, patience=1, batch_size=8, lr=1e-15)
        _, history = train(build_model(TINY, ArchKind.CNN_GRU), samples[:6],
                           samples[6:], cfg)
        assert len(history) == 2

    def test_returned_model_has_best_recorded_val_loss(self):
        samples = make_samples(TINY, 14)
        cfg = TrainConfig(epochs=12, patience=4, batch_size=4, lr=3e-2, seed=9)
        best, history = train(build_model(TINY, ArchKind.CNN_GRU), samples[:10],
                              samples[10:], cfg)
        recorded = min(h["val_loss"] for h in history)
        recomputed = split_joint_loss(best, samples[10:])
        assert abs(recomputed - recorded) < 1e-12

    def test_loss_decreases_on_learnable_target(self):
        samples = make_samples(TINY, 6, const_return=1.5)
        cfg = TrainConfig(epochs=40, patience=0, batch_size=6, lr=1e-2, seed=1)
        _, history = train(build_model(TINY, ArchKind.CNN_GRU), samples,
                           samples, cfg)
        assert history[-1]["train_loss"] < history[0]["train_loss"]

    def test_history_file_round_trip(self, tmp_path):
        samples = make_samples(TINY, 6)
        _, history = train(build_model(TINY, ArchKind.CNN_GRU), samples[:4],
                           samples[4:], TrainConfig(epochs=2, patience=0))
        path = tmp_path / "h.jsonl"
        save_history(history, path)
        lines = [json.loads(x) for x in path.read_text().splitlines()]
        assert lines == history

    def test_failed_history_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "h.jsonl"
        save_history([{"epoch": 1, "train_loss": 0.5}], path)
        old = path.read_bytes()
        # the second row cannot be encoded, after the first has been written
        with pytest.raises(TypeError):
            save_history([{"epoch": 1, "train_loss": 0.25}, {"epoch": 2, "train_loss": object()}],
                         path)
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["h.jsonl"]

    def test_invalid_config_rejected(self):
        # an Optimizer reads its rule, rate and decay off a TrainConfig: as bare
        # arguments, "SGD" ran Adam, and a negative lr stepped uphill
        for bad in ({"batch_size": 0}, {"optimizer": "rmsprop"}, {"optimizer": "SGD"},
                    {"lr": 0.0}, {"lr": -1e-3}, {"lr": math.nan}, {"lr": math.inf},
                    {"optimizer": "sgd", "weight_decay": -1.0},
                    {"optimizer": "sgd", "weight_decay": math.nan},
                    {"weight_decay": 0.1},  # Adam has no decay term
                    {"seed": -1}):  # PCG64 takes no negative seed
            with pytest.raises(DataValidationError):
                TrainConfig(**bad)
        assert TrainConfig(optimizer="sgd", weight_decay=0.01).weight_decay == 0.01


def pooled_buffers() -> list[np.ndarray]:
    return [buf for ws in train_mod._IDLE for buf in ws._buffers.values()]


class TestWorkspacePool:
    """train and score_windows borrow their workspace from train's pool."""

    CFG = TrainConfig(epochs=2, patience=0, batch_size=13, lr=1e-2, seed=2)

    def test_successive_runs_reuse_the_buffers_and_return_none_of_them(self):
        samples = make_samples(TINY, 40 + FORWARD_BLOCK + 6)
        model = build_model(TINY, ArchKind.CNN_GRU)
        first, _ = train(model, samples[:40], samples[40:], self.CFG)
        ws = train_mod._IDLE[-1]  # the pool lends out its most recently returned one
        buffers = dict(ws._buffers)
        second, _ = train(model, samples[:40], samples[40:], self.CFG)
        assert train_mod._IDLE[-1] is ws
        assert ws._buffers == buffers  # the same array objects: nothing regrown
        assert second.params.tobytes() == first.params.tobytes()
        outputs = [first.params, second.params, *score_windows(second, samples),
                   *score_windows(second, samples[:3])]
        for out in outputs:
            assert not any(np.shares_memory(out, buf) for buf in pooled_buffers())

    def test_runs_at_once_in_threads_equal_runs_one_after_the_other(self, monkeypatch):
        samples = make_samples(TINY, 40 + FORWARD_BLOCK + 6)
        runs = {"cnn-gru": (ArchKind.CNN_GRU, "adam"), "gru": (ArchKind.GRU_ONLY, "sgd")}

        def run(name):
            arch, optimizer = runs[name]
            cfg = dataclasses.replace(self.CFG, optimizer=optimizer)
            return train(build_model(TINY, arch), samples[:40], samples[40:], cfg)

        want = {name: run(name) for name in runs}
        # each run waits after its first batch until the other has started:
        # both hold a workspace at once
        started = threading.Barrier(len(runs), timeout=60)
        held, got = {}, {}
        step = train_mod._batch_step

        def first_batch_waits(model, table, index, returns, classes, ws):
            out = step(model, table, index, returns, classes, ws)
            if threading.current_thread().name not in held:
                held[threading.current_thread().name] = ws
                started.wait()
            return out

        def target(name):
            got[name] = run(name)

        monkeypatch.setattr(train_mod, "_batch_step", first_batch_waits)
        threads = [threading.Thread(target=target, args=(name,), name=name) for name in runs]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert held["cnn-gru"] is not held["gru"]
        for name in runs:
            (best, history), (want_best, want_history) = got[name], want[name]
            assert history == want_history
            assert best.params.tobytes() == want_best.params.tobytes()

    def test_warm_demo_steps_allocate_a_fraction_of_fresh_ones(self):
        # the default model on the README's 160-day demo: a warmed batch step
        # and a repeated scoring call keep every batch-sized array in their
        # workspace, so each peaks at under a third of the same call in a new
        # workspace (what is left is index arrays, parameter-sized products
        # and the (texts, F) sums np.bincount returns: about 1/8 and 1/5).
        # Both sides run the same numpy calls, so the ratio does not depend
        # on how much one numpy release allocates for them
        bars = make_demo_market(n_days=160, seed=3)
        ds = prepare_dataset(bars, make_demo_docs(bars, seed=4), Lexicon.bundled(),
                             PrepareConfig())
        train_split, val_split, _ = ds.splits()
        model = build_model(ModelConfig(vocab_size=ds.vocab.size, seed=0), ArchKind.CNN_GRU)
        table = day_table(model.cfg, train_split)
        returns, classes = train_mod._targets(train_split)
        ws, index = Workspace(), np.arange(50)

        def peak_bytes(step):
            tracemalloc.start()
            try:
                step()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def batch_step(ws):
            return train_mod._batch_step(model, table, index, returns, classes, ws)

        fresh_step = peak_bytes(lambda: batch_step(Workspace()))
        warm_step = [peak_bytes(lambda: batch_step(ws)) for _ in range(2)][1]
        fresh_score = peak_bytes(lambda: train_mod._split_outputs(
            model, day_table(model.cfg, val_split), Workspace()))
        warm_score = [peak_bytes(lambda: score_windows(model, val_split)) for _ in range(2)][1]
        assert warm_step < fresh_step / 3, (warm_step, fresh_step)
        assert warm_score < fresh_score / 3, (warm_score, fresh_score)


@pytest.fixture
def builds(monkeypatch) -> list[int]:
    """One entry per DayTable built from now on: the windows it was built of."""
    made, build = [], model_mod._build_table

    def counted(cfg, samples):
        made.append(len(samples))
        return build(cfg, samples)

    monkeypatch.setattr(model_mod, "_build_table", counted)
    return made


class TestSplitTables:
    """train, evaluate and score_windows reuse the table a Split keeps."""

    CFG = TrainConfig(epochs=2, patience=0, batch_size=8, lr=1e-2, seed=2)

    def splits(self, n=40):
        return split_chronological(make_samples(TINY, n, seed=6), (0.6, 0.2, 0.2))

    def test_one_build_per_split_across_calls(self, builds):
        train_split, val_split, test_split = self.splits()
        model = build_model(TINY, ArchKind.CNN_GRU)
        first, history = train(model, train_split, val_split, self.CFG)
        assert builds == [24, 8]
        again, history_again = train(model, train_split, val_split, self.CFG)
        evaluate(first, test_split)
        evaluate(first, val_split)
        score_windows(first, train_split)
        split_joint_loss(again, test_split)
        assert builds == [24, 8, 8]  # the test split's, once
        assert again.params.tobytes() == first.params.tobytes() and history_again == history
        # another max_doc_len reads the documents cut otherwise: a table of its own
        short = build_model(dataclasses.replace(TINY, max_doc_len=2), ArchKind.CNN_GRU)
        evaluate(short, test_split)
        evaluate(short, test_split)
        assert builds == [24, 8, 8, 8]
        # a list is built on every call
        score_windows(first, list(test_split))
        score_windows(first, list(test_split))
        assert builds == [24, 8, 8, 8, 8, 8]

    def test_compare_ablations_builds_three_tables(self, builds):
        compare_ablations(make_samples(TINY, 30, seed=6), TINY, self.CFG, ratios=(0.6, 0.2, 0.2))
        assert builds == [18, 6, 6]

    @pytest.mark.parametrize("arch", list(ArchKind), ids=lambda a: a.value)
    def test_split_and_list_give_the_same_bytes(self, arch):
        results = []
        for kind in (list, lambda split: split):
            train_split, val_split, test_split = map(kind, self.splits())
            model = build_model(TINY, arch)
            best, history = train(model, train_split, val_split, self.CFG)
            again, _ = train(model, train_split, val_split, self.CFG)
            assert again.params.tobytes() == best.params.tobytes()
            pred, logits = score_windows(best, test_split)
            results.append((best.params.tobytes(), history, evaluate(best, test_split),
                            pred.tobytes(), logits.tobytes()))
        assert results[0] == results[1]

    def test_threads_training_on_one_split_equal_sequential_runs(self):
        # more threads than the two cores CI has, switching often
        samples = make_samples(TINY, 40, seed=6)
        runs = {"cnn-gru": (ArchKind.CNN_GRU, "adam"), "gru": (ArchKind.GRU_ONLY, "sgd"),
                "cnn": (ArchKind.CNN_ONLY, "adam")}

        def run(name, train_split, val_split):
            arch, optimizer = runs[name]
            cfg = dataclasses.replace(self.CFG, optimizer=optimizer)
            best, history = train(build_model(TINY, arch), train_split, val_split, cfg)
            return best.params.tobytes(), history

        train_split, val_split, _ = split_chronological(samples, (0.6, 0.2, 0.2))
        want = {name: run(name, train_split, val_split) for name in runs}
        # fresh splits: the threads may build their first tables at once
        train_split, val_split, _ = split_chronological(samples, (0.6, 0.2, 0.2))
        start, got = threading.Barrier(len(runs), timeout=60), {}

        def target(name):
            start.wait()
            got[name] = run(name, train_split, val_split)

        threads = [threading.Thread(target=target, args=(name,)) for name in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == want
        assert len(train_split.tables) == len(val_split.tables) == 1


class TestMetrics:
    def test_hand_confusion_example(self):
        # preds [1,0,1,1] against labels [1,0,0,1] over two classes
        report = MetricsReport.from_confusion([[1, 1], [0, 2]], regression_mse=0.0)
        assert report.accuracy == 0.75
        assert report.n == 4
        # class 1: recall 2/2, precision 2/3, F1 0.8
        recall1 = report.confusion[1][1] / sum(report.confusion[1])
        precision1 = report.confusion[1][1] / (report.confusion[0][1]
                                               + report.confusion[1][1])
        assert recall1 == 1.0
        assert abs(precision1 - 2 / 3) < 1e-15
        assert abs(2 * precision1 * recall1 / (precision1 + recall1) - 0.8) < 1e-15
        assert abs(report.macro_recall - 0.75) < 1e-15
        assert abs(report.macro_f1 - (2 / 3 + 0.8) / 2) < 1e-15

    def test_all_correct(self):
        report = MetricsReport.from_confusion([[3, 0, 0], [0, 4, 0], [0, 0, 5]],
                                              regression_mse=0.0)
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0
        assert report.macro_recall == 1.0

    def test_matches_brute_force_oracle(self):
        rng = np.random.Generator(np.random.PCG64(44))
        labels = [int(v) for v in rng.integers(0, 3, size=200)]
        preds = [int(v) for v in rng.integers(0, 3, size=200)]
        confusion = [[0] * 3 for _ in range(3)]
        for lab, pr in zip(labels, preds):
            confusion[lab][pr] += 1
        report = MetricsReport.from_confusion(confusion, regression_mse=0.0)

        # independent per-class counting, no shared arithmetic
        correct = sum(1 for a, b in zip(labels, preds) if a == b)
        assert report.accuracy == correct / 200
        recalls, f1s, precisions = [], [], []
        for k in range(3):
            tp = sum(1 for a, b in zip(labels, preds) if a == k and b == k)
            fn = sum(1 for a, b in zip(labels, preds) if a == k and b != k)
            fp = sum(1 for a, b in zip(labels, preds) if a != k and b == k)
            r = tp / (tp + fn) if tp + fn else 0.0
            p = tp / (tp + fp) if tp + fp else 0.0
            recalls.append(r)
            precisions.append(p)
            f1s.append(2 * p * r / (p + r) if p + r else 0.0)
        assert abs(report.macro_recall - sum(recalls) / 3) < 1e-12
        assert abs(report.macro_precision - sum(precisions) / 3) < 1e-12
        assert abs(report.macro_f1 - sum(f1s) / 3) < 1e-12

    def test_confusion_sums_to_n(self):
        report = MetricsReport.from_confusion([[2, 1, 0], [0, 3, 1], [1, 0, 2]], 0.1)
        assert sum(sum(row) for row in report.confusion) == report.n == 10

    def test_report_recomputable_from_confusion(self):
        report = MetricsReport.from_confusion([[2, 1, 0], [0, 3, 1], [1, 0, 2]], 0.1)
        again = MetricsReport.from_confusion(report.confusion, report.regression_mse)
        assert again == report

    def test_to_dict_round_trip(self):
        report = MetricsReport.from_confusion([[1, 0], [0, 1]], 0.5)
        d = report.to_dict()
        assert d["accuracy"] == 1.0
        assert d["confusion"] == [[1, 0], [0, 1]]

    def test_empty_confusion_rejected(self):
        with pytest.raises(DataValidationError):
            MetricsReport.from_confusion([[0, 0], [0, 0]], 0.0)

    def test_evaluate_counts_every_sample(self):
        samples = make_samples(TINY, 10)
        model = build_model(TINY, ArchKind.CNN_GRU)
        report = evaluate(model, samples)
        assert report.n == 10
        assert report.regression_mse >= 0.0
        # confusion agrees with a direct argmax sweep
        for s in samples:
            _, logits, _ = model_forward(model, s)
        want = [[0] * 3 for _ in range(3)]
        for s in samples:
            _, logits, _ = model_forward(model, s)
            want[s.target_class][int(np.argmax(logits.data))] += 1
        assert [list(r) for r in report.confusion] == want

    def test_evaluate_empty_split_rejected(self):
        with pytest.raises(DataValidationError):
            evaluate(build_model(TINY, ArchKind.CNN_GRU), [])


class TestScoreWindows:
    @pytest.mark.parametrize("arch", list(ArchKind))
    def test_matches_the_per_window_oracle_across_blocks(self, arch):
        samples = make_samples(TINY, 2 * FORWARD_BLOCK + 2, seed=5)  # two blocks and a short one
        model = build_model(TINY, arch)
        pred, logits = score_windows(model, samples)
        oracle = [model_forward(model, s) for s in samples]
        want_pred = np.array([p for p, _, _ in oracle])
        want_logits = np.array([lg.data[:, 0] for _, lg, _ in oracle])
        assert pred.shape == want_pred.shape and logits.shape == want_logits.shape
        assert np.abs(pred - want_pred).max() <= 1e-10 * np.abs(want_pred).max()
        assert np.abs(logits - want_logits).max() <= 1e-10 * np.abs(want_logits).max()

    @pytest.mark.parametrize("bad", ["pred", "logit"])
    def test_names_the_first_window_whose_outputs_are_not_finite(self, monkeypatch, bad):
        samples = make_samples(TINY, 6, seed=5)
        model = build_model(TINY, ArchKind.CNN_GRU)
        pred, logits = score_windows(model, samples)
        pred[4] = -math.inf
        if bad == "logit":
            logits[2, 1], pred[2] = math.nan, 0.25
        else:
            pred[2] = math.inf
        monkeypatch.setattr(train_mod, "_split_outputs", lambda *_: (pred, logits))
        with pytest.raises(NumericError, match=f"model outputs for {samples[2].target_date} "
                                               f"are not finite: predicted return "):
            score_windows(model, samples)


def table_report(accuracy: float, recall: float, f1: float) -> MetricsReport:
    """A report holding the three values the comparison table reads."""
    return MetricsReport(accuracy=accuracy, macro_recall=recall, macro_precision=0.0,
                         macro_f1=f1, regression_mse=0.0, confusion=((1,),), n=1)


class TestComparisonTable:
    # the paper's published values, listed out of the table's row order
    REPORTS = {
        ArchKind.CNN_GRU: table_report(0.8432, 0.8639, 0.87),
        ArchKind.CNN_ONLY: table_report(0.6259, 0.7589, 0.67),
        ArchKind.GRU_ONLY: table_report(0.6317, 0.7621, 0.69),
    }

    def test_layout_and_published_values(self):
        text = render_comparison_table(self.REPORTS)
        lines = text.splitlines()
        assert lines[0].split() == ["Model", "Ac", "Rec", "F1"]
        assert lines[1].split() == ["CNN", "62.59%", "75.89%", "0.67"]
        assert lines[2].split() == ["GRU", "63.17%", "76.21%", "0.69"]
        assert lines[3].split() == ["CNN+GRU", "84.32%", "86.39%", "0.87"]

    def test_exact_bytes(self):
        assert render_comparison_table(self.REPORTS) == (
            "Model          Ac     Rec    F1\n"
            "CNN        62.59%  75.89%  0.67\n"
            "GRU        63.17%  76.21%  0.69\n"
            "CNN+GRU    84.32%  86.39%  0.87")
        assert render_comparison_table({ArchKind.CNN_GRU: table_report(0.5, 0.25, 0.1)}) == (
            "Model          Ac     Rec    F1\n"
            "CNN+GRU    50.00%  25.00%  0.10")

    def test_columns_align(self):
        lines = render_comparison_table(self.REPORTS).splitlines()
        assert len({line.index("%") for line in lines[1:]}) == 1
        assert len({len(line) for line in lines[1:]}) == 1

    def test_ablation_comparison_is_deterministic(self):
        samples = make_samples(TINY, 20)
        tcfg = TrainConfig(epochs=2, patience=0, batch_size=8, seed=7)
        r1 = compare_ablations(samples, TINY, tcfg, ratios=(0.6, 0.2, 0.2))
        r2 = compare_ablations(samples, TINY, tcfg, ratios=(0.6, 0.2, 0.2))
        assert set(r1) == {ArchKind.CNN_ONLY, ArchKind.GRU_ONLY, ArchKind.CNN_GRU}
        assert r1 == r2
        rendered = render_comparison_table(r1)
        assert rendered.count("\n") == 3


class TestExportPredictions:
    def stats(self):
        return NormStats(means=(0.001, 0.0, 0.0, 0.0), stds=(0.02, 1.0, 1.0, 1.0))

    def test_zero_model_constant_return(self, tmp_path):
        samples = make_samples(TINY, 6)
        model = CnnGruModel(TINY, ArchKind.CNN_GRU,
                            np.zeros(build_model(TINY, ArchKind.CNN_GRU).params.size))
        path = tmp_path / "preds.csv"
        export_predictions(model, samples, self.stats(), path)
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["date", "true_close", "pred_close"]
        assert len(rows) == 7
        ratios = [float(r[2]) / s.prev_close for r, s in zip(rows[1:], samples)]
        for r in ratios:
            assert abs(r - ratios[0]) < 1e-12

    def test_inversion_recovers_true_close(self):
        # feeding the normalized true return through the documented inversion
        # must reproduce the target close exactly up to rounding
        stats = self.stats()
        prev_close, target_close = 104.2, 101.7
        raw = math.log(target_close / prev_close)
        z = stats.normalize_return(raw)
        assert abs(prev_close * math.exp(stats.denormalize_return(z))
                   - target_close) < 1e-9

    def test_row_count_matches_split(self, tmp_path):
        samples = make_samples(TINY, 9)
        model = build_model(TINY, ArchKind.CNN_GRU)
        path = tmp_path / "preds.csv"
        export_predictions(model, samples, self.stats(), path)
        assert len(path.read_text().splitlines()) == 10
