"""Training loop, metrics, cross-validation, ablation table, prediction export."""

import csv
import datetime as dt
import json
import math

import numpy as np
import pytest

from sentirisk.data import AlignedDay, NormStats, WindowSample
from sentirisk.errors import DataValidationError, NumericError, TrainingDivergedError
from sentirisk.matrix import Matrix
from sentirisk.model import (
    ArchKind,
    ModelConfig,
    build_model,
    model_forward,
    named_params,
    set_named_params,
)
from sentirisk.train import (
    CVPlan,
    MetricsReport,
    TrainConfig,
    compare_ablations,
    cross_validate,
    evaluate,
    export_predictions,
    render_comparison_table,
    report_rows,
    save_history,
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
            has_text=True,
            close=100.0 + t,
            features=Matrix._wrap(rng.standard_normal((5, 1))),
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
            prev_close=days[t + cfg.window - 1].close,
            target_return=ret,
        ))
    return samples


class TestTrainLoop:
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
        a, b = named_params(m1), named_params(m2)
        for name in a:
            assert a[name] == b[name], name

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

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="rmsprop")


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


class TestCrossValidation:
    def test_plan_validates_k(self):
        with pytest.raises(DataValidationError):
            CVPlan(k=1)

    def test_fold_bounds_cover_range_in_order(self):
        plan = CVPlan(k=4)
        bounds = plan.fold_bounds(10)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 10
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
            assert a0 < a1
        # forward chaining: every training index precedes its validation fold
        for start, _ in bounds[1:]:
            assert all(i < start for i in range(start))

    def test_insufficient_samples_rejected(self):
        with pytest.raises(DataValidationError):
            CVPlan(k=5).fold_bounds(3)

    def test_single_config_returned(self):
        samples = make_samples(TINY, 12)
        grid = [(TINY, TrainConfig(epochs=1, patience=0, batch_size=8))]
        best, losses = cross_validate(grid, samples, CVPlan(k=3))
        assert best is grid[0]
        assert len(losses) == 1

    def test_tie_keeps_first_entry(self):
        samples = make_samples(TINY, 12)
        cfg = TrainConfig(epochs=1, patience=0, batch_size=8)
        grid = [(TINY, cfg), (TINY, cfg)]
        best, losses = cross_validate(grid, samples, CVPlan(k=3))
        assert best is grid[0]
        assert losses[0] == losses[1]

    def test_planted_winner_selected(self):
        samples = make_samples(TINY, 24, const_return=2.0)
        live = TrainConfig(epochs=30, patience=0, batch_size=50, lr=1e-2, seed=2)
        dead = TrainConfig(epochs=30, patience=0, batch_size=50, lr=1e-9, seed=2)
        grid = [(TINY, dead), (TINY, live)]
        best, losses = cross_validate(grid, samples, CVPlan(k=3))
        assert best is grid[1]
        assert losses[1] < losses[0]


class TestComparisonTable:
    ROWS = {
        ArchKind.CNN_ONLY: (0.6259, 0.7589, 0.67),
        ArchKind.GRU_ONLY: (0.6317, 0.7621, 0.69),
        ArchKind.CNN_GRU: (0.8432, 0.8639, 0.87),
    }

    def test_layout_and_published_values(self):
        text = render_comparison_table(self.ROWS)
        lines = text.splitlines()
        assert lines[0].split() == ["Model", "Ac", "Rec", "F1"]
        assert lines[1].split() == ["CNN", "62.59%", "75.89%", "0.67"]
        assert lines[2].split() == ["GRU", "63.17%", "76.21%", "0.69"]
        assert lines[3].split() == ["CNN+GRU", "84.32%", "86.39%", "0.87"]

    def test_columns_align(self):
        lines = render_comparison_table(self.ROWS).splitlines()
        assert len({line.index("%") for line in lines[1:]}) == 1
        assert len({len(line) for line in lines[1:]}) == 1

    def test_ablation_comparison_is_deterministic(self):
        samples = make_samples(TINY, 20)
        tcfg = TrainConfig(epochs=2, patience=0, batch_size=8, seed=7)
        r1 = compare_ablations(samples, TINY, tcfg, ratios=(0.6, 0.2, 0.2))
        r2 = compare_ablations(samples, TINY, tcfg, ratios=(0.6, 0.2, 0.2))
        assert set(r1) == {ArchKind.CNN_ONLY, ArchKind.GRU_ONLY, ArchKind.CNN_GRU}
        assert r1 == r2
        rows = report_rows(r1)
        rendered = render_comparison_table(rows)
        assert rendered.count("\n") == 3


class TestExportPredictions:
    def stats(self):
        return NormStats(means=(0.001, 0.0, 0.0, 0.0), stds=(0.02, 1.0, 1.0, 1.0))

    def test_zero_model_constant_return(self, tmp_path):
        samples = make_samples(TINY, 6)
        model = build_model(TINY, ArchKind.CNN_GRU)
        params = named_params(model)
        model = set_named_params(
            model, {n: Matrix.zeros(p.rows, p.cols) for n, p in params.items()}
        )
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

    def test_missing_stats_rejected(self, tmp_path):
        samples = make_samples(TINY, 3)
        model = build_model(TINY, ArchKind.CNN_GRU)
        with pytest.raises(DataValidationError):
            export_predictions(model, samples, None, tmp_path / "p.csv")
