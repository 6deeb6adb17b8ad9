"""The sentirisk benchmark workloads and the closed loop that times them.

Every workload follows the quickstart journey, one caller, each step waiting
for the one before it:

  setup   program work before the first timed step: ingest, prepare_dataset,
          save_prepared, load_prepared, then build_model or load_checkpoint;
          repeated ``setup_reps`` times, the median is ``setup_s``
  train   a fixed training run (one epoch, early stopping off) that ends
          with save_checkpoint, as ``sentirisk train`` does; repeated while
          half the run's seconds last
  score   load_checkpoint, then every window scored one at a time as
          ``sentirisk alert`` does (model_forward, softmax, a
          DailyPrediction), then detect_inflections over the pass; passes
          repeat while the other half lasts and until ``min_scored`` windows

The workloads differ in which phase dominates; README.md says why each was
chosen. A seed feeds the market and ablation generators and the model and
shuffle seeds; seed 0 reproduces the README demo data and acceptance 4's
dataset.
"""

from __future__ import annotations

import bisect
import math
import shutil
import signal
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from sentirisk import alerts, data, losses, matrix, model, optim, synthetic, text, train

from .tracing import Tracer

EPOCHS = 1
SCORE_RATIOS = (0.1, 0.05, 0.85)  # train on the first windows, alert on the rest
PROBE_INTERVAL_S = 0.002
PROBE_LOOP = 400  # iterations; about 15 us at full speed, 1% of the run
PROBE_FULL_SPEED_S = 15e-6  # the loop's time in the fast state of a 2 GHz Xeon (turbo on)
RISK_THRESHOLD = 0.46  # inside the risk range of lightly trained models, so alerts fire


@dataclass(frozen=True)
class Sizes:
    demo_days: int = 160
    ablation_days: int = 620
    score_days: int = 1020
    setup_reps: int = 5
    min_scored: int = 1000  # p99 then has at least 10 windows beyond it


FULL = Sizes()
SMOKE = Sizes(demo_days=45, ablation_days=60, score_days=70, setup_reps=2, min_scored=20)


@dataclass
class Setup:
    """What setup hands to the timed phases."""

    ds: data.PreparedDataset
    models: dict[model.ArchKind, model.CnnGruModel]
    tcfg: train.TrainConfig
    evaluate_test: bool = False


@dataclass
class Workload:
    make_inputs: Callable[[Path, int, Sizes], object]
    setup: Callable[[object, Path], Setup]


# ---------------------------------------------------------------------------
# inputs (untimed) and setup (timed)
# ---------------------------------------------------------------------------


def _demo_inputs(work: Path, seed: int, n_days: int) -> Path:
    """make_demo_data.py's workspace; seed 0 gives its defaults (market 3, docs 4).

    The seed moves the market path, and with it the tone of every document,
    but the docs seed stays 4: make_demo_docs draws the same number of
    documents per day for any market, so every seed asks for the same text
    encoding work. Varying it changes the work a training epoch does by up
    to a quarter, which would swamp the timings.
    """
    raw = work / "raw"
    raw.mkdir(parents=True, exist_ok=True)
    bars = synthetic.make_demo_market(n_days=n_days, seed=3 + seed)
    synthetic.write_market_csv(bars, raw / "market.csv")
    synthetic.write_docs_jsonl(synthetic.make_demo_docs(bars, seed=4), raw / "texts.jsonl")
    return raw


def _prepare(raw: Path, work: Path, pcfg: data.PrepareConfig) -> data.PreparedDataset:
    bars = data.load_market_csv(raw / "market.csv")
    docs = data.load_text_jsonl(raw / "texts.jsonl")
    ds = data.prepare_dataset(bars, docs, text.Lexicon.bundled(), pcfg)
    data.save_prepared(ds, work / "prepared")
    return data.load_prepared(work / "prepared")


def demo_inputs(work: Path, seed: int, sizes: Sizes) -> tuple[Path, int]:
    return _demo_inputs(work, seed, sizes.demo_days), seed


def demo_setup(inputs: tuple[Path, int], work: Path) -> Setup:
    raw, seed = inputs
    ds = _prepare(raw, work, data.PrepareConfig())
    mcfg = model.ModelConfig(vocab_size=ds.vocab.size, seed=seed)
    arch = model.ArchKind.CNN_GRU
    return Setup(ds, {arch: model.build_model(mcfg, arch)},
                 train.TrainConfig(epochs=EPOCHS, patience=0, seed=seed))


def ablation_inputs(work: Path, seed: int, sizes: Sizes) -> tuple[data.PreparedDataset, int]:
    """Acceptance 4's dataset as a prepared dataset, as ``sentirisk compare`` reads it."""
    samples, vocab_size = synthetic.make_ablation_dataset(n_days=sizes.ablation_days,
                                                          seed=15 + seed)
    names = {i: name for name, i in synthetic.ABLATION_TOKENS.items()}
    vocab = text.Vocabulary({names.get(i, f"noise{i}"): i for i in range(2, vocab_size)})
    # the generator's features are already normalized: identity statistics
    stats = data.NormStats(means=(0.0,) * 4, stds=(1.0,) * 4)
    return data.PreparedDataset(vocab, samples, stats, window=20,
                                ratios=data.DEFAULT_RATIOS), seed


def ablation_setup(inputs: tuple[data.PreparedDataset, int], work: Path) -> Setup:
    generated, seed = inputs
    data.save_prepared(generated, work / "prepared")
    ds = data.load_prepared(work / "prepared")
    mcfg = model.ModelConfig(
        vocab_size=ds.vocab.size, embed_dim=8, num_filters=8, kernel_width=3,
        conv_stride=3, gru_hidden=16, window=ds.window,
        max_doc_len=synthetic.ABLATION_MAX_DOC_LEN, attention_enabled=True, seed=seed)
    # compare_ablations' order
    archs = (model.ArchKind.CNN_ONLY, model.ArchKind.GRU_ONLY, model.ArchKind.CNN_GRU)
    tcfg = train.TrainConfig(lr=5e-3, batch_size=16, epochs=EPOCHS, patience=0,
                             optimizer="adam", seed=seed)
    return Setup(ds, {a: model.build_model(mcfg, a) for a in archs}, tcfg,
                 evaluate_test=True)


def score_inputs(work: Path, seed: int, sizes: Sizes) -> tuple[Path, Path, int]:
    """A long demo history plus a seeded checkpoint sized to its vocabulary."""
    raw = _demo_inputs(work, seed, sizes.score_days)
    ds = _prepare(raw, work, data.PrepareConfig(ratios=SCORE_RATIOS))
    ckpt = work / "seeded.ckpt.json"
    model.save_checkpoint(
        model.build_model(model.ModelConfig(vocab_size=ds.vocab.size, seed=seed),
                          model.ArchKind.CNN_GRU),
        ckpt)
    return raw, ckpt, seed


def score_setup(inputs: tuple[Path, Path, int], work: Path) -> Setup:
    raw, ckpt, seed = inputs
    ds = _prepare(raw, work, data.PrepareConfig(ratios=SCORE_RATIOS))
    m = model.load_checkpoint(ckpt)
    return Setup(ds, {m.arch: m}, train.TrainConfig(epochs=EPOCHS, patience=0, seed=seed))


WORKLOADS = {
    "demo-train": Workload(demo_inputs, demo_setup),
    "ablation": Workload(ablation_inputs, ablation_setup),
    "score": Workload(score_inputs, score_setup),
}


# ---------------------------------------------------------------------------
# the timed loop
# ---------------------------------------------------------------------------


class SpeedProbe:
    """Times spans in full-speed seconds on a core whose speed swings.

    The host is shared, and the core under this process switches between a
    fast and a slow state (up to 1.8x apart) many times a second, for a
    share of the time that drifts over minutes; raw wall times of the same
    work then spread by a third between runs. While the probe is started, a
    timer signal every PROBE_INTERVAL_S runs a fixed Python loop and records
    how long it took. ``stop`` returns a span's wall time, minus the probe's
    own time, times PROBE_FULL_SPEED_S over the mean loop time sampled
    during the span: the time the span would take at full speed. A probe
    that was never started returns plain wall time.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent_s

    def stop(self, start: tuple[float, float]) -> float:
        t0, spent0 = start
        t1 = time.perf_counter()
        wall = t1 - t0 - (self.spent_s - spent0)
        if not self.took:
            return wall
        a, b = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        if a == b:  # shorter than the interval: use the nearest samples
            a, b = max(a - 1, 0), min(b + 1, len(self.took))
        return wall * PROBE_FULL_SPEED_S / statistics.fmean(self.took[a:b])

    @property
    def slowdown(self) -> float:
        """Mean sampled loop time over its full-speed time."""
        return statistics.fmean(self.took) / PROBE_FULL_SPEED_S if self.took else 1.0


@dataclass
class Measurement:
    setup_s: list[float] = field(default_factory=list)
    train_s: list[float] = field(default_factory=list)
    train_outputs: list[dict] = field(default_factory=list)
    window_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    pass_outputs: list[dict] = field(default_factory=list)
    steps_per_run: dict[str, int] = field(default_factory=dict)  # optimizer steps, by arch
    train_windows_per_run: int = 0
    distinct_docs_per_run: int = 0  # in the windows a training run encodes with the conv
    conv_calls_in_training: int | None = None  # traced runs only
    prepared_bytes: int = 0
    day_copies_per_day: float = 0.0
    wall_s: float = 0.0


def _distinct_docs(windows) -> int:
    per_day = {d.date: len(d.token_seqs) for s in windows for d in s.inputs if d.has_text}
    return sum(per_day.values())


def _train_once(st: Setup, ckpt: Path) -> dict:
    train_split, val_split, test_split = st.ds.splits()
    out: dict = {"losses": {}, "test_accuracy": {}}
    for arch, m in st.models.items():
        best, history = train.train(m, train_split, val_split, st.tcfg)
        out["losses"][arch.value] = [[h["train_loss"], h["val_loss"]] for h in history]
        if st.evaluate_test:
            out["test_accuracy"][arch.value] = train.evaluate(best, test_split).accuracy
    model.save_checkpoint(best, ckpt)  # the full model comes last and is the one scored
    return out


def _score_pass(m: model.CnnGruModel, windows, rules: alerts.AlertRuleConfig,
                latencies: list[float], probe: SpeedProbe) -> dict:
    preds = []
    rows = []
    for sample in windows:
        t0 = probe.start()
        pred, logits, _ = model.model_forward(m, sample)
        probs = matrix.softmax(logits)
        preds.append(alerts.DailyPrediction(
            date=sample.target_date,
            predicted_class=max(range(3), key=lambda i: probs.at(i, 0)),
            probs=probs,
            predicted_return=pred,
        ))
        latencies.append(probe.stop(t0))
        rows.append([sample.target_date.isoformat(), pred, *probs.values])
    found = alerts.detect_inflections(preds, rules)
    return {"predictions": rows, "alerts": [a.to_dict() for a in found]}


def measure(wl: Workload, inputs, work: Path, seconds: float, sizes: Sizes,
            probe: SpeedProbe, tracer: Tracer | None = None) -> Measurement:
    """Runs setup, train and score phases; each phase loops until its budget.

    Spans are timed by probe; phase budgets are in wall seconds.
    """
    res = Measurement()
    clock = time.perf_counter
    start = clock()
    for _ in range(sizes.setup_reps):
        shutil.rmtree(work / "prepared", ignore_errors=True)
        t0 = probe.start()
        st = wl.setup(inputs, work)
        res.setup_s.append(probe.stop(t0))

    train_split, val_split, test_split = st.ds.splits()
    conv_archs = sum(a is not model.ArchKind.GRU_ONLY for a in st.models)
    encoded = train_split + val_split + (test_split if st.evaluate_test else [])
    res.distinct_docs_per_run = conv_archs * _distinct_docs(encoded)
    res.train_windows_per_run = EPOCHS * len(train_split) * len(st.models)
    steps = EPOCHS * math.ceil(len(train_split) / st.tcfg.batch_size)
    res.steps_per_run = {a.value: steps for a in st.models}
    res.prepared_bytes = sum(p.stat().st_size for p in (work / "prepared").iterdir())
    res.day_copies_per_day = (len({id(d) for s in st.ds.samples for d in s.inputs})
                              / len({d.date for s in st.ds.samples for d in s.inputs}))

    ckpt = work / "trained.ckpt.json"
    conv_calls0 = tracer.stats["layers.conv1d_forward"].calls if tracer else 0
    phase0 = clock()
    while True:
        t0 = probe.start()
        res.train_outputs.append(_train_once(st, ckpt))
        res.train_s.append(probe.stop(t0))
        if clock() - phase0 >= seconds / 2:
            break
    if tracer:
        res.conv_calls_in_training = tracer.stats["layers.conv1d_forward"].calls - conv_calls0

    scored = model.load_checkpoint(ckpt)
    rules = alerts.AlertRuleConfig(risk_threshold=RISK_THRESHOLD)
    phase0 = clock()
    while True:
        t0 = probe.start()
        res.pass_outputs.append(_score_pass(scored, st.ds.samples, rules, res.window_s, probe))
        res.pass_s.append(probe.stop(t0))
        if clock() - phase0 >= seconds / 2 and len(res.window_s) >= sizes.min_scored:
            break
    res.wall_s = clock() - start
    return res


# ---------------------------------------------------------------------------
# what the traced run wraps
# ---------------------------------------------------------------------------


def layer_targets() -> dict[str, list[Callable]]:
    """Metric name -> the public functions timed under it."""
    from sentirisk import layers

    targets: dict[str, list[Callable]] = {
        f"layers.{name}": [getattr(layers, name)] for name in (
            "embed_lookup", "embed_backward", "conv1d_forward", "conv1d_backward",
            "global_max_pool", "max_pool_backward", "gru_forward",
            "gru_sequence_backward", "attention_pool", "attention_backward",
            "dense_forward", "dense_backward")
    }
    for mod, names in (
        (model, ("model_forward", "model_backward", "build_model",
                 "load_checkpoint", "save_checkpoint")),
        (train, ("train", "split_joint_loss", "evaluate")),
        (data, ("load_market_csv", "load_text_jsonl", "prepare_dataset",
                "save_prepared", "load_prepared")),
        (text, ("clean_text", "build_vocab", "encode_doc")),
        (alerts, ("detect_inflections", "risk_score")),
        (matrix, ("softmax",)),
    ):
        short = mod.__name__.rpartition(".")[2]
        targets.update({f"{short}.{n}": [getattr(mod, n)] for n in names})
    targets["losses"] = [losses.mse, losses.cross_entropy, losses.mse_grad,
                         losses.cross_entropy_grad]
    targets["optim.Optimizer.apply"] = [optim.Optimizer.apply]
    return targets
