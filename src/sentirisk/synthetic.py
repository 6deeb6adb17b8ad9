"""Synthetic dataset generators for acceptance runs, demos, and fixtures.

make_ablation_dataset builds a task with two separable signals:

  * each day's latent state is written into its text as an ordered trigram;
    all three trigrams are permutations of the same three tokens, so any
    order-blind text encoder (mean embedding) sees identical day vectors;
  * the sample targets depend on the count of positive-state days in the
    20-day window through a four-region class map, which a linear readout
    of a window-mean feature cannot realize (three linear logits carve at
    most three intervals along the count axis).

A model therefore needs the conv encoder to read states and the recurrent
part to count them; the ablations are each blind to one half.

make_sinusoid_market builds the lag-mitigation regression benchmark: a
sinusoid-plus-noise price series where the persistence baseline is weak
because differencing amplifies the bar-to-bar noise.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import AlignedDay, N_MARKET_FEATURES, WindowSample
from .ingest import MarketBar, RawTextDoc
from .text import NEGATIVE, NEUTRAL, POSITIVE

# latent-state trigrams: cyclic permutations of token ids (alpha, beta, gamma)
ABLATION_TOKENS = {"alpha": 2, "beta": 3, "gamma": 4}
ABLATION_TRIGRAMS = ((2, 3, 4), (3, 4, 2), (4, 2, 3))
ABLATION_NOISE_IDS = tuple(range(5, 15))
ABLATION_VOCAB_SIZE = 15
ABLATION_MAX_DOC_LEN = 12
# acceptance 4's model and training run: their fields besides vocab_size, window, seed
ABLATION_MODEL = {"embed_dim": 8, "num_filters": 8, "kernel_width": 3, "conv_stride": 3,
                  "gru_hidden": 16, "max_doc_len": ABLATION_MAX_DOC_LEN}
ABLATION_TRAIN = {"lr": 5e-3, "batch_size": 16, "epochs": 80, "patience": 20, "optimizer": "adam"}

# sticky regimes concentrate window counts near 0 and 20, so the class
# boundaries below land in thin regions of the count distribution; that keeps
# held-out accuracy limited by architecture, not by boundary-straddling noise
ABLATION_STAY_PROB = 0.93
# count-of-positive-days class regions: [0,3) neg, [3,10) neu, [10,17) pos,
# [17,20] neg; the high-count wraparound is what mean-pooling cannot express
ABLATION_THRESHOLDS = (3, 10, 17)
ABLATION_RETURN_SCALE = 6.0
ABLATION_RETURN_CENTER = 0.335
ABLATION_RETURN_NOISE = 0.03


def _count_class(count: int) -> int:
    a, b, c = ABLATION_THRESHOLDS
    if count < a:
        return NEGATIVE
    if count < b:
        return NEUTRAL
    if count < c:
        return POSITIVE
    return NEGATIVE


def make_ablation_dataset(n_days: int = 620, seed: int = 7, window: int = 20,
                          docs_per_day: int = 2) -> tuple[list[WindowSample], int]:
    """Returns (samples, vocab_size); samples carry normalized-space targets."""
    if n_days <= window:
        raise ValueError(f"need more than {window} days, got {n_days}")
    rng = np.random.Generator(np.random.PCG64(seed))

    states = np.empty(n_days, dtype=int)
    states[0] = rng.integers(0, 3)
    for t in range(1, n_days):
        if rng.random() < ABLATION_STAY_PROB:
            states[t] = states[t - 1]
        else:
            others = [s for s in range(3) if s != states[t - 1]]
            states[t] = others[rng.integers(0, 2)]

    start = dt.date(2018, 1, 1)
    days: list[AlignedDay] = []
    for t in range(n_days):
        trigram = ABLATION_TRIGRAMS[states[t]]
        seqs = []
        for _ in range(docs_per_day):
            noise = rng.choice(ABLATION_NOISE_IDS, size=3).tolist()
            seqs.append(list(trigram) * 3 + [int(x) for x in noise])
        # market features carry no signal here by design: random values would
        # hand the model a memorization shortcut that masks the text mechanisms
        days.append(AlignedDay(
            date=start + dt.timedelta(days=t),
            raw=(0.0, 0.0, 0.0, 0.0),
            token_seqs=seqs,
            label=int(states[t]),
            close=100.0,
            features=(0.0,) * (N_MARKET_FEATURES - 1) + (1.0,),
        ))

    samples: list[WindowSample] = []
    for t in range(n_days - window):
        count = int(np.sum(states[t : t + window] == POSITIVE))
        ret = (ABLATION_RETURN_SCALE * (count / window - ABLATION_RETURN_CENTER)
               + ABLATION_RETURN_NOISE * rng.standard_normal())
        samples.append(WindowSample(
            inputs=days[t : t + window],
            target_date=days[t + window].date,
            target_class=_count_class(count),
            target_return_raw=float(ret),
            target_close=100.0,
            target_return=float(ret),
        ))
    return samples, ABLATION_VOCAB_SIZE


# ---------------------------------------------------------------------------
# market series generators (real CSV shapes, fed through the real pipeline)
# ---------------------------------------------------------------------------


def _weekdays(start: dt.date, n: int) -> list[dt.date]:
    out: list[dt.date] = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += dt.timedelta(days=1)
    return out


def _bars_from_closes(dates: Sequence[dt.date], closes: Sequence[float],
                      rng: np.random.Generator, base_volume: float = 1e6
                      ) -> list[MarketBar]:
    bars: list[MarketBar] = []
    prev = closes[0]
    for date, close in zip(dates, closes):
        open_ = prev
        spread_hi = abs(rng.normal(0.0, 0.5))
        spread_lo = abs(rng.normal(0.0, 0.5))
        volume = base_volume * math.exp(0.1 * rng.standard_normal())
        bars.append(MarketBar(
            date=date,
            open=round(open_, 4),
            high=round(max(open_, close) + spread_hi, 4),
            low=round(max(0.01, min(open_, close) - spread_lo), 4),
            close=round(close, 4),
            volume=round(volume, 0),
        ))
        prev = close
    return bars


def make_sinusoid_market(n_days: int = 240, period: float = 40.0,
                         amplitude: float = 10.0, base: float = 100.0,
                         noise_sd: float = 1.0, seed: int = 0) -> list[MarketBar]:
    """Close = base + amplitude*sin(2*pi*t/period) + noise, on weekday dates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dates = _weekdays(dt.date(2021, 1, 4), n_days)
    closes = [
        base + amplitude * math.sin(2.0 * math.pi * t / period)
        + noise_sd * rng.standard_normal()
        for t in range(n_days)
    ]
    return _bars_from_closes(dates, closes, rng)


def make_demo_market(n_days: int = 160, seed: int = 3,
                     start: dt.date = dt.date(2022, 1, 3)) -> list[MarketBar]:
    """Geometric random-walk bars on weekday dates."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dates = _weekdays(start, n_days)
    closes = [100.0]
    for _ in range(1, n_days):
        closes.append(closes[-1] * math.exp(rng.normal(0.0003, 0.012)))
    return _bars_from_closes(dates, closes, rng)


_POS_TEMPLATES = (
    "Futures point UP, $SPY looking strong after the rally 🚀",
    "Earnings beat across the board, growth stocks surge again!",
    "Buy the dip? Momentum is back and bulls are winning http://mktnews.example/a1",
    "Upgrade wave continues, record highs in sight for $TECH",
    "Solid recovery today. Optimistic on the rebound, going long.",
)
_NEG_TEMPLATES = (
    "Markets tank as panic selling hits $SPY, ugly red day 📉",
    "Recession fears grow; layoffs and weak guidance everywhere...",
    "Downgrade city. This bubble is ready to crash, I'm OUT www.beartakes.example/x",
    "Losses pile up, volatility spikes, bears in control of $TECH",
    "Another selloff. Warning signs flashing, risk is NOT priced in.",
)
_NEU_TEMPLATES = (
    "Quiet session for $SPY, volume thin ahead of the holiday.",
    "Fed minutes due tomorrow, markets waiting http://calendar.example/fed",
    "Mixed close today; sector rotation continues without drama.",
    "Watching the range on $TECH, no position yet.",
    "Flat day, nothing to report. See the recap at www.recap.example/d",
)


def make_demo_docs(bars: Sequence[MarketBar], seed: int = 4,
                   mean_docs_per_day: float = 2.0) -> list[RawTextDoc]:
    """Docs whose tone loosely anticipates the next day's return direction.

    Timestamps land on the calendar day before each bar (including weekends),
    exercising the roll-forward alignment path.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    docs: list[RawTextDoc] = []
    for i in range(1, len(bars)):
        ret = math.log(bars[i].close / bars[i - 1].close)
        n_docs = rng.poisson(mean_docs_per_day)
        doc_day = bars[i].date - dt.timedelta(days=1)  # may be a weekend
        for _ in range(n_docs):
            if rng.random() < 0.7:
                pool = _POS_TEMPLATES if ret > 0 else _NEG_TEMPLATES
            else:
                pool = (_POS_TEMPLATES, _NEG_TEMPLATES, _NEU_TEMPLATES)[rng.integers(0, 3)]
            text = pool[rng.integers(0, len(pool))]
            ts = dt.datetime.combine(doc_day, dt.time(int(rng.integers(0, 24)),
                                                      int(rng.integers(0, 60))))
            docs.append(RawTextDoc(timestamp=ts, text=text, source="demo"))
    docs.sort(key=lambda d: d.timestamp)
    return docs


# ---------------------------------------------------------------------------
# fixture writers
# ---------------------------------------------------------------------------


def write_market_csv(bars: Iterable[MarketBar], path: str | Path) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "open", "high", "low", "close", "volume"])
        for b in bars:
            writer.writerow([b.date.isoformat(), b.open, b.high, b.low, b.close, b.volume])


def write_docs_jsonl(docs: Iterable[RawTextDoc], path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for d in docs:
            obj = {"timestamp": d.timestamp.isoformat(), "text": d.text, "source": d.source}
            if d.label is not None:
                obj["label"] = d.label
            fh.write(json.dumps(obj) + "\n")
