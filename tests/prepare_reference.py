"""prepare_dataset's earlier per-document body, kept as a test reference.

It tokenizes, labels and encodes every document on its own, where
data.prepare_dataset does that work once per distinct text and shares the
result among the text's documents. The two must build the same dataset,
down to the bytes save_prepared writes.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter

from sentirisk.data import (
    DayColumns,
    MarketColumns,
    NormStats,
    PreparedDataset,
    TextColumns,
    WindowColumns,
    _as_columns,
    _day_rows,
    _window_targets,
    split_chronological,
)
from sentirisk.text import CLASS_INDEX, UNK_ID, score_label, tokenize, vocab_from_counts


def prepare_per_document(bars, raw_docs, lexicon, cfg) -> PreparedDataset:
    bars, docs = _as_columns(MarketColumns, bars), _as_columns(TextColumns, raw_docs)
    tokens = [list(map(sys.intern, tokenize(text))) for text in docs.text]
    timestamps = list(itertools.compress(docs.timestamp, tokens))
    given = list(itertools.compress(docs.label, tokens))
    tokens = list(filter(None, tokens))
    counts = Counter(itertools.chain.from_iterable(tokens))
    vocab = vocab_from_counts(counts, min_freq=cfg.min_freq, max_size=cfg.max_vocab)
    score = {tok: lexicon.score(tok) for tok in counts}.__getitem__
    labels = [CLASS_INDEX[label if label is not None else score_label(sum(map(score, toks)))]
              for toks, label in zip(tokens, given)]
    get = vocab.token_to_id.get
    ids = {tok: get(tok, UNK_ID) for tok in counts}.__getitem__
    days_raw = _day_rows(bars, timestamps, [tuple(map(ids, toks)) for toks in tokens], labels)
    targets = _window_targets(days_raw, cfg.window)
    n_train = len(split_chronological(targets, cfg.ratios)[0])
    stats = NormStats.fit([r[1] for r in days_raw[: n_train + cfg.window]])
    return PreparedDataset.of_columns(vocab, stats, cfg.window, cfg.ratios,
                                      DayColumns(*zip(*days_raw[:-1])),
                                      WindowColumns(*zip(*targets)))
