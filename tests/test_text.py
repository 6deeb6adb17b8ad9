"""Text cleaning vs committed golden corpus; labeling, vocab, and encoding rules."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sentirisk.text import (
    CLASS_NAMES,
    NEGATIVE,
    NEUTRAL,
    PAD_ID,
    POSITIVE,
    UNK_ID,
    Lexicon,
    Vocabulary,
    build_vocab,
    clean_text,
    encode_doc,
    label_tokens,
    vocab_from_counts,
)

FIXTURES = Path(__file__).parent / "fixtures"


class TestCleanText:
    def test_stated_rules_example(self):
        assert clean_text("Check $AAPL 🚀 http://x.co/q GREAT!!!") == "check aapl great"

    def test_empty_string(self):
        assert clean_text("") == ""

    def test_golden_corpus_bit_exact(self):
        inputs = [json.loads(line) for line in
                  (FIXTURES / "clean_inputs.jsonl").read_text(encoding="utf-8").splitlines()]
        golden = [json.loads(line) for line in
                  (FIXTURES / "clean_golden.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(inputs) == 50
        assert len(golden) == 50
        for raw, want in zip(inputs, golden):
            assert clean_text(raw) == want

    def test_www_url_removed(self):
        assert clean_text("see www.example.com/page now") == "see now"

    def test_scheme_url_removed(self):
        assert clean_text("ftp://files.example.org/a.txt done") == "done"

    def test_dollar_sign_stripped_from_tickers(self):
        assert clean_text("$TSLA and $100 profit") == "tsla and 100 profit"

    def test_whitespace_collapsed_and_trimmed(self):
        assert clean_text("  a\t\tb\n\nc  ") == "a b c"

    def test_idempotent_on_random_strings(self):
        rng = np.random.Generator(np.random.PCG64(123))
        # charset mixes letters, digits, url fragments, emoji, punctuation,
        # exotic whitespace: everything the cleaner is supposed to chew on
        pieces = [
            "a", "B", "z", "9", "$", " ", "\t", "\n", " ", "​",
            "!", "?", ".", ",", ":", "/", "http://", "www.", "é", "🚀",
            "💎", "#", "@", "_", "-", "'", '"', "\\", "—", "…", "\r\n",
        ]
        for _ in range(10_000):
            n = int(rng.integers(0, 12))
            s = "".join(pieces[int(i)] for i in rng.integers(0, len(pieces), size=n))
            once = clean_text(s)
            assert clean_text(once) == once

    def test_whitespace_of_every_kind_collapses(self):
        # \x1c-\x1f, U+0085, U+2028 and U+3000 are whitespace to str.split as to \s
        assert clean_text("a\x1cb\x85c\u2028d\u3000e\u00a0f") == "a b c d e f"


class TestTokenForms:
    """build_vocab is vocab_from_counts of the strings' split(), and label_tokens
    labels a split by the lexicon rule."""

    def test_on_the_golden_corpus(self):
        lex = Lexicon(positive=frozenset({"surge", "great", "up"}),
                      negative=frozenset({"crash", "down"}))
        cleaned = [clean_text(json.loads(line)) for line in
                   (FIXTURES / "clean_inputs.jsonl").read_text(encoding="utf-8").splitlines()]
        tokens = [c.split() for c in cleaned]
        vocab = build_vocab(cleaned, min_freq=2, max_size=40)
        counts = Counter(tok for t in tokens for tok in t)
        assert vocab == vocab_from_counts(counts, min_freq=2, max_size=40)
        for t in tokens:  # the sign of (#positive - #negative), counted here
            score = sum(tok in lex.positive for tok in t) - sum(tok in lex.negative for tok in t)
            want = "positive" if score > 0 else "negative" if score < 0 else "neutral"
            assert label_tokens(t, lex) == want
            assert label_tokens(t, lex, "negative") == "negative"


class TestLabelTokens:
    """label_tokens of a cleaned text's split(), as prepare_dataset calls it."""

    def lexicon(self):
        return Lexicon(positive=frozenset({"great", "strong", "good"}),
                       negative=frozenset({"bad", "weak"}))

    def test_positive_score(self):
        assert label_tokens("great rally strong".split(), self.lexicon()) == "positive"

    def test_empty_is_neutral(self):
        assert label_tokens("".split(), self.lexicon()) == "neutral"

    def test_tie_is_neutral(self):
        assert label_tokens("good bad".split(), self.lexicon()) == "neutral"

    def test_negative_score(self):
        assert label_tokens("bad weak bad".split(), self.lexicon()) == "negative"

    def test_presupplied_label_bypasses_lexicon(self):
        got = label_tokens("bad weak".split(), self.lexicon(), presupplied="positive")
        assert got == "positive"

    def test_bundled_lexicon_loads(self):
        lex = Lexicon.bundled()
        assert len(lex.positive) >= 50
        assert len(lex.negative) >= 50
        assert not (lex.positive & lex.negative)


class TestClassIndexing:
    def test_names_and_indices_agree(self):
        assert CLASS_NAMES == ("negative", "neutral", "positive")
        assert (NEGATIVE, NEUTRAL, POSITIVE) == (0, 1, 2)

    def test_reserved_token_ids(self):
        assert PAD_ID == 0
        assert UNK_ID == 1


class TestBuildVocab:
    def test_frequency_then_lexicographic(self):
        v = build_vocab(["a a b"], min_freq=1)
        assert v.token_to_id == {"a": 2, "b": 3}

    def test_min_freq_threshold(self):
        v = build_vocab(["a a b"], min_freq=2)
        assert v.token_to_id == {"a": 2}

    def test_tie_broken_lexicographically(self):
        v = build_vocab(["delta alpha", "charlie bravo"], min_freq=1)
        assert v.token_to_id == {"alpha": 2, "bravo": 3, "charlie": 4, "delta": 5}

    def test_max_size_truncates_after_ranking(self):
        v = build_vocab(["a a a b b c"], min_freq=1, max_size=4)
        # max_size includes the two reserved ids, so two real tokens survive
        assert v.token_to_id == {"a": 2, "b": 3}
        assert v.size == 4

    def test_min_freq_below_one_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(["a"], min_freq=0)

    def test_round_trip_through_lines(self):
        v = build_vocab(["gamma beta alpha alpha"], min_freq=1)
        again = Vocabulary.from_lines(v.to_lines())
        assert again.token_to_id == v.token_to_id

    def test_sparse_ids_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(token_to_id={"a": 2, "b": 4})
        with pytest.raises(ValueError):
            Vocabulary(token_to_id={"a": 0})


class TestEncodeDoc:
    def vocab(self):
        return Vocabulary(token_to_id={"a": 2, "b": 3})

    def test_basic_ids_are_not_padded(self):
        assert encode_doc("a b", self.vocab()) == [2, 3]

    def test_unknown_maps_to_unk(self):
        assert encode_doc("zzz a", self.vocab()) == [1, 2]

    def test_long_doc_keeps_every_id(self):
        assert encode_doc(" ".join(["a", "b", "zzz"] * 20), self.vocab()) == [2, 3, 1] * 20

    def test_empty_doc_has_no_ids(self):
        assert encode_doc("", self.vocab()) == []
