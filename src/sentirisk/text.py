"""Text cleaning, lexicon sentiment labeling, vocabulary building, encoding.

Tokenizing normalizes raw social/news text into lowercase [a-z0-9] tokens
(clean_text joins them with spaces); labeling scores tokens against
positive/negative word lists; the vocabulary assigns dense ids with 0
reserved for padding and 1 for unknown tokens.
"""

from __future__ import annotations

import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

from .errors import DataValidationError

PAD_ID = 0
UNK_ID = 1

CLASS_NAMES = ("negative", "neutral", "positive")
CLASS_INDEX = {name: i for i, name in enumerate(CLASS_NAMES)}
NUM_CLASSES = len(CLASS_NAMES)

NEGATIVE, NEUTRAL, POSITIVE = 0, 1, 2

# scheme://... or www.-prefixed runs, consumed to the next whitespace
_URL_RE = re.compile(r"[a-z][a-z0-9+.\-]*://\S+|\bwww\.\S+")
_NON_ALPHABET_RE = re.compile(r"[^a-z0-9\s$]")


def tokenize(raw: str) -> list[str]:
    """The tokens of raw: lowercased, URLs stripped, only [a-z0-9 space $]
    kept, '$' dropped, split at whitespace ('$TICKER' therefore gives
    'ticker'). clean_text joins them; prepare_dataset reads them."""
    s = raw.lower()
    if "://" in s or "www." in s:  # every _URL_RE match holds one
        s = _URL_RE.sub(" ", s)
    # split() and \s split at the same characters
    return _NON_ALPHABET_RE.sub("", s).replace("$", "").split()


def clean_text(raw: str) -> str:
    """raw's tokens (tokenize) joined by single spaces.

    Idempotent: a cleaned string contains no characters a second pass could remove.
    """
    return " ".join(tokenize(raw))


@dataclass(frozen=True)
class Lexicon:
    positive: frozenset[str]
    negative: frozenset[str]

    @classmethod
    def from_files(cls, positive_path: str | Path, negative_path: str | Path) -> "Lexicon":
        return cls(
            positive=_parse_wordlist(read_text(positive_path)),
            negative=_parse_wordlist(read_text(negative_path)),
        )

    @classmethod
    def bundled(cls) -> "Lexicon":
        pkg = resources.files("sentirisk.lexicons")
        return cls(
            positive=_parse_wordlist((pkg / "positive.txt").read_text(encoding="utf-8")),
            negative=_parse_wordlist((pkg / "negative.txt").read_text(encoding="utf-8")),
        )

    def score(self, token: str) -> int:
        """+1 for a positive token, -1 for a negative one, else 0 (both: 0)."""
        return (token in self.positive) - (token in self.negative)


@contextmanager
def open_text(path: Path, error: type[Exception] = DataValidationError,
              missing: str = "file not found", encoding: str = "utf-8",
              newline: str | None = None) -> Iterator[TextIO]:
    """path opened for reading text. A missing path or a directory raises
    error(f"{missing}: {path}"), and text read in the with-block that is not
    UTF-8 raises error naming path. Pipes and other files that are not
    regular files are read as they come."""
    try:
        fh = path.open(encoding=encoding, newline=newline)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError):
        raise error(f"{missing}: {path}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_text(path: str | Path, error: type[Exception] = DataValidationError) -> str:
    """The text of path; a missing file, a directory, or text that is not
    UTF-8 raises error naming path."""
    with open_text(Path(path), error) as fh:
        return fh.read()


def _parse_wordlist(text: str) -> frozenset[str]:
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip())


def label_tokens(tokens: Sequence[str], lexicon: Lexicon,
                 presupplied: str | None = None) -> str:
    """A cleaned text's split() labeled by score_label of the sum of its
    tokens' lexicon scores.

    A pre-supplied label (a RawTextDoc's, checked when it was built) bypasses
    the lexicon entirely.
    """
    if presupplied is not None:
        return presupplied
    return score_label(sum(map(lexicon.score, tokens)))


def score_label(score: int) -> str:
    """The label of a text's (#positive - #negative tokens) score: > 0 →
    positive, < 0 → negative, else neutral."""
    if score > 0:
        return "positive"
    if score < 0:
        return "negative"
    return "neutral"


@dataclass
class Vocabulary:
    """Dense token→id map; id 0 is padding, id 1 is unknown."""

    token_to_id: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ids = sorted(self.token_to_id.values())
        if ids != list(range(2, 2 + len(ids))):
            raise DataValidationError("vocabulary ids must be dense starting at 2")

    @property
    def size(self) -> int:
        """Total id count including the reserved pad and unknown slots."""
        return len(self.token_to_id) + 2

    def to_lines(self) -> list[str]:
        """Line i holds the token with id i+2."""
        return sorted(self.token_to_id, key=self.token_to_id.__getitem__)

    @classmethod
    def from_lines(cls, lines: Iterable[str]) -> "Vocabulary":
        mapping: dict[str, int] = {}
        for i, tok in enumerate(lines):
            tok = tok.rstrip("\n")
            if not tok:
                raise DataValidationError(f"empty vocab token at line {i + 1}")
            if tok in mapping:
                raise DataValidationError(f"duplicate vocab token {tok!r} at line {i + 1}")
            mapping[tok] = i + 2
        return cls(token_to_id=mapping)


def build_vocab(corpus: Iterable[str], min_freq: int = 1,
                max_size: int = 20000) -> Vocabulary:
    """Frequency-desc then lexicographic-asc ranking, ids assigned from 2."""
    counts: Counter[str] = Counter()
    for doc in corpus:
        counts.update(doc.split())
    return vocab_from_counts(counts, min_freq, max_size)


def vocab_from_counts(counts: Mapping[str, int], min_freq: int = 1,
                      max_size: int = 20000) -> Vocabulary:
    """build_vocab of the corpus whose token counts are counts."""
    if min_freq < 1:
        raise DataValidationError(f"min_freq must be >= 1, got {min_freq}")
    if max_size < 2:
        raise DataValidationError(f"max_size must be >= 2 (pad + unk), got {max_size}")
    kept = [(tok, c) for tok, c in counts.items() if c >= min_freq]
    kept.sort(key=lambda tc: (-tc[1], tc[0]))
    kept = kept[: max_size - 2]
    return Vocabulary(token_to_id={tok: i + 2 for i, (tok, _) in enumerate(kept)})


def encode_doc(cleaned: str, vocab: Vocabulary) -> list[int]:
    """Whitespace tokens → ids (unknown → 1), as read: only the model pads and truncates."""
    get = vocab.token_to_id.get
    return [get(tok, UNK_ID) for tok in cleaned.split()]
