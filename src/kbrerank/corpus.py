"""Tokenized query text, vocabulary with unknown-word mapping, jackknife folds."""

from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import atomic_text_writer

UNK = "<unk>"
# the n-gram model's sentence markers (``ngram.export_arpa`` writes them); a
# corpus may not use them as words
BOS = "<s>"
EOS = "</s>"


@dataclass(frozen=True)
class Sentence:
    """Immutable sequence of lowercase, whitespace-free tokens; an n-best
    hypothesis may be empty, a corpus sentence (``tokenize_line``) may not."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        for tok in self.tokens:
            # str.split() breaks exactly at the characters str.isspace() accepts
            if tok.split() != [tok]:
                raise ValueError(f"bad token {tok!r}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)

    def text(self) -> str:
        return " ".join(self.tokens)


def tokens_of(value, field: str = "tokens") -> tuple[str, ...]:
    """A JSON field of tokens as a tuple; it must be a list of strings."""
    if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
        raise ValueError(f"{field} must be a list of strings, got {value!r}")
    return tuple(value)


def tokenize_line(line: str) -> Sentence:
    """Lowercase and split on whitespace runs; blank lines are an error."""
    toks = line.lower().split()
    if not toks:
        raise ValueError("blank line")
    return Sentence(tuple(toks))


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]
    source_path: str = "<memory>"

    def __post_init__(self):
        if len(self.sentences) == 0:
            raise ValueError("empty corpus")

    def __len__(self) -> int:
        return len(self.sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __getitem__(self, i: int) -> Sentence:
        return self.sentences[i]


def corpus_from_lines(lines, source_path: str = "<memory>") -> Corpus:
    """Build a corpus from raw text lines, skipping blank ones."""
    sentences = []
    for line in lines:
        if line.strip():
            sentences.append(tokenize_line(line))
    return Corpus(tuple(sentences), source_path)


def load_corpus(path) -> Corpus:
    with open(path, encoding="utf-8") as fh:
        return corpus_from_lines(fh, source_path=str(path))


def save_corpus(corpus: Corpus, path) -> None:
    with atomic_text_writer(path) as fh:
        for sent in corpus:
            fh.write(sent.text() + "\n")


@dataclass(frozen=True)
class Vocabulary:
    """Bijective word/id map with a reserved unknown symbol at id 0."""

    word_to_id: dict
    id_to_word: tuple
    unk_id: int = 0

    @property
    def size(self) -> int:
        return len(self.id_to_word)

    def id_of(self, word: str) -> int:
        return self.word_to_id.get(word, self.unk_id)

    def encode(self, tokens) -> list[int]:
        return [self.id_of(t) for t in tokens]

    def to_lines(self) -> list[str]:
        return [f"{w}\t{i}" for i, w in enumerate(self.id_to_word)]

    def content_hash(self) -> str:
        payload = "\n".join(self.to_lines()).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()


def build_vocabulary(corpus: Corpus, min_count: int = 1) -> Vocabulary:
    """Retain words with frequency above ``min_count``; the rest map to UNK.

    Ids are assigned by (descending frequency, then lexicographic), after the
    reserved unknown symbol, so identical corpora yield identical tables. The
    sentence markers ``<s>`` and ``</s>`` are refused as corpus tokens.
    """
    if min_count < 0:
        raise ValueError("min_count must be >= 0")
    counts = Counter()
    for sent in corpus:
        counts.update(sent.tokens)
    for marker in (BOS, EOS):
        if marker in counts:
            raise ValueError(
                f"{corpus.source_path}: corpus token {marker!r} is reserved for the "
                "n-gram sentence markers"
            )
    retained = [w for w, c in counts.items() if c > min_count and w != UNK]
    retained.sort(key=lambda w: (-counts[w], w))
    id_to_word = (UNK, *retained)
    word_to_id = {w: i for i, w in enumerate(id_to_word)}
    return Vocabulary(word_to_id, id_to_word, unk_id=0)


def save_vocabulary(vocab: Vocabulary, path) -> None:
    with atomic_text_writer(path) as fh:
        fh.write("\n".join(vocab.to_lines()) + "\n")


def load_vocabulary(path) -> Vocabulary:
    """The ``word<TAB>id`` lines of ``path``: ids contiguous from 0, the
    unknown symbol first, each word non-empty, without whitespace and named
    once."""
    id_to_word: list[str] = []
    line_of: dict = {}  # word -> the line that named it
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            word, wid = line.split("\t")
            wid = int(wid)
        except ValueError as exc:
            raise ValueError(f"malformed vocabulary line {lineno}") from exc
        if wid != len(id_to_word):
            raise ValueError(f"non-contiguous id at vocabulary line {lineno}")
        if word.split() != [word]:  # a word a Sentence token could be
            raise ValueError(f"bad word {word!r} at vocabulary line {lineno}")
        if word in line_of:
            raise ValueError(
                f"duplicate word {word!r} at vocabulary lines {line_of[word]} and {lineno}"
            )
        line_of[word] = lineno
        id_to_word.append(word)
    if not id_to_word or id_to_word[0] != UNK:
        raise ValueError("vocabulary must start with the unknown symbol")
    word_to_id = {w: i for i, w in enumerate(id_to_word)}
    return Vocabulary(word_to_id, tuple(id_to_word), unk_id=0)


def pad_ids(rows) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences with 0 into a (B, L) array; returns (ids, lengths)."""
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    ids = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.intp)
    flat = np.fromiter(itertools.chain.from_iterable(rows), np.intp, lengths.sum())
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = flat  # row-major: row by row
    return ids, lengths


@dataclass(frozen=True)
class FoldAssignment:
    """Partition of sentence indices into k folds of near-equal size."""

    fold_of: tuple[int, ...]
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least 2 folds")
        sizes = Counter(self.fold_of)
        if set(sizes) != set(range(self.k)):
            raise ValueError("every fold must be non-empty")
        if max(sizes.values()) - min(sizes.values()) > 1:
            raise ValueError("fold sizes may differ by at most 1")


def assign_folds(corpus: Corpus, k: int, seed: int) -> FoldAssignment:
    """Seeded shuffle, then round-robin assignment of sentences to folds."""
    m = len(corpus)
    if k < 2:
        raise ValueError("need at least 2 folds")
    if m < k:
        raise ValueError(f"corpus of {m} sentences cannot fill {k} folds")
    perm = list(range(m))
    random.Random(seed).shuffle(perm)
    fold_of = [0] * m
    for pos, idx in enumerate(perm):
        fold_of[idx] = pos % k
    return FoldAssignment(tuple(fold_of), k)
