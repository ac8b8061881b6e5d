"""Non-recurrent feature extractors and their quantization into embedding bins."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import Sentence
from .kb import KBIndex, PairTable, phrase_frequency

COOC_BINS = 10
FREQ_BINS = 100
NPMI_BINS = 100
NPMI_NEUTRAL_BIN = 50
# each quantized FeatureBundle field and its number of bins, in the order the
# reranker lays out their embeddings
BIN_FIELDS = (
    ("cooccurrence_bin", COOC_BINS),
    ("artist_freq_bin", FREQ_BINS),
    ("song_freq_bin", FREQ_BINS),
    ("cross_npmi_bin", NPMI_BINS),
    ("intra_npmi_bin", NPMI_BINS),
)


@dataclass(frozen=True)
class FeatureBundle:
    """Quantized per-sentence features plus the fixed n-gram score feature."""

    ngram_negative_logprob: float
    cooccurrence_bin: int
    artist_freq_bin: int
    song_freq_bin: int
    cross_npmi_bin: int
    intra_npmi_bin: int

    def __post_init__(self):
        if self.ngram_negative_logprob < 0:
            raise ValueError("negative log-probability feature must be >= 0")
        for name, limit in BIN_FIELDS:
            value = getattr(self, name)
            if not 0 <= value < limit:
                raise ValueError(f"feature bin {value} outside [0, {limit})")


def ngram_feature(lm_logprob: float) -> float:
    if lm_logprob > 0:
        raise ValueError("log-probability must be <= 0")
    return -lm_logprob


def max_span_pairs(length: int) -> int:
    """Number of ordered pairs of disjoint token spans in a sentence."""
    return (length + 2) * (length + 1) * length * (length - 1) // 24


def cooccurrence_total(sentence: Sentence, index: KBIndex) -> int:
    """Summed KB co-occurrence over all disjoint (artist span, song span) pairs."""
    toks = sentence.tokens
    l = len(toks)
    artist_spans = []
    song_spans = []
    for i in range(l):
        for j in range(i, l):
            phrase = toks[i : j + 1]
            if phrase in index.artist_entries:
                artist_spans.append((i, j, phrase))
            if phrase in index.song_entries:
                song_spans.append((i, j, phrase))
    total = 0
    for ai, aj, artist in artist_spans:
        for si, sj, song in song_spans:
            if aj < si or sj < ai:
                total += index.pair_counts.get((artist, song), 0)
    return total


def cooccurrence_bin(sentence: Sentence, index: KBIndex) -> int:
    """Log-scale bin anchored at the largest count the KB could produce."""
    total = cooccurrence_total(sentence, index)
    if total == 0:
        return 0
    max_possible = index.max_cooccurrence * max_span_pairs(len(sentence))
    ratio = math.log1p(total) / math.log1p(max_possible)
    return min(COOC_BINS - 1, max(1, int(COOC_BINS * ratio)))


def kb_frequency_bin(sentence: Sentence, index: KBIndex, field_name: str) -> int:
    toks = sentence.tokens
    l = len(toks)
    total = 0.0
    for i in range(l):
        for j in range(i, l):
            total += phrase_frequency(index, toks[i : j + 1], field_name)
    f = math.log1p(total)
    return int(min(max(50.0 * f, 0.0), FREQ_BINS - 1))


def npmi(table: PairTable, a: str, b: str) -> float:
    """Normalized pointwise mutual information in [-1, 1].

    Pairs outside the table's support score -1; a pair that owns the entire
    probability mass scores +1 (the denominator vanishes there).
    """
    joint = table.joint(a, b)
    if joint is None or joint <= 0.0:
        return -1.0
    if joint >= 1.0:
        return 1.0
    value = math.log(joint / (table.marginal(a) * table.marginal(b))) / (-math.log(joint))
    return min(1.0, max(-1.0, value))


def npmi_bin(sentence: Sentence, index: KBIndex, mode: str) -> int:
    if mode == "cross":
        table = index.cross
    elif mode == "intra":
        table = index.intra
    else:
        raise ValueError(f"unknown mode {mode!r}")
    toks = sentence.tokens
    l = len(toks)
    if l < 2:
        return NPMI_NEUTRAL_BIN
    total = 0.0
    for i in range(l):
        for j in range(i + 1, l):
            total += npmi(table, toks[i], toks[j])
    avg = total / (l * (l - 1) / 2)
    avg = min(1.0, max(-1.0, avg))
    return min(NPMI_BINS - 1, int(NPMI_BINS * (avg + 1.0) / 2.0))


def extract_features(sentence: Sentence, lm_logprob: float, index: KBIndex) -> FeatureBundle:
    return FeatureBundle(
        ngram_negative_logprob=ngram_feature(lm_logprob),
        cooccurrence_bin=cooccurrence_bin(sentence, index),
        artist_freq_bin=kb_frequency_bin(sentence, index, "artist"),
        song_freq_bin=kb_frequency_bin(sentence, index, "song"),
        cross_npmi_bin=npmi_bin(sentence, index, "cross"),
        intra_npmi_bin=npmi_bin(sentence, index, "intra"),
    )
