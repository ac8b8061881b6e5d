"""KB features of token sequences, computed as one batch kernel, and their bins.

``feature_bins`` takes a dataset's token sequences and returns their five
quantized KB features, one row per sequence in ``BIN_FIELDS`` order. It works
on the KB's array tables (``kb.KBTables``) and groups the sequences by
length, so no span or word-pair grid is padded. The bins equal those of the
per-sentence definitions (kept in ``tests/oracles.py`` as the reference) bit
for bit: every elementwise float op runs in the same order as there, each
sentence's sums add their terms in (i, j) order (``np.cumsum``, not the
pairwise ``np.sum``), and the logarithms are ``math.log``/``math.log1p`` on
Python floats, whose last bit the numpy forms do not always match. An empty
sequence has no span and no word pair: bins 0, 0, 0 and the neutral NPMI bin
twice.

``BIN_FIELDS`` is the one declaration of the bin table: ``extract-features``
writes each row's bins under its names, ``cli.load_feature_instances`` reads
them back into its columns, and the reranker lays out its bin embeddings in
its order.
"""

from __future__ import annotations

import math

import numpy as np

from .kb import KBTables, PairArrays, lookup

COOC_BINS = 10
FREQ_BINS = 100
NPMI_BINS = 100
NPMI_NEUTRAL_BIN = 50
# the bin table: each quantized feature's name (its features.jsonl field) and
# number of bins, in the column order of every (n, 5) bin array
BIN_FIELDS = (
    ("cooccurrence_bin", COOC_BINS),
    ("artist_freq_bin", FREQ_BINS),
    ("song_freq_bin", FREQ_BINS),
    ("cross_npmi_bin", NPMI_BINS),
    ("intra_npmi_bin", NPMI_BINS),
)


def max_span_pairs(length: int) -> int:
    """Number of ordered pairs of disjoint token spans in a sentence."""
    return (length + 2) * (length + 1) * length * (length - 1) // 24


def feature_bins(sequences, tables: KBTables) -> np.ndarray:
    """(n, 5) feature bins of ``n`` token sequences, columns in ``BIN_FIELDS``
    order; a sequence's row does not depend on the rest of the batch."""
    flat, lengths = tables.encode(sequences)
    n = len(lengths)
    if not n:
        return np.zeros((0, len(BIN_FIELDS)), dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    cooc = np.zeros(n, dtype=np.int64)
    freq = np.zeros((2, n))
    groups = []
    # the distinct lengths; a bare np.unique would import numpy.ma, about 1 MB
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        members = np.flatnonzero(lengths == length)
        words = flat[starts[members, None] + np.arange(length)]
        if length:
            nodes = _span_nodes(tables, words)
            cooc[members] = _cooccurrence_totals(tables, nodes, length)
            for k, node_freq in enumerate((tables.artist_freq, tables.song_freq)):
                freq[k, members] = np.cumsum(node_freq[nodes], axis=1)[:, -1]
        groups.append((members, words))

    bins = np.empty((n, len(BIN_FIELDS)), dtype=np.intp)
    bins[:, 0] = _cooccurrence_bins(cooc.tolist(), lengths.tolist(), tables.max_cooccurrence)
    for k in range(2):
        f = np.array([math.log1p(total) for total in freq[k].tolist()])
        bins[:, 1 + k] = np.minimum(np.maximum(50.0 * f, 0.0), FREQ_BINS - 1).astype(np.intp)
    bins[:, 3:] = _npmi_bins(tables, groups, n)
    return bins


def _span_nodes(tables: KBTables, words: np.ndarray) -> np.ndarray:
    """(m, S) trie node of every span of every row, the spans (i, j), i <= j,
    in (i, j) order; -1 where the span spells no KB phrase prefix."""
    m, length = words.shape
    first = np.arange(length)
    # index of span (i, i) in (i, j) order
    offset = first * length - first * (first - 1) // 2
    nodes = np.full((m, length * (length + 1) // 2), -1, dtype=np.int64)
    # the spans of width k + 1 grow those of width k by word i + k
    node = np.zeros((m, length), dtype=np.int64)
    for k in range(length):
        node = tables.child(node[:, : length - k], words[:, k:])
        nodes[:, offset[: length - k] + k] = node
        if not (node >= 0).any():
            break
    return nodes


def _cooccurrence_totals(tables: KBTables, nodes: np.ndarray, length: int) -> np.ndarray:
    """Summed co-occurrence count of each row's disjoint (artist span, song
    span) pairs; the counts are integers, so their order does not matter."""
    m = len(nodes)
    span_i, span_j = np.triu_indices(length)
    artist = tables.artist_of[nodes]
    song = tables.song_of[nodes]
    a_row, a_span = np.nonzero(artist >= 0)
    s_row, s_span = np.nonzero(song >= 0)
    if not len(a_row) or not len(s_row):
        return np.zeros(m, dtype=np.int64)
    # every artist hit against every song hit of its own row: each artist
    # hit is repeated once per song hit of its row, and copy c takes the
    # row's c-th song hit
    s_count = np.bincount(s_row, minlength=m)
    s_start = np.cumsum(s_count) - s_count
    reps = s_count[a_row]
    a_idx = np.repeat(np.arange(len(a_row)), reps)
    copy = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    s_idx = s_start[a_row[a_idx]] + copy
    ai, aj = span_i[a_span[a_idx]], span_j[a_span[a_idx]]
    si, sj = span_i[s_span[s_idx]], span_j[s_span[s_idx]]
    disjoint = (aj < si) | (sj < ai)
    a_idx, s_idx = a_idx[disjoint], s_idx[disjoint]
    keys = artist[a_row[a_idx], a_span[a_idx]] * tables.n_songs + song[s_row[s_idx], s_span[s_idx]]
    counts = lookup(tables.pair_keys, tables.pair_counts, keys, 0)
    return np.bincount(a_row[a_idx], weights=counts, minlength=m).astype(np.int64)


def _cooccurrence_bins(totals: list, lengths: list, max_cooccurrence: int) -> list:
    """Log-scale bin anchored at the largest count the KB could produce."""
    bins = []
    for total, length in zip(totals, lengths):
        if total == 0:
            bins.append(0)
            continue
        max_possible = max_cooccurrence * max_span_pairs(length)
        ratio = math.log1p(total) / math.log1p(max_possible)
        bins.append(min(COOC_BINS - 1, max(1, int(COOC_BINS * ratio))))
    return bins


def _npmi_bins(tables: KBTables, groups, n: int) -> np.ndarray:
    """(n, 2) cross and intra NPMI bins: each row's word pairs (i < j) in
    (i, j) order, their NPMI averaged; rows of one word get the neutral bin.
    Each distinct word pair is scored once."""
    base = tables.n_words + 1
    pair_keys = []
    for _, words in groups:
        first, second = np.triu_indices(words.shape[1], 1)
        a, b = words[:, first], words[:, second]
        pair_keys.append((np.minimum(a, b) * base + np.maximum(a, b)).ravel())
    distinct, inverse = np.unique(np.concatenate(pair_keys), return_inverse=True)
    out = np.full((n, 2), NPMI_NEUTRAL_BIN, dtype=np.intp)
    for k, table in enumerate((tables.cross, tables.intra)):
        values = _npmi(table, distinct // base, distinct % base, distinct)[inverse]
        at = 0
        for (members, words), keys in zip(groups, pair_keys):
            grid = values[at : at + keys.size].reshape(len(members), -1)
            at += keys.size
            length = words.shape[1]
            if length < 2:
                continue
            avg = np.cumsum(grid, axis=1)[:, -1] / (length * (length - 1) / 2)
            avg = np.minimum(1.0, np.maximum(-1.0, avg))
            bins = (NPMI_BINS * (avg + 1.0) / 2.0).astype(np.intp)
            out[members, k] = np.minimum(NPMI_BINS - 1, bins)
    return out


def _npmi(table: PairArrays, lo: np.ndarray, hi: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Normalized pointwise mutual information in [-1, 1] of word pairs
    ``lo <= hi`` (packed as ``keys``). Pairs outside the table's support score
    -1; a pair that owns the entire probability mass scores +1."""
    support = (table.in_left[lo] & table.in_right[hi]) | (table.in_left[hi] & table.in_right[lo])
    joint = (lookup(table.keys, table.weights, keys, 0.0) + 1.0) / table.total
    out = np.where(support & (joint >= 1.0), 1.0, -1.0)
    mid = np.flatnonzero(support & (joint > 0.0) & (joint < 1.0))
    joint = joint[mid]
    ratio = joint / (table.marginal[lo[mid]] * table.marginal[hi[mid]])
    # few distinct joints: every pair without weight has the same one
    distinct, at = np.unique(joint, return_inverse=True)
    log_ratio = np.fromiter(map(math.log, ratio.tolist()), float, len(ratio))
    log_joint = np.fromiter(map(math.log, distinct.tolist()), float, len(distinct))
    value = log_ratio / -log_joint[at]
    out[mid] = np.minimum(1.0, np.maximum(-1.0, value))
    return out
