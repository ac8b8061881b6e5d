"""Music knowledge-base ingestion and the lookup tables feature extraction needs.

An entry is (artist phrase, song phrase, usage frequency). ``build_index``
computes, in one pass over the entries, exact-phrase frequency sums per
field, artist/song phrase co-occurrence counts, and smoothed word-pair
probabilities for normalized pointwise mutual information, and lays them
out as the sorted integer arrays of ``KBTables``, which are all the batch
feature kernel (``features.feature_bins``) reads. ``kb_index.bin`` holds
those arrays (``save_index``/``load_index``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .artifacts import atomic_text_writer, load_artifact, save_artifact, text_lines

Phrase = tuple[str, ...]


@dataclass(frozen=True)
class KBEntry:
    artist: Phrase
    song: Phrase
    frequency: float

    def __post_init__(self):
        if len(self.artist) == 0 or len(self.song) == 0:
            raise ValueError("artist and song phrases must be non-empty")
        if not 0 <= self.frequency < math.inf:  # NaN included
            raise ValueError("frequency must be >= 0 and finite")


def parse_kb_line(line: str) -> KBEntry:
    parts = line.rstrip("\n").split("\t")
    if "\0" in line:  # the saved word list, a '<U' array, drops trailing NULs
        raise ValueError("NUL character")
    if len(parts) != 3:
        raise ValueError("expected 3 tab-separated fields")
    artist = tuple(parts[0].lower().split())
    song = tuple(parts[1].lower().split())
    if not artist or not song:
        raise ValueError("empty phrase field")
    try:
        freq = float(parts[2])
    except ValueError as exc:
        raise ValueError(f"bad frequency {parts[2]!r}") from exc
    if not math.isfinite(freq):
        raise ValueError(f"bad frequency {parts[2]!r}")
    if freq < 0:
        raise ValueError("negative frequency")
    return KBEntry(artist, song, freq)


def load_kb(path) -> list[KBEntry]:
    """A KB file's entries; a fault names the file, and a malformed line its number."""
    entries = []
    for lineno, line in enumerate(text_lines(path), 1):
        if not line.strip():
            continue
        try:
            entries.append(parse_kb_line(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed KB line ({exc})") from exc
    return entries


def save_kb(entries, path) -> None:
    with atomic_text_writer(path) as fh:
        for e in entries:
            fh.write(f"{' '.join(e.artist)}\t{' '.join(e.song)}\t{e.frequency!r}\n")


def _upair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class PairTable:
    """Add-one-smoothed joint and marginal word probabilities over unordered pairs.

    The support is every unordered pair {a, b} with a from the left vocabulary
    and b from the right one (left == right for the intra-field table); pairs
    outside the support have probability zero and marginals are derived from
    the smoothed joint, so marginalizing always recovers them exactly.
    """

    def __init__(self, pair_weights: dict, left_vocab, right_vocab):
        self._raw = dict(pair_weights)
        self.left_vocab = frozenset(left_vocab)
        self.right_vocab = frozenset(right_vocab)
        overlap = len(self.left_vocab & self.right_vocab)
        # unordered pairs over left x right; pairs with both ends in the
        # overlap would otherwise be counted from both directions
        self.n_support = (
            len(self.left_vocab) * len(self.right_vocab) - overlap * (overlap - 1) // 2
        )
        self._n_union = len(self.left_vocab | self.right_vocab)
        self.total = sum(self._raw.values()) + self.n_support
        row: dict = {}
        for (a, b), wt in self._raw.items():
            row[a] = row.get(a, 0.0) + wt
            if b != a:
                row[b] = row.get(b, 0.0) + wt
        self._row = row

    def marginal(self, w: str) -> float:
        in_left = w in self.left_vocab
        in_right = w in self.right_vocab
        if in_left and in_right:
            n_partners = self._n_union
        elif in_left:
            n_partners = len(self.right_vocab)
        elif in_right:
            n_partners = len(self.left_vocab)
        else:
            return 0.0
        return (self._row.get(w, 0.0) + n_partners) / self.total


def lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray, default) -> np.ndarray:
    """``values`` at each ``query`` found in the sorted ``keys``, else ``default``."""
    if len(keys) == 0:
        return np.full(np.shape(query), default, dtype=values.dtype)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[pos] == query, values[pos], default)


@dataclass(frozen=True)
class PairArrays:
    """A ``PairTable`` over KB word ids; the last id stands for every word
    outside the KB, in no vocabulary and with marginal 0."""

    in_left: np.ndarray  # (W + 1,) bool
    in_right: np.ndarray
    marginal: np.ndarray  # (W + 1,) PairTable.marginal of each word
    keys: np.ndarray  # sorted lo * (W + 1) + hi of the weighted pairs, lo <= hi
    weights: np.ndarray  # raw weight of each key
    total: float

    @classmethod
    def build(cls, table: PairTable, words: list, word_id: dict) -> PairArrays:
        base = len(words) + 1
        n = len(table._raw)
        keys = np.fromiter((word_id[a] * base + word_id[b] for a, b in table._raw), np.int64, n)
        weights = np.fromiter(table._raw.values(), float, n)
        order = np.argsort(keys)
        return cls(
            in_left=np.array([w in table.left_vocab for w in words] + [False]),
            in_right=np.array([w in table.right_vocab for w in words] + [False]),
            marginal=np.array([table.marginal(w) for w in words] + [0.0]),
            keys=keys[order],
            weights=weights[order],
            total=table.total,
        )


@dataclass(eq=False)
class KBTables:
    """The KB's lookups as arrays over KB word ids.

    ``words`` are the KB's words in sorted order, so an id pair orders like
    its word pair (``_upair``); id ``n_words`` stands for every word outside
    the KB. Phrases form a prefix trie over word ids of unbounded depth: node
    0 is the empty prefix and an edge is the sorted key ``node * n_words +
    word``. Each node records the dense artist and song phrase id it spells
    (-1 if none) and their summed frequencies; a last, dead node (index -1)
    answers every walk that has left the trie. Co-occurrence counts are keyed
    ``artist_id * n_songs + song_id``.
    """

    words: np.ndarray  # (W,) str
    edge_keys: np.ndarray
    edge_child: np.ndarray
    artist_of: np.ndarray  # (nodes + 1,) per trie node, the dead one last
    song_of: np.ndarray
    artist_freq: np.ndarray
    song_freq: np.ndarray
    pair_keys: np.ndarray
    pair_counts: np.ndarray
    cross: PairArrays
    intra: PairArrays
    n_entries: int

    def __post_init__(self):
        self.word_id = {w: i for i, w in enumerate(self.words.tolist())}
        self.n_words = len(self.words)
        # every song phrase has a node, and every (artist, song) pair a count
        self.n_songs = int(self.song_of.max()) + 1
        self.max_cooccurrence = int(self.pair_counts.max())

    def encode(self, sequences) -> tuple[np.ndarray, np.ndarray]:
        """KB word ids of all ``sequences`` end to end, ``n_words`` for a word
        outside the KB, and each sequence's length."""
        get, other = self.word_id.get, self.n_words
        lengths = np.array([len(s) for s in sequences], dtype=np.intp)
        flat = np.array([get(t, other) for s in sequences for t in s], dtype=np.int64)
        return flat, lengths

    def child(self, node: np.ndarray, word: np.ndarray) -> np.ndarray:
        """The trie node one word below each ``node``, -1 where there is none
        (below the dead node, or for a word outside the KB)."""
        live = (node >= 0) & (word < self.n_words)
        found = lookup(self.edge_keys, self.edge_child, node * self.n_words + word, -1)
        return np.where(live, found, -1)


def build_index(entries) -> KBTables:
    """The ``KBTables`` of a list of entries, from one pass over them."""
    if not entries:
        raise ValueError("empty entry list")
    artist_sum: dict = {}  # phrase -> summed frequency, in first-seen order
    song_sum: dict = {}
    pair_counts: dict = {}  # (artist phrase, song phrase) -> number of entries
    cross_weights: dict = {}
    intra_weights: dict = {}
    for entry in entries:
        for phrase, table in ((entry.artist, artist_sum), (entry.song, song_sum)):
            table[phrase] = table.get(phrase, 0.0) + entry.frequency
        key = (entry.artist, entry.song)
        pair_counts[key] = pair_counts.get(key, 0) + 1
        # each entry carries unit weight, spread uniformly over its word pairs
        cross = [_upair(a, s) for a in entry.artist for s in entry.song]
        intra = [
            _upair(p[i], p[j])
            for p in (entry.artist, entry.song)
            for i in range(len(p))
            for j in range(i + 1, len(p))
        ]
        for pairs, weights in ((cross, cross_weights), (intra, intra_weights)):
            for k in pairs:
                weights[k] = weights.get(k, 0.0) + 1.0 / len(pairs)

    artists, songs = list(artist_sum), list(song_sum)
    phrases = artists + songs
    artist_words = {w for p in artists for w in p}
    song_words = {w for p in songs for w in p}
    words = sorted(artist_words | song_words)
    word_id = {w: i for i, w in enumerate(words)}

    # the trie, one depth at a time: the distinct (parent, word) keys of the
    # phrases that reach a depth are its nodes
    depth = np.array([len(p) for p in phrases])
    word = np.zeros((len(phrases), depth.max()), dtype=np.int64)
    word[np.arange(depth.max()) < depth[:, None]] = [word_id[w] for p in phrases for w in p]
    node = np.zeros(len(phrases), dtype=np.int64)
    edge_keys, n_nodes = [], 1
    for d in range(depth.max()):
        reach = depth > d
        keys, child = np.unique(node[reach] * len(words) + word[reach, d], return_inverse=True)
        edge_keys.append(keys)
        node[reach] = n_nodes + child
        n_nodes += len(keys)
    edge_keys = np.concatenate(edge_keys)
    order = np.argsort(edge_keys)
    # one more node, the dead one
    artist_of = np.full(n_nodes + 1, -1, dtype=np.int64)
    song_of = np.full(n_nodes + 1, -1, dtype=np.int64)
    artist_freq = np.zeros(n_nodes + 1)
    song_freq = np.zeros(n_nodes + 1)
    artist_node, song_node = node[: len(artists)], node[len(artists) :]
    artist_of[artist_node] = np.arange(len(artists))
    song_of[song_node] = np.arange(len(songs))
    artist_freq[artist_node] = list(artist_sum.values())
    song_freq[song_node] = list(song_sum.values())

    artist_id = {p: i for i, p in enumerate(artists)}
    song_id = {p: i for i, p in enumerate(songs)}
    pair_keys = np.array(
        [artist_id[a] * len(songs) + song_id[s] for a, s in pair_counts], dtype=np.int64
    )
    pair_order = np.argsort(pair_keys)
    return KBTables(
        words=np.array(words),
        edge_keys=edge_keys[order],
        edge_child=np.arange(1, n_nodes, dtype=np.int64)[order],
        artist_of=artist_of,
        song_of=song_of,
        artist_freq=artist_freq,
        song_freq=song_freq,
        pair_keys=pair_keys[pair_order],
        pair_counts=np.array(list(pair_counts.values()), dtype=np.int64)[pair_order],
        cross=PairArrays.build(PairTable(cross_weights, artist_words, song_words), words, word_id),
        intra=PairArrays.build(PairTable(intra_weights, words, words), words, word_id),
        n_entries=len(entries),
    )


def save_index(tables: KBTables, path) -> None:
    """Save the arrays (``PairArrays`` field f of ``cross`` as ``cross_f``)."""
    arrays, meta = {}, {}
    for prefix, record in (("", tables), ("cross_", tables.cross), ("intra_", tables.intra)):
        for f in fields(record):
            value = getattr(record, f.name)
            if not isinstance(value, PairArrays):
                (arrays if isinstance(value, np.ndarray) else meta)[prefix + f.name] = value
    save_artifact(path, "kb-index", arrays, meta)


# the records of a ``kb-index`` file, by member-name prefix
_RECORDS = (("", KBTables), ("cross_", PairArrays), ("intra_", PairArrays))
# the dtype of each array field of KBTables and PairArrays that is not int64
# (``words`` of any string width); every array is 1-d
_DTYPES = {
    "words": np.str_,
    **dict.fromkeys(("in_left", "in_right"), np.bool_),
    **dict.fromkeys(("artist_freq", "song_freq", "marginal", "weights"), np.float64),
}


def _index_members(header) -> dict:
    """The arrays of a ``kb-index`` file: each array field of ``KBTables``
    and of its ``PairArrays`` (field f of ``cross`` as ``cross_f``), of its
    dtype and one dimension. The other fields are the header's numbers."""
    members = {}
    for prefix, record in _RECORDS:
        for f in fields(record):
            name = prefix + f.name
            if f.type == "np.ndarray":
                members[name] = (_DTYPES.get(f.name, np.int64), (None,))
            elif f.type != "PairArrays" and type(header.get(name)) not in (int, float):
                raise ValueError(f"{name} must be a number, got {header.get(name)!r}")
    return members


def load_index(path) -> KBTables:
    """The tables saved by ``save_index``."""
    header, arrays = load_artifact(path, "kb-index", _index_members)
    values = {**header, **arrays}
    for side in ("cross", "intra"):
        values[side] = PairArrays(*(values[f"{side}_{f.name}"] for f in fields(PairArrays)))
    return KBTables(**{f.name: values[f.name] for f in fields(KBTables)})
