"""Music knowledge-base ingestion and the lookup tables feature extraction needs.

An entry is (artist phrase, song phrase, usage frequency). The index answers
three kinds of queries: exact-phrase frequency sums per field, artist/song
phrase co-occurrence counts, and smoothed word-pair probabilities for
normalized pointwise mutual information.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .artifacts import load_artifact, save_artifact

Phrase = tuple[str, ...]


@dataclass(frozen=True)
class KBEntry:
    artist: Phrase
    song: Phrase
    frequency: float

    def __post_init__(self):
        if len(self.artist) == 0 or len(self.song) == 0:
            raise ValueError("artist and song phrases must be non-empty")
        if self.frequency < 0:
            raise ValueError("frequency must be >= 0")


def parse_kb_line(line: str, lineno: int) -> KBEntry:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise ValueError(f"malformed line {lineno}: expected 3 tab-separated fields")
    artist = tuple(parts[0].lower().split())
    song = tuple(parts[1].lower().split())
    if not artist or not song:
        raise ValueError(f"malformed line {lineno}: empty phrase field")
    try:
        freq = float(parts[2])
    except ValueError as exc:
        raise ValueError(f"malformed line {lineno}: bad frequency {parts[2]!r}") from exc
    if freq < 0:
        raise ValueError(f"malformed line {lineno}: negative frequency")
    return KBEntry(artist, song, freq)


def load_kb(path) -> list[KBEntry]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            entries.append(parse_kb_line(line, lineno))
    return entries


def save_kb(entries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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

    def __getstate__(self):
        # frozensets pickle in hash order, which string-hash randomization
        # makes process-dependent; serialize sorted so cache files are
        # byte-reproducible across runs
        return {
            "raw": self._raw,
            "left": sorted(self.left_vocab),
            "right": sorted(self.right_vocab),
        }

    def __setstate__(self, state):
        self.__init__(state["raw"], state["left"], state["right"])

    def in_support(self, a: str, b: str) -> bool:
        return (a in self.left_vocab and b in self.right_vocab) or (
            b in self.left_vocab and a in self.right_vocab
        )

    def joint(self, a: str, b: str):
        """Smoothed p(a, b), or None when the pair is outside the support."""
        if not self.in_support(a, b):
            return None
        return (self._raw.get(_upair(a, b), 0.0) + 1.0) / self.total

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

    def support_pairs(self):
        """All unordered support pairs (small tables only; used by checks)."""
        return {_upair(a, b) for a in self.left_vocab for b in self.right_vocab}


@dataclass(frozen=True)
class KBIndex:
    """Immutable lookup structure over a list of KB entries."""

    n_entries: int
    artist_entries: dict  # phrase -> (entry id tuple, summed frequency)
    song_entries: dict
    pair_counts: dict  # (artist phrase, song phrase) -> number of entries
    max_cooccurrence: int
    cross: PairTable = field(repr=False)
    intra: PairTable = field(repr=False)

    def cooccurrence(self, first: Phrase, second: Phrase) -> int:
        """Entries pairing the phrases in either field order."""
        return self.pair_counts.get((first, second), 0) + self.pair_counts.get(
            (second, first), 0
        )


def build_index(entries) -> KBIndex:
    if not entries:
        raise ValueError("empty entry list")

    artist_entries: dict = {}
    song_entries: dict = {}
    pair_counts: dict = {}
    cross_weights: dict = {}
    intra_weights: dict = {}
    cross_left: set = set()
    cross_right: set = set()
    all_words: set = set()

    for eid, entry in enumerate(entries):
        for phrase, table in ((entry.artist, artist_entries), (entry.song, song_entries)):
            ids, freq = table.get(phrase, ((), 0.0))
            table[phrase] = (ids + (eid,), freq + entry.frequency)
        key = (entry.artist, entry.song)
        pair_counts[key] = pair_counts.get(key, 0) + 1

        cross_left.update(entry.artist)
        cross_right.update(entry.song)
        all_words.update(entry.artist)
        all_words.update(entry.song)

        # each entry carries unit weight, spread uniformly over its word pairs
        n_cross = len(entry.artist) * len(entry.song)
        for aw in entry.artist:
            for sw in entry.song:
                k = _upair(aw, sw)
                cross_weights[k] = cross_weights.get(k, 0.0) + 1.0 / n_cross

        intra_pairs = []
        for phrase in (entry.artist, entry.song):
            for i in range(len(phrase)):
                for j in range(i + 1, len(phrase)):
                    intra_pairs.append(_upair(phrase[i], phrase[j]))
        for k in intra_pairs:
            intra_weights[k] = intra_weights.get(k, 0.0) + 1.0 / len(intra_pairs)

    return KBIndex(
        n_entries=len(entries),
        artist_entries=artist_entries,
        song_entries=song_entries,
        pair_counts=pair_counts,
        max_cooccurrence=max(pair_counts.values()),
        cross=PairTable(cross_weights, cross_left, cross_right),
        intra=PairTable(intra_weights, all_words, all_words),
    )


def phrase_frequency(index: KBIndex, phrase: Phrase, field_name: str) -> float:
    """Summed frequency of entries whose given field equals the phrase exactly."""
    if len(phrase) == 0:
        raise ValueError("phrase must be non-empty")
    if field_name == "artist":
        table = index.artist_entries
    elif field_name == "song":
        table = index.song_entries
    else:
        raise ValueError(f"unknown field {field_name!r}")
    return table.get(tuple(phrase), ((), 0.0))[1]


def save_index(index: KBIndex, path) -> None:
    save_artifact(path, "kb-index", {"index": index})


def load_index(path) -> KBIndex:
    return load_artifact(path, "kb-index")["index"]
