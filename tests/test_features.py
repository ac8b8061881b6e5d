import itertools
import json
import math
import random

import numpy as np
import pytest
from oracles import (
    cooccurrence_total,
    dict_kb_index,
    ngram_feature,
    npmi,
    npmi_bin,
    reference_bins,
)

from kbrerank import features, kb
from kbrerank.cli import load_feature_instances
from kbrerank.corpus import build_vocabulary, corpus_from_lines
from kbrerank.corpus import Sentence
from kbrerank.features import (
    BIN_FIELDS,
    COOC_BINS,
    FREQ_BINS,
    NPMI_BINS,
    max_span_pairs,
)
from kbrerank.kb import KBEntry, build_index, load_index, save_index

CO, ARTIST, SONG, CROSS, INTRA = range(len(BIN_FIELDS))


def entry(artist, song, freq=1.0):
    return KBEntry(tuple(artist.split()), tuple(song.split()), freq)


def kb_pair(entries):
    """The kernel's tables and the oracles' dict index of the same entries."""
    return build_index(entries), dict_kb_index(entries)


def bins_of(sentence, tables) -> list:
    """The kernel's five bins of one sentence."""
    return features.feature_bins([sentence.tokens], tables)[0].tolist()


def cooccurrence_bin_of(total: int, length: int, tables) -> int:
    """The co-occurrence bin of a summed count, by its definition."""
    if total == 0:
        return 0
    ratio = math.log1p(total) / math.log1p(tables.max_cooccurrence * max_span_pairs(length))
    return min(COOC_BINS - 1, max(1, int(COOC_BINS * ratio)))


class TestNgramFeature:
    def test_sign_flip(self):
        assert ngram_feature(-3.2) == 3.2

    def test_zero(self):
        assert ngram_feature(0.0) == 0.0

    def test_log_two(self):
        assert math.isclose(ngram_feature(-math.log(2)), math.log(2))

    def test_positive_rejected(self):
        with pytest.raises(ValueError):
            ngram_feature(0.5)


def brute_force_cooccurrence(sentence, index):
    """Independent enumeration of every ordered disjoint span pair."""
    toks = sentence.tokens
    l = len(toks)
    total = 0
    for i1, j1, i2, j2 in itertools.product(range(l), repeat=4):
        if i1 <= j1 < i2 <= j2:
            p = toks[i1 : j1 + 1]
            q = toks[i2 : j2 + 1]
            total += index.pair_counts.get((p, q), 0) + index.pair_counts.get((q, p), 0)
    return total


class TestCooccurrence:
    def kb(self):
        return kb_pair(
            [
                entry("sufjan stevens", "carrie and lowell live", 12.0),
                entry("sufjan stevens", "chicago", 5.0),
                entry("carrie", "chicago", 1.0),
                entry("sufjan stevens", "carrie and lowell live", 2.0),
            ]
        )

    def test_no_kb_phrase_gives_zero(self):
        tables, _ = self.kb()
        assert bins_of(Sentence(("hello", "there")), tables)[CO] == 0

    def test_match_gives_positive_bin(self):
        sent = Sentence(("play", "carrie", "and", "lowell", "live", "by", "sufjan", "stevens"))
        tables, index = self.kb()
        total = cooccurrence_total(sent, index)
        assert total == brute_force_cooccurrence(sent, index)
        assert total >= 1
        expected = min(
            COOC_BINS - 1,
            max(1, int(COOC_BINS * math.log1p(total) / math.log1p(index.max_cooccurrence * max_span_pairs(8)))),
        )
        assert bins_of(sent, tables)[CO] == expected

    def test_totals_match_brute_force_on_random_sentences(self):
        rng = random.Random(13)
        words = ["sufjan", "stevens", "carrie", "chicago", "and", "lowell", "live", "play"]
        tables, index = self.kb()
        sents = [
            Sentence(tuple(rng.choice(words) for _ in range(rng.randint(1, 8)))) for _ in range(150)
        ]
        kernel = features.feature_bins([s.tokens for s in sents], tables)[:, CO]
        for sent, got in zip(sents, kernel.tolist()):
            brute = brute_force_cooccurrence(sent, index)
            assert cooccurrence_total(sent, index) == brute
            assert got == cooccurrence_bin_of(brute, len(sent), tables)

    def test_monotone_in_duplicate_entries(self):
        sent = Sentence(("a", "b"))
        bins = []
        for copies in (1, 10, 100):
            tables = build_index([entry("a", "b")] * copies)
            bins.append(bins_of(sent, tables)[CO])
        assert bins == sorted(bins)
        assert bins[0] >= 1

    def test_span_pair_count_closed_form(self):
        for l in range(1, 9):
            count = sum(
                1
                for i1, j1, i2, j2 in itertools.product(range(l), repeat=4)
                if i1 <= j1 < i2 <= j2
            )
            assert max_span_pairs(l) == count


class TestFrequencyBin:
    def test_zero_sum(self):
        tables = build_index([entry("a", "b", 5.0)])
        assert bins_of(Sentence(("zz",)), tables)[ARTIST] == 0

    def test_known_sums(self):
        # S=1 -> floor(50*log(2)) = 34; S=10 -> floor(50*log(11)) capped at 99
        tables = build_index([entry("a", "b", 1.0)])
        assert bins_of(Sentence(("a",)), tables)[ARTIST] == 34
        tables = build_index([entry("a", "b", 10.0)])
        assert bins_of(Sentence(("a",)), tables)[ARTIST] == 99

    def test_formula_legs(self):
        # summed frequency chosen so log1p(S) lands at the target f values:
        # f=2.5 caps at 99, f~1.31 floors to 65
        tables = build_index([entry("a", "b", math.expm1(2.5))])
        assert bins_of(Sentence(("a",)), tables)[ARTIST] == 99
        tables = build_index([entry("a", "b", math.expm1(1.31))])
        assert bins_of(Sentence(("a",)), tables)[ARTIST] == 65

    def test_monotone_in_frequency(self):
        last = -1
        for freq in (0.0, 0.5, 1.0, 3.0, 10.0, 100.0):
            tables = build_index([entry("a", "b", freq)])
            value = bins_of(Sentence(("a",)), tables)[ARTIST]
            assert value >= last
            last = value

    def test_counts_every_subspan(self):
        tables = build_index([entry("a b", "c", 2.0), entry("b", "c", 3.0)])
        # spans of "a b": a, b, "a b" -> artist hits "a b" (2.0) and "b" (3.0)
        expected = int(min(50 * math.log1p(5.0), 99))
        assert bins_of(Sentence(("a", "b")), tables)[ARTIST] == expected


class TestNpmi:
    def test_perfect_association_bin_99(self):
        tables, index = kb_pair([entry("a", "b")])
        assert npmi(index.cross, "a", "b") == 1.0
        assert bins_of(Sentence(("a", "b")), tables)[CROSS] == NPMI_BINS - 1

    def test_independent_pair_bin_50(self):
        tables, index = kb_pair([entry("a", "b"), entry("a", "c")])
        assert math.isclose(npmi(index.cross, "a", "b"), 0.0, abs_tol=1e-12)
        assert bins_of(Sentence(("a", "b")), tables)[CROSS] == 50

    def test_all_unseen_bin_0(self):
        tables = build_index([entry("a", "b")])
        assert bins_of(Sentence(("x", "y", "z")), tables)[CROSS] == 0

    def test_short_sentence_neutral(self):
        tables = build_index([entry("a", "b")])
        assert bins_of(Sentence(("a",)), tables)[CROSS] == 50

    def test_symmetry(self):
        index = dict_kb_index(
            [entry("a b", "c d"), entry("a", "c"), entry("b d", "e"), entry("a", "e c")]
        )
        words = ("a", "b", "c", "d", "e", "zz")
        for table in (index.cross, index.intra):
            for x in words:
                for y in words:
                    assert npmi(table, x, y) == npmi(table, y, x)

    def test_mode_validation(self):
        index = dict_kb_index([entry("a", "b")])
        with pytest.raises(ValueError):
            npmi_bin(Sentence(("a", "b")), index, "sideways")


class TestExtractFeatures:
    def test_disjoint_kb_composition(self):
        tables = build_index([entry("qq", "rr", 3.0)])
        assert bins_of(Sentence(("hello", "world")), tables) == [0, 0, 0, 0, 0]

    def test_single_token_sentence_neutral_npmi(self):
        tables = build_index([entry("qq", "rr")])
        row = bins_of(Sentence(("hello",)), tables)
        assert row[CROSS] == 50
        assert row[INTRA] == 50

    def test_deterministic(self):
        tables = build_index([entry("a b", "c"), entry("a", "d")])
        sent = Sentence(("a", "b", "c", "d"))
        assert bins_of(sent, tables) == bins_of(sent, tables)

    def test_ranges_on_random_inputs(self):
        rng = random.Random(99)
        words = ["a", "b", "c", "d", "e", "f", "g", "zz", "qq"]
        tables, index = kb_pair(
            [
                entry("a b", "c", 4.0),
                entry("a", "d e", 0.5),
                entry("f", "g", 80.0),
                entry("a b", "c", 1.0),
            ]
        )
        sents = [
            Sentence(tuple(rng.choice(words) for _ in range(rng.randint(1, 9)))) for _ in range(1000)
        ]
        bins = features.feature_bins([s.tokens for s in sents], tables)
        assert bins.shape == (1000, len(BIN_FIELDS))
        for k, (_, count) in enumerate(BIN_FIELDS):
            assert 0 <= bins[:, k].min() and bins[:, k].max() < count
        for sent, co in zip(sents, bins[:, CO].tolist()):
            assert (co == 0) == (cooccurrence_total(sent, index) == 0)

    @staticmethod
    def load_row(tmp_path, score, *bins):
        """``cli.load_feature_instances`` of a source row with ``score`` and
        ``bins`` (in ``BIN_FIELDS`` order) and a valid negative."""
        rows = [(score, *bins), (1.0, 0, 0, 0, 0, 0)]
        path = tmp_path / "features.jsonl"
        with open(path, "w") as fh:
            for hyp_id, (lp, *row_bins) in enumerate(rows):
                rec = {"sentence_id": 3, "hypothesis_id": hyp_id, "tokens": ["a"],
                       "ngram_negative_logprob": lp}
                rec.update(zip((name for name, _ in BIN_FIELDS), row_bins))
                fh.write(json.dumps(rec) + "\n")
        return load_feature_instances(path, build_vocabulary(corpus_from_lines(["a"])))

    def test_bundle_validates_ranges(self, tmp_path):
        with pytest.raises(ValueError, match=rf"sentence_id 3: feature bin 10 outside \[0, {COOC_BINS}\)"):
            self.load_row(tmp_path, 1.0, COOC_BINS, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="sentence_id 3: ngram_negative_logprob must be a finite number >= 0"):
            self.load_row(tmp_path, -1.0, 0, 0, 0, 0, 0)
        loaded = self.load_row(tmp_path, 0.0, COOC_BINS - 1, *(n - 1 for _, n in BIN_FIELDS[1:]))
        assert len(loaded) == 1 and loaded.starts.tolist() == [0, 2]
        assert loaded.bins[0].tolist() == [n - 1 for _, n in BIN_FIELDS]

    @pytest.mark.parametrize(
        "score, bin_value, message",
        [
            (math.nan, 0, "ngram_negative_logprob must be a finite number"),
            (math.inf, 0, "ngram_negative_logprob must be a finite number"),
            (True, 0, "ngram_negative_logprob must be a finite number"),
            ("1.0", 0, "ngram_negative_logprob must be a finite number"),
            (1.0, 1.5, "cooccurrence_bin must be an integer"),
            (1.0, True, "cooccurrence_bin must be an integer"),
            (1.0, 1.0, "cooccurrence_bin must be an integer"),
        ],
    )
    def test_bundle_rejects_bad_values(self, tmp_path, score, bin_value, message):
        # the rows of features.jsonl are checked as the reranker loads them
        with pytest.raises(ValueError, match=message):
            self.load_row(tmp_path, score, bin_value, 0, 0, 0, 0)


# a KB whose phrases nest, overlap, share words, repeat words, recur in both
# fields, prefix one another, and run longer than any test sentence
EDGE_KB = [
    entry("a b", "c d e", 2.0),
    entry("a", "b c", 1.0),
    entry("a b c", "d", 0.5),
    entry("c d", "a b", 3.0),
    entry("e", "e", 1.0),
    entry("b", "b b", 4.0),
    entry("a b", "c d e", 0.25),
    entry("x y z w v u t s r q p o n", "m", 7.0),
]
EDGE_WORDS = ("a", "b", "c", "d", "e", "m", "x", "y", "z", "zz", "qq")


class TestFeatureKernel:
    """The kernel's bins equal the per-sentence reference (tests/oracles.py)
    bit for bit."""

    @pytest.mark.parametrize(
        "tokens",
        [
            ("a",),
            ("zz",),
            ("e",),
            ("zz", "zz", "a", "a", "qq"),
            ("b", "b", "b", "b"),
            ("e", "e"),
            ("a", "b", "c", "d", "e"),
            ("c", "d", "a", "b", "c", "d", "e"),
            ("a", "b", "c", "a", "b"),
            ("x", "y", "z", "w"),
            ("x", "y", "z", "w", "v", "u", "t", "s", "r", "q", "p", "o"),
            ("m", "x", "y", "zz", "a", "b"),
        ],
    )
    def test_edge_case_matches_reference(self, tokens):
        tables, index = kb_pair(EDGE_KB)
        sent = Sentence(tokens)
        assert bins_of(sent, tables) == reference_bins([sent], index)[0].tolist()

    def test_edge_cases_reach_every_feature(self):
        tables = build_index(EDGE_KB)
        row = bins_of(Sentence(("c", "d", "a", "b", "c", "d", "e")), tables)
        assert row[CO] > 0 and row[ARTIST] > 0 and row[SONG] > 0
        assert bins_of(Sentence(("zz", "qq")), tables) == [0, 0, 0, 0, 0]

    def mixed_batch(self, seed=5, n=400):
        rng = random.Random(seed)
        return [
            Sentence(tuple(rng.choice(EDGE_WORDS) for _ in range(rng.randint(1, 12))))
            for _ in range(n)
        ]

    def test_mixed_lengths_match_reference(self):
        tables, index = kb_pair(EDGE_KB)
        sents = self.mixed_batch()
        assert {len(s) for s in sents} == set(range(1, 13))
        kernel = features.feature_bins([s.tokens for s in sents], tables)
        np.testing.assert_array_equal(kernel, reference_bins(sents, index))
        assert (kernel[:, CO] > 0).any()

    def test_row_does_not_depend_on_batch(self):
        tables = build_index(EDGE_KB)
        sents = self.mixed_batch(seed=6, n=60)
        tokens = [s.tokens for s in sents]
        batch = features.feature_bins(tokens, tables)
        alone = np.concatenate([features.feature_bins([t], tables) for t in tokens])
        np.testing.assert_array_equal(batch, alone)
        np.testing.assert_array_equal(features.feature_bins(tokens[::-1], tables), batch[::-1])

    def test_empty_batch(self):
        tables = build_index(EDGE_KB)
        assert features.feature_bins([], tables).shape == (0, len(BIN_FIELDS))
        # no spans, no word pairs: the bins of zero sums and the neutral NPMI
        assert features.feature_bins([()], tables).tolist() == [[0, 0, 0, 50, 50]]

    def test_tables_built_once_per_index(self, tmp_path, monkeypatch):
        # build-kb-index builds the tables once; a stage that loads them
        # scores without building any
        path = tmp_path / "kb_index.bin"
        save_index(build_index(EDGE_KB), path)
        monkeypatch.delattr(kb, "build_index")
        tables = load_index(path)
        tokens = [s.tokens for s in self.mixed_batch(seed=7, n=50)]
        expected = reference_bins([Sentence(t) for t in tokens], dict_kb_index(EDGE_KB))
        np.testing.assert_array_equal(features.feature_bins(tokens, tables), expected)
        np.testing.assert_array_equal(features.feature_bins(tokens[:9], tables), expected[:9])
