import dataclasses
import math
import random
import re
from dataclasses import fields

import numpy as np
import pytest
from oracles import (
    cooccurrence,
    dict_kb_index,
    joint,
    phrase_frequency,
    reference_bins,
    support_pairs,
)
from test_acceptance import FIXTURE_SETS, SEED
from test_features import EDGE_KB, EDGE_WORDS

from kbrerank import synth
from kbrerank.artifacts import read_jsonl
from kbrerank.cli import PipelineConfig, main
from kbrerank.corpus import Sentence, load_corpus, load_vocabulary
from kbrerank.features import feature_bins
from kbrerank.kb import (
    KBEntry,
    KBTables,
    PairArrays,
    build_index,
    load_kb,
    lookup,
    parse_kb_line,
    save_index,
    load_index,
)


def entry(artist, song, freq=1.0):
    return KBEntry(tuple(artist.split()), tuple(song.split()), freq)


class TestLoading:
    def test_parse_basic(self):
        e = parse_kb_line("sufjan stevens\tcarrie and lowell live\t12.0")
        assert e.artist == ("sufjan", "stevens")
        assert e.song == ("carrie", "and", "lowell", "live")
        assert e.frequency == 12.0

    def test_zero_frequency_ok(self):
        assert parse_kb_line("a\tb\t0").frequency == 0.0

    def test_missing_field(self):
        with pytest.raises(ValueError, match="expected 3 tab-separated fields"):
            parse_kb_line("a\tb")

    def test_negative_frequency(self):
        with pytest.raises(ValueError, match="negative frequency"):
            parse_kb_line("a\tb\t-1")

    def test_nul_character_rejected(self, tmp_path):
        # a saved word list drops a word's trailing NULs
        path = tmp_path / "kb.tsv"
        path.write_text("a\tb\t1\n\nc\0\td\t1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="kb.tsv:3: malformed KB line \\(NUL character\\)"):
            load_kb(path)

    def test_nan_frequency(self):
        with pytest.raises(ValueError, match="bad frequency"):
            parse_kb_line("a\tb\tnan")
        with pytest.raises(ValueError, match="frequency must be >= 0"):
            KBEntry(("a",), ("b",), math.nan)

    @pytest.mark.parametrize("raw", ["inf", "1e400", "-inf", "Infinity"])
    def test_infinite_frequency(self, tmp_path, raw):
        # an infinite frequency would put its entity in the top bin
        path = tmp_path / "kb.tsv"
        path.write_text(f"a\tb\t1\nc\td\t{raw}\n", encoding="utf-8")
        message = f"kb.tsv:2: malformed KB line \\(bad frequency '{raw}'\\)"
        with pytest.raises(ValueError, match=message):
            load_kb(path)
        with pytest.raises(ValueError, match="frequency must be >= 0 and finite"):
            KBEntry(("a",), ("b",), float(raw))

    def test_malformed_line_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "kb.tsv"
        path.write_text("a\tb\t1\nc\td\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_kb(path)
        assert str(info.value) == f"{path}:2: malformed KB line (expected 3 tab-separated fields)"
        argv = ["build-kb-index", "--out-dir", str(tmp_path / "run"), "--set", f"kb_path={path}"]
        assert main(argv) == 1
        assert f"error: {path}:2: malformed KB line" in capsys.readouterr().err

    def test_kb_not_utf8_names_file(self, tmp_path, capsys):
        path = tmp_path / "kb.tsv"
        path.write_bytes(b"a\tb\t1\nc\xff\td\t1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not valid UTF-8"):
            load_kb(path)
        argv = ["build-kb-index", "--out-dir", str(tmp_path / "run"), "--set", f"kb_path={path}"]
        assert main(argv) == 1
        assert f"error: {path}: not valid UTF-8" in capsys.readouterr().err

    def test_text_inputs_not_utf8_name_file(self, tmp_path, capsys):
        # the corpus, n-best, JSON-lines and vocabulary readers fail as the
        # KB reader does
        path = tmp_path / "bad.txt"
        path.write_bytes(b"c\xff d\n")
        for loader in (load_corpus, load_vocabulary, lambda p: list(read_jsonl(p))):
            with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not valid UTF-8"):
                loader(path)
        run = str(tmp_path / "run")
        for argv in (["build-vocab", "--set", f"corpus_path={path}"], ["evaluate", "--nbest", str(path)]):
            assert main([*argv, "--out-dir", run]) == 1
            assert f"error: {path}: not valid UTF-8" in capsys.readouterr().err

    def test_load_lowercases_and_keeps_order(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("Sufjan Stevens\tChicago\t3\na\tb\t1\n", encoding="utf-8")
        entries = load_kb(path)
        assert entries[0].artist == ("sufjan", "stevens")
        assert entries[1].artist == ("a",)


class TestIndex:
    def test_single_entry_counts(self):
        index = dict_kb_index([entry("a", "b")])
        assert cooccurrence(index, ("a",), ("b",)) == 1
        assert index.max_cooccurrence == 1
        assert build_index([entry("a", "b")]).max_cooccurrence == 1
        # sole support pair holds all the probability mass
        assert joint(index.cross, "a", "b") == 1.0

    def test_duplicate_entries_count_twice(self):
        index = dict_kb_index([entry("a", "b"), entry("a", "b")])
        assert cooccurrence(index, ("a",), ("b",)) == 2

    def test_cooccurrence_symmetric_helper(self):
        index = dict_kb_index([entry("x", "y"), entry("y", "x")])
        assert cooccurrence(index, ("x",), ("y",)) == 2

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError, match="empty entry list"):
            build_index([])

    def test_cooccurrence_matches_brute_force(self):
        entries = [
            entry("a b", "c", 2.0),
            entry("a", "c d"),
            entry("a b", "c", 5.0),
            entry("c", "a b"),
        ]
        index = dict_kb_index(entries)
        queried = [(("a", "b"), ("c",)), (("a",), ("c", "d")), (("c",), ("a", "b")), (("z",), ("c",))]
        for first, second in queried:
            expected = sum(
                1
                for e in entries
                if (e.artist == first and e.song == second)
                or (e.artist == second and e.song == first)
            )
            assert cooccurrence(index, first, second) == expected

    def test_marginals_consistent_with_joints(self):
        entries = [
            entry("a b", "c d", 1.0),
            entry("a", "c", 2.0),
            entry("e", "c d", 0.5),
            entry("a b", "f", 1.5),
            entry("g g", "h", 3.0),
        ]
        index = dict_kb_index(entries)
        for table in (index.cross, index.intra):
            words = table.left_vocab | table.right_vocab
            # joint table is a distribution over its support
            total = sum(joint(table, a, b) for a, b in support_pairs(table))
            assert math.isclose(total, 1.0, abs_tol=1e-9)
            for w in words:
                brute = 0.0
                for other in words:
                    j = joint(table, w, other)
                    if j is not None:
                        brute += j
                assert math.isclose(brute, table.marginal(w), abs_tol=1e-9)

    def test_roundtrip_cache(self, tmp_path):
        # a KB of one-word phrases has no intra pair: its intra total is an int
        for entries in ([entry("a b", "c"), entry("a", "d e")], [entry("a", "b")], EDGE_KB):
            index, tables = dict_kb_index(entries), build_index(entries)
            assert (tables.n_songs, tables.max_cooccurrence) == (
                len(index.song_entries), index.max_cooccurrence
            )
            path = tmp_path / "index.bin"
            save_index(tables, path)
            assert_tables_equal(load_index(path), tables)

    def test_feature_tables_saved(self, tmp_path):
        # the file holds the tables the kernel reads, byte-reproducibly
        for name in ("a.bin", "b.bin"):
            save_index(build_index(EDGE_KB), tmp_path / name)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        rng = random.Random(3)
        sents = [
            Sentence(tuple(rng.choice(EDGE_WORDS) for _ in range(rng.randint(1, 12))))
            for _ in range(200)
        ]
        bins = feature_bins([s.tokens for s in sents], load_index(tmp_path / "a.bin"))
        np.testing.assert_array_equal(bins, reference_bins(sents, dict_kb_index(EDGE_KB)))


def assert_tables_equal(a: KBTables, b: KBTables):
    """Every array bit-equal, with its dtype; every scalar equal, with its type."""
    for record, other in ((a, b), (a.cross, b.cross), (a.intra, b.intra)):
        for f in fields(other):
            x, y = getattr(record, f.name), getattr(other, f.name)
            if isinstance(y, np.ndarray):
                assert x.dtype == y.dtype and x.shape == y.shape, f.name
                assert x.tobytes() == y.tobytes(), f.name
            elif not isinstance(y, PairArrays):
                assert type(x) is type(y) and x == y, f.name
    assert a.word_id == b.word_id and a.n_words == b.n_words
    assert (a.n_songs, a.max_cooccurrence) == (b.n_songs, b.max_cooccurrence)


def fixture_kb() -> list:
    """The KB entries of the end-to-end fixture world (C7)."""
    cfg = PipelineConfig()
    for key, value in FIXTURE_SETS.items():
        cfg.set_key(key, value)
    return synth.generate_world(dataclasses.replace(cfg.synth, seed=SEED)).kb_entries


class TestBuildMatchesDictIndex:
    """``build_index``'s arrays hold the lookups of the dict reference
    (``oracles.dict_kb_index``), field by field."""

    @pytest.fixture(scope="class", params=["edge", "fixture"])
    def built(self, request):
        entries = EDGE_KB if request.param == "edge" else fixture_kb()
        return build_index(entries), dict_kb_index(entries)

    def test_phrases_reach_their_trie_nodes(self, built):
        tables, index = built
        for phrases, phrase_of, freq_of in (
            (index.artist_entries, tables.artist_of, tables.artist_freq),
            (index.song_entries, tables.song_of, tables.song_freq),
        ):
            # dense phrase ids in first-seen order, one node each
            assert (phrase_of >= 0).sum() == len(phrases)
            for phrase_id, (phrase, (_, freq)) in enumerate(phrases.items()):
                node = np.zeros(1, dtype=np.int64)
                for w in phrase:
                    node = tables.child(node, np.array([tables.word_id[w]]))
                assert phrase_of[node[0]] == phrase_id
                assert freq_of[node[0]] == freq

    def test_pair_counts(self, built):
        tables, index = built
        artist_id = {p: i for i, p in enumerate(index.artist_entries)}
        song_id = {p: i for i, p in enumerate(index.song_entries)}
        keys = [artist_id[a] * tables.n_songs + song_id[s] for a, s in index.pair_counts]
        assert len(tables.pair_keys) == len(index.pair_counts)
        got = lookup(tables.pair_keys, tables.pair_counts, np.array(keys), 0)
        assert got.tolist() == list(index.pair_counts.values())
        assert tables.max_cooccurrence == index.max_cooccurrence
        assert tables.n_entries == index.n_entries

    @pytest.mark.parametrize("side", ["cross", "intra"])
    def test_pair_arrays_match_pair_table(self, built, side):
        tables, index = built
        arrays, table = getattr(tables, side), getattr(index, side)
        words = tables.words.tolist()
        assert table.left_vocab | table.right_vocab <= set(words)
        assert arrays.in_left.tolist() == [w in table.left_vocab for w in words] + [False]
        assert arrays.in_right.tolist() == [w in table.right_vocab for w in words] + [False]
        assert arrays.marginal.tolist() == [table.marginal(w) for w in words] + [0.0]
        base = len(words) + 1
        weights = {
            (words[k // base], words[k % base]): wt
            for k, wt in zip(arrays.keys.tolist(), arrays.weights.tolist())
        }
        assert len(weights) == len(arrays.keys) and weights == table._raw
        assert arrays.total == table.total


class TestPhraseFrequency:
    def test_present_phrase(self):
        index = dict_kb_index([entry("sufjan stevens", "chicago", 12.0)])
        assert phrase_frequency(index, ("sufjan", "stevens"), "artist") == 12.0

    def test_absent_phrase(self):
        index = dict_kb_index([entry("a", "b", 1.0)])
        assert phrase_frequency(index, ("zzz",), "artist") == 0.0

    def test_additive_over_duplicates(self):
        index = dict_kb_index([entry("a", "b", 1.0), entry("a", "c", 2.5)])
        assert phrase_frequency(index, ("a",), "artist") == 3.5

    def test_field_validation(self):
        index = dict_kb_index([entry("a", "b")])
        with pytest.raises(ValueError):
            phrase_frequency(index, ("a",), "label")
        with pytest.raises(ValueError):
            phrase_frequency(index, (), "artist")
