import math

import pytest
from oracles import cooccurrence, joint, phrase_frequency, support_pairs

from kbrerank.kb import (
    KBEntry,
    build_index,
    load_kb,
    parse_kb_line,
    save_index,
    load_index,
)


def entry(artist, song, freq=1.0):
    return KBEntry(tuple(artist.split()), tuple(song.split()), freq)


class TestLoading:
    def test_parse_basic(self):
        e = parse_kb_line("sufjan stevens\tcarrie and lowell live\t12.0", 1)
        assert e.artist == ("sufjan", "stevens")
        assert e.song == ("carrie", "and", "lowell", "live")
        assert e.frequency == 12.0

    def test_zero_frequency_ok(self):
        assert parse_kb_line("a\tb\t0", 1).frequency == 0.0

    def test_missing_field(self):
        with pytest.raises(ValueError, match="malformed line 1"):
            parse_kb_line("a\tb", 1)

    def test_negative_frequency(self):
        with pytest.raises(ValueError, match="negative frequency"):
            parse_kb_line("a\tb\t-1", 1)

    def test_nan_frequency(self):
        with pytest.raises(ValueError, match="bad frequency"):
            parse_kb_line("a\tb\tnan", 1)
        with pytest.raises(ValueError, match="frequency must be >= 0"):
            KBEntry(("a",), ("b",), math.nan)

    def test_load_lowercases_and_keeps_order(self, tmp_path):
        path = tmp_path / "kb.tsv"
        path.write_text("Sufjan Stevens\tChicago\t3\na\tb\t1\n", encoding="utf-8")
        entries = load_kb(path)
        assert entries[0].artist == ("sufjan", "stevens")
        assert entries[1].artist == ("a",)


class TestIndex:
    def test_single_entry_counts(self):
        index = build_index([entry("a", "b")])
        assert cooccurrence(index, ("a",), ("b",)) == 1
        assert index.max_cooccurrence == 1
        # sole support pair holds all the probability mass
        assert joint(index.cross, "a", "b") == 1.0

    def test_duplicate_entries_count_twice(self):
        index = build_index([entry("a", "b"), entry("a", "b")])
        assert cooccurrence(index, ("a",), ("b",)) == 2

    def test_cooccurrence_symmetric_helper(self):
        index = build_index([entry("x", "y"), entry("y", "x")])
        assert cooccurrence(index, ("x",), ("y",)) == 2

    def test_empty_entries_rejected(self):
        with pytest.raises(ValueError):
            build_index([])

    def test_cooccurrence_matches_brute_force(self):
        entries = [
            entry("a b", "c", 2.0),
            entry("a", "c d"),
            entry("a b", "c", 5.0),
            entry("c", "a b"),
        ]
        index = build_index(entries)
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
        index = build_index(entries)
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
        index = build_index([entry("a b", "c"), entry("a", "d e")])
        path = tmp_path / "index.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.pair_counts == index.pair_counts
        assert joint(loaded.cross, "a", "c") == joint(index.cross, "a", "c")

    def test_feature_tables_not_saved(self, tmp_path):
        index = build_index([entry("a b", "c"), entry("a", "d e")])
        save_index(index, tmp_path / "plain.bin")
        assert index.tables.n_words == 5
        save_index(index, tmp_path / "with_tables.bin")
        assert (tmp_path / "plain.bin").read_bytes() == (tmp_path / "with_tables.bin").read_bytes()
        assert "tables" not in vars(load_index(tmp_path / "with_tables.bin"))


class TestPhraseFrequency:
    def test_present_phrase(self):
        index = build_index([entry("sufjan stevens", "chicago", 12.0)])
        assert phrase_frequency(index, ("sufjan", "stevens"), "artist") == 12.0

    def test_absent_phrase(self):
        index = build_index([entry("a", "b", 1.0)])
        assert phrase_frequency(index, ("zzz",), "artist") == 0.0

    def test_additive_over_duplicates(self):
        index = build_index([entry("a", "b", 1.0), entry("a", "c", 2.5)])
        assert phrase_frequency(index, ("a",), "artist") == 3.5

    def test_field_validation(self):
        index = build_index([entry("a", "b")])
        with pytest.raises(ValueError):
            phrase_frequency(index, ("a",), "label")
        with pytest.raises(ValueError):
            phrase_frequency(index, (), "artist")
