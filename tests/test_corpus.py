import numpy as np
import pytest
from oracles import indices_of, loop_pad_ids, map_token

from kbrerank.corpus import (
    UNK,
    Corpus,
    Sentence,
    assign_folds,
    build_vocabulary,
    corpus_from_lines,
    load_corpus,
    load_vocabulary,
    pad_ids,
    save_corpus,
    save_vocabulary,
    tokenize_line,
)


def make_corpus(*lines):
    return corpus_from_lines(lines)


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize_line("Play  Carrie").tokens == ("play", "carrie")

    def test_single_token(self):
        assert tokenize_line("a").tokens == ("a",)

    def test_blank_line_raises(self):
        with pytest.raises(ValueError, match="blank line"):
            tokenize_line("   ")

    def test_sentence_rejects_empty_token(self):
        with pytest.raises(ValueError):
            Sentence(("a", ""))

    def test_sentence_rejects_whitespace_token(self):
        with pytest.raises(ValueError):
            Sentence(("a b",))

    # every code point str.isspace() accepts, by enumeration
    SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]

    def test_every_space_character_rejected_anywhere_in_a_token(self):
        assert len(self.SPACES) == 29
        for ch in self.SPACES:
            for tok in (f"a{ch}b", f"{ch}ab", f"ab{ch}", ch, ch * 2):
                with pytest.raises(ValueError, match="bad token"):
                    Sentence(("ok", tok))

    def test_empty_token_rejected_with_its_message(self):
        with pytest.raises(ValueError, match="bad token ''"):
            Sentence(("a", ""))

    def test_non_space_characters_accepted(self):
        # neighbours of the space characters that are not spaces themselves
        for tok in ("\u200b", "\u2060", "a\ufeffb", "\x1b", "\u180e", "_-\u00b7"):
            assert Sentence((tok,)).tokens == (tok,)


class TestVocabulary:
    def test_threshold_drops_singletons(self):
        vocab = build_vocabulary(make_corpus("a b", "a c"), min_count=1)
        assert "a" in vocab.word_to_id
        assert "b" not in vocab.word_to_id
        assert "c" not in vocab.word_to_id
        assert map_token(vocab, "b") == UNK

    def test_zero_threshold_keeps_everything(self):
        vocab = build_vocabulary(make_corpus("a b"), min_count=0)
        assert set(vocab.word_to_id) >= {"a", "b"}

    def test_size_counts_unknown_symbol(self):
        vocab = build_vocabulary(make_corpus("x x x"), min_count=1)
        assert vocab.size == 2  # x plus UNK

    def test_ids_ordered_by_frequency_then_word(self):
        vocab = build_vocabulary(make_corpus("b b c c a a a", "z z"), min_count=0)
        assert vocab.id_to_word == (UNK, "a", "b", "c", "z")

    def test_every_token_encodable_and_roundtrip(self):
        corpus = make_corpus("a b c d", "a b", "a")
        for mc in (0, 1, 2):
            vocab = build_vocabulary(corpus, mc)
            for sent in corpus:
                for tok, wid in zip(sent.tokens, vocab.encode(sent.tokens)):
                    assert 0 <= wid < vocab.size
                    if tok in vocab.word_to_id:
                        assert vocab.id_to_word[wid] == tok
                    else:
                        assert wid == vocab.unk_id

    def test_literal_unk_token_maps_to_reserved_id(self):
        vocab = build_vocabulary(make_corpus(f"{UNK} {UNK} a a"), min_count=0)
        assert vocab.id_of(UNK) == vocab.unk_id
        assert map_token(vocab, UNK) == UNK

    def test_file_roundtrip(self, tmp_path):
        vocab = build_vocabulary(make_corpus("a b b c c c"), min_count=0)
        path = tmp_path / "vocab.tsv"
        save_vocabulary(vocab, path)
        loaded = load_vocabulary(path)
        assert loaded == vocab
        assert loaded.content_hash() == vocab.content_hash()

    @pytest.mark.parametrize(
        "lines, message",
        [
            # the second "ab" would overwrite the first, so id 1 could never be reached
            ((UNK, "ab", "ab", "cd"), "duplicate word 'ab' at vocabulary lines 2 and 3"),
            ((UNK, "ab", UNK), "duplicate word '<unk>' at vocabulary lines 1 and 3"),
            ((UNK, ""), "bad word '' at vocabulary line 2"),
            ((UNK, "ab", "c d"), "bad word 'c d' at vocabulary line 3"),
        ],
    )
    def test_duplicate_empty_or_spaced_word_refused(self, tmp_path, lines, message):
        path = tmp_path / "vocab.tsv"
        path.write_text("".join(f"{w}\t{i}\n" for i, w in enumerate(lines)), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_vocabulary(path)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            Corpus(())


class TestFolds:
    def test_exact_split(self):
        corpus = make_corpus(*[f"w{i}" for i in range(10)])
        folds = assign_folds(corpus, 10, seed=1)
        sizes = [len(indices_of(folds, f)) for f in range(10)]
        assert sizes == [1] * 10

    def test_uneven_split(self):
        corpus = make_corpus(*[f"w{i}" for i in range(11)])
        folds = assign_folds(corpus, 10, seed=1)
        sizes = sorted(len(indices_of(folds, f)) for f in range(10))
        assert sizes == [1] * 9 + [2]

    def test_deterministic(self):
        corpus = make_corpus(*[f"w{i}" for i in range(37)])
        assert assign_folds(corpus, 5, seed=3) == assign_folds(corpus, 5, seed=3)

    def test_partition_property(self):
        corpus = make_corpus(*[f"w{i}" for i in range(23)])
        folds = assign_folds(corpus, 4, seed=9)
        seen = []
        for f in range(4):
            seen.extend(indices_of(folds, f))
        assert sorted(seen) == list(range(23))

    def test_too_few_sentences(self):
        with pytest.raises(ValueError):
            assign_folds(make_corpus("a", "b"), 3, seed=0)

    def test_k_below_two(self):
        with pytest.raises(ValueError):
            assign_folds(make_corpus("a", "b"), 1, seed=0)


class TestCorpusIO:
    def test_roundtrip_and_order(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("Play carrie\n\nhello World\n", encoding="utf-8")
        corpus = load_corpus(path)
        assert [s.text() for s in corpus] == ["play carrie", "hello world"]
        out = tmp_path / "copy.txt"
        save_corpus(corpus, out)
        assert load_corpus(out).sentences == corpus.sentences


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[]],
        [(), [], np.array([], dtype=np.int32)],
        [[3, 4], (5,), np.array([6, 7, 8], dtype=np.int32), [], np.array([9], dtype=np.int64)],
        [list(range(k, 2 * k)) for k in range(12)],
    ],
)
def test_pad_ids_match_row_loop(rows):
    ids, lengths = pad_ids(rows)
    want_ids, want_lengths = loop_pad_ids(rows)
    np.testing.assert_array_equal(ids, want_ids, strict=True)
    np.testing.assert_array_equal(lengths, want_lengths, strict=True)
