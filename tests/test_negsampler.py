import itertools
import random

import numpy as np
import pytest
from oracles import (
    candidates_of,
    negative_sets,
    reference_sample_negatives,
    train_dict_ngram,
    train_jackknife_models,
)

from kbrerank.cli import main
from kbrerank.corpus import (
    UNK,
    Sentence,
    Vocabulary,
    assign_folds,
    build_vocabulary,
    corpus_from_lines,
    load_corpus,
    load_vocabulary,
    pad_ids,
)
from kbrerank.negsampler import (
    ConfusionTable,
    Negatives,
    best_groups,
    build_confusion_table,
    derive_seed,
    draw_negatives,
    load_negatives,
    phonetic_key,
    sample_corpus_negatives,
    save_negatives,
)
from kbrerank.ngram import count_ngrams, estimate, score_ids


def vocab_of(*words):
    id_to_word = (UNK, *words)
    return Vocabulary({w: i for i, w in enumerate(id_to_word)}, id_to_word)


def toy_lm(vocab, *lines):
    return estimate(count_ngrams(corpus_from_lines(lines), vocab, 2), vocab)


def choice_draw(ids, confusable, p_sub, rng):
    """One corruption drawn with ``rng.random`` and ``rng.choice``: each
    confusable position substituted with probability ``p_sub``, redrawn until
    one is."""
    while True:
        out, hit = list(ids), False
        for i, cands, *_ in confusable:
            if rng.random() < p_sub:
                out[i] = rng.choice(cands)
                hit = True
        if hit:
            return tuple(out)


def sample_one(sentence, table, lm, n_samples=30, keep_k=5, p_sub=0.3, seed=0):
    """``sample_corpus_negatives`` of a one-sentence corpus: the sentence's
    ``NegativeSet``, or None when no position is confusable."""
    negs = sample_corpus_negatives([sentence], table, [lm], [0], n_samples, keep_k, p_sub, seed)
    (negset,) = negative_sets(negs, [sentence], table.vocab)
    return negset


class TestPhoneticKey:
    def test_jim_gym_collide(self):
        assert phonetic_key("jim") == (2, 5)
        assert phonetic_key("gym") == (2, 5)

    def test_dandys_dandies_collide(self):
        assert phonetic_key("dandys") == (3, 5, 3, 2)
        assert phonetic_key("dandies") == (3, 5, 3, 2)

    def test_play(self):
        assert phonetic_key("play") == (1, 4)

    def test_adjacent_duplicates_collapse(self):
        assert phonetic_key("bakkat") == (1, 2, 3)
        # vowels are dropped before collapsing, so they do not split a run
        assert phonetic_key("assisi") == (2,)

    def test_all_vowel_word_gets_empty_key(self):
        assert phonetic_key("aie") == ()

    def test_unencodable(self):
        with pytest.raises(ValueError, match="unencodable"):
            phonetic_key("123")
        with pytest.raises(ValueError, match="unencodable"):
            phonetic_key("hwy")


class TestConfusionTable:
    def test_equal_keys_are_candidates(self):
        table = build_confusion_table(vocab_of("jim", "gym", "play"))
        assert candidates_of(table, "jim") == ("gym",)
        assert candidates_of(table, "play") == ()

    def test_lonely_vowel_word(self):
        table = build_confusion_table(vocab_of("a"))
        assert candidates_of(table, "a") == ()

    def test_unk_excluded(self):
        # "<unk>" would encode like "nick" and "neck", so only its exclusion
        # keeps it out of their neighbourhoods
        assert phonetic_key(UNK) == phonetic_key("nick") == phonetic_key("neck")
        table = build_confusion_table(vocab_of("nick", "neck"))
        assert candidates_of(table, "nick") == ("neck",)
        assert candidates_of(table, UNK) == ()
        assert all(table.vocab.unk_id not in cands for cands in table.candidate_ids.values())

    def test_symmetry_and_membership_against_brute_force(self):
        rng = random.Random(4)
        cons = "bdfgklmnprstvz"
        vows = "aeiou"
        words = {
            "".join(rng.choice(cons) + rng.choice(vows) for _ in range(rng.choice((1, 2, 3))))
            for _ in range(200)
        }
        table = build_confusion_table(vocab_of(*sorted(words)))

        def edit_distance(a, b):
            prev = list(range(len(b) + 1))
            for i, x in enumerate(a, 1):
                cur = [i]
                for j, y in enumerate(b, 1):
                    cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
                prev = cur
            return prev[-1]

        keys = {w: phonetic_key(w) for w in words}
        for w in words:
            expected = tuple(
                sorted(v for v in words if v != w and edit_distance(keys[w], keys[v]) <= 1)
            )
            assert candidates_of(table, w) == expected
        for w in words:
            for v in candidates_of(table, w):
                assert w in candidates_of(table, v)


class TestSampling:
    def test_contract_on_small_sentence(self):
        table = build_confusion_table(vocab_of("jim", "gym", "dandys", "dandies", "near", "me"))
        lm = toy_lm(table.vocab, "jim dandys near me", "gym dandies near me", "jim dandies near me")
        source = Sentence(("jim", "dandys", "near", "me"))
        ns = sample_one(source, table, lm, n_samples=30, keep_k=5, p_sub=0.3, seed=11)
        assert 1 <= len(ns.negatives) <= 5
        for neg, positions in zip(ns.negatives, ns.substituted_positions):
            assert len(neg) == len(source)
            assert len(positions) >= 1
            for pos in positions:
                assert neg.tokens[pos] in candidates_of(table, source.tokens[pos])
            assert neg.tokens != source.tokens

    def test_scores_non_increasing(self):
        table = build_confusion_table(vocab_of("jim", "gym", "dandys", "dandies", "near", "me"))
        lm = toy_lm(table.vocab, "jim dandys near me", "gym dandys near me")
        ns = sample_one(Sentence(("jim", "dandys", "near", "me")), table, lm, seed=3)
        assert list(ns.lm_logprobs) == sorted(ns.lm_logprobs, reverse=True)

    def test_samples_subset_of_enumerated_corruptions(self):
        # three positions with exactly one candidate each: the 2^3 - 1
        # substitution patterns are the only possible corruptions
        words = {"jim": "gym", "dandys": "dandies", "fok": "vok"}
        vocab = vocab_of(*sorted(words), *sorted(words.values()))
        table = build_confusion_table(vocab)
        source = ("jim", "dandys", "fok")
        for w, alt in words.items():
            assert candidates_of(table, w) == (alt,)
        lm = toy_lm(vocab, "jim dandys fok", "gym dandies vok")
        universe = set()
        for pattern in itertools.product((0, 1), repeat=3):
            if any(pattern):
                toks = tuple(
                    words[w] if bit else w for w, bit in zip(source, pattern)
                )
                universe.add(toks)
        assert len(universe) == 7
        ns = sample_one(Sentence(source), table, lm, n_samples=30, keep_k=5, seed=2)
        assert set(n.tokens for n in ns.negatives) <= universe

    def test_deterministic_under_seed(self):
        table = build_confusion_table(vocab_of("jim", "gym", "dandys", "dandies", "near", "me"))
        lm = toy_lm(table.vocab, "jim dandys near me", "gym dandies near me")
        source = Sentence(("jim", "dandys", "near", "me"))
        a = sample_one(source, table, lm, seed=99)
        b = sample_one(source, table, lm, seed=99)
        assert a is not None and a == b

    def test_no_confusable_position(self):
        table = build_confusion_table(vocab_of("blorkz"))
        lm = toy_lm(table.vocab, "blorkz", "blorkz")
        assert sample_one(Sentence(("blorkz",)), table, lm, seed=0) is None

    def test_keep_k_validated(self):
        table = build_confusion_table(vocab_of("jim", "gym"))
        lm = toy_lm(table.vocab, "jim gym")
        with pytest.raises(ValueError, match="need 1 <= keep_k <= n_samples"):
            sample_one(Sentence(("jim",)), table, lm, n_samples=5, keep_k=6, seed=0)

    def test_model_of_another_vocabulary_refused(self):
        # the draws are ids of the table's vocabulary, scored as ids
        table = build_confusion_table(vocab_of("jim", "gym", "dandys", "dandies", "near", "me"))
        corpus = corpus_from_lines(["jim dandys near me", "gym dandies near me"])
        lm_vocab = build_vocabulary(corpus, min_count=0)
        assert table.vocab.id_to_word != lm_vocab.id_to_word
        with pytest.raises(ValueError, match="vocabulary-hash mismatch for jackknife n-gram model"):
            sample_one(corpus[0], table, toy_lm(lm_vocab, "jim dandys near me"), seed=0)

    def test_equals_string_space_sampler(self):
        # each sentence scored by the model its fold names
        lines = ("jim dandys near me", "gym dandies near me", "jim dandies near me", "blorkz")
        corpus = corpus_from_lines(lines)
        vocab = build_vocabulary(corpus, min_count=0)
        halves = (lines[:2], lines[1:])
        models = [toy_lm(vocab, *half) for half in halves]
        ref_models = [train_dict_ngram(corpus_from_lines(half), vocab, order=2) for half in halves]
        table = build_confusion_table(vocab)
        fold_of = [1, 0, 1, 0]
        for seed in range(20):
            negs = sample_corpus_negatives(corpus, table, models, fold_of, 12, 3, 0.5, seed)
            got = negative_sets(negs, corpus, vocab)
            expected = [
                reference_sample_negatives(
                    source, table, ref_models[fold_of[j]], 12, 3, 0.5, derive_seed(seed, "neg", j)
                )
                for j, source in enumerate(corpus)
            ]
            assert got == expected
            assert got[3] is None and all(got[:3])

    def test_tied_scores_equal_string_space_sampler(self):
        # unigram models over words of equal counts tie many draws, so the
        # kept rows turn on the words of tied runs
        words = ("jim", "gym", "kim", "tim", "dim", "nick", "neck", "knack", "bat", "pat", "fat")
        for case in range(30):
            rng = random.Random(case)
            lines = [
                " ".join(rng.choice(words) for _ in range(rng.randint(1, 5)))
                for _ in range(rng.randint(2, 8))
            ]
            corpus = corpus_from_lines(lines)
            vocab = build_vocabulary(corpus, min_count=0)
            table = build_confusion_table(vocab)
            halves = [corpus_from_lines(lines[k::2]) for k in range(2)]
            models = [estimate(count_ngrams(half, vocab, 1), vocab) for half in halves]
            ref_models = [train_dict_ngram(half, vocab, order=1) for half in halves]
            fold_of = [j % 2 for j in range(len(corpus))]
            negs = sample_corpus_negatives(corpus, table, models, fold_of, 25, 3, 1.0, case)
            expected = [
                reference_sample_negatives(
                    source, table, ref_models[fold_of[j]], 25, 3, 1.0, derive_seed(case, "neg", j)
                )
                for j, source in enumerate(corpus)
            ]
            assert negative_sets(negs, corpus, vocab) == expected

    def test_draw_returns_none_without_confusable_position(self):
        table = build_confusion_table(vocab_of("blorkz", "jim", "gym"))
        assert draw_negatives(table.vocab.encode(("blorkz", "oov")), table, 5, 0.3, seed=0) is None
        drawn = draw_negatives(table.vocab.encode(("blorkz", "jim")), table, 5, 0.3, seed=0)
        assert drawn == [(table.vocab.id_of("blorkz"), table.vocab.id_of("gym"))]

    @pytest.mark.parametrize("p_sub", [0.01, 0.3, 1.0])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 255, 256, 257])
    def test_corruptions_equal_choice_draws(self, count, p_sub):
        # word 1 has `count` candidates, word 2 has two and word 3 none; the
        # same ids and the same generator state mean the same words consumed
        vocab = vocab_of(*(f"w{i}" for i in range(1, 300)))
        table = ConfusionTable(vocab, {1: tuple(range(10, 10 + count)), 2: (5, 6)})
        ids = [1, 3, 2, 1]
        confusable = table.confusable(ids)
        assert [(i, n) for i, _, n, _ in confusable] == [(0, count), (2, 2), (3, count)]
        for seed in range(3):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            got = list(itertools.islice(table.corruptions(ids, confusable, p_sub, rng), 200))
            assert got == [choice_draw(ids, confusable, p_sub, ref_rng) for _ in range(200)]
            assert rng.getstate() == ref_rng.getstate()

    def test_ties_break_on_tokens_not_ids(self):
        # ids run against the word order: gym and jim are tied, and jim has
        # the smaller id
        vocab = vocab_of("jim", "kim", "gym")
        table = build_confusion_table(vocab)
        assert candidates_of(table, "kim") == ("gym", "jim")
        source = Sentence(("kim", "kim"))
        drawn = draw_negatives(vocab.encode(source.tokens), table, 50, 1.0, derive_seed(4, "neg", 0))
        assert len(drawn) == 4
        # a unigram model of one sentence gives jim and gym one probability
        lm = estimate(count_ngrams(corpus_from_lines(["jim kim gym"]), vocab, 1), vocab)
        tie = set(score_ids(lm, *pad_ids(drawn)).tolist())
        assert len(tie) == 1
        negs = sample_corpus_negatives([source], table, [lm], [0], 50, 3, 1.0, seed=4)
        words = [tuple(vocab.id_to_word[i] for i in row) for row in negs.ids[1:].tolist()]
        assert words == [("gym", "gym"), ("gym", "jim"), ("jim", "gym")]
        assert negs.logprob[1:].tolist() == [*tie] * 3


class TestGenNegatives:
    def test_output_equals_string_space_sampler(self, tmp_path):
        common = [
            "--out-dir", str(tmp_path), "--seed", "5",
            "--set", "synth_n_artists=8", "--set", "synth_songs_per_artist=4",
            "--set", "synth_word_inventory=80", "--set", "synth_n_train=250",
            "--set", "synth_n_heldout=4", "--set", "synth_n_test=4", "--set", "n_folds=4",
        ]
        for command in ("synth-world", "build-vocab", "train-ngram", "gen-negatives"):
            assert main([command, *common]) == 0, command
        corpus = load_corpus(tmp_path / "train.txt")
        vocab = load_vocabulary(tmp_path / "vocab.tsv")
        folds = assign_folds(corpus, 4, 5)
        models = train_jackknife_models(corpus, vocab, 3, folds)
        table = build_confusion_table(vocab)
        expected = [
            reference_sample_negatives(
                s, table, models[folds.fold_of[j]], 30, 5, 0.3, derive_seed(5, "neg", j)
            )
            for j, s in enumerate(corpus)
        ]
        assert sum(ns is not None for ns in expected) >= 240
        # the arrays the oracle's sets stand for: each sentence's own ids and
        # score, then its negatives' ids and scores, best first
        rows = [
            (j, vocab.encode(t), lp)
            for j, ns in enumerate(expected)
            if ns is not None
            for t, lp in [
                (ns.source.tokens, models[folds.fold_of[j]].score_tokens(ns.source.tokens)),
                *((n.tokens, lp) for n, lp in zip(ns.negatives, ns.lm_logprobs)),
            ]
        ]
        negs = load_negatives(tmp_path / "negatives.bin", corpus, vocab)
        assert negs.sentence.dtype == np.int64 and negs.ids.dtype == np.int32
        assert negs.sentence.tolist() == [j for j, _, _ in rows]
        assert negs.ids.tolist() == pad_ids([ids for _, ids, _ in rows])[0].tolist()
        assert negs.logprob.tolist() == [lp for _, _, lp in rows]
        assert negative_sets(negs, corpus, vocab) == expected


class TestCorpusFilter:
    def _negs(self, corpus, seed=0):
        vocab = build_vocabulary(corpus, min_count=0)
        lm = estimate(count_ngrams(corpus, vocab, 2), vocab)
        table = build_confusion_table(vocab)
        negs = sample_corpus_negatives(corpus, table, [lm], [0] * len(corpus), 30, 5, 0.3, seed)
        return negs, vocab

    @staticmethod
    def kept_sentences(negs, top_m):
        kept = best_groups(negs, top_m)
        assert set(kept) <= set(negs.groups())
        return [sid for sid, _, _ in kept]

    @staticmethod
    def without(negs, sentences):
        keep = ~np.isin(negs.sentence, sentences)
        return Negatives(negs.sentence[keep], negs.ids[keep], negs.logprob[keep])

    def test_identity_when_top_m_covers_corpus(self):
        corpus = corpus_from_lines(["jim dandys", "gym dandies", "jim dandies"])
        negs, _ = self._negs(corpus)
        assert [sid for sid, _, _ in negs.groups()] == [0, 1, 2]
        kept = self.kept_sentences(negs, top_m=len(corpus))
        assert tuple(corpus[i] for i in kept) == corpus.sentences

    def test_keeps_highest_mean_negative_score(self):
        corpus = corpus_from_lines(["jim dandys", "gym dandies"])
        negs, vocab = self._negs(corpus)
        means = [ns.mean_lm_logprob() for ns in negative_sets(negs, corpus, vocab)]
        best = max(range(2), key=lambda i: means[i])
        kept = self.kept_sentences(negs, top_m=1)
        assert tuple(corpus[i] for i in kept) == (corpus[best],)

    def test_kept_indices_are_the_ranked_prefix_in_corpus_order(self):
        rng = random.Random(9)
        lines = [
            " ".join(rng.choice(("jim", "gym", "dandys", "dandies", "near", "me")) for _ in range(3))
            for _ in range(40)
        ]
        corpus = corpus_from_lines(lines)
        negs, vocab = self._negs(corpus, seed=6)
        negs = self.without(negs, [3, 17])  # sentences without negatives
        negsets = negative_sets(negs, corpus, vocab)
        ranked = sorted(
            (i for i, ns in enumerate(negsets) if ns is not None),
            key=lambda i: (-negsets[i].mean_lm_logprob(), i),
        )
        for top_m in (1, 5, 37, 38, 39, 1000):
            kept = self.kept_sentences(negs, top_m=top_m)
            assert kept == sorted(ranked[:top_m])
            assert len(kept) == min(top_m, 38)
            assert 3 not in kept and 17 not in kept

    def test_ranking_matches_independent_sort(self):
        # the kept prefix at every top_m pins the whole ranking
        rng = random.Random(8)
        lines = [
            " ".join(rng.choice(("jim", "gym", "dandys", "dandies", "near", "me")) for _ in range(4))
            for _ in range(100)
        ]
        corpus = corpus_from_lines(lines)
        negs, vocab = self._negs(corpus, seed=5)
        keyed = [
            (-(ns.mean_lm_logprob()) if ns is not None else float("inf"), i)
            for i, ns in enumerate(negative_sets(negs, corpus, vocab))
        ]
        expected = [i for _, i in sorted(keyed)]
        for top_m in range(1, len(corpus) + 1):
            kept = self.kept_sentences(negs, top_m)
            assert kept == sorted(expected[: len(kept)])
            assert len(kept) == min(top_m, len(negs.groups()))

    def test_top_m_validation(self):
        negs = Negatives(np.zeros(0, np.int64), np.zeros((0, 0), np.int32), np.zeros(0))
        for top_m in (0, -1):
            with pytest.raises(ValueError, match="top_m must be positive"):
                best_groups(negs, top_m=top_m)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        corpus = corpus_from_lines(["jim dandys near me", "blorkz"])
        vocab = build_vocabulary(corpus, min_count=0)
        lm = estimate(count_ngrams(corpus, vocab, 2), vocab)
        table = build_confusion_table(vocab)
        negs = sample_corpus_negatives(corpus, table, [lm], [0, 0], 30, 5, 0.3, seed=1)
        negsets = negative_sets(negs, corpus, vocab)
        assert negsets[0] is not None and negsets[1] is None
        path = tmp_path / "negatives.bin"
        save_negatives(negs, path, vocab)
        loaded = load_negatives(path, corpus, vocab)
        for name in ("sentence", "ids", "logprob"):
            got, saved = getattr(loaded, name), getattr(negs, name)
            assert got.dtype == saved.dtype and np.array_equal(got, saved)
        assert negative_sets(loaded, corpus, vocab) == negsets
        # byte-identical on rewrite
        data = path.read_bytes()
        save_negatives(loaded, path, vocab)
        assert path.read_bytes() == data
