import itertools
import json
import math
import random
import re

import numpy as np
import pytest

from kbrerank import evaluation
from kbrerank.corpus import Sentence, build_vocabulary, corpus_from_lines
from kbrerank.corpus import pad_ids
from kbrerank.evaluation import (
    NBestList,
    RerankModels,
    error_counts,
    evaluate,
    load_nbest,
    oracle_wer,
    rerank,
    save_nbest,
    score_split,
    summary_table,
    tune_weights,
    wer,
    write_utterance_csv,
)
from kbrerank.ngram import count_ngrams, estimate


def sent(text):
    return Sentence(tuple(text.split()))


def nbest(utt_id, ref, hyps_with_scores):
    return NBestList(
        utt_id,
        sent(ref) if ref else None,
        tuple((sent(h), score) for h, score in hyps_with_scores),
    )


from oracles import exhaustive_wer, loop_wer, reference_counts, reference_decode, reference_tune


def scored(dataset, scorer="first-pass", models=None):
    return score_split(dataset, scorer, models or RerankModels())


class TestWer:
    def test_identical(self):
        assert wer(sent("a b c"), sent("a b c")) == (0, 0, 0, 3)

    def test_substitution(self):
        s, d, i, n = wer(sent("a b c"), sent("a x c"))
        assert (s, d, i, n) == (1, 0, 0, 3)

    def test_deletion(self):
        assert wer(sent("a b c"), sent("a c")) == (0, 1, 0, 3)

    def test_insertion(self):
        assert wer(sent("a c"), sent("a b c")) == (0, 0, 1, 2)

    def test_empty_hypothesis_is_all_deletions(self):
        assert wer(("a", "b"), ()) == (0, 2, 0, 2)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="empty reference"):
            wer((), ("a",))

    def test_matches_exhaustive_search_all_pairs_up_to_length_five(self):
        # WER depends on tokens only through pairwise equality, so each
        # distinct equality pattern needs checking once
        alpha = ("a", "b", "c")
        refs = [seq for l in range(1, 6) for seq in itertools.product(alpha, repeat=l)]
        hyps = [seq for l in range(0, 6) for seq in itertools.product(alpha, repeat=l)]
        seen = set()
        for ref in refs:
            for hyp in hyps:
                sig = (
                    len(ref),
                    len(hyp),
                    tuple(r == h for r in ref for h in hyp),
                )
                if sig in seen:
                    continue
                seen.add(sig)
                s, d, i, n = wer(ref, hyp)
                assert n == len(ref)
                assert (s + d + i, i, d) == exhaustive_wer(ref, hyp), (ref, hyp)
        assert len(seen) > 20000


    def test_batched_counts_match_the_per_pair_loop(self):
        # mixed lengths, empty hypotheses, and rows of 64+ tokens, past what
        # a fixed M = 64 could pack into one cell
        rng = random.Random(11)
        refs, hyps = [], []
        for _ in range(3000):
            long = rng.random() < 0.05
            refs.append([rng.choice("abcd") for _ in range(rng.randint(1, 90 if long else 9))])
            hyps.append([rng.choice("abcd") for _ in range(rng.randint(0, 90 if long else 11))])
        hyps[:50] = [[] for _ in range(50)]
        refs[0] = list("ab" * 40)  # 80 tokens against an empty hypothesis
        assert max(map(len, refs)) > 63 and max(map(len, hyps)) > 63
        code = {"a": 0, "b": 1, "c": 2, "d": 3}
        encoded = [pad_ids([[code[t] for t in row] for row in rows]) for rows in (refs, hyps)]
        got = error_counts(*encoded[0], *encoded[1])
        assert got.tolist() == [list(loop_wer(r, h)[:3]) for r, h in zip(refs, hyps)]
        assert got[0].tolist() == [0, 80, 0]


def words_of(vocab, ids, lengths) -> list:
    """Each row of a right-padded id batch as a tuple of ``vocab``'s words."""
    return [tuple(vocab.id_to_word[i] for i in row[:n]) for row, n in zip(ids.tolist(), lengths.tolist())]


def table_vocab(table):
    """A vocabulary of every word of ``table``'s token-tuple keys."""
    return build_vocabulary(corpus_from_lines(" ".join(k) for k in table if k), 0)


class StubLm:
    """Look-up language model for rerank tests: each row of ids is read back
    as words of ``vocab``."""

    def __init__(self, table, vocab):
        self.table, self.vocab = table, vocab

    def logprobs(self, ids, lengths):
        return np.array([self.table[words] for words in words_of(self.vocab, ids, lengths)])


def lm_models(table):
    vocab = table_vocab(table)
    return RerankModels(lstm=StubLm(table, vocab), vocab=vocab)


class TestRerank:
    def test_zero_weights_return_first_pass_best(self):
        lists = [nbest("u1", "a b", [("a x", -1.0), ("a b", -3.0), ("x b", -2.0)])]
        corpus = corpus_from_lines(["a b", "a x"])
        vocab = build_vocabulary(corpus, 0)
        model = estimate(count_ngrams(corpus, vocab, 2), vocab)
        models = RerankModels(ngram=model, vocab=vocab)
        assert rerank(lists, "ngram", {"ngram": 0.0}, models).tolist() == [0]
        assert rerank(lists, "first-pass", {}, models).tolist() == [0]

    def test_identical_hypotheses_tie_to_first(self):
        lists = [nbest("u1", "a b", [("a b", -2.0), ("a b", -2.0)])]
        assert rerank(lists, "first-pass", {}, RerankModels()).tolist() == [0]

    def test_shift_invariance(self):
        lists = nbest("u1", "a b", [("a x", -1.0), ("a b", -3.0)])
        shifted = NBestList(
            "u1",
            lists.reference,
            tuple((h, fp + 700.0) for h, fp in lists.hypotheses),
        )
        models = RerankModels()
        assert rerank([lists], "first-pass", {}, models).tolist() == rerank(
            [shifted], "first-pass", {}, models
        ).tolist()

    def test_weighted_lstm_flips_choice(self):
        lists = [nbest("u1", "a b", [("a x", -1.0), ("a b", -1.5)])]
        models = lm_models({("a", "x"): -10.0, ("a", "b"): -1.0})
        assert rerank(lists, "lstm", {"lstm": 0.0}, models).tolist() == [0]
        assert rerank(lists, "lstm", {"lstm": 1.0}, models).tolist() == [1]

    def test_missing_model_rejected(self):
        lists = [nbest("u1", "a b", [("a b", -1.0)])]
        with pytest.raises(ValueError, match="requires a loaded"):
            rerank(lists, "ngram", {}, RerankModels())
        with pytest.raises(ValueError, match="unknown scorer"):
            rerank(lists, "acoustic", {}, RerankModels())

    def test_lists_of_unequal_size_without_references(self):
        # each list's choice is its own: padding never wins, and references
        # are not needed
        lists = [
            nbest("u1", None, [("a x", -1.0), ("a b", -1.5)]),
            nbest("u2", None, [("a b", -3.0)]),
            nbest("u3", None, [("c", -2.0), ("a x", -2.5), ("a b", -2.1)]),
        ]
        models = lm_models({("a", "x"): -10.0, ("a", "b"): -1.0, ("c",): -9.0})
        assert rerank(lists, "lstm", {"lstm": 1.0}, models).tolist() == [1, 0, 2]
        assert rerank(lists, "first-pass", {}, models).tolist() == [0, 0, 0]
        assert rerank([], "lstm", {"lstm": 1.0}, models).tolist() == []


class TestOracle:
    def test_zero_when_reference_present(self):
        dataset = [
            nbest("u1", "a b", [("a x", -1.0), ("a b", -2.0)]),
            nbest("u2", "c", [("c", -1.0)]),
        ]
        assert oracle_wer(scored(dataset)).wer == 0.0

    def test_oracle_never_above_any_policy(self):
        rng = random.Random(3)
        words = ["a", "b", "c", "d"]
        dataset = []
        for u in range(60):
            ref = tuple(rng.choice(words) for _ in range(rng.randint(1, 5)))
            hyps = []
            for _ in range(4):
                hyp = tuple(
                    rng.choice(words) if rng.random() < 0.4 else t for t in ref
                )
                hyps.append((" ".join(hyp), -rng.random()))
            dataset.append(nbest(f"u{u}", " ".join(ref), hyps))
        oracle = oracle_wer(scored(dataset)).wer
        first = evaluate(scored(dataset), "first-pass", {}).wer
        assert oracle <= first

    def test_matches_choice_enumeration_on_three_utterances(self):
        dataset = [
            nbest("u1", "a b c", [("a b c", -1.0), ("a b", -2.0)]),
            nbest("u2", "b b", [("b", -1.0), ("b b b", -2.0), ("b b", -3.0)]),
            nbest("u3", "c a", [("a c", -1.0), ("c c", -2.0)]),
        ]
        counts = []
        for lists in dataset:
            counts.append(
                [wer(lists.reference, h) for h, _ in lists.hypotheses]
            )
        best = None
        for choice in itertools.product(*(range(len(c)) for c in counts)):
            s = d = i = n = 0
            for u, c in enumerate(choice):
                cs, cd, ci, cn = counts[u][c]
                s, d, i, n = s + cs, d + cd, i + ci, n + cn
            total = (s + d + i) / n
            if best is None or total < best:
                best = total
        assert math.isclose(oracle_wer(scored(dataset)).wer, best, rel_tol=1e-12)

    def test_matches_per_utterance_brute_force_on_random_data(self):
        rng = random.Random(17)
        words = ["a", "b", "c", "d", "e"]
        dataset = []
        for u in range(100):
            ref = tuple(rng.choice(words) for _ in range(rng.randint(1, 6)))
            hyps = []
            for _ in range(rng.randint(1, 5)):
                hyp = [rng.choice(words) if rng.random() < 0.5 else t for t in ref]
                if rng.random() < 0.3 and len(hyp) > 1:
                    hyp.pop(rng.randrange(len(hyp)))
                hyps.append((" ".join(hyp), -rng.random()))
            dataset.append(nbest(f"u{u}", " ".join(ref), hyps))
        report = oracle_wer(scored(dataset))
        s = d = i = n = 0
        for lists in dataset:
            errs = [wer(lists.reference, h) for h, _ in lists.hypotheses]
            cs, cd, ci, cn = min(errs, key=lambda e: e[0] + e[1] + e[2])
            s, d, i, n = s + cs, d + cd, i + ci, n + cn
        assert report.errors.sum(axis=0).tolist() == [s, d, i]
        assert report.ref_words.sum() == n

    def test_requires_references(self):
        with pytest.raises(ValueError, match="references required"):
            oracle_wer(scored([nbest("u1", None, [("a", -1.0)])]))


class TestEvaluate:
    def test_perfect_first_pass(self):
        dataset = [
            nbest("u1", "a b", [("a b", -1.0), ("a x", -2.0)]),
            nbest("u2", "c", [("c", -0.5), ("a", -1.0)]),
        ]
        report = evaluate(scored(dataset), "first-pass", {})
        assert report.wer == 0.0

    def test_report_identity(self):
        dataset = [
            nbest("u1", "a b c", [("a x c", -1.0)]),
            nbest("u2", "a", [("a b", -1.0)]),
        ]
        report = evaluate(scored(dataset), "first-pass", {})
        # one substitution in u1, one insertion in u2, over 3 + 1 words
        assert report.errors.tolist() == [[1, 0, 0], [0, 0, 1]]
        assert report.ref_words.tolist() == [3, 1]
        assert report.wer == (1 + 0 + 0 + 0 + 0 + 1) / (3 + 1)

    def test_micro_average_recomputable_from_per_utterance(self):
        rng = random.Random(5)
        words = ["a", "b", "c"]
        dataset = []
        for u in range(40):
            ref = tuple(rng.choice(words) for _ in range(rng.randint(1, 4)))
            hyp = tuple(rng.choice(words) for _ in range(rng.randint(1, 4)))
            dataset.append(nbest(f"u{u}", " ".join(ref), [(" ".join(hyp), -1.0)]))
        report = evaluate(scored(dataset), "first-pass", {})
        per_utterance = [wer(lists.reference, lists.hypotheses[0][0]) for lists in dataset]
        assert report.errors.tolist() == [list(counts[:3]) for counts in per_utterance]
        assert report.ref_words.tolist() == [counts[3] for counts in per_utterance]
        total_errors = sum(s + d + i for s, d, i, _ in per_utterance)
        total_words = sum(n for *_, n in per_utterance)
        assert math.isclose(report.wer, total_errors / total_words, rel_tol=1e-12)

    def test_tuned_weights_never_worse_than_first_pass_on_tuning_data(self):
        models = lm_models(
            {
                ("a", "b"): -1.0,
                ("a", "x"): -9.0,
                ("c",): -1.0,
                ("d",): -2.0,
            }
        )
        dataset = [
            nbest("u1", "a b", [("a x", -1.0), ("a b", -2.0)]),
            nbest("u2", "c", [("c", -0.5), ("d", -1.0)]),
        ]
        split = scored(dataset, "lstm", models)
        weights = tune_weights(split, "lstm", (0.0, 1.0, 4.0))
        tuned = evaluate(split, "lstm", weights).wer
        first = evaluate(split, "first-pass", {}).wer
        assert tuned <= first


class TestArrayPathMatchesReference:
    """score_split with tune_weights, evaluate and oracle_wer against the
    per-utterance reference in oracles.py."""

    GRID = (0.0, 0.5, 1.0, 2.0)

    def random_split(self, rng, n_utts):
        dataset = []
        for u in range(n_utts):
            # words of their own per utterance, so a component can score a
            # hypothesis by its errors against this utterance's reference
            words = [f"{w}{u}" for w in "abcd"]
            ref = [rng.choice(words) for _ in range(rng.randint(1, 5))]
            hyps = []
            for _ in range(rng.choice((1, 3, 5))):
                hyp = [rng.choice(words) if rng.random() < 0.4 else t for t in ref]
                if len(hyp) > 1 and rng.random() < 0.3:
                    hyp.pop(rng.randrange(len(hyp)))
                elif rng.random() < 0.2:
                    hyp.insert(rng.randrange(len(hyp) + 1), rng.choice(words))
                # three first-pass values over up to five hypotheses, and
                # repeated hypotheses, give exact ties in the totals
                hyps.append((" ".join(hyp), rng.choice((-1.0, -2.0, -3.0))))
            dataset.append(nbest(f"u{u}", " ".join(ref), hyps))
        return dataset

    @staticmethod
    def stub_models(monkeypatch, tables):
        """Models whose component scores are looked up by hypothesis tokens,
        read back from the id matrix every component is given."""
        vocab = table_vocab(tables["lstm"])

        def lookup(name, ids, lengths):
            return np.array([tables[name][words] for words in words_of(vocab, ids, lengths)])

        monkeypatch.setattr(evaluation, "score_ids", lambda model, ids, lengths: lookup("ngram", ids, lengths))
        # the reranker's inputs are the id rows themselves
        monkeypatch.setattr(evaluation, "reranker_inputs", lambda split, ids, kb, lm: (ids, split.lengths))
        monkeypatch.setattr(evaluation, "score_lists", lambda params, rows: lookup("reranker", *rows))
        present = object()
        return RerankModels(
            ngram=present, lstm=StubLm(tables["lstm"], vocab), reranker=present,
            kb_index=present, vocab=vocab,
        )

    @staticmethod
    def reference_components(dataset, tables):
        return [
            {
                "first_pass": [fp for _, fp in lists.hypotheses],
                **{
                    name: [table[h.tokens] for h, _ in lists.hypotheses]
                    for name, table in tables.items()
                },
            }
            for lists in dataset
        ]

    def test_components_added_in_fixed_order(self, monkeypatch):
        # (0.3 + 0.1) + 0.2 rounds above 0.6 and (0.3 + 0.2) + 0.1 does not,
        # so adding the reranker before the LSTM would turn the win into a
        # tie that the first hypothesis takes
        dataset = [nbest("u0", "a", [("a", 0.6), ("b", 0.3)])]
        tables = {
            "ngram": {("a",): 0.0, ("b",): 0.0},
            "lstm": {("a",): 0.0, ("b",): 0.1},
            "reranker": {("a",): 0.0, ("b",): 0.2},
        }
        split = score_split(dataset, "reranker+lstm", self.stub_models(monkeypatch, tables))
        weights = {"reranker": 1.0, "lstm": 1.0}
        comps = self.reference_components(dataset, tables)
        picks, _ = reference_decode(dataset, comps, ("reranker", "lstm"), weights)
        assert picks[0][0] == 1
        assert evaluate(split, "reranker+lstm", weights).chosen.tolist() == [1]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tuning_decoding_and_oracle_match(self, seed, monkeypatch):
        rng = random.Random(seed)
        dataset = self.random_split(rng, 40)
        counts = [
            [reference_counts(lists.reference.tokens, h.tokens) for h, _ in lists.hypotheses]
            for lists in dataset
        ]
        # coarse, partly informative component scores: fewer errors tend to
        # score higher, and equal values are common
        tables = {name: {} for name in evaluation.COMPONENTS}
        for lists, utt_counts in zip(dataset, counts):
            for (h, _), c in zip(lists.hypotheses, utt_counts):
                for table in tables.values():
                    table.setdefault(h.tokens, -float(sum(c)) + rng.choice((0.0, -1.0, -2.0)))
        models = self.stub_models(monkeypatch, tables)
        split = score_split(dataset, evaluation.COMPONENTS, models)
        comps = self.reference_components(dataset, tables)
        assert {len(lists.hypotheses) for lists in dataset} == {1, 3, 5}
        tuned_nonzero = 0
        for scorer, names in evaluation.SCORER_COMPONENTS.items():
            weights = tune_weights(split, scorer, self.GRID)
            expected = reference_tune(dataset, comps, names, self.GRID)
            assert list(weights.items()) == list(expected.items()), scorer
            tuned_nonzero += any(weights.values())
            report = evaluate(split, scorer, weights)
            picks, expected_wer = reference_decode(dataset, comps, names, weights)
            got = list(zip(report.chosen.tolist(), map(tuple, report.errors.tolist())))
            assert got == picks, scorer
            assert report.wer == expected_wer, scorer
        assert tuned_nonzero > 0

        oracle = oracle_wer(split)
        assert oracle.chosen.tolist() == [
            min(range(len(c)), key=lambda k: sum(c[k])) for c in counts
        ]


class TestSerialization:
    def test_nbest_roundtrip(self, tmp_path):
        dataset = [
            nbest("u1", "a b", [("a b", -1.0), ("a x", -2.25)]),
            nbest("u2", None, [("c", -0.5)]),
        ]
        path = tmp_path / "nbest.jsonl"
        save_nbest(dataset, path)
        loaded = load_nbest(path)
        assert loaded == dataset

    def test_malformed_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "u1"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="malformed n-best record"):
            load_nbest(path)

    def test_null_reference_is_none(self, tmp_path):
        path = tmp_path / "nbest.jsonl"
        hyps = [{"tokens": ["a"], "first_pass_score": -1.0}]
        path.write_text(json.dumps({"id": "u1", "reference": None, "hypotheses": hyps}) + "\n")
        assert load_nbest(path)[0].reference is None

    @pytest.mark.parametrize("reference", ["", [], 0, False, {}])
    def test_falsy_reference_refused(self, tmp_path, reference):
        path = tmp_path / "nbest.jsonl"
        hyps = [{"tokens": ["a"], "first_pass_score": -1.0}]
        path.write_text(
            json.dumps({"id": "u1", "reference": ["a"], "hypotheses": hyps}) + "\n"
            + json.dumps({"id": "u2", "reference": reference, "hypotheses": hyps}) + "\n"
        )
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: malformed n-best record"):
            load_nbest(path)

    def test_utterance_csv(self, tmp_path):
        dataset = [nbest("u1", "a b", [("a x", -1.0)])]
        report = evaluate(scored(dataset), "first-pass", {})
        path = tmp_path / "report.csv"
        write_utterance_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("utt_id,")
        assert lines[1:] == ["u1,0,1,0,0,2,0.500000"]

    def test_summary_table_layout(self):
        dataset = [nbest("u1", "a b", [("a b", -1.0)])]
        report = evaluate(scored(dataset), "first-pass", {})
        table = summary_table(
            [("first-pass", {"heldout": report, "test": report}), ("oracle", {"test": report})]
        )
        lines = table.splitlines()
        assert "heldout" in lines[0] and "test" in lines[0]
        assert lines[1].startswith("first-pass")
        assert "-" in lines[2]
