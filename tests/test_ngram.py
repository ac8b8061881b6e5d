import math
import random
from collections import Counter

import numpy as np
import pytest
from oracles import (
    dict_count_tables,
    dict_export_arpa,
    dict_mapped_sentences,
    event_distribution,
    event_logprob,
    jackknife_scores,
    map_token,
    model_tables,
    score_sentences,
    train_dict_ngram,
)

from kbrerank import artifacts, synth
from kbrerank.artifacts import ArtifactError, save_artifact
from kbrerank.corpus import (
    UNK,
    Sentence,
    assign_folds,
    build_vocabulary,
    corpus_from_lines,
    pad_ids,
)
from kbrerank.ngram import (
    BOS,
    EOS,
    MAX_ORDER,
    count_ngrams,
    estimate,
    event_logprobs,
    export_arpa,
    load_model,
    save_model,
    score_ids,
    train_jackknife,
)


def make_corpus(*lines):
    return corpus_from_lines(lines)


def assert_same_tables(a, b):
    """Equal keys and bit-equal floats, order by order."""
    for name in ("gram_keys", "logprobs", "context_keys", "backoffs"):
        xs, ys = getattr(a, name), getattr(b, name)
        assert len(xs) == len(ys)
        for x, y in zip(xs, ys):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class KnReference:
    """Direct recursive interpolated Kneser-Ney over plain count dictionaries.

    Same published estimator as the production model but organized as naive
    per-query recursion with counts rescanned on demand, so it exercises none
    of the production table construction.
    """

    def __init__(self, mapped_sentences, order, n_events):
        self.order = order
        self.n_events = n_events
        raw = {k: Counter() for k in range(1, order + 1)}
        for toks in mapped_sentences:
            seq = (BOS,) * (order - 1) + tuple(toks) + (EOS,)
            for end in range(order - 1, len(seq)):
                for k in range(1, order + 1):
                    raw[k][seq[end - k + 1 : end + 1]] += 1
        adj = {order: dict(raw[order])}
        for k in range(order - 1, 0, -1):
            table = {}
            for g, c in raw[k].items():
                if g[0] == BOS:
                    table[g] = c
            for g in raw[k + 1]:
                suffix = g[1:]
                if suffix[0] != BOS:
                    table[suffix] = table.get(suffix, 0) + 1
            adj[k] = table
        self.adj = adj
        self.disc = {k: self._discounts(adj[k].values()) for k in range(1, order + 1)}

    @staticmethod
    def _discounts(counts):
        n = Counter(c for c in counts if c <= 4)
        n1, n2, n3, n4 = n[1], n[2], n[3], n[4]
        if n1 == 0 and n2 == 0:
            return (0.5, 1.0, 1.5)
        y = n1 / (n1 + 2.0 * n2) if (n1 + 2.0 * n2) > 0 else 0.0
        d1 = 1.0 - 2.0 * y * n2 / n1 if n1 else 0.5
        d2 = 2.0 - 3.0 * y * n3 / n2 if n2 else 1.0
        d3 = 3.0 - 4.0 * y * n4 / n3 if n3 else 1.5
        clip = lambda d, hi: min(max(d, 0.01), hi)
        return clip(d1, 1.0), clip(d2, 2.0), clip(d3, 3.0)

    def _d(self, level, count):
        d1, d2, d3 = self.disc[level]
        return d3 if count >= 3 else (d2 if count == 2 else d1)

    def prob(self, context, word):
        return self._p(self.order, tuple(context), word)

    def _p(self, k, context, word):
        if k == 0:
            return 1.0 / self.n_events
        ctx = context[len(context) - (k - 1) :] if k > 1 else ()
        table = self.adj[k]
        in_ctx = [(g, c) for g, c in table.items() if g[:-1] == ctx]
        total = sum(c for _, c in in_ctx)
        if total == 0:
            return self._p(k - 1, context, word)
        c = table.get(ctx + (word,), 0)
        gamma = sum(self._d(k, cc) for _, cc in in_ctx) / total
        return max(c - self._d(k, c), 0.0) / total + gamma * self._p(k - 1, context, word)


TOY = ("play carrie by sufjan", "play chicago by sufjan", "play carrie now", "download chicago")


class TestTraining:
    def test_unigram_distribution_sums_to_one(self):
        corpus = make_corpus("a a b")
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 1), vocab)
        dist = event_distribution(model, ())
        assert set(dist) == {"a", "b", UNK, EOS}
        assert math.isclose(sum(dist.values()), 1.0, abs_tol=1e-6)

    def test_trigram_matches_reference_value_by_value(self):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 3), vocab)
        mapped = [tuple(map_token(vocab, t) for t in s.tokens) for s in corpus]
        ref = KnReference(mapped, order=3, n_events=model.v_events)
        events = (*vocab.id_to_word, EOS)
        contexts = set()
        for toks in mapped:
            padded = (BOS, BOS) + toks
            for i in range(len(toks) + 1):
                contexts.add(padded[i : i + 2])
        contexts.add(("never", "seen"))
        contexts.add(("carrie", "zzz"))
        for ctx in sorted(contexts):
            for w in events:
                got = math.exp(event_logprob(model, ctx, w))
                want = ref.prob(ctx, w)
                assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12), (ctx, w)

    def test_fold_exclusion_equals_retraining_on_complement(self):
        corpus = make_corpus(*TOY, "extra words here", "extra stuff")
        vocab = build_vocabulary(corpus, min_count=0)
        folds = assign_folds(corpus, 3, seed=5)
        excluded = estimate(count_ngrams(corpus, vocab, 2, folds), vocab, exclude_fold=1)
        keep = [s.text() for i, s in enumerate(corpus) if folds.fold_of[i] != 1]
        complement = estimate(count_ngrams(make_corpus(*keep), vocab, 2), vocab)
        assert_same_tables(excluded, complement)
        assert excluded.trained_on_folds == (0, 2)

    def test_order_validated(self):
        corpus = make_corpus("a b")
        vocab = build_vocabulary(corpus, 0)
        with pytest.raises(ValueError):
            count_ngrams(corpus, vocab, 0)
        with pytest.raises(ValueError):
            count_ngrams(corpus, vocab, 6)

    def test_training_is_bit_deterministic(self):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        a = estimate(count_ngrams(corpus, vocab, 3), vocab)
        b = estimate(count_ngrams(corpus, vocab, 3), vocab)
        assert_same_tables(a, b)


class TestScoring:
    def test_single_sentence_unigram_hand_computation(self):
        # corpus "a": both events have count 1, so n1=2 and the discount
        # estimator yields D1 = 1: all unigram mass backs off to the uniform
        # 1/3 over {a, UNK, </s>}
        corpus = make_corpus("a")
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 1), vocab)
        assert math.isclose(event_logprob(model, (), "a"), math.log(1.0 / 3.0), rel_tol=1e-12)
        (got,) = score_sentences(model, [Sentence(("a",))])
        assert math.isclose(got, 2.0 * math.log(1.0 / 3.0), rel_tol=1e-12)

    def test_scores_are_negative(self):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 3), vocab)
        assert (score_sentences(model, corpus) < 0).all()

    def test_appending_token_never_raises_prefix_logprob(self):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 3), vocab)
        tokens = ("play", "carrie", "by", "sufjan", "now")
        padded = (BOS, BOS) + tokens
        running = 0.0
        for i, tok in enumerate(tokens):
            term = event_logprob(model, padded[i : i + 2], tok)
            assert term <= 0.0
            assert running + term <= running
            running += term

    def test_normalization_over_sampled_contexts(self):
        corpus = make_corpus(*TOY, "play something", "download carrie now")
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 3), vocab)
        contexts = [(), ("play",), ("play", "carrie"), ("zz", "qq"), ("by", "sufjan")]
        for ctx in contexts:
            total = sum(event_distribution(model, ctx).values())
            assert math.isclose(total, 1.0, abs_tol=1e-6), ctx

    def test_unknown_surface_scores_like_unk(self):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 2), vocab)
        novel = Sentence(("play", "zzzz"))
        explicit = Sentence(("play", UNK))
        assert score_sentences(model, [novel])[0] == score_sentences(model, [explicit])[0]


class TestJackknife:
    def test_two_folds_score_with_other_fold_model(self):
        corpus = make_corpus("a a", "b b")
        vocab = build_vocabulary(corpus, min_count=0)
        folds = assign_folds(corpus, 2, seed=0)
        _, models = train_jackknife(corpus, vocab, 1, folds)
        scores = jackknife_scores(corpus, folds, order=1, vocab=vocab)
        for i, sent in enumerate(corpus):
            other = models[folds.fold_of[i]]
            assert scores[i] == score_sentences(other, [sent])[0]
            assert folds.fold_of[i] not in other.trained_on_folds

    def test_unique_word_scores_as_unk_under_jackknife_only(self):
        corpus = make_corpus("play zebra now", "play carrie now", "play carrie by sufjan", "download carrie")
        vocab = build_vocabulary(corpus, min_count=0)
        folds = assign_folds(corpus, 2, seed=1)
        full, models = train_jackknife(corpus, vocab, 2, folds)
        target = corpus[0]
        masked = Sentence(tuple(UNK if t == "zebra" else t for t in target.tokens))
        jack = models[folds.fold_of[0]]
        assert score_sentences(jack, [target])[0] == score_sentences(jack, [masked])[0]
        assert score_sentences(full, [target])[0] != score_sentences(full, [masked])[0]

    def test_jackknife_below_full_for_memorized_sentence(self):
        corpus = make_corpus(
            "play carrie by sufjan", "download something", "tune the radio", "stop now"
        )
        vocab = build_vocabulary(corpus, min_count=0)
        folds = assign_folds(corpus, 4, seed=0)
        scores = jackknife_scores(corpus, folds, order=2, vocab=vocab)
        full = estimate(count_ngrams(corpus, vocab, 2), vocab)
        for i, sent in enumerate(corpus):
            assert scores[i] <= score_sentences(full, [sent])[0] + 1e-9


class TestArpaExport:
    def test_sections_and_counts(self, tmp_path):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 2), vocab)
        path = tmp_path / "model.arpa"
        export_arpa(model, path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("\\data\\")
        assert "\\1-grams:" in text and "\\2-grams:" in text and text.rstrip().endswith("\\end\\")
        header_counts = {}
        for line in text.splitlines():
            if line.startswith("ngram "):
                k, n = line[len("ngram "):].split("=")
                header_counts[int(k)] = int(n)
        body = text.split("\\1-grams:")[1].split("\\2-grams:")
        n1 = sum(1 for l in body[0].splitlines() if "\t" in l)
        n2 = sum(1 for l in body[1].split("\\end\\")[0].splitlines() if "\t" in l)
        assert header_counts == {1: n1, 2: n2}

    def test_byte_identical_to_dict_export(self, tmp_path):
        corpus = make_corpus(*TOY, "play something", "download carrie now")
        vocab = build_vocabulary(corpus, min_count=0)
        for order in (1, 3):
            export_arpa(estimate(count_ngrams(corpus, vocab, order), vocab), tmp_path / "ids.arpa")
            dict_export_arpa(train_dict_ngram(corpus, vocab, order=order), tmp_path / "dict.arpa")
            assert (tmp_path / "ids.arpa").read_bytes() == (tmp_path / "dict.arpa").read_bytes()

    def test_failed_export_leaves_previous_file(self, tmp_path):
        path = tmp_path / "model.arpa"
        path.write_text("previous model\n", encoding="utf-8")
        # a lone surrogate cannot be encoded as UTF-8, so the write raises
        # after the export has started
        corpus = make_corpus(*TOY, "play \ud800 now")
        vocab = build_vocabulary(corpus, min_count=0)
        with pytest.raises(UnicodeEncodeError):
            export_arpa(estimate(count_ngrams(corpus, vocab, 2), vocab), path)
        assert path.read_text(encoding="utf-8") == "previous model\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.arpa"]


def random_corpus(seed, n_words=30, n_sentences=120):
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(n_words)]
    return corpus_from_lines(
        " ".join(rng.choice(words[: rng.randint(2, n_words)]) for _ in range(rng.randint(1, 8)))
        for _ in range(n_sentences)
    )


class TestScoreIds:
    @pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
    def test_equals_dict_walk(self, order):
        corpus = random_corpus(order)
        vocab = build_vocabulary(corpus, min_count=1)  # singletons become OOV
        model = estimate(count_ngrams(corpus, vocab, order), vocab)
        ref = train_dict_ngram(corpus, vocab, order=order)
        rng = random.Random(10 + order)
        pool = [f"w{i}" for i in range(30)] + ["oov", "zz", UNK]
        rows = [s.tokens for s in corpus][:40]
        rows += [tuple(rng.choice(pool) for _ in range(rng.randint(0, 9))) for _ in range(60)]
        rows += [(), ()]
        ids, lengths = pad_ids([vocab.encode(r) for r in rows])
        got = score_ids(model, ids, lengths)
        assert got.tolist() == [ref.score_tokens(r) for r in rows]
        assert sum(len(r) == 0 for r in rows) >= 2

    def test_pad_id_never_changes_a_score(self):
        corpus = random_corpus(3)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 3), vocab)
        ids, lengths = pad_ids([vocab.encode(s.tokens) for s in corpus] + [[]])
        base = score_ids(model, ids, lengths)
        pad = np.arange(ids.shape[1]) >= lengths[:, None]
        rng = np.random.default_rng(0)
        for fill in (vocab.size, vocab.size + 1, -7, 10**12, rng.integers(0, vocab.size, ids.shape)):
            padded = ids.copy()
            padded[pad] = np.broadcast_to(fill, ids.shape)[pad]
            assert score_ids(model, padded, lengths).tolist() == base.tolist()
        wide = np.pad(ids, ((0, 0), (0, 3)), constant_values=5)
        assert score_ids(model, wide, lengths).tolist() == base.tolist()
        grid = event_logprobs(model, wide, lengths)
        assert np.all(grid[np.arange(grid.shape[1]) > lengths[:, None]] == 0.0)

    def test_ids_outside_vocabulary_rejected(self):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 2), vocab)
        for bad in (vocab.size, vocab.size + 1, -1):
            with pytest.raises(ValueError, match="outside the vocabulary"):
                score_ids(model, np.array([[1, bad]]), np.array([2]))

    @staticmethod
    def wide_corpus(n_words):
        words = [f"v{i}" for i in range(n_words - 1)]  # plus the unknown symbol
        rng = random.Random(n_words)
        lines = [" ".join(words[i : i + 7]) for i in range(0, len(words), 7)]
        lines += [" ".join(rng.choice(words) for _ in range(6)) for _ in range(200)]
        return corpus_from_lines(lines)

    def test_order5_key_overflow_fails_loudly(self):
        # 6209 ** 5 > 2 ** 63: packed order-5 keys would wrap
        corpus = self.wide_corpus(6207)
        vocab = build_vocabulary(corpus, min_count=0)
        assert vocab.size == 6207
        with pytest.raises(ValueError, match="order-5 n-gram model over a vocabulary of 6207 words"):
            count_ngrams(corpus, vocab, 5)
        folds = assign_folds(corpus, 2, seed=0)
        with pytest.raises(ValueError, match="order-5"):
            train_jackknife(corpus, vocab, 5, folds)

    def test_largest_order5_vocabulary_scores_exactly(self):
        # 6208 ** 5 <= 2 ** 63: the widest vocabulary order-5 keys hold
        corpus = self.wide_corpus(6206)
        vocab = build_vocabulary(corpus, min_count=0)
        model = estimate(count_ngrams(corpus, vocab, 5), vocab)
        assert int(model.gram_keys[4].max()) > 2**62
        ref = train_dict_ngram(corpus, vocab, order=5)
        rows = [s.tokens for s in corpus][-50:]
        ids, lengths = pad_ids([vocab.encode(r) for r in rows])
        assert score_ids(model, ids, lengths).tolist() == [ref.score_tokens(r) for r in rows]


class TestOnePassJackknife:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_models_equal_per_fold_dict_models(self, order):
        world = synth.generate_world(
            synth.SynthConfig(seed=order, n_artists=8, songs_per_artist=4, word_inventory=80,
                              n_train=300, n_heldout=2, n_test=2)
        )
        corpus = world.train
        vocab = build_vocabulary(corpus, min_count=1)
        folds = assign_folds(corpus, 4, seed=order)
        counts = count_ngrams(corpus, vocab, order, folds)
        full, fold_models = train_jackknife(corpus, vocab, order, folds)
        words = (*vocab.id_to_word, EOS, BOS)
        base = vocab.size + 2
        for exclude, model in [(None, full), *enumerate(fold_models)]:
            # raw counts, and the order a direct count meets each gram in
            expected = dict_count_tables(dict_mapped_sentences(corpus, vocab, folds, exclude), order)
            for k, (keys, n) in enumerate(counts.raw_tables(exclude), start=1):
                got = [
                    (tuple(words[(key // base ** (k - 1 - j)) % base] for j in range(k)), c)
                    for key, c in zip(keys.tolist(), n.tolist())
                ]
                assert got == list(expected[k].items())
            ref = train_dict_ngram(corpus, vocab, order, exclude_fold=exclude, folds=folds)
            logprob, logbackoff = model_tables(model)
            assert logprob == ref.logprob and logbackoff == ref.logbackoff
            assert model.trained_on_folds == ref.trained_on_folds
            counted = count_ngrams(corpus, vocab, order, folds if exclude is not None else None)
            assert_same_tables(model, estimate(counted, vocab, exclude))


class TestModelFile:
    def test_roundtrip_attaches_checked_vocabulary(self, tmp_path):
        corpus = make_corpus(*TOY)
        vocab = build_vocabulary(corpus, min_count=0)
        folds = assign_folds(corpus, 2, seed=0)
        # order 1 has no context tables; a fold model records its folds
        for order, exclude in ((1, None), (3, None), (3, 1)):
            model = estimate(count_ngrams(corpus, vocab, order, folds), vocab, exclude)
            path = tmp_path / "ngram.bin"
            save_model(model, path)
            loaded = load_model(path, vocab)
            assert loaded.vocab is vocab and loaded.order == order
            assert_same_tables(loaded, model)
            assert loaded.trained_on_folds == model.trained_on_folds
            assert score_sentences(loaded, corpus).tolist() == score_sentences(model, corpus).tolist()
        other = build_vocabulary(make_corpus("some other words"), min_count=0)
        with pytest.raises(ArtifactError, match="vocabulary-hash mismatch"):
            load_model(path, other)

    def test_other_format_version_refused(self, tmp_path, monkeypatch):
        vocab = build_vocabulary(make_corpus(*TOY), min_count=0)
        path = tmp_path / "ngram_full.bin"
        monkeypatch.setattr(artifacts, "FORMAT_VERSION", 3)
        save_model(estimate(count_ngrams(make_corpus(*TOY), vocab, 2), vocab), path)
        monkeypatch.undo()
        with pytest.raises(ArtifactError, match="ngram_full.bin: unsupported format version 3"):
            load_model(path, vocab)

    def test_dict_model_file_refused_at_load(self, tmp_path):
        # an artifact of the earlier dict model's kind, "ngram-model"
        path = tmp_path / "ngram_fold0.bin"
        vocab = build_vocabulary(make_corpus(*TOY), min_count=0)
        save_artifact(path, "ngram-model", {}, {"order": 3}, vocab)
        with pytest.raises(ArtifactError, match="ngram_fold0.bin") as err:
            load_model(path, vocab)
        assert "'ngram-model'" in str(err.value)
