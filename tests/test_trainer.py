import json
import math

import numpy as np
import pytest
from oracles import (
    TRIE_SHAPE_ROWS,
    dict_kb_index,
    extract_features,
    finite_difference_check,
    in_order_chunks,
    lm_hidden_states,
    lm_logprob,
    lstm_step,
    negative_sets,
    padded_cells,
    padded_lstm_backward,
    padded_lstm_forward,
    param_norm_sq,
    position_logprobs,
    random_trie_rows,
    reference_dropout_mask,
    reference_heldout_wer,
    reference_lm_logprob,
    reference_minibatch_gradients,
    reference_train_lstm_lm,
    reference_train_reranker,
    score,
    score_alone,
    score_sentences,
    sentence_logprobs,
)

from kbrerank import evaluation, neural, synth, trainer
from kbrerank.artifacts import ArtifactError
from kbrerank.cli import load_feature_instances
from kbrerank.corpus import Sentence, Vocabulary, assign_folds, build_vocabulary, corpus_from_lines
from kbrerank.evaluation import NBestList, RerankModels, wer
from kbrerank.features import BIN_FIELDS
from kbrerank.kb import build_index
from kbrerank.negsampler import build_confusion_table, derive_seed, sample_corpus_negatives
from kbrerank.neural import (
    RerankerDims,
    RerankerInputs,
    RerankerParams,
    contrastive_loss,
    length_chunks,
    group_inputs,
    pad_ids,
    score_batch,
)
from kbrerank.ngram import train_jackknife
from kbrerank.trainer import (
    LstmLmDims,
    LstmLmParams,
    TrainConfig,
    heldout_wer,
    prepare_heldout,
    train_lstm_lm,
    train_reranker,
)


@pytest.fixture(scope="module")
def mini_world():
    cfg = synth.SynthConfig(
        seed=3, n_artists=8, songs_per_artist=4, word_inventory=80,
        n_train=120, n_heldout=25, n_test=25, hyps_per_utt=4, noise_rate=0.4,
    )
    world = synth.generate_world(cfg)
    vocab = build_vocabulary(world.train, min_count=1)
    index = dict_kb_index(world.kb_entries)
    tables = build_index(world.kb_entries)
    folds = assign_folds(world.train, 4, seed=3)
    full, fold_models = train_jackknife(world.train, vocab, 3, folds)
    negs = sample_corpus_negatives(
        world.train[:60], build_confusion_table(vocab), fold_models, folds.fold_of[:60],
        n_samples=30, keep_k=5, p_sub=0.3, seed=3,
    )
    negsets = negative_sets(negs, world.train[:60], vocab)
    candidates, rows, sizes = [], [], []
    for j, negset in enumerate(negsets):
        if negset is None:
            continue
        sent = world.train[j]
        (src_lp,) = score_sentences(fold_models[folds.fold_of[j]], [sent])
        rows.append(extract_features(sent, src_lp, index))
        rows.extend(
            extract_features(neg, lp, index)
            for neg, lp in zip(negset.negatives, negset.lm_logprobs)
        )
        candidates.extend([sent.tokens, *(neg.tokens for neg in negset.negatives)])
        sizes.append(1 + len(negset.negatives))
    bins = np.array([b for b, _ in rows])
    ids = [vocab.encode(tokens) for tokens in candidates]
    instances = group_inputs(ids, bins, [f for _, f in rows], sizes)
    dims = RerankerDims(vocab_size=vocab.size, word_dim=12, lstm_dim=12, hidden_dim=16)
    return {
        "world": world,
        "vocab": vocab,
        "index": index,
        "tables": tables,
        "full": full,
        "instances": instances,
        "heldout": prepare_heldout(world.heldout, vocab, tables, full),
        # held-out sets of the first 3, 5 and 8 lists
        **{
            f"heldout{k}": prepare_heldout(world.heldout[:k], vocab, tables, full)
            for k in (3, 5, 8)
        },
        "dims": dims,
    }


class TestTrainReranker:
    def test_loss_decreases_on_single_instance(self, mini_world):
        params = RerankerParams.initialize(mini_world["dims"], seed=0)
        config = TrainConfig(lr=0.01, l2=0.0, dropout=0.0, max_epochs=5, patience=5, seed=0)
        _, logs = train_reranker(
            mini_world["instances"][:1], mini_world["heldout3"], params, config
        )
        losses = [l.mean_loss for l in logs]
        assert len(losses) == 5
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_returned_checkpoint_is_heldout_minimum(self, mini_world):
        params = RerankerParams.initialize(mini_world["dims"], seed=1)
        config = TrainConfig(lr=0.1, dropout=0.1, max_epochs=6, patience=2, batch_size=16, seed=1)
        best, logs = train_reranker(
            mini_world["instances"], mini_world["heldout"], params, config
        )
        best_logged = min(l.heldout_wer for l in logs)
        assert math.isclose(heldout_wer(best, mini_world["heldout"]), best_logged, rel_tol=1e-12)

    def test_strong_l2_shrinks_parameters(self, mini_world):
        runs = {}
        for l2 in (0.0, 1000.0):
            params = RerankerParams.initialize(mini_world["dims"], seed=2)
            config = TrainConfig(
                lr=0.0005, l2=l2, dropout=0.0, max_epochs=4, patience=4, batch_size=16, seed=2
            )
            trained, _ = train_reranker(
                mini_world["instances"][:24], mini_world["heldout5"], params, config
            )
            runs[l2] = param_norm_sq(trained)
        assert runs[1000.0] < runs[0.0]

    def test_training_log_reproducible(self, mini_world):
        def run():
            params = RerankerParams.initialize(mini_world["dims"], seed=4)
            config = TrainConfig(lr=0.1, max_epochs=3, patience=3, batch_size=16, seed=4)
            _, logs = train_reranker(
                mini_world["instances"][:32], mini_world["heldout8"], params, config
            )
            return [(l.mean_loss, l.heldout_wer, l.lr) for l in logs]

        assert run() == run()

    def test_zero_negative_instance_rejected(self, mini_world, tmp_path):
        sent = Sentence(("play", "x"))
        bins, feat = extract_features(sent, -3.0, mini_world["index"])
        rec = {"sentence_id": 4, "hypothesis_id": 0, "tokens": list(sent.tokens),
               "ngram_negative_logprob": feat}
        rec.update((name, b) for (name, _), b in zip(BIN_FIELDS, bins.tolist()))
        path = tmp_path / "features.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValueError, match="at least one negative"):
            load_feature_instances(path, mini_world["vocab"])

    def test_feature_file_loads_in_group_order(self, tmp_path):
        # rows out of order: sentence 9 before 2, hypotheses shuffled; an
        # integer score, an unknown word and an empty hypothesis load too
        vocab = build_vocabulary(corpus_from_lines(["play b", "play c"]))
        rows = [
            (9, 1, ["c"], 4.5, (1, 2, 3, 4, 5)),
            (2, 2, [], 7, (0, 0, 0, 50, 50)),
            (9, 0, ["play", "c"], 0.25, (9, 99, 98, 97, 96)),
            (2, 0, ["play", "zzz"], 1.5, (3, 0, 1, 2, 4)),
            (2, 1, ["b"], 2.0, (0, 10, 20, 30, 40)),
        ]
        path = tmp_path / "features.jsonl"
        with open(path, "w") as fh:
            for sid, hyp_id, tokens, lp, bins in rows:
                rec = {"sentence_id": sid, "hypothesis_id": hyp_id, "tokens": tokens,
                       "ngram_negative_logprob": lp}
                rec.update(zip((name for name, _ in BIN_FIELDS), bins))
                fh.write(json.dumps(rec) + "\n")
        first, second = load_feature_instances(path, vocab)
        play, b, c, unk = (vocab.id_of(w) for w in ("play", "b", "c", "<unk>"))
        assert first.ids == [[play, unk], [b], []]
        assert second.ids == [[play, c], [c]]
        for inputs in (first, second):
            assert inputs.bins.dtype == np.intp and inputs.ngram_feats.dtype == np.float64
        assert first.bins.tolist() == [[3, 0, 1, 2, 4], [0, 10, 20, 30, 40], [0, 0, 0, 50, 50]]
        assert second.bins.tolist() == [[9, 99, 98, 97, 96], [1, 2, 3, 4, 5]]
        assert first.ngram_feats.tolist() == [1.5, 2.0, 7.0]
        assert second.ngram_feats.tolist() == [0.25, 4.5]

    def test_empty_instances_rejected(self, mini_world):
        params = RerankerParams.initialize(mini_world["dims"], seed=5)
        with pytest.raises(ValueError, match="no training instances"):
            train_reranker([], mini_world["heldout"], params, TrainConfig())


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"lr": math.inf}, "lr must be positive and finite, got inf"),
        ({"lr": math.nan}, "lr must be positive and finite, got nan"),
        ({"l2": math.nan}, "l2 must be a finite number >= 0, got nan"),
        ({"l2": math.inf}, "l2 must be a finite number >= 0, got inf"),
        ({"l2": -1e-6}, "l2 must be a finite number >= 0, got -1e-06"),
    ],
)
def test_train_config_refuses_non_finite_knobs(knobs, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**knobs)


def unequal_length_lists(world):
    """Held-out lists rebuilt so each holds hypotheses of three lengths: the
    reference, the reference minus its last word, and the reference with its
    first word repeated; every first-pass score ties, so the reranker decides."""
    lists = []
    for nbest in world.heldout[:10]:
        ref = nbest.reference.tokens
        hyps = [ref, ref[:-1] if len(ref) > 1 else ref + ref, (ref[0],) + ref]
        hyps.extend(h.tokens for h, _ in nbest.hypotheses[1:3])
        lists.append(
            NBestList(nbest.utt_id, nbest.reference, tuple((Sentence(h), 0.0) for h in hyps))
        )
    return lists


class TestHeldoutUnequalLengths:
    def test_heldout_wer_scores_each_hypothesis_as_alone(self, mini_world):
        vocab, index, full = mini_world["vocab"], mini_world["index"], mini_world["full"]
        lists = unequal_length_lists(mini_world["world"])
        heldout = prepare_heldout(lists, vocab, mini_world["tables"], full)
        assert all(len({len(row) for row in x.ids}) > 1 for x in heldout.inputs)
        chosen_lengths = set()
        for seed in range(4):
            params = RerankerParams.initialize(mini_world["dims"], seed=seed)
            errors = words = 0
            for nbest in lists:
                u = []
                for hyp, _ in nbest.hypotheses:
                    (lp,) = score_sentences(full, [hyp])
                    bins, feat = extract_features(hyp, lp, index)
                    u.append(score(params, vocab.encode(hyp.tokens), bins, feat).u)
                chosen = int(np.argmax(u))
                chosen_lengths.add(len(nbest.hypotheses[chosen][0]) - len(nbest.reference))
                s, d, i, n = wer(nbest.reference, nbest.hypotheses[chosen][0])
                errors += s + d + i
                words += n
            assert heldout_wer(params, heldout) == errors / words
        assert len(chosen_lengths) > 1  # the choices do depend on the lengths


SMALL = RerankerDims(
    vocab_size=12, word_dim=4, lstm_dim=4, hidden_dim=4,
    co_dim=2, freq_dim=2, cross_dim=2, intra_dim=2,
)


def small_instances(rng, row_counts):
    """Training instances of the given row counts; candidates of 1-5 words
    drawn from ids 1 .. vocab_size - 2."""
    instances = []
    for n in row_counts:
        rows = [rng.integers(1, SMALL.vocab_size - 1, size=k).tolist() for k in rng.integers(1, 6, size=n)]
        bins = np.stack([rng.integers(0, b.count, size=n) for b in neural._BINS], axis=1)
        instances.append(RerankerInputs(rows, bins, rng.random(n) * 10))
    return instances


def sized_instances(rng, shapes):
    """Training instances of the given (rows, words) shapes, every row of an
    instance as long as the others, as a sentence and its corruptions are;
    words drawn from ids 1 .. vocab_size - 2."""
    instances = []
    for n, length in shapes:
        rows = rng.integers(1, SMALL.vocab_size - 1, size=(n, length)).tolist()
        bins = np.stack([rng.integers(0, b.count, size=n) for b in neural._BINS], axis=1)
        instances.append(RerankerInputs(rows, bins, rng.random(n) * 10))
    return instances


def padding_with(pad):
    """``pad_ids`` with ``pad`` in place of 0 past each row's end."""
    def pad_ids_with(rows):
        ids, lengths = pad_ids(rows)
        ids[np.arange(ids.shape[1]) >= lengths[:, None]] = pad
        return ids, lengths

    return pad_ids_with


def batch_chunks(instances, batch) -> list[list[int]]:
    """``neural.length_chunks`` of the instances ``batch``, as
    ``_minibatch_gradients`` groups them: positions in ``batch``."""
    return neural.length_chunks(
        [max(map(len, instances[j].ids)) for j in batch], [len(instances[j].ids) for j in batch]
    )


def visit_order(instances, batch) -> list[int]:
    """The instances of ``batch`` in the order their chunks score them."""
    return [int(batch[k]) for chunk in batch_chunks(instances, batch) for k in chunk]


class TestFusedMinibatch:
    """trainer._minibatch_gradients against the per-instance reference."""

    # with FUSE_ROWS = 8 the batch 4, 1, 2, 0, 3 of these instances (longest
    # rows 4, 5, 5, 4, 5 words) is chunked by length: instance 0 (3 rows),
    # instance 3 alone (9 rows, over budget), instance 4, then instances 1
    # and 2 together
    ROWS = (3, 5, 2, 9, 4)

    def test_fused_gradients_match_finite_differences(self, monkeypatch):
        monkeypatch.setattr(neural, "FUSE_ROWS", 8)
        params = RerankerParams.initialize(SMALL, seed=30)
        monkeypatch.setattr(neural, "pad_ids", padding_with(5))
        instances = small_instances(np.random.default_rng(30), self.ROWS)
        batch = np.array([4, 1, 2, 0, 3])
        assert batch_chunks(instances, batch) == [[3], [4], [0], [1, 2]]
        config = TrainConfig(dropout=0.3, seed=7)
        grads = params.zero_grads()
        trainer._minibatch_gradients(params, instances, batch, config, 2, grads)

        def loss_fn():
            # each instance's own softmax and dropout draw, scored alone
            total = 0.0
            for j in batch:
                x = instances[j]
                mask = reference_dropout_mask(
                    (len(x.ids), SMALL.phi_dim), 0.3, derive_seed(7, "dropout", 2, int(j))
                )
                u, _ = score_alone(params, x, dropout_mask=mask)
                total += contrastive_loss(u, 0)[0]
            return total

        bad = finite_difference_check(params, loss_fn, grads)
        assert bad is None, f"gradient mismatch in {bad}"

    def test_padding_gets_exactly_zero_gradient(self, monkeypatch):
        monkeypatch.setattr(neural, "FUSE_ROWS", 8)
        params = RerankerParams.initialize(SMALL, seed=31)
        config = TrainConfig(dropout=0.3, seed=8)
        results = []
        for pad_id in (0, SMALL.vocab_size - 1):
            instances = small_instances(np.random.default_rng(31), self.ROWS)
            grads = params.zero_grads()
            with monkeypatch.context() as m:
                m.setattr(neural, "pad_ids", padding_with(pad_id))
                losses = trainer._minibatch_gradients(params, instances, np.arange(5), config, 0, grads)
            results.append((losses, grads))
        (losses0, grads0), (losses1, grads1) = results
        assert losses0 == losses1
        for name in grads0:
            np.testing.assert_array_equal(grads0[name], grads1[name], err_msg=name)
        # real words are 1 .. vocab_size - 2, so ids 0 and vocab_size - 1
        # only ever pad
        assert not np.any(grads0["emb"][[0, SMALL.vocab_size - 1]])
        assert np.any(grads0["emb"][1 : SMALL.vocab_size - 1])

    def test_fused_gradients_equal_per_instance_reference(self, mini_world):
        params = RerankerParams.initialize(mini_world["dims"], seed=6)
        instances = mini_world["instances"]
        batch = np.random.default_rng(6).permutation(len(instances))[:40]
        n_chunks = len(batch_chunks(instances, batch))
        assert 1 < n_chunks < len(batch) // 2
        config = TrainConfig(dropout=0.2, seed=6)
        fused, ref = params.zero_grads(), params.zero_grads()
        losses = trainer._minibatch_gradients(params, instances, batch, config, 1, fused)
        ref_losses = reference_minibatch_gradients(params, instances, batch, config, 1, ref)
        np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
        for name in ref:
            scale = np.max(np.abs(ref[name]))
            assert scale > 0, name
            assert np.max(np.abs(fused[name] - ref[name])) <= 1e-12 * scale, name

    def test_stacked_masks_equal_per_instance_draws(self, mini_world, monkeypatch):
        seen = []

        def recording(*args, dropout_mask=None, **kwargs):
            seen.append(dropout_mask)
            return score_batch(*args, dropout_mask=dropout_mask, **kwargs)

        monkeypatch.setattr(neural, "score_batch", recording)
        params = RerankerParams.initialize(mini_world["dims"], seed=7)
        instances = mini_world["instances"]
        batch = np.random.default_rng(7).permutation(len(instances))[:30]
        config = TrainConfig(dropout=0.2, seed=11)
        trainer._minibatch_gradients(params, instances, batch, config, 3, params.zero_grads())
        assert len(seen) > 1
        # stacked in the order the length-grouped chunks visit the instances
        expected = np.concatenate(
            [
                reference_dropout_mask(
                    (len(instances[j].ids), mini_world["dims"].phi_dim),
                    0.2,
                    derive_seed(11, "dropout", 3, int(j)),
                )
                for j in visit_order(instances, batch)
            ]
        )
        np.testing.assert_array_equal(np.concatenate(seen), expected)

    def test_losses_in_batch_order_when_chunks_reorder(self, monkeypatch):
        monkeypatch.setattr(neural, "FUSE_ROWS", 8)
        params = RerankerParams.initialize(SMALL, seed=32)
        instances = sized_instances(np.random.default_rng(32), [(3, 6), (2, 1), (4, 3), (3, 2), (2, 5)])
        batch = np.array([0, 4, 2, 3, 1])
        # longest first in batch order, so sorting reverses it
        assert visit_order(instances, batch) == [1, 3, 2, 4, 0]
        config = TrainConfig(dropout=0.3, seed=12)
        losses = trainer._minibatch_gradients(params, instances, batch, config, 1, params.zero_grads())
        ref = reference_minibatch_gradients(params, instances, batch, config, 1, params.zero_grads())
        np.testing.assert_allclose(losses, ref, rtol=1e-12, atol=0)
        assert len(set(losses)) == len(batch)

    def test_dropout_rows_follow_their_instance(self, monkeypatch):
        seen = []

        def recording(params, parts, dropout_mask=None):
            seen.append((parts, dropout_mask))
            return neural.score_inputs(params, parts, dropout_mask=dropout_mask)

        monkeypatch.setattr(trainer, "score_inputs", recording)
        monkeypatch.setattr(neural, "FUSE_ROWS", 8)
        params = RerankerParams.initialize(SMALL, seed=33)
        instances = sized_instances(
            np.random.default_rng(33), [(3, 6), (2, 1), (4, 3), (3, 2), (2, 5), (3, 4)]
        )
        batch = np.array([5, 0, 4, 2, 3, 1])
        config = TrainConfig(dropout=0.3, seed=13)
        trainer._minibatch_gradients(params, instances, batch, config, 4, params.zero_grads())
        visited = []
        for parts, mask in seen:
            row = 0
            for x in parts:
                (j,) = [j for j in batch if instances[j] is x]
                own = mask[row : row + len(x.ids)]
                row += len(x.ids)
                expected = reference_dropout_mask(
                    (len(x.ids), SMALL.phi_dim), 0.3, derive_seed(13, "dropout", 4, int(j))
                )
                np.testing.assert_array_equal(own, expected)
                visited.append(int(j))
            assert row == len(mask)
        assert sorted(visited) == sorted(batch.tolist())
        assert visited != batch.tolist()

    def test_length_chunks_pad_less_than_in_order_chunks(self, mini_world):
        instances = mini_world["instances"]
        rng = np.random.default_rng(34)
        for _ in range(5):
            batch = rng.permutation(len(instances))[:64]
            rows = [instances[j].ids for j in batch]
            grouped = padded_cells(rows, batch_chunks(instances, batch))
            in_order = padded_cells(rows, in_order_chunks(list(map(len, rows)), neural.FUSE_ROWS))
            assert grouped < in_order

    def test_no_dropout_passes_no_mask(self, mini_world, monkeypatch):
        seen = []

        def recording(*args, dropout_mask=None, **kwargs):
            seen.append(dropout_mask)
            return score_batch(*args, dropout_mask=dropout_mask, **kwargs)

        monkeypatch.setattr(neural, "score_batch", recording)
        params = RerankerParams.initialize(mini_world["dims"], seed=7)
        config = TrainConfig(dropout=0.0, seed=11)
        trainer._minibatch_gradients(
            params, mini_world["instances"], np.arange(20), config, 0, params.zero_grads()
        )
        assert seen and all(mask is None for mask in seen)

    def test_non_finite_loss_names_its_instance(self, mini_world):
        instances = list(mini_world["instances"][:20])
        bad = instances[13]
        instances[13] = RerankerInputs(bad.ids, bad.bins, np.full_like(bad.ngram_feats, np.inf))
        params = RerankerParams.initialize(mini_world["dims"], seed=8)
        config = TrainConfig(batch_size=8, max_epochs=1, seed=0)
        with pytest.raises(RuntimeError, match=r"non-finite loss at epoch 0, instance 13$"):
            train_reranker(instances, mini_world["heldout3"], params, config)

    def test_training_matches_per_instance_reference(self, mini_world):
        config = TrainConfig(lr=0.1, dropout=0.2, max_epochs=3, patience=3, batch_size=16, seed=9)
        runs = []
        for train in (train_reranker, reference_train_reranker):
            params = RerankerParams.initialize(mini_world["dims"], seed=9)
            runs.append(train(mini_world["instances"], mini_world["heldout"], params, config))
        (best, logs), (ref_best, ref_logs) = runs
        assert [(l.epoch, l.heldout_wer, l.lr) for l in logs] == [
            (l.epoch, l.heldout_wer, l.lr) for l in ref_logs
        ]
        for log, ref_log in zip(logs, ref_logs):
            assert math.isclose(log.mean_loss, ref_log.mean_loss, rel_tol=1e-9)
        for name, tensor in ref_best.tensors.items():
            np.testing.assert_allclose(best.tensors[name], tensor, rtol=1e-9, atol=1e-12, err_msg=name)


class TestChunkedScoring:
    """Held-out WER and decoding score many lists per call; each list's
    scores equal those of one call per list."""

    def test_heldout_wer_matches_one_list_per_call(self, mini_world, monkeypatch):
        # the 100 held-out rows span several chunks
        monkeypatch.setattr(neural, "FUSE_ROWS", 32)
        vocab, full = mini_world["vocab"], mini_world["full"]
        lists = list(mini_world["world"].heldout)
        unequal = unequal_length_lists(mini_world["world"])
        for dataset in (lists, unequal, lists + unequal):
            heldout = prepare_heldout(dataset, vocab, mini_world["tables"], full)
            assert heldout.split.valid.sum() > neural.FUSE_ROWS
            for seed in range(3):
                params = RerankerParams.initialize(mini_world["dims"], seed=seed)
                assert math.isclose(
                    heldout_wer(params, heldout),
                    reference_heldout_wer(params, heldout),
                    rel_tol=1e-12, abs_tol=1e-12,
                )

    def test_score_hypotheses_matches_one_list_per_call(self, mini_world):
        vocab, tables, full = mini_world["vocab"], mini_world["tables"], mini_world["full"]
        params = RerankerParams.initialize(mini_world["dims"], seed=3)
        models = RerankModels(ngram=full, reranker=params, kb_index=tables, vocab=vocab)
        dataset = list(mini_world["world"].heldout) + unequal_length_lists(mini_world["world"])
        split = evaluation.read_split(dataset)
        scores, valid = evaluation.score_hypotheses(split, "reranker", models), split.valid
        for u, nbest in enumerate(dataset):
            lm_logprobs = score_sentences(full, [h for h, _ in nbest.hypotheses]).tolist()
            one = evaluation.read_split([nbest])
            (x,) = evaluation.reranker_inputs(one, one.vocab_ids(vocab), tables, lm_logprobs)
            own, _ = score_alone(params, x)
            np.testing.assert_allclose(scores["reranker"][u, valid[u]], own, rtol=1e-12, atol=1e-14)


class TestVocabularyLookups:
    """A split is encoded once: every component reads one id matrix, built by
    one ``Vocabulary.id_of`` per distinct word of the split."""

    @staticmethod
    def count_lookups(monkeypatch) -> list:
        calls = []
        id_of = Vocabulary.id_of
        monkeypatch.setattr(Vocabulary, "id_of", lambda self, word: calls.append(word) or id_of(self, word))
        return calls

    def test_split_encoded_once(self, mini_world, monkeypatch):
        vocab = mini_world["vocab"]
        lm = LstmLmParams.initialize(LstmLmDims(vocab_size=vocab.size, word_dim=4, lstm_dim=5), vocab)
        models = RerankModels(
            ngram=mini_world["full"], lstm=lm, reranker=RerankerParams.initialize(mini_world["dims"]),
            kb_index=mini_world["tables"], vocab=vocab,
        )
        dataset = list(mini_world["world"].heldout)
        words = {t for n in dataset for s in (n.reference, *(h for h, _ in n.hypotheses)) for t in s}
        calls = self.count_lookups(monkeypatch)
        evaluation.score_split(dataset, evaluation.COMPONENTS, models)
        assert len(calls) == len(set(calls)) and set(calls) <= words
        calls.clear()
        evaluation.score_hypotheses(evaluation.read_split(dataset), evaluation.COMPONENTS, models)
        assert len(calls) == len(set(calls)) and set(calls) <= words

    def test_lm_heldout_encoded_once_per_run(self, monkeypatch):
        corpus = corpus_from_lines(["a b c d", "a b c", "b c d e"] * 2)
        heldout = corpus_from_lines(["e d c b a", "c a"])
        vocab = build_vocabulary(corpus, min_count=0)
        config = TrainConfig(max_epochs=3, patience=3, batch_size=2)
        calls = self.count_lookups(monkeypatch)
        train_lstm_lm(corpus, vocab, config=config, dims=LstmLmDims(vocab.size, 4, 5), heldout=heldout)
        tokens = sum(len(s) for s in corpus) + sum(len(s) for s in heldout)
        assert len(calls) == tokens  # each sentence once, not once per epoch


class TestLstmLmGradients:
    @pytest.mark.parametrize("mode", ["full-softmax", "nce"])
    def test_gradients_match_finite_differences(self, mode):
        params, vocab = uniform_lm()
        rng = np.random.default_rng(6)
        for name in ("out_w", "out_b", "b"):
            params.tensors[name] = rng.uniform(-0.5, 0.5, params.tensors[name].shape)
        ids = np.array(vocab.encode(("a", "c", "b", "a")), dtype=np.intp)
        noise_ids = np.array([1, 4, 4, 0])
        log_kq = np.log(len(noise_ids) * np.full(params.dims.n_out, 1.0 / params.dims.n_out))

        def run(grads):
            if mode == "full-softmax":
                return trainer._lm_forward_backward_softmax(params, [ids], grads)
            return trainer._lm_forward_backward_nce(params, [ids], noise_ids, log_kq, grads)

        grads = params.zero_grads()
        run(grads)
        bad = finite_difference_check(params, lambda: run(params.zero_grads()), grads)
        assert bad is None, f"gradient mismatch in {bad}"


class TestBatchedLm:
    """The LM's padded-batch loss, gradients and scoring."""

    # the batches use word ids 1..6, so id 7 ("g") can pad
    WORDS = ("a", "b", "c", "d", "e", "f", "g", "h")
    LENGTHS = (0, 1, 3, 5)

    def setup_lm(self, seed=0, dims=(6, 8)):
        params, vocab = uniform_lm(self.WORDS, *dims)
        rng = np.random.default_rng(seed)
        for name, tensor in params.tensors.items():
            params.tensors[name] = tensor + rng.uniform(-0.5, 0.5, tensor.shape)
        rows = [rng.integers(1, 7, size=n).astype(np.intp) for n in self.LENGTHS]
        noise_ids = np.array([1, 4, 4, 0, 8])
        log_kq = np.log(len(noise_ids) * np.full(params.dims.n_out, 1.0 / params.dims.n_out))
        return params, rows, noise_ids, log_kq

    @staticmethod
    def run(params, mode, rows, noise_ids, log_kq, grads):
        if mode == "full-softmax":
            return trainer._lm_forward_backward_softmax(params, rows, grads)
        return trainer._lm_forward_backward_nce(params, rows, noise_ids, log_kq, grads)

    @pytest.mark.parametrize("mode", trainer.LM_MODES)
    def test_padded_batch_gradients_match_finite_differences(self, mode):
        params, rows, noise_ids, log_kq = self.setup_lm(seed=1)
        grads = params.zero_grads()
        self.run(params, mode, rows, noise_ids, log_kq, grads)
        bad = finite_difference_check(
            params, lambda: self.run(params, mode, rows, noise_ids, log_kq, params.zero_grads()), grads
        )
        assert bad is None, f"gradient mismatch in {bad}"

    @pytest.mark.parametrize("mode", trainer.LM_MODES)
    def test_every_trie_shape_matches_finite_differences(self, mode):
        # shared prefixes, identical rows, a row ending at an interior node
        # and an empty row: a node's gradient sums every position read there
        params, _, noise_ids, log_kq = self.setup_lm(seed=3)
        rows = [np.array(row, dtype=np.intp) for row in TRIE_SHAPE_ROWS]
        grads = params.zero_grads()
        self.run(params, mode, rows, noise_ids, log_kq, grads)
        bad = finite_difference_check(
            params, lambda: self.run(params, mode, rows, noise_ids, log_kq, params.zero_grads()), grads
        )
        assert bad is None, f"gradient mismatch in {bad}"

    @pytest.mark.parametrize("seed", [4, 5])
    def test_matches_padded_kernel(self, seed):
        # the state at every position bit for bit, and the gradients of a
        # gradient arriving at every position within 1e-12
        params, _, _, _ = self.setup_lm(seed=seed)
        t = params.tensors
        rng = np.random.default_rng(seed)
        rows = random_trie_rows(rng, 40, 7)
        batch = trainer._lm_forward(params, rows)
        ids, lengths = pad_ids(rows)
        real = np.arange(ids.shape[1] + 1) <= lengths[:, None]
        hs, steps = padded_lstm_forward(t["w"], t["b"], t["emb"][ids])
        assert np.array_equal(batch.hs, hs[real])
        assert len(batch.trie.tokens) - 1 < lengths.sum()

        dh = rng.normal(size=batch.hs.shape)
        grads = params.zero_grads()
        trainer._lm_backward(params, batch, dh, grads)
        grid = np.zeros(real.shape + (dh.shape[1],))
        grid[real] = dh
        expected = {name: np.zeros_like(t[name]) for name in ("w", "b", "emb")}
        padded_lstm_backward(t["w"], steps, grid.swapaxes(0, 1), ids, *expected.values())
        for name, tensor in expected.items():
            assert np.max(np.abs(grads[name] - tensor)) <= 1e-12 * np.max(np.abs(tensor)), name

    @pytest.mark.parametrize("mode", trainer.LM_MODES)
    def test_pad_id_leaves_loss_and_gradients_bit_identical(self, mode, monkeypatch):
        params, rows, noise_ids, log_kq = self.setup_lm(seed=2)
        results = {}
        for pad in (0, 7):
            def pad_with(seqs, pad=pad):
                ids, lengths = pad_ids(seqs)
                ids[np.arange(ids.shape[1]) >= lengths[:, None]] = pad
                return ids, lengths

            with monkeypatch.context() as m:
                m.setattr(trainer, "pad_ids", pad_with)
                grads = params.zero_grads()
                loss = self.run(params, mode, rows, noise_ids, log_kq, grads)
            results[pad] = (loss, grads)
        assert results[0][0] == results[7][0]
        for name in params.tensors:
            np.testing.assert_array_equal(results[0][1][name], results[7][1][name])
        # padded steps get exactly zero gradient: the pad word's embedding
        # row receives nothing
        assert not np.any(results[7][1]["emb"][7])

    @pytest.mark.parametrize("mode", trainer.LM_MODES)
    def test_batch_gradients_equal_sum_of_rows(self, mode):
        params, rows, noise_ids, log_kq = self.setup_lm(seed=3)
        batch = params.zero_grads()
        loss = self.run(params, mode, rows, noise_ids, log_kq, batch)
        summed = params.zero_grads()
        row_loss = 0.0
        for row in rows:
            row_loss += self.run(params, mode, [row], noise_ids, log_kq, summed)
        assert math.isclose(loss, row_loss, rel_tol=1e-12)
        for name in params.tensors:
            np.testing.assert_allclose(batch[name], summed[name], rtol=0, atol=1e-12)

    def test_logprobs_match_per_sentence_reference(self):
        rng = np.random.default_rng(5)
        n = 2 * neural.FUSE_ROWS + 7
        # 0-12 words: totals of 9+ terms take np.sum's pairwise branch
        sentences = [
            tuple(rng.choice(self.WORDS[:6], size=rng.integers(0, 13))) for _ in range(n)
        ]
        sentences[neural.FUSE_ROWS + 3] = ()
        sentences[0] = Sentence(("a", "zz", "b"))  # a Sentence, with an unknown word
        sentences[2] = tuple(rng.choice(self.WORDS[:6], size=12))
        sentences[1] = sentences[2][:5]  # a prefix of another sentence
        sentences[3] = sentences[4] = sentences[5]  # duplicates
        for dims in ((6, 8), (3, 5)):
            params, _, _, _ = self.setup_lm(seed=4, dims=dims)
            got = sentence_logprobs(params, sentences)
            assert got.shape == (n,)
            np.testing.assert_allclose(
                got, position_logprobs(params, sentences), rtol=0, atol=1e-12
            )
            for value, tokens in zip(got, sentences):
                expected = reference_lm_logprob(params, getattr(tokens, "tokens", tokens))
                assert math.isclose(value, expected, rel_tol=0, abs_tol=1e-12)
                alone = sentence_logprobs(params, [tokens])[0]
                assert math.isclose(value, alone, rel_tol=0, abs_tol=1e-12)
            assert params.sentence_logprob(sentences[0]) == got[0]
            assert sentence_logprobs(params, []).shape == (0,)


class TestLmLoopReference:
    """``train_lstm_lm`` runs the shared SGD loop (``trainer._sgd``); its
    tensors equal those of the LM's own epoch loop bit for bit."""

    CORPUS = ["a b c d", "a b c", "b c d e", "a c e", "d e a b"] * 3
    HELDOUT = ["e d c b a", "c a", "e e b"]

    @pytest.mark.parametrize("mode", trainer.LM_MODES)
    @pytest.mark.parametrize("with_heldout", [False, True])
    def test_tensors_bit_equal_reference_loop(self, mode, with_heldout):
        corpus = corpus_from_lines(self.CORPUS)
        heldout = corpus_from_lines(self.HELDOUT) if with_heldout else None
        vocab = build_vocabulary(corpus, min_count=0)
        dims = LstmLmDims(vocab_size=vocab.size, word_dim=5, lstm_dim=6)
        config = TrainConfig(lr=0.5, max_epochs=10, patience=2, batch_size=4, seed=5)
        kwargs = dict(mode=mode, nce_samples=7, config=config, dims=dims, heldout=heldout)
        got = train_lstm_lm(corpus, vocab, **kwargs)
        ref, epochs = reference_train_lstm_lm(corpus, vocab, **kwargs)
        if with_heldout:
            assert epochs < config.max_epochs  # patience stopped training early
        else:
            assert epochs == config.max_epochs
        for name, tensor in ref.tensors.items():
            np.testing.assert_array_equal(got.tensors[name], tensor, err_msg=name)


def uniform_lm(words=("a", "b", "c", "d"), word_dim=6, lstm_dim=8):
    corpus = corpus_from_lines([" ".join(words)])
    vocab = build_vocabulary(corpus, min_count=0)
    dims = LstmLmDims(vocab_size=vocab.size, word_dim=word_dim, lstm_dim=lstm_dim)
    return LstmLmParams.initialize(dims, vocab, seed=0), vocab


class TestLstmLm:
    def test_untrained_model_is_exactly_uniform(self):
        params, vocab = uniform_lm()
        n_out = params.dims.n_out
        ids = np.array(vocab.encode(("a", "b")), dtype=np.intp)
        hs, _ = lm_hidden_states(params, ids)
        logits = hs @ params.tensors["out_w"].T + params.tensors["out_b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        assert np.all(probs == 1.0 / n_out)

    def test_uniform_sentence_logprob(self):
        params, _ = uniform_lm()
        n_out = params.dims.n_out
        sent = Sentence(("a", "b", "c"))
        expected = 4.0 * (-math.log(n_out))
        assert math.isclose(params.sentence_logprob(sent), expected, rel_tol=1e-12)

    def test_per_token_distribution_sums_to_one(self):
        corpus = corpus_from_lines(["a b a c", "b a", "c c a"])
        vocab = build_vocabulary(corpus, min_count=0)
        dims = LstmLmDims(vocab_size=vocab.size, word_dim=6, lstm_dim=8)
        config = TrainConfig(lr=0.2, max_epochs=3, patience=3, seed=0)
        params = train_lstm_lm(corpus, vocab, config=config, dims=dims)
        ids = np.array(vocab.encode(("a", "b")), dtype=np.intp)
        hs, _ = lm_hidden_states(params, ids)
        logits = hs @ params.tensors["out_w"].T + params.tensors["out_b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_training_prefers_frequent_word(self):
        corpus = corpus_from_lines(["a a a b"] * 8)
        vocab = build_vocabulary(corpus, min_count=0)
        dims = LstmLmDims(vocab_size=vocab.size, word_dim=6, lstm_dim=8)
        config = TrainConfig(lr=0.3, max_epochs=12, patience=12, seed=1)
        params = train_lstm_lm(corpus, vocab, config=config, dims=dims)
        hs, _ = lm_hidden_states(params, np.array([], dtype=np.intp))
        logits = hs[0] @ params.tensors["out_w"].T + params.tensors["out_b"]
        assert logits[vocab.id_of("a")] > logits[vocab.id_of("b")]

    def test_logprob_matches_step_by_step_recomputation(self):
        corpus = corpus_from_lines(["a b c", "b c a", "c a b"])
        vocab = build_vocabulary(corpus, min_count=0)
        dims = LstmLmDims(vocab_size=vocab.size, word_dim=5, lstm_dim=7)
        config = TrainConfig(lr=0.2, max_epochs=2, patience=2, seed=2)
        params = train_lstm_lm(corpus, vocab, config=config, dims=dims)
        sent = Sentence(("a", "b", "c"))

        ids = vocab.encode(sent.tokens)
        h = np.zeros(dims.lstm_dim)
        c = np.zeros(dims.lstm_dim)
        states = [h.copy()]
        for wid in ids:
            h, c = lstm_step(
                params.tensors["w"], params.tensors["b"], h, c, params.tensors["emb"][wid]
            )
            states.append(h.copy())
        total = 0.0
        for h_t, target in zip(states, ids + [dims.eos_id]):
            logits = params.tensors["out_w"] @ h_t + params.tensors["out_b"]
            m = logits.max()
            total += logits[target] - m - math.log(np.exp(logits - m).sum())
        assert math.isclose(lm_logprob(params, sent), total, rel_tol=1e-10)

    def test_nce_and_softmax_agree_on_next_word_ranking(self):
        lines = ["a b", "a b", "a b", "a c", "d e", "d e"]
        corpus = corpus_from_lines(lines * 10)
        vocab = build_vocabulary(corpus, min_count=0)
        dims = LstmLmDims(vocab_size=vocab.size, word_dim=6, lstm_dim=8)
        ranking = {}
        for mode in ("full-softmax", "nce"):
            config = TrainConfig(lr=0.3, max_epochs=15, patience=15, seed=3)
            params = train_lstm_lm(corpus, vocab, mode=mode, nce_samples=20, config=config, dims=dims)
            ids = np.array(vocab.encode(("a",)), dtype=np.intp)
            hs, _ = lm_hidden_states(params, ids)
            logits = hs[1] @ params.tensors["out_w"].T + params.tensors["out_b"]
            ranking[mode] = logits[vocab.id_of("b")] > logits[vocab.id_of("c")]
        assert ranking["full-softmax"] == ranking["nce"]
        assert ranking["full-softmax"] is np.True_ or ranking["full-softmax"] is True

    def test_heldout_returns_best_checkpoint(self):
        corpus = corpus_from_lines(["a b c d"] * 10)
        heldout = corpus_from_lines(["a b c d", "b c d a"])
        vocab = build_vocabulary(corpus, min_count=0)
        dims = LstmLmDims(vocab_size=vocab.size, word_dim=5, lstm_dim=6)
        config = TrainConfig(lr=0.3, max_epochs=6, patience=2, seed=4)
        params = train_lstm_lm(corpus, vocab, config=config, dims=dims, heldout=heldout)
        assert np.isfinite(params.sentence_logprob(heldout[0]))

    def test_mode_validation(self):
        corpus = corpus_from_lines(["a b"])
        vocab = build_vocabulary(corpus, min_count=0)
        with pytest.raises(ValueError, match="unknown mode"):
            train_lstm_lm(corpus, vocab, mode="hierarchical")

    def test_checkpoint_roundtrip(self, tmp_path):
        params, vocab = uniform_lm()
        path = tmp_path / "lm.bin"
        params.save(path)
        loaded = LstmLmParams.load(path, vocab)
        assert loaded.vocab is vocab and loaded.dims == params.dims
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
        sent = Sentence(("a", "b"))
        assert loaded.sentence_logprob(sent) == params.sentence_logprob(sent)
        other = build_vocabulary(corpus_from_lines(["some other words"]), min_count=0)
        with pytest.raises(ArtifactError, match="vocabulary-hash mismatch"):
            LstmLmParams.load(path, other)
