import json
import math
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from kbrerank import neural
from kbrerank.artifacts import ArtifactError
from kbrerank.cli import load_feature_instances
from kbrerank.corpus import build_vocabulary, corpus_from_lines, pad_ids
from kbrerank.features import BIN_FIELDS
from kbrerank.neural import (
    RerankerDims,
    RerankerParams,
    RerankerRows,
    _sigmoid,
    backprop_batch,
    contrastive_loss,
    draw_dropout,
    length_chunks,
    score_batch,
    score_lists,
    sgd_momentum_update,
)
from oracles import (
    TRIE_SHAPE_ROWS,
    TRIE_SHAPE_SIZES,
    finite_difference_check,
    force_lstm_path,
    in_order_chunks,
    lstm_final_states,
    lstm_step,
    masked_sigmoid,
    padded_cells,
    padded_lstm_gradients,
    random_trie_rows,
    reference_sgd_momentum_update,
    reranker_rows,
    score,
    score_alone,
    sentence_representation,
)
from test_acceptance import FIXTURE_SETS, SEED, SMALL_SETS

TINY = RerankerDims(
    vocab_size=20, word_dim=8, lstm_dim=8, hidden_dim=8,
    co_dim=4, freq_dim=4, cross_dim=4, intra_dim=4,
)


def tiny_instance(rng, n_candidates=6, length=4):
    ids = rng.integers(0, TINY.vocab_size, size=(n_candidates, length))
    rows = [
        [rng.random() * 10, *(rng.integers(0, count) for _, count in BIN_FIELDS)]
        for _ in range(n_candidates)
    ]
    feats = np.array([row[0] for row in rows], dtype=float)
    bins = np.array([row[1:] for row in rows], dtype=np.intp).reshape(-1, len(BIN_FIELDS))
    return ids, bins, feats



def check_gradients(params, loss_fn, grads, h=1e-5):
    bad = finite_difference_check(params, loss_fn, grads, h=h)
    assert bad is None, f"gradient mismatch in {bad}"


class TestLstmStep:
    def test_zero_everything_gives_zero_state(self):
        h, c = lstm_step(np.zeros((8, 4)), np.zeros(8), np.zeros(2), np.zeros(2), np.zeros(2))
        assert np.all(h == 0.0) and np.all(c == 0.0)

    def test_output_bounded(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(16, 9)) * 3
        b = rng.normal(size=16) * 3
        h, _ = lstm_step(w, b, rng.normal(size=4), rng.normal(size=4), rng.normal(size=5))
        assert np.all(np.abs(h) < 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            lstm_step(np.zeros((8, 5)), np.zeros(8), np.zeros(2), np.zeros(2), np.zeros(2))


class TestRepresentation:
    def test_length_one(self):
        params = RerankerParams.initialize(TINY, seed=1)
        rep = sentence_representation(params, [3])
        assert rep.shape == (2 * TINY.lstm_dim,)

    def test_palindrome_with_tied_directions(self):
        params = RerankerParams.initialize(TINY, seed=2)
        params.tensors["bwd_w"] = params.tensors["fwd_w"].copy()
        params.tensors["bwd_b"] = params.tensors["fwd_b"].copy()
        rep = sentence_representation(params, [4, 9, 2, 9, 4])
        h = TINY.lstm_dim
        np.testing.assert_allclose(rep[:h], rep[h:], atol=1e-15)

    def test_zero_parameters_give_zero_vector(self):
        params = RerankerParams.initialize(TINY, seed=3)
        for t in params.tensors.values():
            t[:] = 0.0
        assert np.all(sentence_representation(params, [1, 2, 3]) == 0.0)


class TestScore:
    def test_alpha1_zero_passes_through_ngram_feature(self):
        params = RerankerParams.initialize(TINY, seed=4)
        params.tensors["alpha"][:] = (0.0, 2.0)
        result = score(params, [1, 2, 3], [1, 2, 3, 4, 5], 3.5)
        assert math.isclose(result.u, 2.0 * 3.5, rel_tol=1e-12)

    def test_zero_output_vector_gives_zero_deep_score(self):
        params = RerankerParams.initialize(TINY, seed=5)
        params.tensors["out_w"][:] = 0.0
        assert score(params, [1, 2], [0, 0, 0, 0, 0], 1.0).s == 0.0

    def test_out_of_range_bin_rejected(self):
        params = RerankerParams.initialize(TINY, seed=6)
        ids = np.array([[1, 2]])
        bins = np.array([[10, 0, 0, 0, 0]])
        with pytest.raises(ValueError, match="feature bin out of range for cooccurrence_bin"):
            score_batch(params, ids, bins, np.array([1.0]))
        with pytest.raises(ValueError, match=r"bins must be shaped \(batch, 5\)"):
            score_batch(params, ids, bins[:, :4], np.array([1.0]))

    def test_dropout_deterministic_under_seed(self):
        params = RerankerParams.initialize(TINY, seed=7)
        rng = np.random.default_rng(0)
        ids, bins, feats = tiny_instance(rng)
        shape = (ids.shape[0], TINY.phi_dim)
        u1, _ = score_batch(params, ids, bins, feats, dropout_mask=draw_dropout(shape, 0.4, 5))
        u2, _ = score_batch(params, ids, bins, feats, dropout_mask=draw_dropout(shape, 0.4, 5))
        u3, _ = score_batch(params, ids, bins, feats, dropout_mask=draw_dropout(shape, 0.4, 6))
        np.testing.assert_array_equal(u1, u2)
        assert not np.array_equal(u1, u3)

    def test_inference_ignores_dropout(self):
        # no mask is no dropout: the same scores as a mask that keeps every unit
        params = RerankerParams.initialize(TINY, seed=8)
        rng = np.random.default_rng(1)
        ids, bins, feats = tiny_instance(rng)
        u1, _ = score_batch(params, ids, bins, feats, dropout_mask=np.ones((ids.shape[0], TINY.phi_dim)))
        u2, _ = score_batch(params, ids, bins, feats)
        np.testing.assert_array_equal(u1, u2)

    def test_dropout_mask_shape_checked(self):
        params = RerankerParams.initialize(TINY, seed=8)
        ids, bins, feats = tiny_instance(np.random.default_rng(1))
        with pytest.raises(ValueError, match="dropout_mask"):
            score_batch(params, ids, bins, feats, dropout_mask=np.ones((1, TINY.phi_dim)))

    def test_batched_equals_single_candidate_scoring(self):
        params = RerankerParams.initialize(TINY, seed=9)
        rng = np.random.default_rng(2)
        ids, bins, feats = tiny_instance(rng)
        u, _ = score_batch(params, ids, bins, feats)
        for i in range(ids.shape[0]):
            single = score(params, ids[i], bins[i], feats[i])
            assert math.isclose(single.u, u[i], rel_tol=1e-12)


class TestBinTable:
    # the bin layout written out, so a swapped or mislabelled row of the
    # table fails: bins column, features.jsonl field, embedding, width field
    LAYOUT = (
        (0, "cooccurrence_bin", "co_emb", "co_dim"),
        (1, "artist_freq_bin", "artist_emb", "freq_dim"),
        (2, "song_freq_bin", "song_emb", "freq_dim"),
        (3, "cross_npmi_bin", "cross_emb", "cross_dim"),
        (4, "intra_npmi_bin", "intra_emb", "intra_dim"),
    )
    DIMS = RerankerDims(
        vocab_size=20, word_dim=3, lstm_dim=2, hidden_dim=4,
        co_dim=3, freq_dim=4, cross_dim=5, intra_dim=6,
    )
    ROW = {
        "cooccurrence_bin": 7, "artist_freq_bin": 11, "song_freq_bin": 22,
        "cross_npmi_bin": 33, "intra_npmi_bin": 44,
    }

    def test_bin_fields_follow_layout(self):
        assert [name for name, _ in BIN_FIELDS] == [field for _, field, _, _ in self.LAYOUT]

    def test_loader_files_each_bin_under_its_column(self, tmp_path):
        # the source row holds ROW's bins, its negative each bin plus one
        path = tmp_path / "features.jsonl"
        rows = [
            {"sentence_id": 0, "hypothesis_id": h, "tokens": ["a"],
             "ngram_negative_logprob": 2.5, **{f: v + h for f, v in self.ROW.items()}}
            for h in (0, 1)
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        vocab = build_vocabulary(corpus_from_lines(["a"]))
        inputs = load_feature_instances(path, vocab)
        assert len(inputs) == 1 and inputs.starts.tolist() == [0, 2]
        assert inputs.bins.shape == (2, len(self.LAYOUT)) and inputs.bins.dtype == np.intp
        for column, field, _, _ in self.LAYOUT:
            assert inputs.bins[:, column].tolist() == [self.ROW[field], self.ROW[field] + 1]
        assert inputs.ngram_feats.tolist() == [2.5, 2.5]

    def test_phi_holds_each_embedding_row_at_its_offset(self):
        params = RerankerParams.initialize(self.DIMS, seed=0)
        bins = np.array([[self.ROW[field] for _, field, _, _ in self.LAYOUT]])
        _, cache = score_batch(params, np.array([[1, 2, 3]]), bins, np.array([2.5]))
        offset = 2 * self.DIMS.lstm_dim
        for _, field, emb, width_field in self.LAYOUT:
            width = getattr(self.DIMS, width_field)
            expected = params.tensors[emb][self.ROW[field]]
            np.testing.assert_array_equal(cache.phi[0, offset : offset + width], expected)
            offset += width
        assert offset == self.DIMS.phi_dim == cache.phi.shape[1]

    def test_tensor_creation_order(self):
        # seeded initialization draws the tensors in this order
        params = RerankerParams.initialize(self.DIMS, seed=0)
        assert list(params.tensors) == [
            "emb", "fwd_w", "fwd_b", "bwd_w", "bwd_b",
            *(emb for _, _, emb, _ in self.LAYOUT),
            "hidden_w", "out_w", "alpha",
        ]


class TestGradients:
    def test_u_gradient_matches_finite_differences(self):
        params = RerankerParams.initialize(TINY, seed=10)
        rng = np.random.default_rng(3)
        ids, bins, feats = tiny_instance(rng, n_candidates=1, length=3)

        u, cache = score_batch(params, ids, bins, feats)
        grads = backprop_batch(params, cache, np.ones(1))

        def loss_fn():
            out, _ = score_batch(params, ids, bins, feats)
            return float(out[0])

        check_gradients(params, loss_fn, grads)

    def test_contrastive_loss_gradient_matches_finite_differences(self):
        params = RerankerParams.initialize(TINY, seed=11)
        rng = np.random.default_rng(4)
        ids, bins, feats = tiny_instance(rng, n_candidates=6, length=4)

        u, cache = score_batch(params, ids, bins, feats)
        _, du = contrastive_loss(u, 0)
        grads = backprop_batch(params, cache, du)

        def loss_fn():
            out, _ = score_batch(params, ids, bins, feats)
            return contrastive_loss(out, 0)[0]

        check_gradients(params, loss_fn, grads)


def padded_instance(rng, lengths, pad_id=0):
    """Random candidates of the given lengths, right-padded with ``pad_id``."""
    rows = [rng.integers(0, TINY.vocab_size, size=n) for n in lengths]
    ids, lens = pad_ids(rows)
    ids[np.arange(ids.shape[1]) >= lens[:, None]] = pad_id
    _, bins, feats = tiny_instance(rng, n_candidates=len(lengths), length=1)
    return ids, lens, bins, feats


class TestPaddedBatch:
    def test_pad_ids_layout(self):
        ids, lengths = pad_ids([[3, 4], [5], [6, 7, 8]])
        np.testing.assert_array_equal(ids, [[3, 4, 0], [5, 0, 0], [6, 7, 8]])
        np.testing.assert_array_equal(lengths, [2, 1, 3])

    def test_gradients_match_finite_differences_on_padded_batch(self):
        params = RerankerParams.initialize(TINY, seed=14)
        rng = np.random.default_rng(8)
        ids, lengths, bins, feats = padded_instance(rng, (1, 3, 5), pad_id=7)

        u, cache = score_batch(params, ids, bins, feats, lengths=lengths)
        _, du = contrastive_loss(u, 0)
        grads = backprop_batch(params, cache, du)

        def loss_fn():
            out, _ = score_batch(params, ids, bins, feats, lengths=lengths)
            return contrastive_loss(out, 0)[0]

        check_gradients(params, loss_fn, grads)

    @pytest.mark.parametrize("train_mode", [False, True])
    def test_padding_contributes_exactly_zero(self, train_mode):
        params = RerankerParams.initialize(TINY, seed=15)
        results = []
        for pad_id in (0, 7, 19):
            rng = np.random.default_rng(9)
            ids, lengths, bins, feats = padded_instance(rng, (2, 5, 1, 4), pad_id=pad_id)
            mask = draw_dropout((len(lengths), TINY.phi_dim), 0.3, 4) if train_mode else None
            u, cache = score_batch(params, ids, bins, feats, lengths=lengths, dropout_mask=mask)
            _, du = contrastive_loss(u, 1)
            results.append((u, backprop_batch(params, cache, du)))
        (u0, g0), *others = results
        for u, g in others:
            np.testing.assert_array_equal(u, u0)
            for name in g0:
                np.testing.assert_array_equal(g[name], g0[name], err_msg=name)

    def test_each_row_matches_row_scored_alone(self):
        params = RerankerParams.initialize(TINY, seed=16)
        rng = np.random.default_rng(10)
        lengths = (3, 1, 6, 2, 6, 4)
        ids, lens, bins, feats = padded_instance(rng, lengths, pad_id=5)
        u, cache = score_batch(params, ids, bins, feats, lengths=lens)
        du = rng.normal(size=len(lengths))
        batch_grads = backprop_batch(params, cache, du)
        row_grads = params.zero_grads()
        for r, n in enumerate(lengths):
            alone, alone_cache = score_batch(params, ids[r : r + 1, :n], bins[r : r + 1], feats[r : r + 1])
            assert abs(alone[0] - u[r]) <= 1e-12
            backprop_batch(params, alone_cache, du[r : r + 1], out=row_grads)
        for name in batch_grads:
            np.testing.assert_allclose(
                batch_grads[name], row_grads[name], rtol=1e-10, atol=1e-14, err_msg=name
            )

    def test_final_states_match_per_step_reference(self):
        # the backward direction must start at each row's own last token
        params = RerankerParams.initialize(TINY, seed=17)
        rng = np.random.default_rng(11)
        lengths = (4, 1, 2, 4, 3)
        ids, lens, bins, feats = padded_instance(rng, lengths, pad_id=2)
        _, cache = score_batch(params, ids, bins, feats, lengths=lens)
        for r, n in enumerate(lengths):
            np.testing.assert_allclose(
                cache.phi[r, : 2 * TINY.lstm_dim],
                lstm_final_states(params, ids[r, :n]),
                rtol=0.0, atol=1e-12,
            )

    def test_equal_lengths_default(self):
        params = RerankerParams.initialize(TINY, seed=18)
        rng = np.random.default_rng(12)
        ids, bins, feats = tiny_instance(rng)
        u_default, _ = score_batch(params, ids, bins, feats)
        u_explicit, _ = score_batch(
            params, ids, bins, feats, lengths=np.full(ids.shape[0], ids.shape[1])
        )
        np.testing.assert_array_equal(u_default, u_explicit)

    # a length of 0 is an empty hypothesis (TestEmptyRows); -1 is not a length
    @pytest.mark.parametrize("lengths", [(-1, 3), (4, 3), (3,), (3, 3, 3)])
    def test_bad_lengths_rejected(self, lengths):
        params = RerankerParams.initialize(TINY, seed=19)
        rng = np.random.default_rng(13)
        ids, bins, feats = tiny_instance(rng, n_candidates=2, length=3)
        with pytest.raises(ValueError, match="lengths"):
            score_batch(params, ids, bins, feats, lengths=np.array(lengths))


class TestEmptyRows:
    """A row of length 0, an empty hypothesis, reads both directions' zero
    start state; its padding reaches no score and no gradient."""

    def test_mixed_batch(self):
        params = RerankerParams.initialize(TINY, seed=20)
        rng = np.random.default_rng(14)
        _, bins, feats = tiny_instance(rng, n_candidates=3, length=1)
        ids, lengths = pad_ids([[], [4, 9, 2], []])
        u, cache = score_batch(params, ids, bins, feats, lengths=lengths)
        assert np.all(cache.phi[[0, 2], : 2 * TINY.lstm_dim] == 0.0)
        alone, _ = score_batch(params, ids[1:2], bins[1:2], feats[1:2])
        assert math.isclose(u[1], alone[0], rel_tol=1e-12)
        # an empty row scores as the same row padded with any ids
        ids[0] = 7
        again, _ = score_batch(params, ids, bins, feats, lengths=lengths)
        np.testing.assert_array_equal(u, again)

    def test_mixed_batch_gradients_match_finite_differences(self):
        params = RerankerParams.initialize(TINY, seed=21)
        rng = np.random.default_rng(15)
        _, bins, feats = tiny_instance(rng, n_candidates=3, length=1)
        ids, lengths = pad_ids([[3, 5], [], [1, 2, 6]])
        u, cache = score_batch(params, ids, bins, feats, lengths=lengths)
        _, du = contrastive_loss(u, 1)
        grads = backprop_batch(params, cache, du)

        def loss_fn():
            out, _ = score_batch(params, ids, bins, feats, lengths=lengths)
            return contrastive_loss(out, 1)[0]

        check_gradients(params, loss_fn, grads)

    def test_all_empty_batch(self):
        params = RerankerParams.initialize(TINY, seed=22)
        _, bins, feats = tiny_instance(np.random.default_rng(16), n_candidates=2, length=1)
        ids, lengths = pad_ids([[], []])
        assert ids.shape == (2, 0)
        u, cache = score_batch(params, ids, bins, feats, lengths=lengths)
        assert np.all(np.isfinite(u))
        grads = backprop_batch(params, cache, np.ones(2))
        for name in ("emb", "fwd_w", "fwd_b", "bwd_w", "bwd_b"):
            assert not grads[name].any(), name
        assert grads["hidden_w"].any()


class TestPrefixTrie:
    """``neural._prefix_trie``: one node per distinct nonempty prefix,
    numbered by depth, each node's children consecutive."""

    @staticmethod
    def check(rows):
        ids, lengths = pad_ids(rows)
        trie = neural._prefix_trie(ids, lengths)
        prefixes = {tuple(row[:n]) for row in rows for n in range(1, len(row) + 1)}
        assert len(trie.tokens) == 1 + len(prefixes)
        for r, row in enumerate(rows):
            path = trie.paths[r, : len(row) + 1]
            assert path[0] == 0
            assert trie.tokens[path[1:]].tolist() == list(row)
            assert trie.parents[path[1:]].tolist() == path[:-1].tolist()
        for t in range(1, len(trie.bounds)):
            lo, hi = trie.bounds[t - 1], trie.bounds[t]
            # a depth's parents are the depth before it, in order
            assert np.all(np.diff(trie.parents[lo:hi]) >= 0)
            assert np.all(trie.parents[lo:hi] >= (trie.bounds[t - 2] if t > 1 else 0))
            assert np.all(trie.parents[lo:hi] < lo)
            starts, parents = trie.runs(t)
            assert starts[0] == 0 and parents.tolist() == sorted(set(trie.parents[lo:hi].tolist()))
        return trie

    def test_every_shape(self):
        trie = self.check(TRIE_SHAPE_ROWS)
        # the two instances share the nodes of 1 and 1 2, and 1 2 3 4 is
        # one node for the source and its copy; the prefix 1 2 ends at an
        # interior node, and the empty row at the root
        assert len(trie.tokens) == 1 + 13
        assert trie.paths[0, 4] == trie.paths[3, 4]
        assert trie.paths[4, 2] == trie.paths[0, 2] == trie.paths[6, 2]
        assert trie.paths[5, 0] == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_rows(self, seed):
        rng = np.random.default_rng(seed)
        self.check(random_trie_rows(rng, int(rng.integers(1, 60)), 6))

    def test_no_rows_and_empty_rows(self):
        for rows in ([], [[]], [[], []]):
            trie = self.check(rows)
            assert trie.bounds == [1]


def trie_shape_chunk(rng, dims=TINY):
    """``TRIE_SHAPE_ROWS`` padded, with random bins and n-gram features."""
    ids, lengths = pad_ids(TRIE_SHAPE_ROWS)
    _, bins, feats = tiny_instance(rng, n_candidates=len(lengths), length=1)
    return ids, lengths, bins, feats


def instance_losses(u, sizes=TRIE_SHAPE_SIZES):
    """Each instance's own softmax over its rows, correct row first."""
    bounds = np.cumsum((0, *sizes))
    out = [contrastive_loss(u[a:b], 0) for a, b in zip(bounds, bounds[1:])]
    return sum(loss for loss, _ in out), np.concatenate([du for _, du in out])


class TestTrieKernel:
    """The prefix-trie LSTM kernel against finite differences and against
    the padded kernel it replaced (``oracles.padded_lstm_forward``)."""

    def test_every_trie_shape_matches_finite_differences(self):
        # C1's check, on one chunk of two instances with every trie shape
        params = RerankerParams.initialize(TINY, seed=SEED)
        ids, lengths, bins, feats = trie_shape_chunk(np.random.default_rng(SEED))
        u, cache = score_batch(params, ids, bins, feats, lengths=lengths)
        _, du = instance_losses(u)
        grads = backprop_batch(params, cache, du)

        def loss_fn():
            out, _ = score_batch(params, ids, bins, feats, lengths=lengths)
            return instance_losses(out)[0]

        bad = finite_difference_check(params, loss_fn, grads, rel=1e-4)
        assert bad is None, f"gradient mismatch in tensor {bad}"
        assert np.any(grads["emb"][6] != 0.0)

    @pytest.mark.parametrize(
        "dims, seed",
        [((8, 8), 0), ((8, 8), 1), ((12, 12), 2), ((32, 32), 3), ((32, 32), 4)],
    )
    def test_matches_padded_kernel(self, dims, seed):
        e_dim, hid = dims
        rng = np.random.default_rng(seed)
        vocab = 30
        emb = rng.uniform(-0.5, 0.5, (vocab, e_dim))
        w = rng.uniform(-0.3, 0.3, (4 * hid, e_dim + hid))
        b = rng.uniform(-0.3, 0.3, 4 * hid)
        rows = random_trie_rows(rng, int(rng.integers(16, 48)), vocab)
        ids, lengths = pad_ids(rows)
        dh_end = rng.normal(size=(len(rows), hid))
        hs_pad, d_w_pad, d_b_pad, d_emb_pad = padded_lstm_gradients(w, b, emb, ids, lengths, dh_end)

        trie = neural._prefix_trie(ids, lengths)
        hs, acts = neural._lstm_forward(w, b, emb, trie)
        # every row's state after each of its prefixes, bit for bit
        real = np.arange(ids.shape[1] + 1) <= lengths[:, None]
        assert np.array_equal(hs[trie.paths[real]], hs_pad[real])
        assert np.array_equal(neural._lstm_forward(w, b, emb, trie, False)[0], hs)
        assert len(trie.tokens) - 1 < lengths.sum()  # prefixes were shared

        ends = trie.paths[np.arange(len(rows)), lengths]
        dh = np.zeros_like(hs)
        np.add.at(dh, ends, dh_end)
        grads = (np.zeros_like(w), np.zeros_like(b), np.zeros_like(emb))
        assert neural._lstm_backward(w, acts, trie, dh, *grads) is None
        for got, expected in zip(grads, (d_w_pad, d_b_pad, d_emb_pad)):
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_unkept_cache_refuses_backprop(self):
        params = RerankerParams.initialize(TINY, seed=1)
        ids, lengths, bins, feats = trie_shape_chunk(np.random.default_rng(1))
        u, cache = score_batch(params, ids, bins, feats, lengths=lengths, keep=False)
        assert cache.acts_f is None and cache.acts_b is None
        assert np.array_equal(u, score_batch(params, ids, bins, feats, lengths=lengths)[0])
        with pytest.raises(ValueError, match="keep=True"):
            backprop_batch(params, cache, np.ones(len(u)))


class TestSigmoid:
    def test_tanh_form_matches_exp_form(self):
        x = np.concatenate([np.linspace(-800.0, 800.0, 200001), [-745.2, -37.0, 0.0, 37.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(x)
            expected = masked_sigmoid(x)
        # within machine epsilon, one ulp at 1.0 (2.2e-16)
        assert np.max(np.abs(got - expected)) <= np.finfo(float).eps
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_input_left_unchanged(self):
        x = np.array([[-3.0, 0.5], [2.0, -0.25]])
        before = x.copy()
        _sigmoid(x)
        np.testing.assert_array_equal(x, before)


def random_group(rng, lengths, dims=TINY):
    """One group for ``reranker_rows``: candidates of the given lengths, their
    words drawn from 1 .. vocab_size - 2."""
    rows = [rng.integers(1, dims.vocab_size - 1, size=n).tolist() for n in lengths]
    _, bins, feats = tiny_instance(rng, n_candidates=len(lengths), length=1)
    return rows, bins, feats


class TestFusedChunks:
    """``neural.length_chunks``: items sorted by length, ties in input order,
    packed whole and greedily into chunks of at most ``FUSE_ROWS`` rows."""

    @staticmethod
    def check(lengths, sizes, chunks):
        n = len(lengths)
        flat = [k for chunk in chunks for k in chunk]
        # every item exactly once, as one index in one chunk: whole
        assert sorted(flat) == list(range(n))
        assert all(chunks)
        # sorted by length, ties in input order (a stable sort)
        assert flat == sorted(range(n), key=lambda k: (lengths[k], k))
        for chunk in chunks:
            assert sum(sizes[k] for k in chunk) <= neural.FUSE_ROWS or len(chunk) == 1
        for chunk, after in zip(chunks, chunks[1:]):
            # lengths never fall from one chunk to the next
            assert max(lengths[k] for k in chunk) <= min(lengths[k] for k in after)
            # greedy: no chunk could have taken its successor's first item
            assert sum(sizes[k] for k in chunk) + sizes[after[0]] > neural.FUSE_ROWS

    @pytest.mark.parametrize(
        "counts",
        [[], [6] * 12, [5, 7, 32, 1, 40, 3, 3, 30, 2], [33], [1] * 70, [31, 2, 31, 1]],
    )
    def test_order_and_row_budget(self, counts):
        # lengths 1-4 give ties in every case of more than four items
        lengths = np.random.default_rng(len(counts)).integers(1, 5, size=len(counts)).tolist()
        chunks = length_chunks(lengths, counts)
        self.check(lengths, counts, chunks)
        # one row each without sizes
        self.check(lengths, [1] * len(counts), length_chunks(lengths))

    def test_empty_input(self):
        assert length_chunks([]) == []
        assert length_chunks([], []) == []

    def test_budget_read_at_call_time(self, monkeypatch):
        monkeypatch.setattr(neural, "FUSE_ROWS", 4)
        # by length: items 1 and 4 (length 1, tied, in input order), then
        # 2 and 3 (length 2), then 0; items 1 and 4 fill 3 of 4 rows
        assert length_chunks([3, 1, 2, 2, 1], [2, 2, 3, 5, 1]) == [[1, 4], [2], [3], [0]]
        assert length_chunks([2, 1, 2, 1, 3, 1]) == [[1, 3, 5, 0], [2, 4]]

    def test_sorting_cuts_padding(self, monkeypatch):
        monkeypatch.setattr(neural, "FUSE_ROWS", 2)
        # alternating 1- and 9-token rows: in input order every 2-row chunk
        # pads its short row to 9 tokens; sorted, no chunk pads at all
        lengths = [1, 9] * 4
        rows = [[[0] * n] for n in lengths]
        assert padded_cells(rows, in_order_chunks([1] * 8, 2)) == 8 * 9
        assert padded_cells(rows, length_chunks(lengths)) == sum(lengths)

    def test_score_slices_rows_padded_once(self):
        rng = np.random.default_rng(20)
        groups = [random_group(rng, (3, 1)), random_group(rng, (5, 2, 4)), random_group(rng, (0, 2))]
        x = reranker_rows(groups)
        assert x.ids.shape == (7, 5) and len(x) == 3
        rows = [row for group, _, _ in groups for row in group]
        params = RerankerParams.initialize(TINY, seed=20)
        for picked in ([3, 0, 4], [1, 5, 6], [2], [5], list(range(7))):
            u, cache = x.score(params, picked)
            # the picked rows in order, as pad_ids pads them on their own:
            # cut to the longest of them
            ids, lengths = pad_ids([rows[r] for r in picked])
            np.testing.assert_array_equal(cache.ids, ids)
            np.testing.assert_array_equal(cache.lengths, lengths)
            np.testing.assert_array_equal(cache.bins, x.bins[picked])
            np.testing.assert_array_equal(cache.ngram_feats, x.ngram_feats[picked])
            expected, _ = score_batch(params, ids, x.bins[picked], x.ngram_feats[picked], lengths=lengths)
            assert np.array_equal(u, expected)

    def test_rows_need_one_feature_row_per_candidate(self):
        rng = np.random.default_rng(23)
        x = reranker_rows([random_group(rng, (3, 1)), random_group(rng, (2,))])
        for bad in (
            {"bins": x.bins[:2]},
            {"ngram_feats": x.ngram_feats[:2]},
            {"ids": x.ids[:2]},
            {"starts": [0, 2, 4]},
            {"starts": [1, 3]},
        ):
            with pytest.raises(ValueError, match="need one feature row per candidate"):
                RerankerRows(**{**vars(x), **bad})

    def test_score_lists_match_one_call_per_list(self, monkeypatch):
        # a row's u has the same bits in any chunk, so sorting the rows of
        # all lists by length moves no score
        params = RerankerParams.initialize(TINY, seed=21)
        rng = np.random.default_rng(21)
        groups = [random_group(rng, rng.integers(0, 7, size=rng.integers(1, 6))) for _ in range(9)]
        assert sum(len(set(map(len, rows))) > 1 for rows, _, _ in groups) >= 5
        x = reranker_rows(groups)
        expected = np.concatenate([score_alone(params, x, g)[0] for g in range(len(x))])
        for fuse_rows in (1, 8, 32):
            monkeypatch.setattr(neural, "FUSE_ROWS", fuse_rows)
            assert np.array_equal(score_lists(params, x), expected)
        assert score_lists(params, reranker_rows([])).shape == (0,)

    def test_score_lists_chunks_grouped_by_length(self, monkeypatch):
        calls = []

        def recording(params, ids, *args, **kwargs):
            calls.append((ids, kwargs["lengths"]))
            return score_batch(params, ids, *args, **kwargs)

        monkeypatch.setattr(neural, "score_batch", recording)
        monkeypatch.setattr(neural, "FUSE_ROWS", 4)
        params = RerankerParams.initialize(TINY, seed=22)
        rng = np.random.default_rng(22)
        groups = [random_group(rng, lengths) for lengths in ((5, 1, 3), (2, 5), (1, 1, 4, 2))]
        score_lists(params, reranker_rows(groups))
        # 9 rows by length, 4 at a time: 1 1 1 2 | 2 3 4 5 | 5
        assert [ids.shape for ids, _ in calls] == [(4, 2), (4, 5), (1, 5)]
        rows = [row for group, _, _ in groups for row in group]
        by_length = sorted(range(len(rows)), key=lambda r: len(rows[r]))
        for (ids, lengths), chunk in zip(calls, (by_length[:4], by_length[4:8], by_length[8:])):
            # each chunk as wide as its longest row, and the same arrays as
            # the chunk's own rows padded on their own
            assert ids.shape[1] == lengths.max()
            expected, expected_lengths = pad_ids([rows[r] for r in chunk])
            np.testing.assert_array_equal(ids, expected)
            np.testing.assert_array_equal(lengths, expected_lengths)


class TestTwoThreads:
    """On two threads (``neural._lstm_threads``) the backward direction runs
    on the worker while this thread runs the forward one, with every float
    as on one thread."""

    @staticmethod
    def chunk(rng, rows, length):
        """Mixed lengths with one empty row, and a dropout mask."""
        ids = rng.integers(0, TINY.vocab_size, size=(rows, length))
        lengths = rng.integers(1, length + 1, size=rows)
        lengths[1] = 0
        bins = np.array(
            [[rng.integers(0, count) for _, count in BIN_FIELDS] for _ in range(rows)], dtype=np.intp
        )
        mask = draw_dropout((rows, TINY.phi_dim), 0.3, int(rng.integers(1000)))
        return ids, lengths, bins, rng.random(rows) * 10, mask

    def compute(self):
        """u of three chunks and their gradients, accumulated into one dict."""
        params = RerankerParams.initialize(TINY, seed=3)
        rng = np.random.default_rng(11)
        grads = params.zero_grads()
        us = []
        for rows, length in ((6, 5), (9, 7), (4, 3)):
            ids, lengths, bins, feats, mask = self.chunk(rng, rows, length)
            u, cache = score_batch(params, ids, bins, feats, lengths=lengths, dropout_mask=mask)
            backprop_batch(params, cache, rng.normal(size=rows), out=grads)
            us.append(u)
        return us, grads

    def run(self, monkeypatch, thread_work):
        """``compute`` at ``thread_work``, and the threads the sweeps ran on."""
        with monkeypatch.context() as m:
            ran_on = force_lstm_path(m, thread_work)
            us, grads = self.compute()
        return us, grads, ran_on

    def test_same_floats_on_both_paths(self, monkeypatch):
        u1, g1, serial = self.run(monkeypatch, math.inf)
        u2, g2, threaded = self.run(monkeypatch, 0.0)
        main = threading.get_ident()
        assert set(serial) == {main}
        # one forward and one backward pass per chunk, each direction a sweep
        assert len(threaded) == 12 and threaded.count(main) == 6
        assert all(np.array_equal(a, b) for a, b in zip(u1, u2))
        assert g1.keys() == g2.keys()
        for name in g1:
            assert np.array_equal(g1[name], g2[name]), name
        assert np.any(g1["emb"] != 0.0)

    def test_gradient_check_on_two_threads(self, monkeypatch):
        # the finite-difference check of C1 (test_acceptance), on two threads
        ran_on = force_lstm_path(monkeypatch, 0.0)
        params = RerankerParams.initialize(TINY, seed=SEED)
        rng = np.random.default_rng(SEED)
        ids, bins, feats = tiny_instance(rng)
        u, cache = score_batch(params, ids, bins, feats)
        _, du = contrastive_loss(u, 0)
        grads = backprop_batch(params, cache, du)

        def loss_fn():
            out, _ = score_batch(params, ids, bins, feats)
            return contrastive_loss(out, 0)[0]

        bad = finite_difference_check(params, loss_fn, grads, rel=1e-4)
        assert bad is None, f"gradient mismatch in tensor {bad}"
        assert len(set(ran_on)) == 2

    @pytest.mark.parametrize("failing", ["fwd", "bwd"])
    def test_both_directions_finish_before_an_error_leaves(self, monkeypatch, failing):
        force_lstm_path(monkeypatch, 0.0)
        params = RerankerParams.initialize(TINY, seed=3)
        ids, bins, feats = tiny_instance(np.random.default_rng(4))
        forward = neural._lstm_forward
        finished = []

        def sweep(w, *args):
            direction = "fwd" if w is params.tensors["fwd_w"] else "bwd"
            if direction == failing:
                raise FloatingPointError(direction)
            time.sleep(0.2)  # the other direction fails first
            out = forward(w, *args)
            finished.append(direction)
            return out

        monkeypatch.setattr(neural, "_lstm_forward", sweep)
        with pytest.raises(FloatingPointError, match=failing):
            score_batch(params, ids, bins, feats)
        assert finished == [{"fwd": "bwd", "bwd": "fwd"}[failing]]


    def test_concurrent_callers_share_the_worker(self, monkeypatch):
        # three callers on two CPUs submit to the one worker at once, with
        # thread switches forced often; a lost or crossed update would show
        # as a gradient that differs from the serial one
        serial_us, serial_grads, _ = self.run(monkeypatch, math.inf)
        ran_on = force_lstm_path(monkeypatch, 0.0)
        results = {}

        def caller(k):
            results[k] = self.compute()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(k,)) for k in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert sorted(results) == [0, 1, 2]
        assert len(set(ran_on)) == 4  # the three callers and the worker
        for us, grads in results.values():
            assert all(np.array_equal(a, b) for a, b in zip(us, serial_us))
            assert all(np.array_equal(grads[name], serial_grads[name]) for name in grads)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_worker(self, monkeypatch):
        us, grads, ran_on = self.run(monkeypatch, 0.0)  # the parent's worker has run
        assert len(set(ran_on)) == 2
        pid = os.fork()
        if pid == 0:  # the child: exit status 0 when it got the same floats
            same = False
            try:
                child_us, child_grads, _ = self.run(monkeypatch, 0.0)
                same = all(np.array_equal(a, b) for a, b in zip(us, child_us))
                same = same and all(np.array_equal(grads[k], child_grads[k]) for k in grads)
            finally:
                os._exit(0 if same else 1)
        deadline = time.monotonic() + 30
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert done[0] == pid, "the forked child hung"
        assert os.waitstatus_to_exitcode(done[1]) == 0


class TestLstmThreadsRule:
    """Two threads only for a large enough chunk, on two CPUs, with a
    one-thread BLAS."""

    WIDE = RerankerDims(vocab_size=50, word_dim=200, lstm_dim=500, hidden_dim=256)

    def test_fixture_dims_stay_serial(self, monkeypatch):
        force_lstm_path(monkeypatch, neural.THREAD_WORK)
        # C7's and pipeline_narrow's 32/32, C9's 12/12, at the largest
        # training or decoding chunk
        for sets in (FIXTURE_SETS, SMALL_SETS):
            dims = RerankerDims(
                vocab_size=50, word_dim=int(sets["word_dim"]), lstm_dim=int(sets["lstm_dim"])
            )
            assert neural._lstm_threads(neural.FUSE_ROWS, dims) == 1
        assert neural._lstm_threads(neural.FUSE_ROWS, self.WIDE) == 2
        assert neural._lstm_threads(2, self.WIDE) == 2

    def test_small_chunks_count_the_gemm_minimum(self, monkeypatch):
        # every step's GEMM runs on at least _MIN_GEMM_ROWS rows, so one row
        # at 200/500 is as much work as 16, while 32/32 stays serial up to
        # the largest chunk
        force_lstm_path(monkeypatch, neural.THREAD_WORK)
        assert neural._MIN_GEMM_ROWS * 4 * 500 * 700 >= neural.THREAD_WORK > 4 * 500 * 700
        assert neural._lstm_threads(1, self.WIDE) == 2
        fixture = RerankerDims(vocab_size=50, word_dim=32, lstm_dim=32)
        for rows in (1, 65, neural.FUSE_ROWS):
            assert neural._lstm_threads(rows, fixture) == 1

    @pytest.mark.parametrize(
        "env, threads",
        [
            ({"OPENBLAS_NUM_THREADS": "1"}, 2),
            ({"OMP_NUM_THREADS": "1"}, 2),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2),
            ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2),  # OpenBLAS skips 0
            ({"OPENBLAS_NUM_THREADS": "2"}, 1),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
            ({"GOTO_NUM_THREADS": "1"}, 2),
            ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),  # GOTO before OMP
            ({"GOTO_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2),
            ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2"}, 2),
            ({}, 1),  # unset, OpenBLAS takes every CPU
        ],
    )
    def test_blas_threads(self, monkeypatch, env, threads):
        force_lstm_path(monkeypatch, neural.THREAD_WORK)
        for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert neural._lstm_threads(neural.FUSE_ROWS, self.WIDE) == threads

    def serial_run(self, ran_on):
        params = RerankerParams.initialize(TINY, seed=3)
        ids, bins, feats = tiny_instance(np.random.default_rng(4))
        u, cache = score_batch(params, ids, bins, feats)
        backprop_batch(params, cache, np.ones_like(u))
        assert ran_on and set(ran_on) == {threading.get_ident()}

    def test_one_cpu_runs_serial(self, monkeypatch):
        ran_on = force_lstm_path(monkeypatch, 0.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert neural._lstm_threads(neural.FUSE_ROWS, self.WIDE) == 1
        self.serial_run(ran_on)

    def test_multithreaded_blas_runs_serial(self, monkeypatch):
        ran_on = force_lstm_path(monkeypatch, 0.0)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        self.serial_run(ran_on)


class TestContrastiveLoss:
    def test_uniform_scores(self):
        loss, grad = contrastive_loss([1.0] * 6, 0)
        assert math.isclose(loss, math.log(6.0), rel_tol=1e-12)
        np.testing.assert_allclose(grad[1:], 1.0 / 6.0, atol=1e-12)
        assert math.isclose(grad[0], 1.0 / 6.0 - 1.0, rel_tol=1e-12)

    def test_dominant_correct_score(self):
        loss, _ = contrastive_loss([500.0, 0.0, 0.0], 0)
        assert loss < 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            scores = rng.normal(size=8) * 10
            loss, grad = contrastive_loss(scores, 3)
            p = grad.copy()
            p[3] += 1.0
            assert abs(p.sum() - 1.0) <= 1e-12

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=6)
        _, g1 = contrastive_loss(scores, 2)
        _, g2 = contrastive_loss(scores + 123.456, 2)
        np.testing.assert_allclose(g1, g2, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            contrastive_loss([1.0, float("nan")], 0)

    def test_needs_two_candidates(self):
        with pytest.raises(ValueError):
            contrastive_loss([1.0], 0)


class TestSgdMomentum:
    def test_single_step(self):
        theta = {"x": np.array([2.0])}
        vel = {"x": np.array([0.0])}
        sgd_momentum_update(theta, {"x": np.array([1.0])}, vel, lr=1.0, momentum=0.9)
        assert vel["x"][0] == -1.0
        assert theta["x"][0] == 1.0

    def test_zero_gradient_coasts_on_momentum(self):
        theta = {"x": np.array([0.0])}
        vel = {"x": np.array([0.5])}
        sgd_momentum_update(theta, {"x": np.array([0.0])}, vel, lr=1.0, momentum=0.9)
        assert math.isclose(theta["x"][0], 0.45)

    def test_two_steps_closed_form(self):
        theta = {"x": np.array([0.0])}
        vel = {"x": np.array([0.0])}
        g = {"x": np.array([2.0])}
        sgd_momentum_update(theta, g, vel, lr=0.1, momentum=0.9)
        sgd_momentum_update(theta, g, vel, lr=0.1, momentum=0.9)
        assert math.isclose(vel["x"][0], -0.1 * 2.0 * (1.0 + 0.9), rel_tol=1e-12)

    def test_l2_pulls_toward_zero(self):
        theta = {"x": np.array([4.0])}
        vel = {"x": np.array([0.0])}
        sgd_momentum_update(theta, {"x": np.array([0.0])}, vel, lr=0.5, momentum=0.0, l2=0.1)
        assert theta["x"][0] == 4.0 - 0.5 * 0.1 * 4.0

    def test_deterministic_update_sequence(self):
        def run():
            params = RerankerParams.initialize(TINY, seed=12)
            vel = params.zero_grads()
            rng = np.random.default_rng(7)
            ids, bins, feats = tiny_instance(rng)
            for step in range(5):
                u, cache = score_batch(params, ids, bins, feats)
                _, du = contrastive_loss(u, 0)
                grads = backprop_batch(params, cache, du)
                sgd_momentum_update(params.tensors, grads, vel, 0.1, 0.9, 1e-6)
            return params

        a, b = run(), run()
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


    def test_update_equals_reference_formula_bit_for_bit(self):
        rng = np.random.default_rng(8)
        shapes = {"a": (7, 5), "b": (11,), "c": (3, 4, 2)}
        fresh = {k: rng.normal(size=sh) * 3 for k, sh in shapes.items()}
        runs = []
        for update in (sgd_momentum_update, reference_sgd_momentum_update):
            theta = {k: v.copy() for k, v in fresh.items()}
            vel = {k: np.zeros(sh) for k, sh in shapes.items()}
            step_rng = np.random.default_rng(9)
            for lr, momentum, l2 in ((0.1, 0.9, 1e-6), (0.37, 0.5, 0.0), (1.3, 0.0, 0.02)):
                grads = {k: step_rng.normal(size=sh) for k, sh in shapes.items()}
                update(theta, grads, vel, lr, momentum, l2)
            runs.append((theta, vel))
        (theta, vel), (ref_theta, ref_vel) = runs
        for k in shapes:
            np.testing.assert_array_equal(theta[k], ref_theta[k])
            np.testing.assert_array_equal(vel[k], ref_vel[k])

    @pytest.mark.parametrize("block", [neural.UPDATE_BLOCK, 7])
    def test_blocked_update_equals_reference_bit_for_bit(self, block, monkeypatch):
        monkeypatch.setattr(neural, "UPDATE_BLOCK", block)
        rng = np.random.default_rng(10)
        # two tensors span several blocks and end inside one; alpha is (2,)
        shapes = {"w": (3, neural.UPDATE_BLOCK // 2 + 5), "alpha": (2,), "b": (2 * neural.UPDATE_BLOCK + 3,)}
        assert all(math.prod(sh) % block for sh in shapes.values())
        assert math.prod(shapes["w"]) > block and math.prod(shapes["b"]) > block
        fresh = {k: rng.normal(size=sh) * 3 for k, sh in shapes.items()}
        runs = []
        for update in (sgd_momentum_update, reference_sgd_momentum_update):
            theta = {k: v.copy() for k, v in fresh.items()}
            vel = {k: np.zeros(sh) for k, sh in shapes.items()}
            step_rng = np.random.default_rng(11)
            for lr, momentum, l2 in ((0.1, 0.9, 1e-6), (0.37, 0.5, 0.0), (1.3, 0.0, 0.02)):
                grads = {k: step_rng.normal(size=sh) for k, sh in shapes.items()}
                update(theta, grads, vel, lr, momentum, l2)
            runs.append((theta, vel))
        (theta, vel), (ref_theta, ref_vel) = runs
        for k in shapes:
            np.testing.assert_array_equal(theta[k], ref_theta[k], err_msg=k)
            np.testing.assert_array_equal(vel[k], ref_vel[k], err_msg=k)

    @pytest.mark.parametrize("strided", ["theta", "grads", "velocity"])
    def test_non_contiguous_tensor_refused(self, strided):
        arrays = {
            part: {"a": np.ones(4), "w": np.ones((4, 6)) if part != strided else np.ones((4, 12))[:, ::2]}
            for part in ("theta", "grads", "velocity")
        }
        before = {part: {k: v.copy() for k, v in own.items()} for part, own in arrays.items()}
        with pytest.raises(ValueError, match=r"C-contiguous arrays; not so for w$"):
            sgd_momentum_update(arrays["theta"], arrays["grads"], arrays["velocity"], 0.1, 0.9, 1e-6)
        # refused before any tensor moved
        for part, own in arrays.items():
            for k, v in own.items():
                np.testing.assert_array_equal(v, before[part][k])


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = RerankerParams.initialize(TINY, seed=13)
        path = tmp_path / "params.bin"
        vocab, other = (build_vocabulary(corpus_from_lines([text]), 0) for text in ("a b", "c"))
        params.save(path, vocab)
        loaded = RerankerParams.load(path, vocab)
        assert loaded.dims == params.dims
        assert list(loaded.tensors) == list(params.tensors)
        with pytest.raises(ArtifactError, match="vocabulary-hash mismatch"):
            RerankerParams.load(path, other)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])
