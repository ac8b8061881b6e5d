"""Shared independent oracles and test-only helpers for the test suite.

The oracles deliberately avoid the production code paths they check: the WER
oracle enumerates raw edit sequences, ``loop_wer`` keeps the per-pair
Levenshtein loop that the batched WER replaced, the gradient checker perturbs tensors
one element at a time, ``lstm_step`` is a one-token LSTM cell written apart
from the batched kernel in ``kbrerank.neural`` (with the exp-form sigmoid,
not the kernel's tanh form), ``padded_lstm_forward`` and
``padded_lstm_backward`` keep the padded sweep that the prefix-trie kernel
replaced, every row stepped through every position, as that kernel's
reference, the reference trainer scores and
backpropagates one training instance per call, and the reference LM trainer
runs its own epoch loop apart from the shared ``trainer._sgd``;
``position_logprobs`` scores the LM with a log-softmax at every position, not
once per trie node. The reference
n-gram model counts string-tuple dicts per model and scores by walking them
one event at a time, apart from the id tables and batched walk of
``kbrerank.ngram``. The reference KB index (``dict_kb_index``) keeps the
KB's lookups in dicts over phrases and words, apart from the arrays of
``kbrerank.kb.build_index``, and the reference KB features walk one
sentence's spans and word pairs through those dicts, apart from the array
kernel of ``kbrerank.features``. The single-sentence helpers below wrap the
batched production calls for tests that score one candidate or one sentence
at a time, and ``map_token``, ``indices_of`` and ``candidates_of`` read a
vocabulary, a fold assignment and a confusion table the way only tests need.
``NegativeSet`` holds one sentence's kept negatives as sentences, checked
word by word against their source, and ``negative_sets`` rebuilds such sets
from the sampler's id arrays.
"""

import math
import os
import random
import sys
import threading
from collections import Counter
from dataclasses import dataclass

import numpy as np

from kbrerank import neural
from kbrerank.corpus import UNK, Sentence, build_vocabulary, pad_ids
from kbrerank.features import (
    BIN_FIELDS,
    COOC_BINS,
    FREQ_BINS,
    NPMI_BINS,
    NPMI_NEUTRAL_BIN,
    max_span_pairs,
)
from kbrerank.kb import PairTable
from kbrerank.negsampler import derive_seed
from kbrerank.neural import (
    _sigmoid,
    backprop_batch,
    contrastive_loss,
    score_batch,
)
from kbrerank.ngram import BOS, EOS, event_logprobs, score_ids
from kbrerank.trainer import (
    EpochLog,
    LstmLmDims,
    LstmLmParams,
    TrainConfig,
    _lm_forward,
    _lm_forward_backward_nce,
    _lm_forward_backward_softmax,
    unigram_distribution,
)


def loop_pad_ids(rows) -> tuple[np.ndarray, np.ndarray]:
    """``corpus.pad_ids`` one row at a time."""
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    ids = np.zeros((len(rows), lengths.max(initial=0)), dtype=np.intp)
    for r, row in enumerate(rows):
        ids[r, : len(row)] = row
    return ids, lengths


def map_token(vocab, word: str) -> str:
    """Surface form if the vocabulary retains it, else the unknown symbol."""
    return word if word in vocab.word_to_id and word != UNK else UNK


def indices_of(folds, fold: int) -> list[int]:
    """Sentence indices of one fold of a ``FoldAssignment``, ascending."""
    return [i for i, f in enumerate(folds.fold_of) if f == fold]


def candidates_of(table, word: str) -> tuple:
    """A word's confusion candidates as words, decoded from the table's
    ``candidate_ids``; empty for a word without candidates or outside the
    vocabulary."""
    wid = table.vocab.word_to_id.get(word)
    return tuple(table.vocab.id_to_word[c] for c in table.candidate_ids.get(wid, ()))


def exhaustive_wer(ref, hyp):
    """Best (errors, insertions, deletions) over every edit sequence.

    Branch-and-bound on the error count alone; equal-error branches are kept
    so the insertion/deletion tie preference is decided by full enumeration.
    """
    best = [None]
    lr, lh = len(ref), len(hyp)

    def walk(i, j, errors, ins, dele):
        bound = errors + abs((lr - i) - (lh - j))
        if best[0] is not None and bound > best[0][0]:
            return
        if i == lr and j == lh:
            cand = (errors, ins, dele)
            if best[0] is None or cand < best[0]:
                best[0] = cand
            return
        if i < lr and j < lh:
            walk(i + 1, j + 1, errors + (ref[i] != hyp[j]), ins, dele)
        if i < lr:
            walk(i + 1, j, errors + 1, ins, dele + 1)
        if j < lh:
            walk(i, j + 1, errors + 1, ins + 1, dele)

    walk(0, 0, 0, 0, 0)
    return best[0]


def loop_wer(reference, hypothesis):
    """(S, D, I, N) of one pair by the per-pair Levenshtein loop that
    ``evaluation.error_counts`` replaced: cells are (errors, insertions,
    deletions), each the lexicographic minimum of its three moves."""
    ref, hyp = tuple(reference), tuple(hypothesis)
    prev = [(j, j, 0) for j in range(len(hyp) + 1)]
    for i in range(1, len(ref) + 1):
        cur = [(i, 0, i)]
        for j in range(1, len(hyp) + 1):
            e, ins, dele = prev[j - 1]
            best = (e + (ref[i - 1] != hyp[j - 1]), ins, dele)
            e, ins, dele = prev[j]
            best = min(best, (e + 1, ins, dele + 1))
            e, ins, dele = cur[j - 1]
            best = min(best, (e + 1, ins + 1, dele))
            cur.append(best)
        prev = cur
    errors, insertions, deletions = prev[len(hyp)]
    return errors - insertions - deletions, deletions, insertions, len(ref)


def gradients_match(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    gap = np.abs(analytic - numeric)
    scale = np.abs(analytic) + np.abs(numeric)
    return np.all(gap <= abs_tol + rel * scale)


def finite_difference_check(params, loss_fn, grads, h=1e-5, rel=1e-4):
    """Central differences over every element of every tensor; returns the
    worst offending tensor name or None."""
    for name, tensor in params.tensors.items():
        numeric = np.zeros_like(tensor)
        flat = tensor.ravel()
        num_flat = numeric.ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn()
            flat[idx] = orig - h
            down = loss_fn()
            flat[idx] = orig
            num_flat[idx] = (up - down) / (2.0 * h)
        if not gradients_match(grads[name], numeric, rel=rel):
            return name
    return None


# Per-utterance reference for the array path in ``kbrerank.evaluation``: one
# n-best list at a time, components summed in a fixed order, every decoding
# re-aligned against the reference, and the weight grid swept recursively.

SUM_ORDER = ("ngram", "lstm", "reranker")


def reference_combine(comps, names, weights):
    """First-pass score plus each weighted component of ``names``, added in
    ``SUM_ORDER``."""
    total = np.array(comps["first_pass"], dtype=float)
    for name in SUM_ORDER:
        if name in names:
            total += weights.get(name, 0.0) * np.array(comps[name], dtype=float)
    return total


def reference_counts(ref, hyp):
    errors, insertions, deletions = exhaustive_wer(ref, hyp)
    return errors - insertions - deletions, deletions, insertions


def reference_decode(dataset, comps_per_utt, names, weights):
    """[(chosen index, (S, D, I))] per utterance, and the corpus WER."""
    picks = []
    errors = words = 0
    for nbest, comps in zip(dataset, comps_per_utt):
        chosen = int(np.argmax(reference_combine(comps, names, weights)))
        counts = reference_counts(nbest.reference.tokens, nbest.hypotheses[chosen][0].tokens)
        picks.append((chosen, counts))
        errors += sum(counts)
        words += len(nbest.reference.tokens)
    return picks, errors / words


def reference_tune(dataset, comps_per_utt, names, grid):
    """Recursive sweep over ``grid`` for each of ``names``, first name in the
    outermost loop; only a strictly lower WER replaces the best, so the first
    grid point wins a tie."""
    best = {"weights": {}, "wer": None}

    def sweep(prefix, remaining):
        if not remaining:
            _, w = reference_decode(dataset, comps_per_utt, names, prefix)
            if best["wer"] is None or w < best["wer"]:
                best["weights"], best["wer"] = dict(prefix), w
            return
        for value in grid:
            prefix[remaining[0]] = value
            sweep(prefix, remaining[1:])
        del prefix[remaining[0]]

    if names:
        sweep({}, tuple(names))
    return best["weights"]


# Single-sentence helpers and the per-step LSTM reference.


def masked_sigmoid(x):
    """The logistic function in exp form, each sign on its own branch so
    neither exp can overflow."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def lstm_step(w, b, h_prev, c_prev, x_emb):
    """One LSTM cell update. Gate order in the fused kernel: i, f, o, g."""
    hid = b.shape[0] // 4
    if w.shape != (4 * hid, x_emb.shape[-1] + hid) or h_prev.shape[-1] != hid or c_prev.shape[-1] != hid:
        raise ValueError("shape mismatch between LSTM weights and inputs")
    z = w @ np.concatenate([x_emb, h_prev]) + b
    i = masked_sigmoid(z[:hid])
    f = masked_sigmoid(z[hid : 2 * hid])
    o = masked_sigmoid(z[2 * hid : 3 * hid])
    g = np.tanh(z[3 * hid :])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c


def padded_lstm_forward(w, b, emb_seq):
    """The padded LSTM sweep that the prefix-trie kernel replaced, kept as
    its reference: every row steps through every position of right-padded
    (B, L, E) inputs.

    Returns the hidden state after every step as a (B, L + 1, H) array
    (``hs[:, 0]`` is the zero start state) and the per-step activations of
    ``padded_lstm_backward``. The LSTM is causal, so ``hs[r, n]`` is row r's
    state after its first n tokens whatever follows them.
    """
    bsz, length, _ = emb_seq.shape
    hid = b.shape[0] // 4
    hs = np.zeros((bsz, length + 1, hid))
    h = hs[:, 0]
    c = np.zeros((bsz, hid))
    steps = []
    for t in range(length):
        inp = np.concatenate([emb_seq[:, t, :], h], axis=1)
        z = inp @ w.T + b
        gates = _sigmoid(z[:, : 3 * hid])
        i, f, o = gates[:, :hid], gates[:, hid : 2 * hid], gates[:, 2 * hid :]
        g = np.tanh(z[:, 3 * hid :])
        c_prev = c
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        hs[:, t + 1] = h
        steps.append((inp, i, f, o, g, c_prev, tanh_c))
    return hs, steps


def padded_lstm_backward(w, steps, dhs, step_ids, d_w, d_b, d_emb):
    """Backward through time over ``padded_lstm_forward``'s steps, with the
    weight and embedding gradients added step by step.

    ``dhs[t]`` is the (B, H) gradient w.r.t. ``hs[:, t]``, or None where
    none arrives (``dhs[0]`` is ignored: the start state is constant).
    ``step_ids[:, t]`` are the embedding rows consumed at step t.
    """
    hid = w.shape[0] // 4
    e_dim = w.shape[1] - hid
    dh = np.zeros((step_ids.shape[0], hid))
    dc = np.zeros_like(dh)
    for t in range(len(steps) - 1, -1, -1):
        inp, i, f, o, g, c_prev, tanh_c = steps[t]
        if dhs[t + 1] is not None:
            dh = dh + dhs[t + 1]
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g * g)],
            axis=1,
        )
        d_w += dz.T @ inp
        d_b += dz.sum(axis=0)
        dinp = dz @ w
        np.add.at(d_emb, step_ids[:, t], dinp[:, :e_dim])
        dh = dinp[:, e_dim:]
        dc = dc * f


# one chunk with every shape of a prefix trie, in word ids 1..6: two
# instances of 6 and 3 rows, each source first, that share the prefix 1 2
TRIE_SHAPE_ROWS = (
    (1, 2, 3, 4),  # the first instance's source
    (5, 2, 3, 4),  # a first-position substitution
    (1, 2, 3, 6),  # a last-position substitution
    (1, 2, 3, 4),  # a row identical to the source
    (1, 2),  # a proper prefix of the source: it ends at an interior node
    (),  # a zero-length row
    (1, 2, 6, 5, 3),  # the second instance's source
    (1, 2, 6, 5, 4),
    (1, 2, 6),
)
TRIE_SHAPE_SIZES = (6, 3)


def random_trie_rows(rng, n_rows, vocab_size, max_len=9) -> list:
    """``n_rows`` id rows in instances of a source and its variants: words
    substituted, the row cut short or extended, or emptied, so that rows
    share prefixes and suffixes as training chunks and n-best lists do."""
    rows = []
    while len(rows) < n_rows:
        source = rng.integers(1, vocab_size, size=rng.integers(1, max_len)).tolist()
        rows.append(source)
        for _ in range(rng.integers(1, 6)):
            row = list(source)
            for k in rng.choice(len(row), size=rng.integers(1, 3)):
                row[k] = int(rng.integers(1, vocab_size))
            if rng.random() < 0.25:
                cut = int(rng.integers(0, len(row) + 1))
                row = row[:cut] + rng.integers(1, vocab_size, size=rng.integers(0, 3)).tolist()
            rows.append(row)
    return rows[:n_rows]


def padded_lstm_gradients(w, b, emb, ids, lengths, dh_end):
    """(states, d_w, d_b, d_emb) of the padded pair over right-padded
    ``ids``, the gradient ``dh_end`` arriving at each row's state after its
    last token: ``score_batch``'s forward direction before the trie."""
    hs, steps = padded_lstm_forward(w, b, emb[ids])
    dhs = [None] * (ids.shape[1] + 1)
    for n in set(lengths.tolist()):
        dhs[n] = dh_end * (lengths == n)[:, None]
    grads = (np.zeros_like(w), np.zeros_like(b), np.zeros_like(emb))
    padded_lstm_backward(w, steps, dhs, ids, *grads)
    return (hs, *grads)


def lstm_final_states(params, ids) -> np.ndarray:
    """Concatenated final states of the forward and backward sweeps over one
    sentence, one ``lstm_step`` at a time."""
    t = params.tensors
    hid = params.dims.lstm_dim
    out = []
    for direction, seq in (("fwd", list(ids)), ("bwd", list(ids)[::-1])):
        h = np.zeros(hid)
        c = np.zeros(hid)
        for wid in seq:
            h, c = lstm_step(t[f"{direction}_w"], t[f"{direction}_b"], h, c, t["emb"][wid])
        out.append(h)
    return np.concatenate(out)


def sentence_representation(params, ids) -> np.ndarray:
    """Concatenated final states of the forward and backward sweeps: the
    leading 2H entries of phi when ``score_batch`` scores the sentence alone."""
    ids = np.asarray(ids, dtype=np.intp).reshape(1, -1)
    _, cache = score_batch(params, ids, np.zeros((1, len(BIN_FIELDS)), dtype=np.intp), np.zeros(1))
    return cache.phi[0, : 2 * params.dims.lstm_dim]


@dataclass(frozen=True)
class SentenceScore:
    s: float
    u: float
    cache: object


def score(params, ids, bins, ngram_feat: float) -> SentenceScore:
    """One candidate, its five bins and its n-gram feature, scored as a
    batch of one row."""
    bins = np.asarray(bins, dtype=np.intp).reshape(1, -1)
    ids = np.asarray(ids, dtype=np.intp).reshape(1, -1)
    u, cache = score_batch(params, ids, bins, np.array([ngram_feat], dtype=float))
    return SentenceScore(s=float(cache.s[0]), u=float(u[0]), cache=cache)


def param_norm_sq(params) -> float:
    return float(sum(np.sum(v * v) for v in params.tensors.values()))


# The reranker's training loop one instance at a time: the reference for the
# fused minibatches of ``kbrerank.trainer``.


def reference_sgd_momentum_update(tensors, grads, velocity, lr, momentum, l2=0.0):
    """Classical momentum with L2 pulled into the gradient, in place."""
    for name, theta in tensors.items():
        g = grads[name] + l2 * theta
        v = velocity[name]
        v *= momentum
        v -= lr * g
        theta += v


def reference_dropout_mask(shape, p, seed):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) >= p) / (1.0 - p)


def score_alone(params, inputs, dropout_mask=None):
    """``score_batch`` over one ``RerankerInputs`` group, padded on its own."""
    ids, lengths = pad_ids(inputs.ids)
    return score_batch(
        params, ids, inputs.bins, inputs.ngram_feats, lengths=lengths, dropout_mask=dropout_mask
    )


def in_order_chunks(row_counts, cap) -> list[list[int]]:
    """Consecutive items of ``row_counts`` rows each, packed in input order
    into chunks of at most ``cap`` rows (an item larger than that alone):
    the chunking before instances were grouped by length."""
    chunks, rows = [], 0
    for k, n in enumerate(row_counts):
        if not chunks or rows + n > cap:
            chunks.append([])
            rows = 0
        chunks[-1].append(k)
        rows += n
    return chunks


def padded_cells(rows, chunks) -> int:
    """Id cells of ``chunks`` (index lists into ``rows``, lists of id
    rows each) right-padded per chunk, padding included."""
    return sum(
        sum(len(rows[k]) for k in chunk) * max(len(row) for k in chunk for row in rows[k])
        for chunk in chunks
    )


def reference_minibatch_gradients(params, instances, batch, config, epoch, grads):
    """One ``score_batch`` and one ``backprop_batch`` call per instance, with
    its own dropout draw; returns the losses in batch order."""
    losses = []
    for j in batch:
        inst = instances[int(j)]
        mask = None
        if config.dropout > 0.0:
            mask = reference_dropout_mask(
                (len(inst.ids), params.dims.phi_dim),
                config.dropout,
                derive_seed(config.seed, "dropout", epoch, int(j)),
            )
        u, cache = score_alone(params, inst, dropout_mask=mask)
        loss, du = contrastive_loss(u, 0)
        if not math.isfinite(loss):
            raise RuntimeError(f"non-finite loss at epoch {epoch}, instance {int(j)}")
        backprop_batch(params, cache, du, out=grads)
        losses.append(loss)
    return losses


def reference_heldout_wer(params, heldout):
    """Held-out WER of a ``trainer.prepare_heldout`` record, each n-best list
    scored by its own call and decoded by its own argmax."""
    split = heldout.split
    errors = ref_words = 0
    for r, x in enumerate(heldout.inputs):
        u, _ = score_alone(params, x)
        chosen = int(np.argmax(split.scores["first_pass"][r, : len(u)] + u))
        errors += int(split.errors[r, chosen].sum())
        ref_words += int(split.ref_words[r])
    return errors / ref_words


def reference_train_reranker(instances, heldout, params, config):
    """``trainer.train_reranker`` with one call per instance and per held-out
    list: same permutation, dropout streams, updates and checkpointing."""
    rng = np.random.default_rng(config.seed)
    velocity = params.zero_grads()
    logs = []
    best_wer = math.inf
    best_params = params.copy()
    bad_epochs = 0
    lr = config.lr
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(instances))
        losses = []
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = params.zero_grads()
            losses.extend(reference_minibatch_gradients(params, instances, batch, config, epoch, grads))
            for g in grads.values():
                g /= len(batch)
            reference_sgd_momentum_update(params.tensors, grads, velocity, lr, config.momentum, config.l2)
        epoch_wer = reference_heldout_wer(params, heldout)
        logs.append(EpochLog(epoch, float(np.mean(losses)), epoch_wer, lr))
        if epoch_wer < best_wer:
            best_wer = epoch_wer
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            lr *= config.lr_decay
            if bad_epochs >= config.patience:
                break
    return best_params, logs


def reference_train_lstm_lm(
    corpus, vocab, mode="full-softmax", nce_samples=100, config=None, dims=None, heldout=None
):
    """``trainer.train_lstm_lm`` with its own epoch loop: same permutation and
    noise draws, updates and checkpointing. Returns (params, epochs run)."""
    config = config or TrainConfig()
    dims = dims or LstmLmDims(vocab_size=vocab.size)
    params = LstmLmParams.initialize(dims, vocab, seed=config.seed)
    velocity = params.zero_grads()
    rng = np.random.default_rng(derive_seed(config.seed, "lstm-lm"))
    encoded = [np.array(vocab.encode(s.tokens), dtype=np.intp) for s in corpus]
    noise_dist = unigram_distribution(corpus, vocab) if mode == "nce" else None
    log_kq = np.log(nce_samples * noise_dist) if noise_dist is not None else None

    lr = config.lr
    best_metric = -math.inf
    best_params = params.copy()
    bad_epochs = 0
    epochs = 0
    for _epoch in range(config.max_epochs):
        epochs += 1
        order = rng.permutation(len(encoded))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = params.zero_grads()
            rows = [encoded[int(j)] for j in batch]
            if mode == "full-softmax":
                _lm_forward_backward_softmax(params, rows, grads)
            else:
                noise_ids = rng.choice(dims.n_out, size=nce_samples, p=noise_dist)
                _lm_forward_backward_nce(params, rows, noise_ids, log_kq, grads)
            n_tokens = sum(len(ids) + 1 for ids in rows)
            for g in grads.values():
                g /= n_tokens
            reference_sgd_momentum_update(params.tensors, grads, velocity, lr, config.momentum, config.l2)
        if heldout is None:
            best_params = params
            continue
        metric = float(np.mean(sentence_logprobs(params, heldout)))
        if metric > best_metric:
            best_metric = metric
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            lr *= config.lr_decay
            if bad_epochs >= config.patience:
                break
    return best_params, epochs


def lm_logprob(params, sentence) -> float:
    return params.sentence_logprob(sentence)


def sentence_logprobs(params, sentences) -> np.ndarray:
    """``LstmLmParams.logprobs`` of sentences or token sequences, encoded
    with the LM's vocabulary."""
    return params.logprobs(*pad_ids([params.vocab.encode(s) for s in sentences]))


def lm_hidden_states(params, ids):
    """h_0..h_l of the LSTM LM over one sentence as an (l+1, H) matrix (h_0
    is the zero state), and the per-step activations of the backward pass."""
    t = params.tensors
    hs, steps = padded_lstm_forward(
        t["w"], t["b"], t["emb"][np.asarray(ids, dtype=np.intp).reshape(1, -1)]
    )
    return hs[0], steps


def position_logprobs(params, sentences) -> np.ndarray:
    """The LM's log-probability of each sentence with a log-softmax at every
    real position, not once per trie node: 32 sentences per forward pass,
    and each sentence's total ``np.sum`` over its own positions."""
    encoded = [params.vocab.encode(getattr(s, "tokens", s)) for s in sentences]
    out = np.empty(len(encoded))
    for start in range(0, len(encoded), 32):
        batch = _lm_forward(params, encoded[start : start + 32])
        logits = batch.hs @ params.tensors["out_w"].T
        logits += params.tensors["out_b"]
        logits -= logits.max(axis=1, keepdims=True)
        target = logits[np.arange(len(batch.targets)), batch.targets]
        np.exp(logits, out=logits)
        terms = target - np.log(logits.sum(axis=1))
        for r, own in enumerate(np.split(terms, np.cumsum(batch.lengths + 1)[:-1])):
            out[start + r] = np.sum(own)
    return out


def reference_lm_logprob(params, tokens) -> float:
    """Log-probability of one token sequence, end-of-sentence included, from
    a forward pass over that sentence alone."""
    ids = np.array(params.vocab.encode(tokens), dtype=np.intp)
    hs, _ = lm_hidden_states(params, ids)
    logits = hs @ params.tensors["out_w"].T + params.tensors["out_b"]
    targets = np.append(ids, params.dims.eos_id)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.sum(shifted[np.arange(len(targets)), targets] - logz))


# Reference n-gram model: the direct dict implementation that the id tables
# of ``kbrerank.ngram`` replaced. Each model counts its own sentences into
# string-tuple dicts and scores by walking them one event at a time.


def _discount_for(count: int, d) -> float:
    if count >= 3:
        return d[2]
    if count == 2:
        return d[1]
    return d[0]


def _dict_discounts(counts):
    n = Counter()
    for c in counts:
        if c <= 4:
            n[c] += 1
    n1, n2, n3, n4 = n[1], n[2], n[3], n[4]
    if n1 == 0 and n2 == 0:
        return 0.5, 1.0, 1.5
    y = n1 / (n1 + 2.0 * n2) if (n1 + 2.0 * n2) > 0 else 0.0
    d1 = 1.0 - 2.0 * y * n2 / n1 if n1 > 0 else 0.5
    d2 = 2.0 - 3.0 * y * n3 / n2 if n2 > 0 else 1.0
    d3 = 3.0 - 4.0 * y * n4 / n3 if n3 > 0 else 1.5
    return min(max(d1, 0.01), 1.0), min(max(d2, 0.01), 2.0), min(max(d3, 0.01), 3.0)


@dataclass
class DictNGramModel:
    """``logprob`` maps k-gram word tuples to natural-log interpolated
    probabilities, ``logbackoff`` context tuples to log backoff weights."""

    order: int
    vocab: object
    v_events: int
    logprob: dict
    logbackoff: dict
    trained_on_folds: tuple = ()

    def map_tokens(self, tokens) -> tuple:
        return tuple(map_token(self.vocab, t) for t in tokens)

    def conditional_logprob(self, context, word) -> float:
        """log p(word | context) via longest-match walk with backoff."""
        ctx = tuple(context)[-(self.order - 1):] if self.order > 1 else ()
        acc = 0.0
        while True:
            lp = self.logprob.get(ctx + (word,))
            if lp is not None:
                return acc + lp
            if not ctx:
                raise KeyError(f"word outside event space: {word!r}")
            acc += self.logbackoff.get(ctx, 0.0)
            ctx = ctx[1:]

    def score_tokens(self, tokens) -> float:
        """Natural-log probability of a token sequence including end-of-sentence."""
        mapped = self.map_tokens(tokens)
        padded = (BOS,) * (self.order - 1) + mapped
        total = 0.0
        for i, event in enumerate((*mapped, EOS)):
            total += self.conditional_logprob(padded[i : i + self.order - 1], event)
        return total


def dict_count_tables(mapped_sentences, order):
    """Suffix counts of every k-gram window ending at a real event position."""
    raw = [None] + [Counter() for _ in range(order)]
    for toks in mapped_sentences:
        seq = (BOS,) * (order - 1) + toks + (EOS,)
        for end in range(order - 1, len(seq)):
            for k in range(1, order + 1):
                raw[k][seq[end - k + 1 : end + 1]] += 1
    return raw


def _dict_adjusted_tables(raw, order):
    adjusted = [None] * (order + 1)
    adjusted[order] = dict(raw[order])
    for k in range(order - 1, 0, -1):
        table = {}
        for gram, c in raw[k].items():
            if gram[0] == BOS:
                table[gram] = c
        for gram in raw[k + 1]:
            suffix = gram[1:]
            if suffix[0] != BOS:
                table[suffix] = table.get(suffix, 0) + 1
        adjusted[k] = table
    return adjusted


def dict_mapped_sentences(corpus, vocab, folds=None, exclude_fold=None):
    return [
        tuple(map_token(vocab, t) for t in sent.tokens)
        for i, sent in enumerate(corpus)
        if exclude_fold is None or folds.fold_of[i] != exclude_fold
    ]


def train_dict_ngram(corpus, vocab, order=3, exclude_fold=None, folds=None) -> DictNGramModel:
    """Count the kept sentences, then estimate gram by gram."""
    mapped = dict_mapped_sentences(corpus, vocab, folds, exclude_fold)
    trained_on = () if exclude_fold is None else tuple(f for f in range(folds.k) if f != exclude_fold)
    adjusted = _dict_adjusted_tables(dict_count_tables(mapped, order), order)
    v_events = vocab.size + 1
    logprob, logbackoff = {}, {}
    d1 = _dict_discounts(adjusted[1].values())
    total1 = sum(adjusted[1].values())
    gamma_mass = 0.0
    for c in adjusted[1].values():
        gamma_mass += _discount_for(c, d1)
    gamma1 = gamma_mass / total1
    uniform = 1.0 / v_events
    for word in (*vocab.id_to_word, EOS):
        c = adjusted[1].get((word,), 0)
        logprob[(word,)] = math.log(max(c - _discount_for(c, d1), 0.0) / total1 + gamma1 * uniform)
    for k in range(2, order + 1):
        table = adjusted[k]
        dk = _dict_discounts(table.values())
        ctx_total, ctx_discount = {}, {}
        for gram, c in table.items():
            ctx = gram[:-1]
            ctx_total[ctx] = ctx_total.get(ctx, 0) + c
            ctx_discount[ctx] = ctx_discount.get(ctx, 0.0) + _discount_for(c, dk)
        for ctx, t in ctx_total.items():
            logbackoff[ctx] = math.log(ctx_discount[ctx] / t)
        for gram, c in table.items():
            ctx = gram[:-1]
            gamma = ctx_discount[ctx] / ctx_total[ctx]
            lower = math.exp(logprob[gram[1:]])
            p = max(c - _discount_for(c, dk), 0.0) / ctx_total[ctx] + gamma * lower
            logprob[gram] = math.log(p)
    return DictNGramModel(order, vocab, v_events, logprob, logbackoff, trained_on)


def train_jackknife_models(corpus, vocab, order, folds) -> list:
    """One direct dict model per left-out fold, each counted on its own."""
    return [train_dict_ngram(corpus, vocab, order, exclude_fold=f, folds=folds) for f in range(folds.k)]


def jackknife_scores(corpus, folds, order=3, vocab=None) -> list:
    """Each sentence scored by the dict model trained without its own fold."""
    if len(folds.fold_of) != len(corpus):
        raise ValueError("fold assignment must cover the corpus")
    if vocab is None:
        vocab = build_vocabulary(corpus)
    models = train_jackknife_models(corpus, vocab, order, folds)
    return [models[folds.fold_of[i]].score_tokens(sent.tokens) for i, sent in enumerate(corpus)]


def score_sentences(model, sentences) -> np.ndarray:
    """``ngram.score_ids`` of sentences or token sequences encoded with the
    model's vocabulary, in one call."""
    return score_ids(model, *pad_ids([model.vocab.encode(s) for s in sentences]))


def model_tables(model) -> tuple[dict, dict]:
    """A production model's tables as the dict model's (logprob, logbackoff)."""
    vocab = model.vocab
    words = (*vocab.id_to_word, EOS, BOS)

    def grams(keys, k):
        digits = [model.base ** (k - 1 - j) for j in range(k)]
        return [tuple(words[(key // d) % model.base] for d in digits) for key in keys.tolist()]

    logprob, logbackoff = {}, {}
    for k in range(1, model.order + 1):
        logprob.update(zip(grams(model.gram_keys[k - 1], k), model.logprobs[k - 1].tolist()))
        if k < model.order:
            logbackoff.update(zip(grams(model.context_keys[k - 1], k), model.backoffs[k - 1].tolist()))
    return logprob, logbackoff


def event_logprob(model, context, word) -> float:
    """A production model's log p(word | context) for a full-length context
    (begin-of-sentence padding allowed), read from one scored row."""
    tokens = list(context)
    while tokens and tokens[0] == BOS:
        tokens.pop(0)
    row = tokens if word == EOS else tokens + [word]
    ids, lengths = pad_ids([model.vocab.encode(row)])
    return float(event_logprobs(model, ids, lengths)[0, len(tokens)])


def event_distribution(model, context_tokens) -> dict:
    """A production model's p(. | context) over the full event space, the
    context given as surface tokens after begin-of-sentence padding."""
    vocab = model.vocab
    ctx = vocab.encode(context_tokens)
    ids, lengths = pad_ids([ctx + [w] for w in range(vocab.size)] + [ctx])
    column = event_logprobs(model, ids, lengths)[:, len(ctx)]
    return {w: math.exp(lp) for w, lp in zip((*vocab.id_to_word, EOS), column.tolist())}


def dict_export_arpa(model: DictNGramModel, path) -> None:
    """ARPA export of a dict model, as the dict implementation wrote it."""
    ln10 = math.log(10.0)
    grams_by_len = {k: {} for k in range(1, model.order + 1)}
    for gram, lp in model.logprob.items():
        grams_by_len[len(gram)][gram] = lp / ln10
    for ctx in model.logbackoff:
        grams_by_len[len(ctx)].setdefault(ctx, -99.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for k in range(1, model.order + 1):
            fh.write(f"ngram {k}={len(grams_by_len[k])}\n")
        for k in range(1, model.order + 1):
            fh.write(f"\n\\{k}-grams:\n")
            for gram in sorted(grams_by_len[k]):
                line = f"{grams_by_len[k][gram]:.7f}\t{' '.join(gram)}"
                if k < model.order and gram in model.logbackoff:
                    line += f"\t{model.logbackoff[gram] / ln10:.7f}"
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


@dataclass(frozen=True)
class NegativeSet:
    """Kept corruptions of one source sentence, best n-gram score first: the
    per-sentence reference record of ``kbrerank.negsampler.Negatives``, each
    negative checked word by word against its source."""

    source: Sentence
    negatives: tuple[Sentence, ...]
    lm_logprobs: tuple[float, ...]
    substituted_positions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for lp in self.lm_logprobs:
            finite = isinstance(lp, (int, float)) and abs(lp) <= sys.float_info.max
            if isinstance(lp, bool) or not finite:
                raise ValueError(f"lm_logprob must be a finite number, got {lp!r}")
        for neg, positions in zip(self.negatives, self.substituted_positions):
            if len(neg) != len(self.source):
                raise ValueError("negative length differs from source")
            diff = tuple(
                i for i, (a, b) in enumerate(zip(self.source.tokens, neg.tokens)) if a != b
            )
            if diff != positions:
                raise ValueError("recorded substitution positions are wrong")
            if not positions:
                raise ValueError("negative equals its source")

    def mean_lm_logprob(self) -> float:
        return sum(self.lm_logprobs) / len(self.lm_logprobs)


def negative_sets(negs, corpus, vocab) -> list:
    """Per-sentence ``NegativeSet`` views of a ``Negatives`` record, aligned
    with ``corpus`` (None where a sentence has no group). A negative's
    substituted positions are those where its ids differ from its group's
    first row, and its words are the source's with those positions decoded."""
    sets = [None] * len(corpus)
    for sid, start, end in negs.groups():
        source = corpus[sid]
        own, *rows = negs.ids[start:end].tolist()
        negatives, positions = [], []
        for row in rows:
            diff = tuple(i for i, (a, b) in enumerate(zip(own, row)) if a != b)
            tokens = list(source.tokens)
            for i in diff:
                tokens[i] = vocab.id_to_word[row[i]]
            negatives.append(Sentence(tuple(tokens)))
            positions.append(diff)
        sets[sid] = NegativeSet(
            source=source,
            negatives=tuple(negatives),
            lm_logprobs=tuple(negs.logprob[start + 1 : end].tolist()),
            substituted_positions=tuple(positions),
        )
    return sets


def reference_sample_negatives(sentence, table, lm: DictNGramModel, n_samples, keep_k, p_sub, seed):
    """The string-space sampler: draw surface corruptions, validate each as a
    ``Sentence``, score it with the dict walk, keep the ``keep_k`` best by
    (-score, tokens). None when no position is confusable."""
    confusable = [
        (i, candidates_of(table, tok))
        for i, tok in enumerate(sentence.tokens)
        if candidates_of(table, tok)
    ]
    if not confusable:
        return None
    rng = random.Random(seed)
    seen = {}
    for _ in range(n_samples):
        while True:
            tokens = list(sentence.tokens)
            positions = []
            for i, cands in confusable:
                if rng.random() < p_sub:
                    tokens[i] = rng.choice(cands)
                    positions.append(i)
            if positions:
                break
        key = tuple(tokens)
        if key not in seen:
            seen[key] = tuple(positions)
    scored = sorted(
        ((lm.score_tokens(Sentence(toks).tokens), toks) for toks in seen),
        key=lambda item: (-item[0], item[1]),
    )[:keep_k]
    return NegativeSet(
        source=sentence,
        negatives=tuple(Sentence(toks) for _, toks in scored),
        lm_logprobs=tuple(score for score, _ in scored),
        substituted_positions=tuple(seen[toks] for _, toks in scored),
    )


@dataclass(frozen=True)
class KBIndex:
    """The KB's lookups as dicts over phrases and words."""

    n_entries: int
    artist_entries: dict  # phrase -> (entry id tuple, summed frequency)
    song_entries: dict
    pair_counts: dict  # (artist phrase, song phrase) -> number of entries
    max_cooccurrence: int
    cross: PairTable
    intra: PairTable


def dict_kb_index(entries) -> KBIndex:
    """The dict index of a list of KB entries, built one word pair at a time,
    apart from the array build of ``kbrerank.kb.build_index``."""
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
                k = (aw, sw) if aw <= sw else (sw, aw)
                cross_weights[k] = cross_weights.get(k, 0.0) + 1.0 / n_cross

        intra_pairs = []
        for phrase in (entry.artist, entry.song):
            for i in range(len(phrase)):
                for j in range(i + 1, len(phrase)):
                    a, b = phrase[i], phrase[j]
                    intra_pairs.append((a, b) if a <= b else (b, a))
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


# Reference KB features: the per-sentence definitions that the batch kernel
# ``kbrerank.features.feature_bins`` replaced. Each sentence walks its own
# spans and word pairs through the index's dicts, one lookup at a time.


def phrase_frequency(index, phrase, field_name: str) -> float:
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


def cooccurrence(index, first, second) -> int:
    """Entries pairing the phrases in either field order."""
    return index.pair_counts.get((first, second), 0) + index.pair_counts.get((second, first), 0)


def in_support(table, a: str, b: str) -> bool:
    return (a in table.left_vocab and b in table.right_vocab) or (
        b in table.left_vocab and a in table.right_vocab
    )


def joint(table, a: str, b: str):
    """Smoothed p(a, b) of a ``kb.PairTable``, or None outside its support."""
    if not in_support(table, a, b):
        return None
    return (table._raw.get((a, b) if a <= b else (b, a), 0.0) + 1.0) / table.total


def support_pairs(table) -> set:
    """All unordered support pairs of a (small) ``kb.PairTable``."""
    return {(a, b) if a <= b else (b, a) for a in table.left_vocab for b in table.right_vocab}


def ngram_feature(lm_logprob: float) -> float:
    if lm_logprob > 0:
        raise ValueError("log-probability must be <= 0")
    return -lm_logprob


def cooccurrence_total(sentence, index) -> int:
    """Summed KB co-occurrence over all disjoint (artist span, song span) pairs."""
    toks = sentence.tokens
    l = len(toks)
    artist_spans = []
    song_spans = []
    for i in range(l):
        for j in range(i, l):
            phrase = toks[i : j + 1]
            if phrase in index.artist_entries:
                artist_spans.append((i, j, phrase))
            if phrase in index.song_entries:
                song_spans.append((i, j, phrase))
    total = 0
    for ai, aj, artist in artist_spans:
        for si, sj, song in song_spans:
            if aj < si or sj < ai:
                total += index.pair_counts.get((artist, song), 0)
    return total


def cooccurrence_bin(sentence, index) -> int:
    """Log-scale bin anchored at the largest count the KB could produce."""
    total = cooccurrence_total(sentence, index)
    if total == 0:
        return 0
    max_possible = index.max_cooccurrence * max_span_pairs(len(sentence))
    ratio = math.log1p(total) / math.log1p(max_possible)
    return min(COOC_BINS - 1, max(1, int(COOC_BINS * ratio)))


def kb_frequency_bin(sentence, index, field_name: str) -> int:
    toks = sentence.tokens
    l = len(toks)
    total = 0.0
    for i in range(l):
        for j in range(i, l):
            total += phrase_frequency(index, toks[i : j + 1], field_name)
    f = math.log1p(total)
    return int(min(max(50.0 * f, 0.0), FREQ_BINS - 1))


def npmi(table, a: str, b: str) -> float:
    """Normalized pointwise mutual information in [-1, 1].

    Pairs outside the table's support score -1; a pair that owns the entire
    probability mass scores +1 (the denominator vanishes there).
    """
    p = joint(table, a, b)
    if p is None or p <= 0.0:
        return -1.0
    if p >= 1.0:
        return 1.0
    value = math.log(p / (table.marginal(a) * table.marginal(b))) / (-math.log(p))
    return min(1.0, max(-1.0, value))


def npmi_bin(sentence, index, mode: str) -> int:
    if mode == "cross":
        table = index.cross
    elif mode == "intra":
        table = index.intra
    else:
        raise ValueError(f"unknown mode {mode!r}")
    toks = sentence.tokens
    l = len(toks)
    if l < 2:
        return NPMI_NEUTRAL_BIN
    total = 0.0
    for i in range(l):
        for j in range(i + 1, l):
            total += npmi(table, toks[i], toks[j])
    avg = total / (l * (l - 1) / 2)
    avg = min(1.0, max(-1.0, avg))
    return min(NPMI_BINS - 1, int(NPMI_BINS * (avg + 1.0) / 2.0))


def extract_features(sentence, lm_logprob: float, index) -> tuple[np.ndarray, float]:
    """One sentence's row of bins in ``BIN_FIELDS`` order and its n-gram feature."""
    bins = np.array(
        [
            cooccurrence_bin(sentence, index),
            kb_frequency_bin(sentence, index, "artist"),
            kb_frequency_bin(sentence, index, "song"),
            npmi_bin(sentence, index, "cross"),
            npmi_bin(sentence, index, "intra"),
        ],
        dtype=np.intp,
    )
    return bins, ngram_feature(lm_logprob)


def reference_bins(sentences, index) -> np.ndarray:
    """(n, 5) bins of ``sentences`` in ``BIN_FIELDS`` order, one sentence at a time."""
    rows = [extract_features(s, 0.0, index)[0] for s in sentences]
    return np.array(rows, dtype=np.intp).reshape(-1, len(BIN_FIELDS))


def force_lstm_path(monkeypatch, thread_work: float) -> list:
    """Make ``neural._lstm_threads`` give 2 wherever the per-step work reaches
    ``thread_work`` (two CPUs, a one-thread BLAS as OpenBLAS reads it), and
    return a list to which every LSTM sweep of ``score_batch`` and
    ``backprop_batch`` then appends the ident of the thread that ran it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(neural, "THREAD_WORK", thread_work)
    ran_on = []
    for name in ("_lstm_forward", "_lstm_backward"):
        def spy(*args, _kernel=getattr(neural, name), **kwargs):
            ran_on.append(threading.get_ident())
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(neural, name, spy)
    return ran_on
