"""Shared independent oracles and test-only helpers for the test suite.

The oracles deliberately avoid the production code paths they check: the WER
oracle enumerates raw edit sequences, the gradient checker perturbs tensors
one element at a time, ``lstm_step`` is a one-token LSTM cell written apart
from the batched kernel in ``kbrerank.neural`` (with the exp-form sigmoid,
not the kernel's tanh form), and the reference trainer scores and
backpropagates one training instance per call. The single-sentence helpers
below wrap the batched production calls for tests that score one candidate
or one sentence at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from kbrerank.corpus import build_vocabulary
from kbrerank.negsampler import derive_seed
from kbrerank.neural import (
    _lstm_forward,
    backprop_batch,
    contrastive_loss,
    score_batch,
    stack_bundles,
)
from kbrerank.ngram import score_sentence, train_jackknife_models
from kbrerank.trainer import EpochLog


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
    bins = {key: np.zeros(1, dtype=np.intp) for key in ("co", "artist", "song", "cross", "intra")}
    _, cache = score_batch(params, ids, bins, np.zeros(1))
    return cache.phi[0, : 2 * params.dims.lstm_dim]


@dataclass(frozen=True)
class SentenceScore:
    s: float
    u: float
    cache: object


def score(params, ids, bundle) -> SentenceScore:
    """One candidate scored as a batch of one row."""
    bins, feats = stack_bundles([bundle])
    u, cache = score_batch(params, np.asarray(ids, dtype=np.intp).reshape(1, -1), bins, feats)
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


def reference_minibatch_gradients(params, instances, batch, config, epoch, grads):
    """One ``score_batch`` and one ``backprop_batch`` call per instance, with
    its own dropout draw; returns the losses in batch order."""
    losses = []
    for j in batch:
        inst = instances[int(j)]
        mask = None
        if config.dropout > 0.0:
            mask = reference_dropout_mask(
                (len(inst.lengths), params.dims.phi_dim),
                config.dropout,
                derive_seed(config.seed, "dropout", epoch, int(j)),
            )
        u, cache = score_batch(
            params, inst.ids, inst.bins, inst.ngram_feats, lengths=inst.lengths, dropout_mask=mask
        )
        loss, du = contrastive_loss(u, 0)
        if not math.isfinite(loss):
            raise RuntimeError(f"non-finite loss at epoch {epoch}, instance {int(j)}")
        backprop_batch(params, cache, du, out=grads)
        losses.append(loss)
    return losses


def reference_heldout_wer(params, prepared):
    """Held-out WER with each n-best list scored by its own call."""
    errors = ref_words = 0
    for item in prepared:
        x = item.inputs
        u, _ = score_batch(params, x.ids, x.bins, x.ngram_feats, lengths=x.lengths)
        chosen = int(np.argmax(item.first_pass + u))
        errors += int(item.errors[chosen].sum())
        ref_words += item.ref_words
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


def lm_logprob(params, sentence) -> float:
    return params.sentence_logprob(sentence)


def lm_hidden_states(params, ids):
    """h_0..h_l of the LSTM LM over one sentence as an (l+1, H) matrix (h_0
    is the zero state), and the per-step activations of the backward pass."""
    t = params.tensors
    hs, steps = _lstm_forward(t["w"], t["b"], t["emb"][np.asarray(ids, dtype=np.intp).reshape(1, -1)])
    return hs[0], steps


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


def jackknife_scores(corpus, folds, order=3, vocab=None, models=None) -> list:
    """Each sentence scored by the model trained without its own fold."""
    if len(folds.fold_of) != len(corpus):
        raise ValueError("fold assignment must cover the corpus")
    if vocab is None:
        vocab = build_vocabulary(corpus)
    if models is None:
        models = train_jackknife_models(corpus, vocab, order, folds)
    return [
        score_sentence(models[folds.fold_of[i]], sent) for i, sent in enumerate(corpus)
    ]
