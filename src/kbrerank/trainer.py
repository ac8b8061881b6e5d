"""Training loops: contrastive estimation for the reranker, and the LSTM LM.

Both run one loop (``_sgd``): SGD with classical momentum, L2
regularization, and plateau-triggered halving of the learning rate. The
reranker early-stops on held-out word error rate; the LM (optionally) on
held-out log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import evaluation
from .artifacts import atomic_text_writer, load_tensors, save_artifact
from .corpus import Corpus, Sentence, Vocabulary
from .kb import KBTables
from .negsampler import derive_seed
from .neural import (
    RerankerParams,
    _lstm_backward,
    _lstm_forward,
    _prefix_trie,
    _sigmoid,
    _Trie,
    backprop_batch,
    contrastive_loss,
    draw_dropout,
    length_chunks,
    pad_ids,
    score_inputs,
    score_lists,
    sgd_momentum_update,
)
from .ngram import NGramModel, score_ids


@dataclass
class TrainConfig:
    lr: float = 1.0
    momentum: float = 0.9
    lr_decay: float = 0.5
    l2: float = 1e-6
    dropout: float = 0.2
    batch_size: int = 64
    max_epochs: int = 20
    patience: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr!r}")
        if not 0 <= self.l2 < math.inf:
            raise ValueError(f"l2 must be a finite number >= 0, got {self.l2!r}")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not 0 < self.lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ValueError("batch_size and max_epochs must be >= 1")


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    heldout_wer: float
    lr: float


class Heldout(NamedTuple):
    """A held-out split with its errors counted and no component scored
    (``evaluation.count_errors``), and each list's reranker inputs."""

    split: evaluation.ScoredSplit
    inputs: list


def prepare_heldout(
    dataset, vocab: Vocabulary, kb_index: KBTables, ngram_model: NGramModel, source="held-out lists"
) -> Heldout:
    split = evaluation.count_errors(evaluation.read_split(dataset), source)  # needs every reference
    ids = split.vocab_ids(vocab)
    lm_logprobs = score_ids(ngram_model, ids, split.lengths)
    return Heldout(split, evaluation.reranker_inputs(split, ids, kb_index, lm_logprobs))


def heldout_wer(params: RerankerParams, heldout: Heldout) -> float:
    """WER when decoding with first-pass score plus the interpolated u score
    (``evaluation.decode``); the lists are scored together
    (``neural.score_lists``)."""
    split = heldout.split
    u = np.zeros(split.valid.shape)
    u[split.valid] = score_lists(params, heldout.inputs)
    comps = {"first_pass": split.scores["first_pass"], "reranker": u}
    return evaluation.decode(split, comps, {"reranker": 1.0}).wer


def _minibatch_gradients(
    params: RerankerParams, instances, batch, config: TrainConfig, epoch: int, grads: dict
) -> list[float]:
    """Add the summed contrastive gradients of ``instances[j]`` for j in
    ``batch`` to ``grads``; returns each instance's loss in batch order.

    The instances are grouped by length (``neural.length_chunks``), each one
    whole, and each chunk is fused into one ``score_inputs`` and one
    ``backprop_batch`` call of at most ``neural.FUSE_ROWS`` rows, whose LSTM
    runs once per distinct prefix of the chunk's rows. Each
    instance keeps its own softmax over its own rows (correct row first) and
    its own dropout stream, ``derive_seed(seed, "dropout", epoch, j)``.
    """
    batch = [int(j) for j in batch]
    losses = [math.nan] * len(batch)
    lengths = [max(map(len, instances[j].ids)) for j in batch]
    for chunk in length_chunks(lengths, [len(instances[j].ids) for j in batch]):
        members = [batch[k] for k in chunk]
        mask = None
        if config.dropout > 0.0:
            mask = np.concatenate(
                [
                    draw_dropout(
                        (len(instances[j].ids), params.dims.phi_dim),
                        config.dropout,
                        derive_seed(config.seed, "dropout", epoch, j),
                    )
                    for j in members
                ]
            )
        u, cache = score_inputs(params, [instances[j] for j in members], dropout_mask=mask)
        du = np.empty_like(u)
        row = 0
        for k, j in zip(chunk, members):
            own = slice(row, row + len(instances[j].ids))
            row = own.stop
            loss = math.nan
            if np.all(np.isfinite(u[own])):
                loss, du[own] = contrastive_loss(u[own], 0)
            if not math.isfinite(loss):
                raise RuntimeError(f"non-finite loss at epoch {epoch}, instance {j}")
            losses[k] = loss
        backprop_batch(params, cache, du, out=grads)
        del cache  # the chunk's activations go before the next chunk's arrive
    return losses


def _sgd(params, n_items: int, minibatch, heldout_score, config: TrainConfig, rng):
    """SGD with classical momentum over ``n_items`` items, reshuffled by
    ``rng`` each epoch; returns (params, [(epoch, mean loss, score, lr)]).

    ``minibatch(batch, epoch, grads)`` adds the mean gradients of the items
    ``batch`` to the zeroed ``grads`` and returns their losses. After each
    epoch, ``heldout_score()`` (lower is better) picks the best checkpoint; an
    epoch without a new best decays the learning rate, and ``patience`` such
    epochs in a row stop training. With no score, every epoch runs and the
    final params are returned.
    """
    velocity = params.zero_grads()
    grads = params.zero_grads()
    logs = []
    best_score = math.inf
    best_params = params.copy()
    bad_epochs = 0
    lr = config.lr
    for epoch in range(config.max_epochs):
        order = rng.permutation(n_items)
        losses = []
        for start in range(0, n_items, config.batch_size):
            for g in grads.values():
                g.fill(0.0)
            losses.extend(minibatch(order[start : start + config.batch_size], epoch, grads))
            sgd_momentum_update(params.tensors, grads, velocity, lr, config.momentum, config.l2)
        score = math.nan if heldout_score is None else heldout_score()
        logs.append((epoch, float(np.mean(losses)) if losses else math.nan, score, lr))
        if heldout_score is None:
            continue
        if score < best_score:
            best_score = score
            for name, tensor in best_params.tensors.items():
                np.copyto(tensor, params.tensors[name])
            bad_epochs = 0
        else:
            bad_epochs += 1
            lr *= config.lr_decay
            if bad_epochs >= config.patience:
                break
    return (params if heldout_score is None else best_params), logs


def train_reranker(instances, heldout: Heldout, params: RerankerParams, config: TrainConfig):
    """Minibatch contrastive training with early stopping on held-out WER.

    ``instances`` are ``RerankerInputs``, one training softmax each: the
    correct sentence in row 0, then its negatives. Returns (best-checkpoint
    params, per-epoch log).
    """
    if not instances:
        raise ValueError("no training instances")
    if heldout is None or not heldout.inputs:
        raise ValueError("held-out data required for early stopping")

    def minibatch(batch, epoch, grads):
        losses = _minibatch_gradients(params, instances, batch, config, epoch, grads)
        for g in grads.values():
            g /= len(batch)
        return losses

    rng = np.random.default_rng(config.seed)
    best, logs = _sgd(
        params, len(instances), minibatch, lambda: heldout_wer(params, heldout), config, rng
    )
    return best, [EpochLog(*row) for row in logs]


def save_training_log(logs, path) -> None:
    # full-precision floats so the log reproduces the checkpoint choice exactly
    with atomic_text_writer(path) as fh:
        fh.write("epoch,mean_loss,heldout_wer,lr\n")
        for row in logs:
            fh.write(f"{row.epoch},{row.mean_loss!r},{row.heldout_wer!r},{row.lr!r}\n")


# --------------------------------------------------------------------------
# LSTM language model
# --------------------------------------------------------------------------


LM_MODES = ("full-softmax", "nce")


@dataclass(frozen=True)
class LstmLmDims:
    vocab_size: int  # input words; the output space adds end-of-sentence
    word_dim: int = 200
    lstm_dim: int = 1000

    @property
    def n_out(self) -> int:
        return self.vocab_size + 1

    @property
    def eos_id(self) -> int:
        return self.vocab_size

    @property
    def tensor_shapes(self) -> dict:
        """Each tensor's shape."""
        gate_rows = 4 * self.lstm_dim
        return {
            "emb": (self.vocab_size, self.word_dim),
            "w": (gate_rows, self.word_dim + self.lstm_dim),
            "b": (gate_rows,),
            "out_w": (self.n_out, self.lstm_dim),
            "out_b": (self.n_out,),
        }


class LstmLmParams:
    """Single-direction LSTM LM with a full output layer.

    The output layer starts at zero with bias -log(n_out), so the untrained
    model is exactly uniform over the event space.
    """

    def __init__(self, dims: LstmLmDims, tensors: dict, vocab: Vocabulary):
        self.dims = dims
        self.tensors = tensors
        self.vocab = vocab

    @classmethod
    def initialize(cls, dims: LstmLmDims, vocab: Vocabulary, seed: int = 0, init_scale: float = 0.08):
        rng = np.random.default_rng(seed)
        shape = dims.tensor_shapes
        tensors = {
            "emb": rng.uniform(-init_scale, init_scale, shape["emb"]),
            "w": rng.uniform(-init_scale, init_scale, shape["w"]),
            "b": np.zeros(shape["b"]),
            "out_w": np.zeros(shape["out_w"]),
            "out_b": np.full(shape["out_b"], -math.log(dims.n_out)),
        }
        tensors["b"][dims.lstm_dim : 2 * dims.lstm_dim] = 1.0
        return cls(dims, tensors, vocab)

    def copy(self) -> "LstmLmParams":
        return LstmLmParams(self.dims, {k: v.copy() for k, v in self.tensors.items()}, self.vocab)

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def logprobs(self, ids, lengths) -> np.ndarray:
        """Log-probability of each row of a right-padded batch of word ids
        (``pad_ids``), end-of-sentence included; a row may be empty.

        Rows are sorted by length and scored ``FUSE_ROWS`` at a time
        (``length_chunks``), one forward pass over each chunk's prefix trie
        with no activations kept. The log-softmax runs once per trie node,
        one depth at a time, so the logits buffer holds at most one depth's
        nodes x events; a position's term is its node's logit at its target
        less the node's log-normaliser. Each row's total sums its own terms
        in position order. A total is within 1e-12 of the row scored alone,
        but may differ in its last bits, because the BLAS may round a node's
        logits differently at another node count. On the acceptance fixture
        and the benchmark worlds the totals are bit-equal to a log-softmax at
        every position, 32 sentences per pass.
        """
        t = self.tensors
        out = np.empty(len(lengths))
        for chunk in length_chunks(lengths.tolist()):
            own = lengths[chunk]  # sorted: the last row is the longest
            rows = ids[chunk, : own[-1]]
            trie = _prefix_trie(rows, own)
            hs, _ = _lstm_forward(t["w"], t["b"], t["emb"], trie, keep=False)
            # terms[r, d]: row r's log-probability of its event after d words
            width = rows.shape[1] + 1
            eos = self.dims.eos_id
            targets = np.full((len(chunk), width), eos, dtype=np.intp)
            targets[:, :-1] = np.where(np.arange(width - 1) < own[:, None], rows, eos)
            terms = np.zeros((len(chunk), width))
            edges = [0, *trie.bounds]  # depth d's nodes are edges[d] .. edges[d + 1] - 1
            for d in range(width):
                logits = hs[edges[d] : edges[d + 1]] @ t["out_w"].T
                logits += t["out_b"]
                logits -= logits.max(axis=1, keepdims=True)
                sel = slice(np.searchsorted(own, d), None)  # lengths are sorted
                node = trie.paths[sel, d] - edges[d]
                target = logits[node, targets[sel, d]]
                np.exp(logits, out=logits)
                terms[sel, d] = target - np.log(logits.sum(axis=1))[node]
            # one row-wise sum per run of equal lengths
            starts = np.flatnonzero(np.diff(own, prepend=-1)).tolist()
            for a, b in zip(starts, [*starts[1:], len(chunk)]):
                out[chunk[a:b]] = terms[a:b, : own[a] + 1].sum(axis=1)
        return out

    def sentence_logprob(self, sentence: Sentence) -> float:
        """``logprobs`` of one sentence."""
        return float(self.logprobs(*pad_ids([self.vocab.encode(sentence)]))[0])

    def save(self, path) -> None:
        """Save the tensors, the dimensions and the vocabulary's hash."""
        save_artifact(path, "lstm-lm", self.tensors, {"dims": asdict(self.dims)}, self.vocab)

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> LstmLmParams:
        """Load an LM saved against ``vocab``, which it then encodes with:
        exactly the tensors of the header's dims, each of its shape."""
        return cls(*load_tensors(path, "lstm-lm", LstmLmDims, vocab), vocab)


@dataclass
class _LmBatch:
    """A forward pass of the LM over a batch of sentences, once per distinct
    prefix (``neural._prefix_trie``).

    A sentence of n words has n + 1 real positions: the state before each of
    its words and before its end-of-sentence, read at the trie node of its
    first 0..n words. ``hs`` and ``targets`` hold the real positions only,
    sentence by sentence.
    """

    lengths: np.ndarray  # (B,)
    trie: _Trie  # the sentences' prefix trie
    positions: np.ndarray  # (N,) the trie node at each real position
    hs: np.ndarray  # (N, H) the state at each real position
    targets: np.ndarray  # (N,) the event each real position predicts
    acts: tuple  # _lstm_forward's activations


def _lm_forward(params: LstmLmParams, rows) -> _LmBatch:
    t = params.tensors
    ids, lengths = pad_ids(rows)
    trie = _prefix_trie(ids, lengths)
    states, acts = _lstm_forward(t["w"], t["b"], t["emb"], trie)
    mask = np.arange(ids.shape[1] + 1) <= lengths[:, None]
    targets = np.full(mask.shape, params.dims.eos_id, dtype=np.intp)
    targets[:, :-1] = np.where(mask[:, 1:], ids, params.dims.eos_id)
    positions = trie.paths[mask]
    return _LmBatch(lengths, trie, positions, states[positions], targets[mask], acts)


def _lm_backward(params: LstmLmParams, batch: _LmBatch, dh: np.ndarray, grads: dict) -> None:
    """Backpropagate ``dh``, the (N, H) gradient at each real position,
    through the LSTM, summed at each trie node over the positions there."""
    t = params.tensors
    grid = np.zeros((len(batch.trie.tokens), dh.shape[1]))
    np.add.at(grid, batch.positions, dh)
    _lstm_backward(t["w"], batch.acts, batch.trie, grid, grads["w"], grads["b"], grads["emb"])


def _lm_forward_backward_softmax(params: LstmLmParams, rows, grads: dict) -> float:
    """Exact cross-entropy loss and gradients, summed over a batch of id
    sequences scored as one batch."""
    t = params.tensors
    batch = _lm_forward(params, rows)
    # softmax in one buffer, which then becomes the logits' gradient
    probs = batch.hs @ t["out_w"].T
    probs += t["out_b"]
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    at = (np.arange(len(batch.targets)), batch.targets)
    loss = float(-np.sum(np.log(probs[at])))
    probs[at] -= 1.0
    grads["out_w"] += probs.T @ batch.hs
    grads["out_b"] += probs.sum(axis=0)
    _lm_backward(params, batch, probs @ t["out_w"], grads)
    return loss


def _lm_forward_backward_nce(
    params: LstmLmParams, rows, noise_ids: np.ndarray, log_kq: np.ndarray, grads: dict
) -> float:
    """Binary noise-contrastive loss per real position against shared noise
    words, summed over a batch of id sequences scored as one batch."""
    t = params.tensors
    batch = _lm_forward(params, rows)
    hs, targets = batch.hs, batch.targets

    tgt_w = t["out_w"][targets]
    tgt_logit = np.sum(tgt_w * hs, axis=1) + t["out_b"][targets] - log_kq[targets]
    noise_logit = hs @ t["out_w"][noise_ids].T + t["out_b"][noise_ids] - log_kq[noise_ids]

    def log_sigmoid(x):
        return np.where(x >= 0, -np.log1p(np.exp(-x)), x - np.log1p(np.exp(x)))

    loss = float(-np.sum(log_sigmoid(tgt_logit)) - np.sum(log_sigmoid(-noise_logit)))
    d_tgt = _sigmoid(tgt_logit) - 1.0
    d_noise = _sigmoid(noise_logit)

    np.add.at(grads["out_w"], targets, d_tgt[:, None] * hs)
    np.add.at(grads["out_b"], targets, d_tgt)
    np.add.at(grads["out_w"], noise_ids, d_noise.T @ hs)
    np.add.at(grads["out_b"], noise_ids, d_noise.sum(axis=0))
    _lm_backward(params, batch, d_tgt[:, None] * tgt_w + d_noise @ t["out_w"][noise_ids], grads)
    return loss


def unigram_distribution(corpus: Corpus, vocab: Vocabulary) -> np.ndarray:
    """Add-one-smoothed event distribution (words plus end-of-sentence)."""
    n_out = vocab.size + 1
    counts = np.ones(n_out)
    for sent in corpus:
        for wid in vocab.encode(sent.tokens):
            counts[wid] += 1
        counts[vocab.size] += 1
    return counts / counts.sum()


def train_lstm_lm(
    corpus: Corpus,
    vocab: Vocabulary,
    mode: str = "full-softmax",
    nce_samples: int = 100,
    config: TrainConfig | None = None,
    dims: LstmLmDims | None = None,
    heldout: Corpus | None = None,
) -> LstmLmParams:
    """Train the LM with exact softmax or NCE against unigram noise.

    With a held-out corpus, the learning rate halves when mean held-out
    log-probability stops improving and the best checkpoint is returned;
    otherwise training runs for the configured number of epochs.
    """
    if mode not in LM_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    config = config or TrainConfig()
    dims = dims or LstmLmDims(vocab_size=vocab.size)
    if dims.vocab_size != vocab.size:
        raise ValueError("dims do not match the vocabulary")
    params = LstmLmParams.initialize(dims, vocab, seed=config.seed)
    rng = np.random.default_rng(derive_seed(config.seed, "lstm-lm"))
    encoded = [np.array(vocab.encode(s.tokens), dtype=np.intp) for s in corpus]
    noise_dist = unigram_distribution(corpus, vocab) if mode == "nce" else None
    log_kq = np.log(nce_samples * noise_dist) if noise_dist is not None else None

    def minibatch(batch, epoch, grads):
        rows = [encoded[int(j)] for j in batch]
        if mode == "full-softmax":
            loss = _lm_forward_backward_softmax(params, rows, grads)
        else:
            noise_ids = rng.choice(dims.n_out, size=nce_samples, p=noise_dist)
            loss = _lm_forward_backward_nce(params, rows, noise_ids, log_kq, grads)
        n_tokens = sum(len(ids) + 1 for ids in rows)
        for g in grads.values():
            g /= n_tokens
        return [loss]

    # the held-out sentences are encoded once per run, not once per epoch
    held = None if heldout is None else pad_ids([vocab.encode(s.tokens) for s in heldout])
    score = None if held is None else (lambda: -float(np.mean(params.logprobs(*held))))
    best, _ = _sgd(params, len(encoded), minibatch, score, config, rng)
    return best
