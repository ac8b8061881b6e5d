"""Training loops: contrastive estimation for the reranker, and the LSTM LM.

Both use SGD with classical momentum, L2 regularization, and plateau-triggered
halving of the learning rate. The reranker early-stops on held-out word error
rate; the LM (optionally) on held-out log-likelihood.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import evaluation
from .artifacts import load_artifact, save_artifact
from .corpus import Corpus, Sentence, Vocabulary
from .features import extract_features
from .kb import KBIndex
from .negsampler import NegativeSet, derive_seed
from .neural import (
    RerankerParams,
    _lstm_forward,
    _sigmoid,
    backprop_batch,
    contrastive_loss,
    score_batch,
    sgd_momentum_update,
    stack_bundles,
)
from .ngram import NGramModel, score_sentence


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
        if not 0 < self.lr:
            raise ValueError("lr must be positive")
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
class RerankInstance:
    """One training softmax: the correct sentence plus its negatives.

    Row 0 of ``ids`` is the correct candidate; all rows share one length.
    """

    ids: np.ndarray
    bins: dict
    ngram_feats: np.ndarray


def make_instance(
    sentence: Sentence, bundles, negset: NegativeSet, vocab: Vocabulary
) -> RerankInstance:
    if len(negset.negatives) == 0:
        raise ValueError("instance needs at least one negative")
    if len(bundles) != 1 + len(negset.negatives):
        raise ValueError("need one feature bundle per candidate")
    rows = [vocab.encode(sentence.tokens)]
    rows.extend(vocab.encode(neg.tokens) for neg in negset.negatives)
    bins, feats = stack_bundles(bundles)
    return RerankInstance(np.array(rows, dtype=np.intp), bins, feats)


@dataclass
class EpochLog:
    epoch: int
    mean_loss: float
    heldout_wer: float
    lr: float


@dataclass
class PreparedNBest:
    """Held-out n-best list with ids, feature bundles and per-hypothesis
    error counts resolved up front."""

    ids_per_hyp: list
    bins: dict
    ngram_feats: np.ndarray
    first_pass: np.ndarray
    errors: np.ndarray  # (hypotheses, 3) S/D/I against the reference
    ref_words: int
    equal_length: bool


def prepare_heldout(
    dataset, vocab: Vocabulary, kb_index: KBIndex, ngram_model: NGramModel
) -> list[PreparedNBest]:
    prepared = []
    for nbest in dataset:
        if nbest.reference is None:
            raise ValueError("held-out data needs references")
        sentences = [h for h, _ in nbest.hypotheses]
        bundles = [
            extract_features(s, score_sentence(ngram_model, s), kb_index)
            for s in sentences
        ]
        bins, feats = stack_bundles(bundles)
        errors, ref_words = evaluation.hypothesis_errors(nbest)
        prepared.append(
            PreparedNBest(
                ids_per_hyp=[
                    np.array(vocab.encode(s.tokens), dtype=np.intp) for s in sentences
                ],
                bins=bins,
                ngram_feats=feats,
                first_pass=np.array([fp for _, fp in nbest.hypotheses], dtype=float),
                errors=errors,
                ref_words=ref_words,
                equal_length=len({len(s) for s in sentences}) == 1,
            )
        )
    return prepared


def heldout_wer(params: RerankerParams, prepared, reranker_weight: float = 1.0) -> float:
    """WER when decoding with first-pass score plus the interpolated u score."""
    errors = ref_words = 0
    for item in prepared:
        if item.equal_length:
            ids = np.stack(item.ids_per_hyp)
            u, _ = score_batch(params, ids, item.bins, item.ngram_feats)
        else:
            u = np.empty(len(item.ids_per_hyp))
            for i, row in enumerate(item.ids_per_hyp):
                one_bins = {k: v[i : i + 1] for k, v in item.bins.items()}
                out, _ = score_batch(
                    params, row.reshape(1, -1), one_bins, item.ngram_feats[i : i + 1]
                )
                u[i] = out[0]
        chosen = int(np.argmax(item.first_pass + reranker_weight * u))
        errors += int(item.errors[chosen].sum())
        ref_words += item.ref_words
    return errors / ref_words


def train_reranker(
    instances, heldout, params: RerankerParams, config: TrainConfig
):
    """Minibatch contrastive training with early stopping on held-out WER.

    Returns (best-checkpoint params, per-epoch log). The correct candidate is
    always row 0 of each instance.
    """
    if not instances:
        raise ValueError("no training instances")
    if not heldout:
        raise ValueError("held-out data required for early stopping")
    rng = np.random.default_rng(config.seed)
    velocity = params.zero_grads()
    logs: list[EpochLog] = []
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
            for j in batch:
                inst = instances[int(j)]
                u, cache = score_batch(
                    params,
                    inst.ids,
                    inst.bins,
                    inst.ngram_feats,
                    dropout_p=config.dropout,
                    train_mode=True,
                    seed=derive_seed(config.seed, "dropout", epoch, int(j)),
                )
                loss, du = contrastive_loss(u, 0)
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch}, instance {int(j)}"
                    )
                backprop_batch(params, cache, du, out=grads)
                losses.append(loss)
            for g in grads.values():
                g /= len(batch)
            sgd_momentum_update(
                params.tensors, grads, velocity, lr, config.momentum, config.l2
            )
        epoch_wer = heldout_wer(params, heldout)
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


def save_training_log(logs, path) -> None:
    # full-precision floats so the log reproduces the checkpoint choice exactly
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss,heldout_wer,lr\n")
        for row in logs:
            fh.write(f"{row.epoch},{row.mean_loss!r},{row.heldout_wer!r},{row.lr!r}\n")


# --------------------------------------------------------------------------
# LSTM language model
# --------------------------------------------------------------------------


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
        gate_rows = 4 * dims.lstm_dim
        tensors = {
            "emb": rng.uniform(-init_scale, init_scale, (dims.vocab_size, dims.word_dim)),
            "w": rng.uniform(-init_scale, init_scale, (gate_rows, dims.word_dim + dims.lstm_dim)),
            "b": np.zeros(gate_rows),
            "out_w": np.zeros((dims.n_out, dims.lstm_dim)),
            "out_b": np.full(dims.n_out, -math.log(dims.n_out)),
        }
        tensors["b"][dims.lstm_dim : 2 * dims.lstm_dim] = 1.0
        return cls(dims, tensors, vocab)

    def copy(self) -> "LstmLmParams":
        return LstmLmParams(self.dims, {k: v.copy() for k, v in self.tensors.items()}, self.vocab)

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def hidden_states(self, ids: np.ndarray):
        """h_0..h_l as an (l+1, H) matrix (h_0 is the zero state)."""
        t = self.tensors
        final, steps = _lstm_forward(t["w"], t["b"], t["emb"][ids.reshape(1, -1)])
        hs = np.zeros((len(ids) + 1, self.dims.lstm_dim))
        for pos, (_, _, _, o, _, _, tanh_c) in enumerate(steps):
            hs[pos + 1] = (o * tanh_c)[0]
        return hs, steps

    def sentence_logprob(self, sentence: Sentence) -> float:
        ids = np.array(self.vocab.encode(sentence.tokens), dtype=np.intp)
        hs, _ = self.hidden_states(ids)
        logits = hs @ self.tensors["out_w"].T + self.tensors["out_b"]
        targets = np.append(ids, self.dims.eos_id)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logz = np.log(np.exp(shifted).sum(axis=1))
        return float(np.sum(shifted[np.arange(len(targets)), targets] - logz))

    def save(self, path, vocab_hash: str) -> None:
        save_artifact(
            path,
            "lstm-lm",
            {
                "dims": asdict(self.dims),
                "tensors": self.tensors,
                "vocab": self.vocab,
                "vocab_hash": vocab_hash,
            },
        )

    @classmethod
    def load(cls, path):
        payload = load_artifact(path, "lstm-lm")
        return (
            cls(LstmLmDims(**payload["dims"]), payload["tensors"], payload["vocab"]),
            payload["vocab_hash"],
        )


def lm_logprob(params: LstmLmParams, sentence: Sentence) -> float:
    return params.sentence_logprob(sentence)


def _lm_forward_backward_softmax(params: LstmLmParams, ids: np.ndarray, grads: dict):
    """Exact cross-entropy loss and gradients for one sentence."""
    t = params.tensors
    hs, steps = params.hidden_states(ids)
    logits = hs @ t["out_w"].T + t["out_b"]
    targets = np.append(ids, params.dims.eos_id)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    rows = np.arange(len(targets))
    loss = float(-np.sum(np.log(probs[rows, targets])))
    dlogits = probs
    dlogits[rows, targets] -= 1.0
    grads["out_w"] += dlogits.T @ hs
    grads["out_b"] += dlogits.sum(axis=0)
    dh = dlogits @ t["out_w"]
    _lm_backprop_lstm(params, ids, steps, dh, grads)
    return loss


def _lm_backprop_lstm(params: LstmLmParams, ids, steps, dh_seq, grads):
    """Backward through time with a gradient arriving at every h_t, t >= 1."""
    t = params.tensors
    hid = params.dims.lstm_dim
    e_dim = params.dims.word_dim
    dh = np.zeros((1, hid))
    dc = np.zeros((1, hid))
    for pos in range(len(steps) - 1, -1, -1):
        inp, i, f, o, g, c_prev, tanh_c = steps[pos]
        dh = dh + dh_seq[pos + 1].reshape(1, -1)  # h_{pos+1} fed logits row pos+1
        do = dh * tanh_c
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g * g)],
            axis=1,
        )
        grads["w"] += dz.T @ inp
        grads["b"] += dz.sum(axis=0)
        dinp = dz @ t["w"]
        grads["emb"][ids[pos]] += dinp[0, :e_dim]
        dh = dinp[:, e_dim:]
        dc = dc * f


def _lm_forward_backward_nce(
    params: LstmLmParams, ids: np.ndarray, noise_ids: np.ndarray, log_kq: np.ndarray, grads: dict
):
    """Binary noise-contrastive loss per position against shared noise words."""
    t = params.tensors
    hs, steps = params.hidden_states(ids)
    targets = np.append(ids, params.dims.eos_id)
    rows = np.arange(len(targets))

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
    dh = d_tgt[:, None] * tgt_w + d_noise @ t["out_w"][noise_ids]
    _lm_backprop_lstm(params, ids, steps, dh, grads)
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
    if mode not in ("full-softmax", "nce"):
        raise ValueError(f"unknown mode {mode!r}")
    config = config or TrainConfig()
    dims = dims or LstmLmDims(vocab_size=vocab.size)
    if dims.vocab_size != vocab.size:
        raise ValueError("dims do not match the vocabulary")
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
    for _epoch in range(config.max_epochs):
        order = rng.permutation(len(encoded))
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            grads = params.zero_grads()
            if mode == "nce":
                noise_ids = rng.choice(dims.n_out, size=nce_samples, p=noise_dist)
            n_tokens = 0
            for j in batch:
                ids = encoded[int(j)]
                n_tokens += len(ids) + 1
                if mode == "full-softmax":
                    _lm_forward_backward_softmax(params, ids, grads)
                else:
                    _lm_forward_backward_nce(params, ids, noise_ids, log_kq, grads)
            for g in grads.values():
                g /= n_tokens
            sgd_momentum_update(params.tensors, grads, velocity, lr, config.momentum, config.l2)
        if heldout is None:
            best_params = params
            continue
        metric = float(
            np.mean([params.sentence_logprob(s) for s in heldout])
        )
        if metric > best_metric:
            best_metric = metric
            best_params = params.copy()
            bad_epochs = 0
        else:
            bad_epochs += 1
            lr *= config.lr_decay
            if bad_epochs >= config.patience:
                break
    return best_params
