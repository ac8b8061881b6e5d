"""Trainable reranker scorer with exact analytic gradients.

Architecture: word embeddings feed a forward and a backward LSTM whose final
states are concatenated with five feature-bin embeddings; a ReLU hidden layer
and an output vector produce the deep score s, which is linearly interpolated
with the fixed negative-log n-gram feature to give the candidate score u.

Everything is float64 numpy with hand-written backprop; the gradient of the
contrastive loss with respect to every tensor is checked against central
finite differences in the test suite.

Candidates reach the reranker in groups (``RerankerInputs``): each one's word
ids, an (n, 5) bin array in ``features.BIN_FIELDS`` order and the n-gram
features. One builder, ``group_inputs``, splits flat rows at given group
sizes into them, for the training instances of ``features.jsonl``
(``cli.load_feature_instances``) and for n-best lists
(``evaluation.dataset_inputs``) alike. An empty candidate reads both
directions' zero start state.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import load_tensors, save_artifact
from .corpus import Vocabulary, pad_ids
from .features import BIN_FIELDS


class _Bin(NamedTuple):
    field: str  # features.BIN_FIELDS name
    count: int  # number of bins
    emb: str  # embedding tensor
    width: str  # RerankerDims field giving the embedding width


# bin name -> (embedding tensor, RerankerDims width field)
_BIN_PARAMS = {
    "cooccurrence_bin": ("co_emb", "co_dim"),
    "artist_freq_bin": ("artist_emb", "freq_dim"),
    "song_freq_bin": ("song_emb", "freq_dim"),
    "cross_npmi_bin": ("cross_emb", "cross_dim"),
    "intra_npmi_bin": ("intra_emb", "intra_dim"),
}
# the feature bins in BIN_FIELDS order: the column order of a batch's (n, 5)
# ``bins`` array and of phi, and the embedding tensors' creation order, on
# which seeded initialization depends
_BINS = tuple(_Bin(field, count, *_BIN_PARAMS[field]) for field, count in BIN_FIELDS)


@dataclass(frozen=True)
class RerankerDims:
    vocab_size: int
    word_dim: int = 200
    lstm_dim: int = 500
    hidden_dim: int = 256
    co_dim: int = 10
    freq_dim: int = 50
    cross_dim: int = 50
    intra_dim: int = 50

    @property
    def phi_dim(self) -> int:
        return 2 * self.lstm_dim + sum(getattr(self, b.width) for b in _BINS)

    @property
    def tensor_shapes(self) -> dict:
        """Each tensor's shape, in the fixed creation order that keeps seeded
        initialization reproducible."""
        gate_rows = 4 * self.lstm_dim
        return {
            "emb": (self.vocab_size, self.word_dim),
            "fwd_w": (gate_rows, self.word_dim + self.lstm_dim),
            "fwd_b": (gate_rows,),
            "bwd_w": (gate_rows, self.word_dim + self.lstm_dim),
            "bwd_b": (gate_rows,),
            **{b.emb: (b.count, getattr(self, b.width)) for b in _BINS},
            "hidden_w": (self.phi_dim, self.hidden_dim),
            "out_w": (self.hidden_dim,),
            "alpha": (2,),
        }


class RerankerParams:
    """All trainable tensors plus the dimension record they obey."""

    def __init__(self, dims: RerankerDims, tensors: dict):
        self.dims = dims
        self.tensors = tensors

    @classmethod
    def initialize(cls, dims: RerankerDims, seed: int = 0, init_scale: float = 0.08):
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape in dims.tensor_shapes.items():
            tensors[name] = rng.uniform(-init_scale, init_scale, size=shape)
        h = dims.lstm_dim
        for name in ("fwd_b", "bwd_b"):
            tensors[name][h : 2 * h] = 1.0  # forget gate opens at start
        tensors["alpha"] = np.array([0.5, 0.5])
        return cls(dims, tensors)

    def copy(self) -> "RerankerParams":
        return RerankerParams(self.dims, {k: v.copy() for k, v in self.tensors.items()})

    def zero_grads(self) -> dict:
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def save(self, path, vocab: Vocabulary) -> None:
        """Save the tensors, the dimensions and ``vocab``'s hash."""
        save_artifact(path, "reranker-params", self.tensors, {"dims": asdict(self.dims)}, vocab)

    @classmethod
    def load(cls, path, vocab: Vocabulary) -> RerankerParams:
        """Load parameters saved against ``vocab``: exactly the tensors of
        the header's dims, each of its shape."""
        return cls(*load_tensors(path, "reranker-params", RerankerDims, vocab))


def _sigmoid(x):
    """``0.5 * (1 + tanh(x / 2))``: no overflow for any finite x, and within
    2.2e-16 of the exp form."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _lstm_forward(w, b, emb_seq):
    """Sweep over right-padded (B, L, E) inputs.

    Returns the hidden state after every step as a (B, L + 1, H) array
    (``hs[:, 0]`` is the zero start state) and the per-step activations the
    backward pass needs. The LSTM is causal, so ``hs[r, n]`` is row r's state
    after its first n tokens whatever follows them; a padded row's final
    state is read at its own length, and the steps past its end are never
    read.
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


def _lstm_backward(w, steps, dhs, step_ids, d_w, d_b, d_emb):
    """Backward through time with a gradient arriving at any state.

    ``dhs[t]`` is the (B, H) gradient w.r.t. ``hs[:, t]`` of ``_lstm_forward``,
    or None where none arrives (``dhs[0]`` is ignored: the start state is
    constant). ``step_ids[:, t]`` are the embedding rows consumed at step t,
    in the direction's own order. A row's steps after its last gradient get
    exactly zero.

    Each step's input-row gradients are added into ``d_emb`` with
    ``np.add.at``. With ``d_emb`` None they are returned instead, as the
    list of (ids, rows) that those adds would have applied, in order.
    """
    hid = w.shape[0] // 4
    e_dim = w.shape[1] - hid
    emb_rows = []
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
            [
                di * i * (1.0 - i),
                df * f * (1.0 - f),
                do * o * (1.0 - o),
                dg * (1.0 - g * g),
            ],
            axis=1,
        )
        d_w += dz.T @ inp
        d_b += dz.sum(axis=0)
        dinp = dz @ w
        if d_emb is None:
            emb_rows.append((step_ids[:, t], dinp[:, :e_dim].copy()))
        else:
            np.add.at(d_emb, step_ids[:, t], dinp[:, :e_dim])
        dh = dinp[:, e_dim:]
        dc = dc * f
    return emb_rows


# per-step work of one LSTM direction, rows x 4H x (E + H) multiply-adds,
# from which score_batch and backprop_batch run the two directions on two
# threads (``_lstm_threads``); two threads broke even between 1e6 and 1.6e6
# on a 2-vCPU x86-64 machine, and fixture chunks (32 rows at 32/32) are 2.6e5
THREAD_WORK = 2e6


def _lstm_threads(rows: int, dims: RerankerDims) -> int:
    """Threads (1 or 2) on which ``score_batch`` and ``backprop_batch`` run
    the two LSTM directions of a ``rows``-row batch: 2 when the per-step
    work reaches ``THREAD_WORK``, the process may run on two CPUs and the
    BLAS runs one thread (as OpenBLAS reads it: the first positive one of
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``;
    unset, it takes every CPU). A multi-threaded BLAS already keeps the
    CPUs busy, and a second sweep would only oversubscribe them."""
    if rows * 4 * dims.lstm_dim * (dims.word_dim + dims.lstm_dim) < THREAD_WORK:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2:
        return 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return 2 if int(value) == 1 else 1
    return 1


@functools.cache
def _worker_pool():
    """The one-worker pool that runs the backward direction, made on the
    first two-thread call; a process that never threads never imports
    ``concurrent.futures``."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="kbrerank-lstm")


if hasattr(os, "register_at_fork"):
    # a forked child has no worker thread, and the pool it inherits would
    # wait for that thread for ever
    os.register_at_fork(after_in_child=_worker_pool.cache_clear)


def _directions(threads: int, fwd, bwd):
    """(fwd(), bwd()). With two threads, ``bwd`` runs on the worker while
    this thread runs ``fwd``, and the worker has finished before this
    returns or raises. Each callable may reach only private functions: the
    benchmark tracer wraps the public ones around one shared span stack."""
    if threads < 2:
        return fwd(), bwd()
    future = _worker_pool().submit(bwd)
    try:
        first = fwd()
    finally:
        future.exception()  # waits for the worker; its error is raised below
    return first, future.result()


@dataclass
class RerankerInputs:
    """A group of candidates as the reranker reads them: each candidate's
    word ids, unpadded, its row of feature bins (an (n, 5) array in
    ``BIN_FIELDS`` order) and its n-gram feature. Rows are padded only when
    a chunk is scored (``score_inputs``)."""

    ids: list
    bins: np.ndarray
    ngram_feats: np.ndarray


def group_inputs(candidates, bins, ngram_feats, sizes, vocab: Vocabulary) -> list[RerankerInputs]:
    """Flat token sequences ``candidates``, their (n, 5) bins and their
    n-gram features, split into consecutive groups of ``sizes`` rows."""
    bins = np.asarray(bins, dtype=np.intp)
    feats = np.asarray(ngram_feats, dtype=float)
    n = len(candidates)
    if bins.shape != (n, len(_BINS)) or len(feats) != n or sum(sizes) != n:
        raise ValueError("need one feature row per candidate")
    ids = [vocab.encode(tokens) for tokens in candidates]
    ends = np.cumsum(sizes, dtype=np.intp).tolist()
    starts = [0, *ends[:-1]]
    return [RerankerInputs(ids[a:b], bins[a:b], feats[a:b]) for a, b in zip(starts, ends)]


# candidate rows per fused score_batch call; bounds the per-step activations
# a training chunk keeps for its backward pass
FUSE_ROWS = 32


def fused_chunks(row_counts) -> list[range]:
    """Split consecutive items of ``row_counts`` rows each into ranges of
    at most ``FUSE_ROWS`` rows, in order; an item larger than that is a
    range of its own."""
    chunks = []
    start = rows = 0
    for k, n in enumerate(row_counts):
        if rows and rows + n > FUSE_ROWS:
            chunks.append(range(start, k))
            start, rows = k, 0
        rows += n
    if start < len(row_counts):
        chunks.append(range(start, len(row_counts)))
    return chunks


def score_inputs(params: RerankerParams, parts, dropout_mask: np.ndarray | None = None):
    """``score_batch`` over the rows of the ``RerankerInputs`` ``parts``, in
    order, right-padded once (``pad_ids``); returns (u, cache)."""
    ids, lengths = pad_ids([row for x in parts for row in x.ids])
    bins = np.concatenate([x.bins for x in parts])
    feats = np.concatenate([x.ngram_feats for x in parts])
    return score_batch(params, ids, bins, feats, lengths=lengths, dropout_mask=dropout_mask)


def score_lists(params: RerankerParams, inputs) -> np.ndarray:
    """u of every row of every ``RerankerInputs`` in ``inputs``, concatenated
    in order; consecutive inputs are scored together, ``FUSE_ROWS`` rows at a
    time (``fused_chunks``)."""
    out = np.empty(sum(len(x.ids) for x in inputs))
    row = 0
    for chunk in fused_chunks([len(x.ids) for x in inputs]):
        u, _ = score_inputs(params, [inputs[k] for k in chunk])
        out[row : row + len(u)] = u
        row += len(u)
    return out


@dataclass
class ScoreCache:
    ids: np.ndarray
    lengths: np.ndarray
    rev_ids: np.ndarray
    steps_f: list
    steps_b: list
    bins: np.ndarray
    ngram_feats: np.ndarray
    phi: np.ndarray
    dropout_mask: np.ndarray | None
    pre_act: np.ndarray
    relu: np.ndarray
    s: np.ndarray


def draw_dropout(shape, p: float, seed: int) -> np.ndarray:
    """An inverted-dropout mask: kept units are rescaled by 1 / (1 - p) now,
    so inference is the identity."""
    rng = np.random.default_rng(seed)
    return (rng.random(shape) >= p) / (1.0 - p)


def score_batch(
    params: RerankerParams,
    ids: np.ndarray,
    bins: np.ndarray,
    ngram_feats: np.ndarray,
    lengths: np.ndarray | None = None,
    dropout_mask: np.ndarray | None = None,
):
    """Score a batch of candidates; returns (u, cache).

    ``ids`` is a (batch, length) array. Candidates of unequal length are
    right-padded (``pad_ids``) and ``lengths`` gives each row's real length;
    without it every row is ``length`` tokens long. The forward LSTM's final
    state is taken after a row's last real token, and the backward LSTM reads
    each row reversed within its own length, so it starts at that token.
    Padding ids never reach a score or a gradient. A row of length 0 (an
    empty hypothesis) reads both directions' zero start state. ``bins`` is
    (batch, 5), columns in ``BIN_FIELDS`` order. ``dropout_mask``
    (``draw_dropout``, shaped (batch, phi_dim)) multiplies phi in training;
    without it there is no dropout. The two directions run on
    ``_lstm_threads`` threads, with the same floats either way.
    """
    t = params.tensors
    d = params.dims
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2:
        raise ValueError("ids must be a (batch, length) array")
    if np.any(ids < 0) or np.any(ids >= d.vocab_size):
        raise ValueError("word id out of range")
    if lengths is None:
        lengths = np.full(ids.shape[0], ids.shape[1], dtype=np.intp)
    else:
        lengths = np.asarray(lengths, dtype=np.intp)
        if lengths.shape != ids.shape[:1] or np.any(lengths < 0) or np.any(lengths > ids.shape[1]):
            raise ValueError("lengths must give each row a length in [0, ids.shape[1]]")
    bins = np.asarray(bins, dtype=np.intp)
    if bins.shape != (ids.shape[0], len(_BINS)):
        raise ValueError("bins must be shaped (batch, 5)")
    for k, b in enumerate(_BINS):
        if np.any(bins[:, k] < 0) or np.any(bins[:, k] >= b.count):
            raise ValueError(f"feature bin out of range for {b.field}")
    if dropout_mask is not None and dropout_mask.shape != (ids.shape[0], d.phi_dim):
        raise ValueError("dropout_mask must be shaped (batch, phi_dim)")

    rows = np.arange(ids.shape[0])
    # row r's first lengths[r] ids reversed, then its padding (reversed too,
    # and never read)
    rev_ids = ids[rows[:, None], (lengths[:, None] - 1 - np.arange(ids.shape[1])) % ids.shape[1]]
    (hs_f, steps_f), (hs_b, steps_b) = _directions(
        _lstm_threads(len(ids), d),
        lambda: _lstm_forward(t["fwd_w"], t["fwd_b"], t["emb"][ids]),
        lambda: _lstm_forward(t["bwd_w"], t["bwd_b"], t["emb"][rev_ids]),
    )
    h_f = hs_f[rows, lengths]
    h_b = hs_b[rows, lengths]
    phi = np.concatenate([h_f, h_b, *(t[b.emb][bins[:, k]] for k, b in enumerate(_BINS))], axis=1)
    if dropout_mask is not None:
        phi *= dropout_mask
    pre_act = phi @ t["hidden_w"]
    relu = np.maximum(pre_act, 0.0)
    s = relu @ t["out_w"]
    u = t["alpha"][0] * s + t["alpha"][1] * np.asarray(ngram_feats, dtype=float)
    cache = ScoreCache(
        ids=ids,
        lengths=lengths,
        rev_ids=rev_ids,
        steps_f=steps_f,
        steps_b=steps_b,
        bins=bins,
        ngram_feats=np.asarray(ngram_feats, dtype=float),
        phi=phi,
        dropout_mask=dropout_mask,
        pre_act=pre_act,
        relu=relu,
        s=s,
    )
    return u, cache


def backprop_batch(params: RerankerParams, cache: ScoreCache, du: np.ndarray, out: dict | None = None) -> dict:
    """Gradients of sum(du * u) w.r.t. every tensor, accumulated into ``out``."""
    t = params.tensors
    d = params.dims
    grads = out if out is not None else params.zero_grads()

    du = np.asarray(du, dtype=float)
    grads["alpha"][0] += float(du @ cache.s)
    grads["alpha"][1] += float(du @ cache.ngram_feats)
    ds = du * t["alpha"][0]

    grads["out_w"] += cache.relu.T @ ds
    dr = np.outer(ds, t["out_w"])
    da = dr * (cache.pre_act > 0.0)
    grads["hidden_w"] += cache.phi.T @ da
    dphi = da @ t["hidden_w"].T
    if cache.dropout_mask is not None:
        dphi = dphi * cache.dropout_mask

    hid = d.lstm_dim
    offset = 2 * hid
    for k, b in enumerate(_BINS):
        width = getattr(d, b.width)
        np.add.at(grads[b.emb], cache.bins[:, k], dphi[:, offset : offset + width])
        offset += width

    # each direction's gradient arrives at the state after a row's last token
    ends = {n: cache.lengths == n for n in set(cache.lengths.tolist())}

    def sweep(direction, steps, step_ids, dh, d_emb):
        dhs = [None] * (len(steps) + 1)
        for n, ending in ends.items():
            dhs[n] = dh * ending[:, None]
        return _lstm_backward(
            t[f"{direction}_w"], steps, dhs, step_ids,
            grads[f"{direction}_w"], grads[f"{direction}_b"], d_emb,
        )

    # the backward direction leaves the shared embedding gradient alone, so
    # it may run on the worker; its rows are added here after the forward
    # direction's, in the one-thread order, so every float stays the same
    _, bwd_emb_rows = _directions(
        _lstm_threads(len(cache.ids), d),
        lambda: sweep("fwd", cache.steps_f, cache.ids, dphi[:, :hid], grads["emb"]),
        lambda: sweep("bwd", cache.steps_b, cache.rev_ids, dphi[:, hid : 2 * hid], None),
    )
    for step_ids, rows in bwd_emb_rows:
        np.add.at(grads["emb"], step_ids, rows)
    return grads


def contrastive_loss(scores, correct_index: int):
    """Softmax cross-entropy of the correct candidate against the rest.

    Returns (loss, gradient w.r.t. the scores); computed with max
    subtraction so large score gaps stay stable.
    """
    arr = np.asarray(scores, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need at least two candidate scores")
    if not 0 <= correct_index < arr.size:
        raise ValueError("correct_index out of range")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite candidate score")
    shifted = arr - arr.max()
    exp = np.exp(shifted)
    norm = exp.sum()
    p = exp / norm
    loss = float(np.log(norm) - shifted[correct_index])
    grad = p.copy()
    grad[correct_index] -= 1.0
    return loss, grad


def sgd_momentum_update(tensors: dict, grads: dict, velocity: dict, lr: float, momentum: float, l2: float = 0.0):
    """Classical momentum with L2 pulled into the gradient; updates in place.

    ``v = momentum * v - lr * (g + l2 * theta)``, then ``theta += v``, with
    one temporary per tensor.
    """
    for name, theta in tensors.items():
        step = theta * l2
        step += grads[name]
        step *= lr
        v = velocity[name]
        v *= momentum
        v -= step
        theta += v
    return tensors, velocity
