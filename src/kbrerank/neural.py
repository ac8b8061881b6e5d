"""Trainable reranker scorer with exact analytic gradients.

Architecture: word embeddings feed a forward and a backward LSTM whose final
states are concatenated with five feature-bin embeddings; a ReLU hidden layer
and an output vector produce the deep score s, which is linearly interpolated
with the fixed negative-log n-gram feature to give the candidate score u.

Everything is float64 numpy with hand-written backprop; the gradient of the
contrastive loss with respect to every tensor is checked against central
finite differences in the test suite.

Both LSTM directions, and the LSTM LM of ``trainer``, run one kernel
(``_lstm_forward``/``_lstm_backward``) over the prefix trie of a batch's rows
(``_prefix_trie``): rows that share a prefix share its steps, so each
distinct prefix is computed once and no padding is computed.

Candidates reach the reranker as one ``RerankerRows`` record per loaded
dataset: word ids right-padded once (``corpus.pad_ids``) with each row's
length, an (n, 5) bin array in ``features.BIN_FIELDS`` order, the n-gram
features, and the rows at which each group starts. The training instances of
``features.jsonl`` (``cli.load_feature_instances``) and the n-best lists of a
split (``evaluation.reranker_inputs``) are both such records. A scored chunk
is a slice of its rows, cut to the chunk's longest (``RerankerRows.score``).
An empty candidate reads both directions' zero start state.
"""

from __future__ import annotations

import functools
import os
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .artifacts import load_tensors, save_artifact
from .corpus import Vocabulary
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


# a step's input projection runs as a GEMM of at least this many rows (the
# rows past a depth's nodes are zeros, and their z is dropped): OpenBLAS
# computes fewer rows with other kernels (gemv at 1 row, and another below 10
# rows at 32/32 on x86-64), whose floats differ, so a node's z has the bits it
# has in any larger batch, the padded kernel's included
_MIN_GEMM_ROWS = 16


class _Trie(NamedTuple):
    """The prefix trie of a chunk's rows: one node per distinct nonempty
    prefix, numbered from 1 by depth (node 0 is the root, the empty prefix),
    so that a depth's nodes are one range and each node's children are
    consecutive. Rows that share a prefix share its nodes."""

    tokens: np.ndarray  # (N + 1,) the id each node appends to its parent's prefix
    parents: np.ndarray  # (N + 1,) each node's parent; nondecreasing within a depth
    bounds: list  # depth t's nodes are bounds[t - 1] .. bounds[t] - 1
    run_starts: np.ndarray  # first node of each run of siblings
    paths: np.ndarray  # (B, L + 1) row r's node after its first n tokens, n <= its length

    def runs(self, t: int):
        """Depth t's runs of siblings: each run's first node, counted from
        the depth's first, and the parent they share."""
        lo, hi = np.searchsorted(self.run_starts, self.bounds[t - 1 : t + 1])
        starts = self.run_starts[lo:hi]
        return starts - self.bounds[t - 1], self.parents[starts]


def _prefix_trie(ids, lengths) -> _Trie:
    """The ``_Trie`` of right-padded ``ids``, row r ``lengths[r]`` tokens long.

    One lexicographic sort of the rows, past each row's end read as -1 (below
    every id), makes each prefix's rows consecutive; a sorted row starts a new
    node at depth t + 1 unless its first t + 1 ids equal those of the row
    before it."""
    bsz, length = ids.shape
    live = np.arange(length) < lengths[:, None]
    keyed = np.where(live, ids, -1)
    order = np.lexsort(keyed.T[::-1]) if length else np.arange(bsz)
    keyed, live = keyed[order].T, live[order].T  # depth-major: (L, B)
    new = np.ones_like(live)
    new[:, 1:] = keyed[:, 1:] != keyed[:, :-1]
    np.logical_or.accumulate(new, axis=0, out=new)
    new &= live
    node = np.cumsum(new.ravel()).reshape(length, bsz)  # numbered from 1, by depth
    n_nodes = int(node[-1, -1]) if node.size else 0
    tokens = np.zeros(n_nodes + 1, dtype=np.intp)
    tokens[1:] = keyed[new]
    parents = np.zeros_like(tokens)
    parents[1:] = np.concatenate([np.zeros((1, bsz), dtype=node.dtype), node[:-1]])[new]
    bounds = [1, *(1 + np.cumsum(new.sum(axis=1))).tolist()]
    first = np.ones(n_nodes, dtype=bool)
    first[1:] = parents[2:] != parents[1:-1]
    paths = np.zeros((bsz, length + 1), dtype=np.intp)
    paths[order, 1:] = np.where(live, node, 0).T
    return _Trie(tokens, parents, bounds, 1 + np.flatnonzero(first), paths)


def _lstm_forward(w, b, emb, trie: _Trie, keep: bool = True):
    """The LSTM over ``trie``, each node's step run once on the state of its
    parent, depth by depth; ``emb`` is the embedding table.

    Returns each node's hidden state as an (N + 1, H) array (row 0 is the
    zero start state; row r's state after its first n tokens is
    ``hs[trie.paths[r, n]]``) and, with ``keep``, the activations the
    backward pass needs. Each node's arithmetic is a padded sweep's, so its
    floats are its rows' in a padded batch of ``_MIN_GEMM_ROWS`` or more."""
    hid = b.shape[0] // 4
    e_dim = w.shape[1] - hid
    n = len(trie.tokens)
    hs = np.zeros((n, hid))
    cs = np.zeros((n, hid))
    # node-major inputs, the weight gradient's right operand, with zero rows
    # past the deepest depth for its GEMM's minimum
    inputs = np.zeros((n + _MIN_GEMM_ROWS, e_dim + hid)) if keep else None
    steps = []
    for t in range(1, len(trie.bounds)):
        lo, hi = trie.bounds[t - 1], trie.bounds[t]
        rows = max(hi - lo, _MIN_GEMM_ROWS)
        inp = inputs[lo : lo + rows] if keep else np.zeros((rows, e_dim + hid))
        inp[: hi - lo, :e_dim] = emb[trie.tokens[lo:hi]]
        inp[: hi - lo, e_dim:] = hs[trie.parents[lo:hi]]
        z = (inp @ w.T)[: hi - lo] + b
        gates = _sigmoid(z[:, : 3 * hid])
        i, f, o = gates[:, :hid], gates[:, hid : 2 * hid], gates[:, 2 * hid :]
        g = np.tanh(z[:, 3 * hid :])
        c = f * cs[trie.parents[lo:hi]] + i * g
        tanh_c = np.tanh(c)
        hs[lo:hi] = o * tanh_c
        cs[lo:hi] = c
        if keep:
            steps.append((i, f, o, g, tanh_c))
    return hs, ((inputs, cs, steps) if keep else None)


def _lstm_backward(w, acts, trie: _Trie, dh, d_w, d_b, d_emb):
    """Backward through the trie with a gradient arriving at any node.

    ``dh`` is the (N + 1, H) gradient w.r.t. ``_lstm_forward``'s states
    (row 0, the constant start state, is ignored); it is overwritten. The
    time loop runs only the recurrence, each node's ``dh`` and ``dc`` summed
    from its children's (``np.add.reduceat`` over runs of siblings); the
    weight, bias and embedding gradients then take one product over all
    nodes, ``d_w`` one gate block at a time. The embedding rows are added
    into ``d_emb`` with ``np.add.at``; with ``d_emb`` None they are returned
    instead, as the (ids, rows) that add would have applied.
    """
    inputs, cs, steps = acts
    hid = w.shape[0] // 4
    e_dim = w.shape[1] - hid
    n = len(trie.tokens)
    dc = np.zeros_like(dh)
    dz = np.zeros((n, 4 * hid))
    w_h = w[:, e_dim:]
    for t in range(len(steps), 0, -1):
        lo, hi = trie.bounds[t - 1], trie.bounds[t]
        i, f, o, g, tanh_c = steps[t - 1]
        dh_t = dh[lo:hi]
        do = dh_t * tanh_c
        dc_t = dc[lo:hi] + dh_t * o * (1.0 - tanh_c * tanh_c)
        di = dc_t * g
        dg = dc_t * i
        df = dc_t * cs[trie.parents[lo:hi]]
        dz_t = dz[lo:hi]
        np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o), dg * (1.0 - g * g)],
            axis=1,
            out=dz_t,
        )
        if t > 1:  # depth 1's parent is the constant start state
            starts, parents = trie.runs(t)
            dh_up, dc_up = dz_t @ w_h, dc_t * f
            if len(starts) < hi - lo:  # some siblings share a parent
                dh_up = np.add.reduceat(dh_up, starts, axis=0)
                dc_up = np.add.reduceat(dc_up, starts, axis=0)
            dh[parents] += dh_up
            dc[parents] += dc_up
    dz = dz[1:]
    for k in range(4):
        gate = slice(k * hid, (k + 1) * hid)
        d_w[gate] += dz[:, gate].T @ inputs[1:n]
    d_b += dz.sum(axis=0)
    rows = dz @ w[:, :e_dim]
    if d_emb is None:
        return trie.tokens[1:], rows
    np.add.at(d_emb, trie.tokens[1:], rows)
    return None


# per-step work of one LSTM direction, rows x 4H x (E + H) multiply-adds
# with a chunk's rows (not its trie's nodes), from which score_batch and
# backprop_batch run the two directions on two threads (``_lstm_threads``);
# two threads broke even between 1e6 and 1.6e6 on a 2-vCPU x86-64 machine,
# and fixture chunks (128 rows at 32/32) are 1.05e6
THREAD_WORK = 2e6


def _lstm_threads(rows: int, dims: RerankerDims) -> int:
    """Threads (1 or 2) on which ``score_batch`` and ``backprop_batch`` run
    the two LSTM directions of a ``rows``-row batch: 2 when the per-step
    work, a GEMM of at least ``_MIN_GEMM_ROWS`` rows (``_lstm_forward``),
    reaches ``THREAD_WORK``, the process may run on two CPUs and the
    BLAS runs one thread (as OpenBLAS reads it: the first positive one of
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``;
    unset, it takes every CPU). A multi-threaded BLAS already keeps the
    CPUs busy, and a second sweep would only oversubscribe them."""
    work = max(rows, _MIN_GEMM_ROWS) * 4 * dims.lstm_dim * (dims.word_dim + dims.lstm_dim)
    if work < THREAD_WORK:
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
class RerankerRows:
    """Groups of candidates as the reranker reads them: right-padded word ids
    (``pad_ids``) and each row's length, each row's feature bins (an (n, 5)
    array in ``BIN_FIELDS`` order) and its n-gram feature. Group g is rows
    ``starts[g]`` .. ``starts[g + 1] - 1``; ``len()`` counts groups."""

    ids: np.ndarray
    lengths: np.ndarray
    bins: np.ndarray
    ngram_feats: np.ndarray
    starts: np.ndarray

    def __post_init__(self):
        self.bins = np.asarray(self.bins, dtype=np.intp)
        self.ngram_feats = np.asarray(self.ngram_feats, dtype=float)
        self.starts = np.asarray(self.starts, dtype=np.intp)
        n = len(self.lengths)
        shapes = (len(self.ids), self.bins.shape, len(self.ngram_feats), self.starts[[0, -1]].tolist())
        if shapes != (n, (n, len(_BINS)), n, [0, n]):
            raise ValueError("need one feature row per candidate")

    def __len__(self) -> int:
        return len(self.starts) - 1

    def score(self, params: RerankerParams, rows, dropout_mask=None, keep: bool = True):
        """``score_batch`` over ``rows`` (indices, in order), their ids cut
        to the longest of them; returns (u, cache)."""
        lengths = self.lengths[rows]
        ids = self.ids[rows, : lengths.max(initial=0)]
        return score_batch(
            params, ids, self.bins[rows], self.ngram_feats[rows],
            lengths=lengths, dropout_mask=dropout_mask, keep=keep,
        )


# candidate rows per fused score_batch call; bounds the activations a
# training chunk keeps for its backward pass, one set per distinct prefix
FUSE_ROWS = 128


def length_chunks(lengths, sizes=None) -> list[list[int]]:
    """Indices of items ``lengths`` tokens long (an item's longest row), of
    ``sizes`` rows each (one without it), grouped into chunks of at most
    ``FUSE_ROWS`` rows: sorted by length, ties in input order, and packed
    greedily, each item whole; an item larger than that is a chunk of its
    own. Lengths never fall from one chunk to the next, so a chunk pads
    only to items about as long as its own (sequence bucketing)."""
    sizes = [1] * len(lengths) if sizes is None else sizes
    chunks = []
    chunk, rows = [], 0
    for k in sorted(range(len(lengths)), key=lengths.__getitem__):
        if chunk and rows + sizes[k] > FUSE_ROWS:
            chunks.append(chunk)
            chunk, rows = [], 0
        chunk.append(k)
        rows += sizes[k]
    if chunk:
        chunks.append(chunk)
    return chunks


def score_lists(params: RerankerParams, inputs: RerankerRows) -> np.ndarray:
    """u of every row of ``inputs``, in order. The rows are sorted by length
    and scored ``FUSE_ROWS`` at a time (``length_chunks``), with no
    activations kept. A row's u is within 1e-12 of its u in any other chunk,
    and bit-equal at the dims the tests use: the head products may round a
    row differently at another row count."""
    out = np.empty(len(inputs.lengths))
    for chunk in length_chunks(inputs.lengths.tolist()):
        out[chunk], _ = inputs.score(params, chunk, keep=False)
    return out


@dataclass
class ScoreCache:
    ids: np.ndarray
    lengths: np.ndarray
    trie_f: _Trie  # the rows' prefix trie
    trie_b: _Trie  # the trie of the rows reversed
    ends_f: np.ndarray  # each row's node in trie_f after its last token
    ends_b: np.ndarray
    acts_f: tuple | None  # _lstm_forward's activations, if kept
    acts_b: tuple | None
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
    keep: bool = True,
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
    without it there is no dropout. Each direction runs once per distinct
    prefix of its rows (``_prefix_trie``), on ``_lstm_threads`` threads with
    the same floats either way. Without ``keep`` the cache holds no LSTM
    activations, and cannot be backpropagated.
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
    trie_f, trie_b = _prefix_trie(ids, lengths), _prefix_trie(rev_ids, lengths)
    ends_f, ends_b = trie_f.paths[rows, lengths], trie_b.paths[rows, lengths]
    (hs_f, acts_f), (hs_b, acts_b) = _directions(
        _lstm_threads(len(ids), d),
        lambda: _lstm_forward(t["fwd_w"], t["fwd_b"], t["emb"], trie_f, keep),
        lambda: _lstm_forward(t["bwd_w"], t["bwd_b"], t["emb"], trie_b, keep),
    )
    bin_rows = (t[b.emb][bins[:, k]] for k, b in enumerate(_BINS))
    phi = np.concatenate([hs_f[ends_f], hs_b[ends_b], *bin_rows], axis=1)
    if dropout_mask is not None:
        phi *= dropout_mask
    pre_act = phi @ t["hidden_w"]
    relu = np.maximum(pre_act, 0.0)
    s = relu @ t["out_w"]
    u = t["alpha"][0] * s + t["alpha"][1] * np.asarray(ngram_feats, dtype=float)
    cache = ScoreCache(
        ids=ids,
        lengths=lengths,
        trie_f=trie_f,
        trie_b=trie_b,
        ends_f=ends_f,
        ends_b=ends_b,
        acts_f=acts_f,
        acts_b=acts_b,
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
    if cache.acts_f is None:
        raise ValueError("the cache holds no LSTM activations: score with keep=True")
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

    def sweep(direction, trie, ends, acts, dh_end, d_emb):
        # each direction's gradient arrives at the node after a row's last
        # token, summed over the rows that end there
        dh = np.zeros((len(trie.tokens), hid))
        np.add.at(dh, ends, dh_end)
        return _lstm_backward(
            t[f"{direction}_w"], acts, trie, dh,
            grads[f"{direction}_w"], grads[f"{direction}_b"], d_emb,
        )

    # the backward direction leaves the shared embedding gradient alone, so
    # it may run on the worker; its rows are added here after the forward
    # direction's, in the one-thread order, so every float stays the same
    _, (bwd_ids, bwd_rows) = _directions(
        _lstm_threads(len(cache.ids), d),
        lambda: sweep("fwd", cache.trie_f, cache.ends_f, cache.acts_f, dphi[:, :hid], grads["emb"]),
        lambda: sweep("bwd", cache.trie_b, cache.ends_b, cache.acts_b, dphi[:, hid : 2 * hid], None),
    )
    np.add.at(grads["emb"], bwd_ids, bwd_rows)
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


# elements per block of the momentum step: its four operand blocks (2 MB) stay in L2
UPDATE_BLOCK = 1 << 16


def sgd_momentum_update(tensors: dict, grads: dict, velocity: dict, lr: float, momentum: float, l2: float = 0.0):
    """Classical momentum with L2 pulled into the gradient; updates in place.

    ``v = momentum * v - lr * (g + l2 * theta)``, then ``theta += v``, over
    ``UPDATE_BLOCK``-element blocks of each flat tensor through one scratch
    block: no model-sized temporary, and every float as in one whole-tensor
    pass. Arrays that are not C-contiguous (whose flat view is a copy) are refused.
    """
    arrays = {name: (theta, grads[name], velocity[name]) for name, theta in tensors.items()}
    strided = [name for name, own in arrays.items() if not all(a.flags.c_contiguous for a in own)]
    if strided:
        raise ValueError(f"the momentum step needs C-contiguous arrays; not so for {', '.join(strided)}")
    scratch = np.empty(min(UPDATE_BLOCK, max((t.size for t in tensors.values()), default=0)))
    for theta, g, v in arrays.values():
        theta, g, v = theta.reshape(-1), g.reshape(-1), v.reshape(-1)  # views: all C-contiguous
        for start in range(0, theta.size, UPDATE_BLOCK):
            block = slice(start, start + UPDATE_BLOCK)
            th, vb = theta[block], v[block]
            step = np.multiply(th, l2, out=scratch[: th.size])
            step += g[block]
            step *= lr
            vb *= momentum
            vb -= step
            th += vb
    return tensors, velocity
