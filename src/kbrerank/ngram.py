"""Backoff n-gram language model (interpolated modified Kneser-Ney) on ids.

Used three ways: ranking sampled negative examples, supplying the fixed
negative-log-probability feature via jackknifing, and as a standalone
reranking baseline. The event space is closed (vocabulary incl. the unknown
symbol, plus end-of-sentence), so every score is finite and every
conditional distribution sums to one.

The model works on integer ids: vocabulary ids ``0..V-1``, end-of-sentence
``V`` and begin-of-sentence ``V+1``. A k-gram is one ``int64`` key, its ids
packed in base ``V+2`` with the first word most significant, so a gram's
context is ``key // (V+2)`` and its suffix ``key % (V+2)**(k-1)``. Each order
holds its sorted keys beside their log-probabilities, and each context length
its sorted context keys beside their log backoff weights, in the style of
KenLM's sorted tables (Heafield 2011). Scoring is a ``np.searchsorted`` walk
over a whole batch at once (``score_ids``).

Counting, packing and lookup are vectorized. Estimation (modified
Kneser-Ney, Chen & Goodman 1998) calls ``math.log`` and ``math.exp`` once per
gram and adds every float in the order a direct dict implementation does
(``tests/oracles.py``), so the tables hold the same floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .artifacts import atomic_text_writer, load_artifact, save_artifact
from .corpus import BOS, EOS, Corpus, FoldAssignment, Vocabulary, pad_ids

MAX_ORDER = 5
_MIN_DISCOUNT = 0.01
# a packed key of `order` ids in base V+2 is at most (V+2)**order - 1
_KEY_LIMIT = 2**63
_KIND = "ngram-tables"
# the per-order tables, each with how many fewer than ``order`` it holds
_TABLES = {"gram_keys": 0, "logprobs": 0, "context_keys": 1, "backoffs": 1}


def _estimate_discounts(counts: np.ndarray) -> tuple[float, float, float]:
    """Per-level discounts for count classes 1, 2 and 3+ from count-of-counts.

    Degenerate statistics on tiny corpora are clamped into (0, class] so the
    interpolated distribution stays normalized and strictly positive.
    """
    n = np.bincount(counts[counts <= 4], minlength=5)
    n1, n2, n3, n4 = (int(x) for x in n[1:5])
    if n1 == 0 and n2 == 0:
        return 0.5, 1.0, 1.5
    y = n1 / (n1 + 2.0 * n2) if (n1 + 2.0 * n2) > 0 else 0.0
    d1 = 1.0 - 2.0 * y * n2 / n1 if n1 > 0 else 0.5
    d2 = 2.0 - 3.0 * y * n3 / n2 if n2 > 0 else 1.0
    d3 = 3.0 - 4.0 * y * n4 / n3 if n3 > 0 else 1.5
    return (
        min(max(d1, _MIN_DISCOUNT), 1.0),
        min(max(d2, _MIN_DISCOUNT), 2.0),
        min(max(d3, _MIN_DISCOUNT), 3.0),
    )


def _discounts_for(counts: np.ndarray, d: tuple[float, float, float]) -> np.ndarray:
    return np.where(counts >= 3, d[2], np.where(counts == 2, d[1], d[0]))


def _log_each(values: np.ndarray) -> np.ndarray:
    # math.log, not np.log: the two differ in the last bit on some inputs
    return np.array([math.log(x) for x in values.tolist()])


@dataclass(eq=False)
class NGramModel:
    """Trained model as sorted tables (see the module docstring).

    ``gram_keys[k-1]``/``logprobs[k-1]`` hold the k-grams and their natural-log
    interpolated probabilities; ``context_keys[m-1]``/``backoffs[m-1]`` the
    contexts of length m and their log backoff weights. A missing context
    backs off with weight one. ``vocab`` is the vocabulary the model was
    trained or loaded with; the file keeps only its hash.
    """

    order: int
    vocab: Vocabulary = field(repr=False)
    gram_keys: tuple = field(repr=False)
    logprobs: tuple = field(repr=False)
    context_keys: tuple = field(repr=False)
    backoffs: tuple = field(repr=False)
    trained_on_folds: tuple[int, ...] = ()

    @property
    def base(self) -> int:
        return self.vocab.size + 2

    @property
    def v_events(self) -> int:
        """Size of the event space: every vocabulary word plus end-of-sentence."""
        return self.vocab.size + 1


def _events(ids, lengths, order: int, vocab_size: int):
    """A right-padded id batch as events: (seq, rows, ends). Row r of ``seq``
    is order-1 begin-of-sentence ids, its words, then end-of-sentence ids to
    the right edge; event i, in row-major order (the order of a sentence by
    sentence walk), is ``seq[rows[i], ends[i]]``: each word, then one
    end-of-sentence."""
    n, width = ids.shape
    cols = np.arange(width + 1)
    seq = np.full((n, order + width), vocab_size + 1, dtype=np.int64)
    words = np.pad(ids, ((0, 0), (0, 1)))
    seq[:, order - 1 :] = np.where(cols < lengths[:, None], words, vocab_size)
    rows, ev_cols = np.nonzero(cols <= lengths[:, None])
    return seq, rows, ev_cols + order - 1


def _windows(seq, rows, last, n: int, base: int):
    """The packed windows of 1..n ids ending at column ``last`` of ``rows``."""
    window = np.zeros(len(rows), dtype=np.int64)
    for k in range(1, n + 1):
        window = seq[rows, last - k + 1] * base ** (k - 1) + window
        yield window


def _check_key_range(order: int, vocab_size: int) -> None:
    base = vocab_size + 2
    if base**order > _KEY_LIMIT:
        raise ValueError(
            f"an order-{order} n-gram model over a vocabulary of {vocab_size} words "
            f"does not fit 64-bit keys ({base}**{order} > 2**63); lower ngram_order "
            "or raise vocab_min_count"
        )


@dataclass
class NGramCounts:
    """Every k-gram window ending at an event position, counted once per fold.

    ``keys[k-1]`` holds the distinct packed k-grams (sorted), ``counts[k-1]``
    their occurrences per fold and ``first[k-1]`` the index, in corpus walk
    order (sentence, then position), of their first event in each fold (the
    number of events where absent). A model that leaves a fold out counts
    the rest by subtraction; the first events fix the order in which a
    direct count would have met each gram.
    """

    order: int
    vocab_size: int
    n_folds: int
    keys: list
    counts: list
    first: list

    def raw_tables(self, exclude_fold=None) -> list:
        """Per order, (keys, counts) of the grams seen outside ``exclude_fold``,
        in the order a direct count would have met them."""
        tables = []
        for keys, counts, first in zip(self.keys, self.counts, self.first):
            if exclude_fold is None:
                total, first_seen = counts.sum(axis=1), first.min(axis=1)
            else:
                total = counts.sum(axis=1) - counts[:, exclude_fold]
                first_seen = np.delete(first, exclude_fold, axis=1).min(axis=1)
            seen = total > 0
            by_first = np.argsort(first_seen[seen], kind="stable")
            tables.append((keys[seen][by_first], total[seen][by_first]))
        return tables


def count_ngrams(corpus: Corpus, vocab: Vocabulary, order: int, folds=None) -> NGramCounts:
    """One counting pass over the corpus, split by ``folds`` (one fold if None)."""
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    if folds is not None and len(folds.fold_of) != len(corpus):
        raise ValueError("fold assignment must cover the corpus")
    _check_key_range(order, vocab.size)
    seq, rows, ends = _events(*pad_ids([vocab.encode(s.tokens) for s in corpus]), order, vocab.size)
    ev_fold = np.asarray(folds.fold_of if folds is not None else [0] * len(corpus))[rows]
    n_folds = folds.k if folds is not None else 1
    n_events = len(rows)
    keys, counts, first = [], [], []
    for window in _windows(seq, rows, ends, order, vocab.size + 2):
        uniq, inv = np.unique(window, return_inverse=True)
        pair = inv * n_folds + ev_fold
        pairs, pair_first = np.unique(pair, return_index=True)
        first_k = np.full(len(uniq) * n_folds, n_events, dtype=np.int64)
        first_k[pairs] = pair_first
        keys.append(uniq)
        counts.append(np.bincount(pair, minlength=len(uniq) * n_folds).reshape(-1, n_folds))
        first.append(first_k.reshape(-1, n_folds))
    return NGramCounts(order, vocab.size, n_folds, keys, counts, first)


def _adjusted_tables(raw: list, order: int, base: int) -> list:
    """Continuation counts for lower orders, in the order a dict build inserts
    them: begin-of-sentence prefixes keep their raw counts first (they have no
    left extension), then each distinct suffix of the next order up, in the
    order its first extension was met. The top order keeps its raw counts."""
    bos = base - 1
    adjusted = [None] * order
    adjusted[order - 1] = raw[order - 1]
    for k in range(order - 1, 0, -1):
        keys, counts = raw[k - 1]
        bos_led = keys // base ** (k - 1) == bos
        suffixes = raw[k][0] % base**k
        suffixes = suffixes[suffixes // base ** (k - 1) != bos]
        uniq, first, n_ext = np.unique(suffixes, return_index=True, return_counts=True)
        by_first = np.argsort(first)
        adjusted[k - 1] = (
            np.concatenate([keys[bos_led], uniq[by_first]]),
            np.concatenate([counts[bos_led], n_ext[by_first]]),
        )
    return adjusted


def estimate(counts: NGramCounts, vocab: Vocabulary, exclude_fold=None) -> NGramModel:
    """Estimate the model of every fold but ``exclude_fold`` (all if None)."""
    if counts.vocab_size != vocab.size:
        raise ValueError("counts were made with a different vocabulary")
    if exclude_fold is not None and not 0 <= exclude_fold < counts.n_folds:
        raise ValueError(f"no fold {exclude_fold} among {counts.n_folds}")
    raw = counts.raw_tables(exclude_fold)
    if len(raw[0][0]) == 0:
        raise ValueError("corpus empty after fold exclusion")
    order, base = counts.order, vocab.size + 2
    adjusted = _adjusted_tables(raw, order, base)
    v_events = vocab.size + 1

    # unigram level: a probability for the full event space so scoring never
    # falls through; the discount mass is summed in insertion order
    keys1, counts1 = adjusted[0]
    d1 = _estimate_discounts(counts1)
    total1 = int(counts1.sum())
    gamma1 = float(np.cumsum(_discounts_for(counts1, d1))[-1]) / total1
    dense = np.zeros(v_events, dtype=np.int64)
    dense[keys1] = counts1
    p = np.maximum(dense - _discounts_for(dense, d1), 0.0) / total1 + gamma1 * (1.0 / v_events)
    gram_keys, logprobs = [np.arange(v_events, dtype=np.int64)], [_log_each(p)]
    context_keys, backoffs = [], []

    for k in range(2, order + 1):
        keys, c = adjusted[k - 1]
        disc = _discounts_for(c, _estimate_discounts(c))
        ctx, ctx_of = np.unique(keys // base, return_inverse=True)
        ctx_total = np.bincount(ctx_of, weights=c, minlength=len(ctx))
        ctx_mass = np.zeros(len(ctx))
        np.add.at(ctx_mass, ctx_of, disc)  # one add per gram, in insertion order
        gamma = ctx_mass / ctx_total
        context_keys.append(ctx)
        backoffs.append(_log_each(gamma))
        lower_lp = logprobs[-1][np.searchsorted(gram_keys[-1], keys % base ** (k - 1))]
        lower = np.array([math.exp(x) for x in lower_lp.tolist()])
        p = np.maximum(c - disc, 0.0) / ctx_total[ctx_of] + gamma[ctx_of] * lower
        by_key = np.argsort(keys)
        gram_keys.append(keys[by_key])
        logprobs.append(_log_each(p)[by_key])

    trained_on = () if exclude_fold is None else tuple(
        f for f in range(counts.n_folds) if f != exclude_fold
    )
    return NGramModel(
        order=order,
        vocab=vocab,
        gram_keys=tuple(gram_keys),
        logprobs=tuple(logprobs),
        context_keys=tuple(context_keys),
        backoffs=tuple(backoffs),
        trained_on_folds=trained_on,
    )


def train_jackknife(
    corpus: Corpus, vocab: Vocabulary, order: int, folds: FoldAssignment
) -> tuple[NGramModel, list[NGramModel]]:
    """The full model and one model per left-out fold, from one counting pass."""
    counts = count_ngrams(corpus, vocab, order, folds)
    return estimate(counts, vocab), [estimate(counts, vocab, f) for f in range(folds.k)]


def _lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray):
    """(values at ``query``, found mask); values are 0.0 where not found."""
    idx = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    found = keys[idx] == query
    return np.where(found, values[idx], 0.0), found


def event_logprobs(model: NGramModel, ids, lengths) -> np.ndarray:
    """log p of every event of a right-padded id batch, as (rows, width + 1).

    Row r's events are its ``lengths[r]`` words, then end-of-sentence at
    column ``lengths[r]``; cells past it are 0.0, whatever the padding ids.
    Each event walks from the longest context down: ``acc + lp`` at the first
    order that holds the gram, ``acc`` the backoff weights passed on the way.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    ids = np.asarray(ids, dtype=np.int64)
    order, base = model.order, model.base
    real = np.arange(ids.shape[1]) < lengths[:, None]
    if np.any(real & ((ids < 0) | (ids >= model.vocab.size))):
        raise ValueError(f"word ids outside the vocabulary [0, {model.vocab.size})")
    seq, rows, ends = _events(ids, lengths, order, model.vocab.size)
    word = seq[rows, ends]
    # ctx[m]: the m ids before each event, packed
    ctx = [np.zeros(len(rows), dtype=np.int64), *_windows(seq, rows, ends - 1, order - 1, base)]
    acc = np.zeros(len(rows))
    flat = np.empty(len(rows))
    todo = np.arange(len(rows))
    # the unigram order holds every event, so each walk ends by m = 0
    for m in range(order - 1, -1, -1):
        lp, found = _lookup(model.gram_keys[m], model.logprobs[m], ctx[m][todo] * base + word[todo])
        hit = todo[found]
        flat[hit] = acc[hit] + lp[found]
        todo = todo[~found]
        if len(todo) == 0:
            break
        acc[todo] += _lookup(model.context_keys[m - 1], model.backoffs[m - 1], ctx[m][todo])[0]
    out = np.zeros((len(ids), ids.shape[1] + 1))
    out[rows, ends - (order - 1)] = flat
    return out


def score_ids(model: NGramModel, ids, lengths) -> np.ndarray:
    """Natural-log probability of each row of a right-padded id batch,
    end-of-sentence included; a row of length 0 scores end-of-sentence only.
    Each row is summed column by column, the order of a per-sentence walk."""
    grid = event_logprobs(model, ids, lengths)
    total = np.zeros(grid.shape[0])
    for column in grid.T:
        total += column
    return total


def save_model(model: NGramModel, path) -> None:
    arrays = {f"{name}{i}": a for name in _TABLES for i, a in enumerate(getattr(model, name))}
    meta = {"order": model.order, "trained_on_folds": list(model.trained_on_folds)}
    save_artifact(path, _KIND, arrays, meta, model.vocab)


def load_model(path, vocab: Vocabulary) -> NGramModel:
    """Load a model saved against ``vocab`` and attach it."""
    header, arrays = load_artifact(path, _KIND, _model_members, vocab)
    order = header["order"]
    return NGramModel(
        order=order,
        vocab=vocab,
        trained_on_folds=tuple(header["trained_on_folds"]),
        **{
            name: tuple(arrays[f"{name}{i}"] for i in range(order - fewer))
            for name, fewer in _TABLES.items()
        },
    )


def _model_members(header) -> dict:
    """The tables of a model file of the header's order, of any shape."""
    order = header.get("order")
    if type(order) is not int or not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be an int in [1, {MAX_ORDER}], got {order!r}")
    if not isinstance(header.get("trained_on_folds"), list):
        raise ValueError(f"trained_on_folds must be a list, got {header.get('trained_on_folds')!r}")
    return {f"{name}{i}": None for name, fewer in _TABLES.items() for i in range(order - fewer)}


def _gram_words(key: int, k: int, base: int, vocab: Vocabulary) -> tuple[str, ...]:
    ids = [(key // base ** (k - 1 - j)) % base for j in range(k)]
    specials = {base - 2: EOS, base - 1: BOS}
    return tuple(specials[i] if i in specials else vocab.id_to_word[i] for i in ids)


def export_arpa(model: NGramModel, path) -> None:
    """Standard ARPA text export (log10 values) for interoperability.

    Contexts that are never events themselves (begin-of-sentence prefixes)
    are emitted with the conventional -99 placeholder probability.
    """
    vocab = model.vocab
    ln10 = math.log(10.0)
    grams_by_len: dict = {}
    backoff: dict = {}
    for k in range(1, model.order + 1):
        level = {
            _gram_words(key, k, model.base, vocab): lp / ln10
            for key, lp in zip(model.gram_keys[k - 1].tolist(), model.logprobs[k - 1].tolist())
        }
        if k < model.order:
            for key, bo in zip(model.context_keys[k - 1].tolist(), model.backoffs[k - 1].tolist()):
                gram = _gram_words(key, k, model.base, vocab)
                backoff[gram] = bo
                level.setdefault(gram, -99.0)
        grams_by_len[k] = level
    with atomic_text_writer(path) as fh:
        fh.write("\\data\\\n")
        for k in range(1, model.order + 1):
            fh.write(f"ngram {k}={len(grams_by_len[k])}\n")
        for k in range(1, model.order + 1):
            fh.write(f"\n\\{k}-grams:\n")
            for gram in sorted(grams_by_len[k]):
                line = f"{grams_by_len[k][gram]:.7f}\t{' '.join(gram)}"
                if gram in backoff:
                    line += f"\t{backoff[gram] / ln10:.7f}"
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")
