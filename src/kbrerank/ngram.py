"""Backoff n-gram language model (interpolated modified Kneser-Ney).

Used three ways: ranking sampled negative examples, supplying the fixed
negative-log-probability feature via jackknifing, and as a standalone
reranking baseline. The event space is closed (vocabulary incl. the unknown
symbol, plus end-of-sentence), so every score is finite and every
conditional distribution sums to one.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .artifacts import load_artifact, save_artifact
from .corpus import Corpus, FoldAssignment, Sentence, Vocabulary

BOS = "<s>"
EOS = "</s>"

MAX_ORDER = 5
_MIN_DISCOUNT = 0.01


def _estimate_discounts(counts) -> tuple[float, float, float]:
    """Per-level discounts for count classes 1, 2 and 3+ from count-of-counts.

    Degenerate statistics on tiny corpora are clamped into (0, class] so the
    interpolated distribution stays normalized and strictly positive.
    """
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
    return (
        min(max(d1, _MIN_DISCOUNT), 1.0),
        min(max(d2, _MIN_DISCOUNT), 2.0),
        min(max(d3, _MIN_DISCOUNT), 3.0),
    )


def _discount_for(count: int, d: tuple[float, float, float]) -> float:
    if count >= 3:
        return d[2]
    if count == 2:
        return d[1]
    return d[0]


@dataclass
class NGramModel:
    """Trained model: interpolated log-probabilities plus backoff weights.

    ``logprob`` maps k-gram word tuples (any k up to the order) to natural-log
    interpolated probabilities; ``logbackoff`` maps context tuples to log
    backoff weights. Missing contexts back off with weight one.
    """

    order: int
    vocab: Vocabulary
    vocab_hash: str
    v_events: int
    logprob: dict = field(repr=False)
    logbackoff: dict = field(repr=False)
    trained_on_folds: tuple[int, ...] = ()

    def map_tokens(self, tokens) -> tuple[str, ...]:
        return tuple(self.vocab.map_token(t) for t in tokens)

    def conditional_logprob(self, context: tuple[str, ...], word: str) -> float:
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

    def score_sentence(self, sentence: Sentence) -> float:
        return score_sentence(self, sentence)


def _count_tables(mapped_sentences, order: int):
    """Suffix counts of every k-gram window ending at a real event position."""
    raw = [None] + [Counter() for _ in range(order)]
    for toks in mapped_sentences:
        seq = (BOS,) * (order - 1) + toks + (EOS,)
        for end in range(order - 1, len(seq)):
            for k in range(1, order + 1):
                raw[k][seq[end - k + 1 : end + 1]] += 1
    return raw


def _adjusted_tables(raw, order: int):
    """Continuation counts for lower levels; raw counts survive at the top
    level and for begin-of-sentence prefixes, which have no left extension."""
    adjusted = [None] * (order + 1)
    adjusted[order] = dict(raw[order])
    for k in range(order - 1, 0, -1):
        table: dict = {}
        for gram, c in raw[k].items():
            if gram[0] == BOS:
                table[gram] = c
        for gram in raw[k + 1]:
            suffix = gram[1:]
            if suffix[0] != BOS:
                table[suffix] = table.get(suffix, 0) + 1
        adjusted[k] = table
    return adjusted


def train_ngram(
    corpus: Corpus,
    vocab: Vocabulary,
    order: int = 3,
    exclude_fold=None,
    folds: FoldAssignment | None = None,
) -> NGramModel:
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in [1, {MAX_ORDER}]")
    if exclude_fold is not None:
        if folds is None or len(folds.fold_of) != len(corpus):
            raise ValueError("fold assignment must cover the corpus")
        mapped = [
            tuple(vocab.map_token(t) for t in sent.tokens)
            for i, sent in enumerate(corpus)
            if folds.fold_of[i] != exclude_fold
        ]
        trained_on = tuple(f for f in range(folds.k) if f != exclude_fold)
    else:
        mapped = [tuple(vocab.map_token(t) for t in sent.tokens) for sent in corpus]
        trained_on = ()
    if not mapped:
        raise ValueError("corpus empty after fold exclusion")

    raw = _count_tables(mapped, order)
    adjusted = _adjusted_tables(raw, order)
    v_events = vocab.size + 1  # every vocabulary word plus end-of-sentence

    logprob: dict = {}
    logbackoff: dict = {}

    # unigram level: store a probability for the full event space so scoring
    # never falls through
    d1 = _estimate_discounts(adjusted[1].values())
    total1 = sum(adjusted[1].values())
    gamma_mass = 0.0
    for c in adjusted[1].values():
        gamma_mass += _discount_for(c, d1)
    gamma1 = gamma_mass / total1
    uniform = 1.0 / v_events
    for word in (*vocab.id_to_word, EOS):
        c = adjusted[1].get((word,), 0)
        p = max(c - _discount_for(c, d1), 0.0) / total1 + gamma1 * uniform
        logprob[(word,)] = math.log(p)

    for k in range(2, order + 1):
        table = adjusted[k]
        dk = _estimate_discounts(table.values())
        ctx_total: dict = {}
        ctx_discount: dict = {}
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

    return NGramModel(
        order=order,
        vocab=vocab,
        vocab_hash=vocab.content_hash(),
        v_events=v_events,
        logprob=logprob,
        logbackoff=logbackoff,
        trained_on_folds=trained_on,
    )


def score_sentence(model: NGramModel, sentence: Sentence) -> float:
    """Natural-log probability of the sentence including end-of-sentence."""
    mapped = model.map_tokens(sentence.tokens)
    padded = (BOS,) * (model.order - 1) + mapped
    n_ctx = model.order - 1
    total = 0.0
    for i, event in enumerate((*mapped, EOS)):
        total += model.conditional_logprob(padded[i : i + n_ctx], event)
    return total


def event_distribution(model: NGramModel, context_tokens) -> dict:
    """p(. | context) over the full event space; contexts are surface tokens."""
    ctx = (BOS,) * (model.order - 1) + model.map_tokens(context_tokens)
    return {
        w: math.exp(model.conditional_logprob(ctx, w))
        for w in (*model.vocab.id_to_word, EOS)
    }


def train_jackknife_models(
    corpus: Corpus, vocab: Vocabulary, order: int, folds: FoldAssignment
) -> list[NGramModel]:
    return [
        train_ngram(corpus, vocab, order, exclude_fold=f, folds=folds)
        for f in range(folds.k)
    ]


def save_model(model: NGramModel, path) -> None:
    save_artifact(path, "ngram-model", {"model": model})


def load_model(path) -> NGramModel:
    return load_artifact(path, "ngram-model")["model"]


def export_arpa(model: NGramModel, path) -> None:
    """Standard ARPA text export (log10 values) for interoperability.

    Contexts that are never events themselves (begin-of-sentence prefixes)
    are emitted with the conventional -99 placeholder probability.
    """
    ln10 = math.log(10.0)
    grams_by_len: dict = {k: {} for k in range(1, model.order + 1)}
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
