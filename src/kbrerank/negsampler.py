"""Implicit negative examples by phonetic-confusion substitution.

Each training sentence gets a set of same-length corruptions: words are
replaced by vocabulary neighbours whose consonant-class codes are within one
edit, the raw samples are ranked by n-gram log-probability, and only the most
fluent few are kept so the artificial n-best lists resemble real recognizer
confusions rather than word salad.

Sampling runs on vocabulary ids in three steps: ``draw_negatives`` draws one
sentence's distinct corruptions, ``ngram.score_ids`` scores many sentences'
draws in one call, and ``keep_negatives`` builds ``Sentence``s for the kept
few only. An id corruption stands for exactly one surface corruption: a
candidate is a vocabulary word other than the word it replaces.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass

import numpy as np

from . import ngram
from .artifacts import atomic_text_writer, check_vocab_hash, read_jsonl
from .corpus import UNK, Corpus, Sentence, Vocabulary

# consonant classes; vowels and h/w/y carry no code
_CLASS_OF = {}
for _letters, _code in (
    ("bfpv", 1),
    ("cgjkqsxz", 2),
    ("dt", 3),
    ("l", 4),
    ("mn", 5),
    ("r", 6),
):
    for _ch in _letters:
        _CLASS_OF[_ch] = _code

_VOWELS = set("aeiou")

PhoneticKey = tuple[int, ...]


def phonetic_key(word: str) -> PhoneticKey:
    """Consonant-class code with adjacent duplicates collapsed.

    All-vowel words encode to the empty key; words with no letters at all
    (or only the uncoded h/w/y) are unencodable.
    """
    letters = [ch for ch in word.lower() if ch.isalpha()]
    code: list[int] = []
    has_vowel = False
    for ch in letters:
        cls = _CLASS_OF.get(ch)
        if cls is None:
            has_vowel = has_vowel or ch in _VOWELS
            continue
        if not code or code[-1] != cls:
            code.append(cls)
    if not code and not has_vowel:
        raise ValueError(f"unencodable word {word!r}")
    return tuple(code)


def _within_one_edit(a: PhoneticKey, b: PhoneticKey) -> bool:
    if a == b:
        return True
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la = b, a, lb
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


@dataclass(frozen=True)
class ConfusionTable:
    """Per-word phonetic neighbourhoods over a fixed vocabulary, as ids."""

    vocab: Vocabulary
    candidate_ids: dict  # word id -> its candidates' ids, in word order; none if empty

    def confusable(self, ids) -> list:
        """(position, candidate ids) of each position of ``ids`` whose word
        has candidates, in position order."""
        return [(i, self.candidate_ids[w]) for i, w in enumerate(ids) if w in self.candidate_ids]

    def corrupt(self, ids, confusable, p_sub: float, rng: random.Random):
        """One corruption of ``ids`` as (new ids, substituted positions).

        Each of the ``confusable`` positions (non-empty, as ``confusable``
        returns them) is substituted independently with probability
        ``p_sub`` by a uniform choice among its candidates; a draw that
        substitutes nothing is redrawn. Only confusable positions consume
        ``rng``.
        """
        while True:
            out = list(ids)
            positions = []
            for i, cands in confusable:
                if rng.random() < p_sub:
                    out[i] = rng.choice(cands)
                    positions.append(i)
            if positions:
                return tuple(out), tuple(positions)


def build_confusion_table(vocab: Vocabulary) -> ConfusionTable:
    """Candidates are the other words whose keys are within one edit."""
    key_of: dict = {}
    for word in vocab.id_to_word:
        if word == UNK:
            continue
        try:
            key_of[word] = phonetic_key(word)
        except ValueError:
            continue  # unencodable words take no part in confusions

    by_key: dict = {}
    for word, key in key_of.items():
        by_key.setdefault(key, []).append(word)

    # single-deletion buckets propose near keys; an exact check confirms,
    # since same-length keys sharing a deletion can still be two edits apart
    buckets: dict = {}
    for key in by_key:
        variants = {key}
        for i in range(len(key)):
            variants.add(key[:i] + key[i + 1 :])
        for var in variants:
            buckets.setdefault(var, []).append(key)

    neighbours: dict = {key: {key} for key in by_key}
    for keys in buckets.values():
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1 :]:
                if _within_one_edit(k1, k2):
                    neighbours[k1].add(k2)
                    neighbours[k2].add(k1)

    candidate_ids: dict = {}
    for word, key in key_of.items():
        cands = set()
        for nk in neighbours[key]:
            cands.update(by_key[nk])
        cands.discard(word)
        if cands:
            ids = map(vocab.word_to_id.__getitem__, sorted(cands))
            candidate_ids[vocab.word_to_id[word]] = tuple(ids)
    return ConfusionTable(vocab, candidate_ids)


@dataclass(frozen=True)
class NegativeSet:
    """Kept corruptions of one source sentence, best n-gram score first."""

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


def _check_keep(n_samples: int, keep_k: int) -> None:
    if not 1 <= keep_k <= n_samples:
        raise ValueError(
            f"need 1 <= keep_k <= n_samples, got keep_k {keep_k}, n_samples {n_samples}"
        )


def draw_negatives(source_ids, table: ConfusionTable, n_samples: int, p_sub: float, seed: int):
    """Distinct id corruptions of one sentence, each mapped to the positions
    its first draw substituted, in first-draw order; None when no position
    is confusable.

    Each draw is one ``ConfusionTable.corrupt``: every position with
    confusable neighbours is substituted independently with probability
    ``p_sub``, and a draw with no substitution is redrawn.
    """
    if not 0.0 < p_sub <= 1.0:
        raise ValueError("p_sub must be in (0, 1]")
    confusable = table.confusable(source_ids)
    if not confusable:
        return None
    rng = random.Random(seed)
    seen: dict = {}
    for _ in range(n_samples):
        ids, positions = table.corrupt(source_ids, confusable, p_sub, rng)
        seen.setdefault(ids, positions)
    return seen


def _surface(sentence: Sentence, ids, positions, table: ConfusionTable) -> tuple[str, ...]:
    tokens = list(sentence.tokens)
    for p in positions:
        tokens[p] = table.vocab.id_to_word[ids[p]]
    return tuple(tokens)


def keep_negatives(
    sentence: Sentence, drawn: dict, scores, keep_k: int, table: ConfusionTable
) -> NegativeSet:
    """The ``keep_k`` draws best by (-score, surface tokens), as a
    ``NegativeSet``; ``scores`` are the draws' n-gram log-probabilities."""
    draws = list(drawn.items())
    scores = np.asarray(scores).tolist()
    ranked = sorted(range(len(draws)), key=lambda i: -scores[i])
    if len(ranked) > keep_k:  # only draws tied with the last kept one need their tokens
        cut = -scores[ranked[keep_k - 1]]
        ranked = [i for i in ranked if -scores[i] <= cut]
    kept = sorted((-scores[i], _surface(sentence, *draws[i], table), i) for i in ranked)[:keep_k]
    return NegativeSet(
        source=sentence,
        negatives=tuple(Sentence(tokens) for _, tokens, _ in kept),
        lm_logprobs=tuple(scores[i] for _, _, i in kept),
        substituted_positions=tuple(draws[i][1] for _, _, i in kept),
    )


def sample_corpus_negatives(
    corpus: Corpus,
    table: ConfusionTable,
    fold_models,
    fold_of,
    n_samples: int,
    keep_k: int,
    p_sub: float,
    seed: int,
) -> list:
    """Each sentence j's negatives: ``draw_negatives`` with the seed
    ``derive_seed(seed, "neg", j)``, scored by ``fold_models[fold_of[j]]``,
    then ``keep_negatives``; None where no position is confusable. Each
    model's draws are scored in one call."""
    _check_keep(n_samples, keep_k)
    table_hash = table.vocab.content_hash()  # the draws are ids of the table's vocabulary
    for model in fold_models:
        check_vocab_hash(model.vocab.content_hash(), table_hash, "jackknife n-gram model")
    drawn = [
        draw_negatives(
            table.vocab.encode(s.tokens), table, n_samples, p_sub, derive_seed(seed, "neg", j)
        )
        for j, s in enumerate(corpus)
    ]
    rows, row_folds = [], []
    for j, draws in enumerate(drawn):
        if draws is not None:
            rows.extend(draws)
            row_folds.extend([fold_of[j]] * len(draws))
    scores = ngram.score_by_fold(fold_models, row_folds, rows)
    negsets, row = [], 0
    for sentence, draws in zip(corpus, drawn):
        if draws is None:
            negsets.append(None)
            continue
        own = scores[row : row + len(draws)]
        negsets.append(keep_negatives(sentence, draws, own, keep_k, table))
        row += len(draws)
    return negsets


def derive_seed(global_seed: int, *parts) -> int:
    """Stable per-item seed stream, independent of iteration order."""
    tag = ":".join(str(p) for p in (global_seed, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def negative_quality_ranking(negsets) -> list[int]:
    """Indices sorted by mean n-gram log-probability of the kept negatives,
    best first; missing sets sort last. Ties keep original order."""
    def sort_key(i):
        ns = negsets[i]
        return (-ns.mean_lm_logprob() if ns is not None else float("inf"), i)

    return sorted(range(len(negsets)), key=sort_key)


def filter_corpus_by_negative_quality(corpus: Corpus, negsets, top_m: int) -> list[int]:
    """Indices, in corpus order, of the ``top_m`` sentences whose negatives
    the n-gram model likes most; sentences without negatives are never kept."""
    if top_m <= 0:
        raise ValueError("top_m must be positive")
    if len(negsets) != len(corpus):
        raise ValueError("negative sets must align with the corpus")
    ranked = [i for i in negative_quality_ranking(negsets) if negsets[i] is not None]
    return sorted(ranked[:top_m])


def save_negative_sets(negsets, path) -> None:
    """JSON-lines dump; sentences without a set are skipped."""
    with atomic_text_writer(path) as fh:
        for source_id, ns in enumerate(negsets):
            if ns is None:
                continue
            rec = {
                "source_id": source_id,
                "negatives": [
                    {
                        "tokens": list(neg.tokens),
                        "lm_logprob": lp,
                        "substituted_positions": list(pos),
                    }
                    for neg, lp, pos in zip(
                        ns.negatives, ns.lm_logprobs, ns.substituted_positions
                    )
                ],
            }
            fh.write(json.dumps(rec) + "\n")


def load_negative_sets(path, corpus: Corpus) -> list:
    """Rebuild per-sentence sets aligned with the corpus (None where absent).

    Each record's ``source_id`` must be an int in [0, len(corpus)) that no
    other record names; each set is checked as a ``NegativeSet``.
    """
    negsets: list = [None] * len(corpus)
    for lineno, rec in read_jsonl(path):
        sid = rec.get("source_id")
        if type(sid) is not int or not 0 <= sid < len(corpus):
            raise ValueError(
                f"{path}:{lineno}: source_id must be an int in [0, {len(corpus)}), got {sid!r}"
            )
        if negsets[sid] is not None:
            raise ValueError(f"{path}:{lineno}: duplicate source_id {sid}")
        try:
            negsets[sid] = NegativeSet(
                source=corpus[sid],
                negatives=tuple(Sentence(tuple(n["tokens"])) for n in rec["negatives"]),
                lm_logprobs=tuple(n["lm_logprob"] for n in rec["negatives"]),
                substituted_positions=tuple(
                    tuple(n["substituted_positions"]) for n in rec["negatives"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed negative set ({exc!r})") from exc
    return negsets
