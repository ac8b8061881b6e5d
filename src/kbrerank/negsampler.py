"""Implicit negative examples by phonetic-confusion substitution.

Each training sentence gets a set of same-length corruptions: words are
replaced by vocabulary neighbours whose consonant-class codes are within one
edit, the raw samples are ranked by n-gram log-probability, and only the most
fluent few are kept so the artificial n-best lists resemble real recognizer
confusions rather than word salad.

Sampling runs on vocabulary ids in three steps, one jackknife fold at a
time: ``draw_negatives`` draws one sentence's distinct corruptions (each
draw ``rng.choice``'s, inline), ``ngram.score_ids`` scores the fold's
sentences and their draws in one call, each distinct n-gram window once,
and one sort of the fold's rows ranks each sentence's draws, of which the
best few are kept. An id corruption stands for exactly one surface
corruption: a candidate is a vocabulary word other than the word it
replaces. The kept rows are one ``Negatives`` id array, saved as an artifact
of kind ``negatives``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

import numpy as np

from . import ngram
from .artifacts import ArtifactError, check_vocab_hash, load_artifact, save_artifact
from .corpus import UNK, Corpus, Vocabulary, pad_ids

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
        """(position, candidate ids, their count, the count's bit length) of
        each position of ``ids`` whose word has candidates, in position order."""
        found = [(i, self.candidate_ids[w]) for i, w in enumerate(ids) if w in self.candidate_ids]
        return [(i, c, len(c), len(c).bit_length()) for i, c in found]

    def corruptions(self, ids, confusable, p_sub: float, rng: random.Random):
        """Endless corruptions of ``ids``, as new id tuples, one draw each.

        Each of the ``confusable`` positions (non-empty, as ``confusable``
        returns them) is substituted independently with probability
        ``p_sub`` by a uniform choice among its candidates; a draw that
        substitutes nothing is redrawn. Only confusable positions consume
        ``rng``, and only as each draw is taken. The choice is ``rng.choice``'s
        own rejection loop (``Random._randbelow_with_getrandbits``), inline,
        so the draws and the stream are ``rng.choice``'s.
        """
        rand, getrandbits = rng.random, rng.getrandbits
        while True:
            out = list(ids)
            hit = False
            for i, cands, n, k in confusable:
                if rand() < p_sub:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    out[i] = cands[r]
                    hit = True
            if hit:
                yield tuple(out)


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

    # each key's neighbourhood sorted once; a word's candidates are it less the word
    near_ids = {
        key: [vocab.word_to_id[w] for w in sorted(w for nk in near for w in by_key[nk])]
        for key, near in neighbours.items()
    }
    candidate_ids: dict = {}
    for word, key in key_of.items():
        wid = vocab.word_to_id[word]
        cands = tuple(i for i in near_ids[key] if i != wid)
        if cands:
            candidate_ids[wid] = cands
    return ConfusionTable(vocab, candidate_ids)


def draw_negatives(source_ids, table: ConfusionTable, n_samples: int, p_sub: float, seed: int):
    """The distinct id corruptions of one sentence, in first-draw order, from
    its first ``n_samples`` ``ConfusionTable.corruptions``; None when no
    position is confusable."""
    if not 0.0 < p_sub <= 1.0:
        raise ValueError("p_sub must be in (0, 1]")
    confusable = table.confusable(source_ids)
    if not confusable:
        return None
    draws = table.corruptions(source_ids, confusable, p_sub, random.Random(seed))
    return list(dict.fromkeys(itertools.islice(draws, n_samples)))


@dataclass(frozen=True, eq=False)
class Negatives:
    """Each sampled sentence's group of rows, in corpus order: its own ids,
    then its kept negatives, best first; each row's corpus index, its ids
    right-padded with 0 and its log-probability under the sentence's fold
    model. A negative differs from its group's first row exactly at its
    substituted positions: a candidate never equals the word it replaces,
    and ``<unk>`` has no candidates."""

    sentence: np.ndarray  # (n,) int64
    ids: np.ndarray  # (n, L) int32
    logprob: np.ndarray  # (n,) float64

    def groups(self) -> list:
        """(sentence, first row, end row) of each group, in corpus order."""
        starts = np.flatnonzero(np.diff(self.sentence, prepend=-1)).tolist()
        ends = [*starts[1:], len(self.sentence)]
        return list(zip(self.sentence[starts].tolist(), starts, ends))

    def words(self, group, corpus, vocab: Vocabulary) -> list:
        """Each row of ``group`` (one of ``groups``) as words: its sentence's,
        except where the row's ids differ from the sentence's own."""
        sid, start, end = group
        tokens = corpus[sid].tokens
        rows = self.ids[start:end, : len(tokens)].tolist()
        words, own = vocab.id_to_word, rows[0]
        return [[t if i == o else words[i] for t, i, o in zip(tokens, row, own)] for row in rows]


def sample_corpus_negatives(
    corpus: Corpus,
    table: ConfusionTable,
    fold_models,
    fold_of,
    n_samples: int,
    keep_k: int,
    p_sub: float,
    seed: int,
) -> Negatives:
    """Each sentence j's group: ``draw_negatives`` with the seed
    ``derive_seed(seed, "neg", j)``, scored with the sentence itself by
    ``fold_models[fold_of[j]]``, then the ``keep_k`` draws best by (-score,
    surface tokens); a sentence without a confusable position has no group.
    One fold at a time is drawn, scored in one call and ranked in one sort
    (and one more of its score ties), so only one fold's draws are held at
    once."""
    if not 1 <= keep_k <= n_samples:
        raise ValueError(
            f"need 1 <= keep_k <= n_samples, got keep_k {keep_k}, n_samples {n_samples}"
        )
    if len(fold_of) != len(corpus):
        raise ValueError(f"{len(fold_of)} fold assignments for {len(corpus)} sentences")
    table_hash = table.vocab.content_hash()  # the draws are ids of the table's vocabulary
    for model in fold_models:
        check_vocab_hash(model.vocab.content_hash(), table_hash, "jackknife n-gram model")
    # comparing ranks compares words: the rows of a group share their length
    # and their unsubstituted tokens, and a substituted position holds a word
    words = table.vocab.id_to_word
    rank = np.empty(len(words), dtype=np.int64)
    rank[sorted(range(len(words)), key=words.__getitem__)] = np.arange(len(words))
    kept = []
    for fold, model in enumerate(fold_models):
        rows, sentence = [], []
        for j in (j for j, f in enumerate(fold_of) if f == fold):
            own = table.vocab.encode(corpus[j].tokens)
            draws = draw_negatives(own, table, n_samples, p_sub, derive_seed(seed, "neg", j))
            if draws is not None:
                rows += [own, *draws]
                sentence += [j] * (1 + len(draws))
        ids, lengths = pad_ids(rows)
        scores = ngram.score_ids(model, ids, lengths)
        sentence = np.array(sentence, dtype=np.int64)
        # by sentence, its own row (a group's first) first, then -score; a run
        # of rows tied on both then by words, column by column
        key = np.where(np.diff(sentence, prepend=-1) == 0, -scores, -np.inf)
        order = np.lexsort((key, sentence))
        same = np.diff(key[order], prepend=np.nan, append=np.nan) == 0  # as the row before
        tied = same[:-1] | same[1:]
        runs = order[tied]
        order[tied] = runs[np.lexsort((*rank[ids[runs, ::-1]].T, key[runs], sentence[runs]))]
        at = np.arange(len(order)) - np.searchsorted(sentence, sentence)  # place in its group
        best = order[at <= keep_k]
        kept.append((sentence[best], ids[best], scores[best]))
    sentence, ids, logprob = zip(*kept)
    width = max(part.shape[1] for part in ids)
    ids = [np.pad(part, ((0, 0), (0, width - part.shape[1]))) for part in ids]
    sentence, ids, logprob = map(np.concatenate, (sentence, ids, logprob))
    by_sentence = np.argsort(sentence, kind="stable")  # groups in corpus order
    return Negatives(sentence[by_sentence], ids[by_sentence].astype(np.int32), logprob[by_sentence])


def derive_seed(global_seed: int, *parts) -> int:
    """Stable per-item seed stream, independent of iteration order."""
    tag = ":".join(str(p) for p in (global_seed, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")


def best_groups(negs: Negatives, top_m: int) -> list:
    """The ``top_m`` groups (``Negatives.groups``) whose negatives the n-gram
    model likes most by mean log-probability, in corpus order; ties keep
    corpus order. Each mean sums its group's scores in row order."""
    if top_m <= 0:
        raise ValueError("top_m must be positive")
    scores = negs.logprob.tolist()
    # a group's negatives are its rows after the first
    means = {g: sum(scores[g[1] + 1 : g[2]]) / (g[2] - g[1] - 1) for g in negs.groups()}
    return sorted(sorted(means, key=lambda g: -means[g])[:top_m])


_KIND = "negatives"
_MEMBERS = {
    "sentence": (np.int64, (None,)),
    "ids": (np.int32, (None, None)),
    "logprob": (np.float64, (None,)),
}


def save_negatives(negs: Negatives, path, vocab: Vocabulary) -> None:
    save_artifact(path, _KIND, vars(negs), vocab=vocab)


def load_negatives(path, corpus: Corpus, vocab: Vocabulary) -> Negatives:
    """The negatives of ``corpus`` saved against ``vocab``, checked as
    columns: each member's dtype and shape, ids in [0, V), finite scores,
    groups in ascending corpus order, each starting with its sentence's own
    ids and holding at least one negative of that length that differs from
    it. Each fault names the file and, where there is one, the sentence."""
    _, arrays = load_artifact(path, _KIND, lambda header: _MEMBERS, vocab)
    n = len(arrays["sentence"])
    for name, array in arrays.items():
        if len(array) != n:
            raise ArtifactError(
                f"{path}: member {name!r} is {array.dtype} of shape {array.shape}, "
                f"expected {array.dtype} with the sentence column's {n} rows"
            )
    negs = Negatives(**arrays)
    sentence = negs.sentence

    def refuse(bad_rows, fault):
        if bad_rows.any():
            row = int(np.argmax(bad_rows))
            raise ArtifactError(f"{path}: sentence {sentence[row]}: {fault}")

    refuse((sentence < 0) | (sentence >= len(corpus)), f"index outside [0, {len(corpus)})")
    refuse(np.diff(sentence, prepend=sentence[:1]) < 0, "groups not in ascending corpus order")
    bad_ids = (negs.ids < 0) | (negs.ids >= vocab.size)
    refuse(bad_ids.any(axis=1), f"id outside [0, {vocab.size})")
    refuse(~np.isfinite(negs.logprob), "logprob is not finite")
    first = np.diff(sentence, prepend=-1) != 0  # each group's first row
    group = np.cumsum(first) - 1  # each row's group
    # each row beside its sentence's own ids, both padded to one width
    own, lengths = pad_ids([vocab.encode(corpus[j].tokens) for j in sentence[first].tolist()])
    width = max(negs.ids.shape[1], own.shape[1])
    ids = np.pad(negs.ids, ((0, 0), (0, width - negs.ids.shape[1])))
    source = np.pad(own.astype(np.int32), ((0, 0), (0, width - own.shape[1])))[group]
    refuse(first & (ids != source).any(axis=1), "group does not start with the sentence's own ids")
    refuse(first & (np.bincount(group)[group] < 2), "group holds no negative")
    past_end = np.arange(width) >= lengths[group, None]
    refuse(~first & (past_end & (ids != 0)).any(axis=1), "negative of another length")
    refuse(~first & (ids == source).all(axis=1), "negative equals its sentence")
    return negs
