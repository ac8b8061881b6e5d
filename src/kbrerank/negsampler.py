"""Implicit negative examples by phonetic-confusion substitution.

Each training sentence gets a set of same-length corruptions: words are
replaced by vocabulary neighbours whose consonant-class codes are within one
edit, the raw samples are ranked by n-gram log-probability, and only the most
fluent few are kept so the artificial n-best lists resemble real recognizer
confusions rather than word salad.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from .corpus import UNK, Corpus, Sentence, Vocabulary
from .ngram import NGramModel, score_sentence

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
    """Per-word phonetic neighbourhoods over a fixed vocabulary."""

    key_of: dict  # word -> PhoneticKey
    by_key: dict  # PhoneticKey -> tuple of words (sorted)
    candidates: dict  # word -> tuple of words (sorted), excluding the word

    def candidates_of(self, word: str) -> tuple[str, ...]:
        return self.candidates.get(word, ())


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

    candidates: dict = {}
    for word, key in key_of.items():
        cands = set()
        for nk in neighbours[key]:
            cands.update(by_key[nk])
        cands.discard(word)
        candidates[word] = tuple(sorted(cands))

    return ConfusionTable(
        key_of=key_of,
        by_key={k: tuple(sorted(v)) for k, v in by_key.items()},
        candidates=candidates,
    )


@dataclass(frozen=True)
class NegativeSet:
    """Kept corruptions of one source sentence, best n-gram score first."""

    source: Sentence
    negatives: tuple[Sentence, ...]
    lm_logprobs: tuple[float, ...]
    substituted_positions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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


class NoConfusablePosition(ValueError):
    """No word of the sentence has a phonetic neighbour, so nothing can be
    substituted."""


def sample_negatives(
    sentence: Sentence,
    table: ConfusionTable,
    lm: NGramModel,
    n_samples: int = 30,
    keep_k: int = 5,
    p_sub: float = 0.3,
    seed: int = 0,
) -> NegativeSet:
    """Draw corruptions, deduplicate, keep the ``keep_k`` most fluent.

    Every position with confusable neighbours is substituted independently
    with probability ``p_sub``; a draw with no substitution is redrawn.
    """
    if not 1 <= keep_k <= n_samples:
        raise ValueError("need 1 <= keep_k <= n_samples")
    if not 0.0 < p_sub <= 1.0:
        raise ValueError("p_sub must be in (0, 1]")
    confusable = [
        (i, table.candidates_of(tok))
        for i, tok in enumerate(sentence.tokens)
        if table.candidates_of(tok)
    ]
    if not confusable:
        raise NoConfusablePosition("no confusable position")

    rng = random.Random(seed)
    seen: dict = {}
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
        ((score_sentence(lm, Sentence(toks)), toks) for toks in seen),
        key=lambda item: (-item[0], item[1]),
    )[:keep_k]
    return NegativeSet(
        source=sentence,
        negatives=tuple(Sentence(toks) for _, toks in scored),
        lm_logprobs=tuple(score for score, _ in scored),
        substituted_positions=tuple(seen[toks] for _, toks in scored),
    )


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


def filter_corpus_by_negative_quality(corpus: Corpus, negsets, top_m: int) -> Corpus:
    """Keep the sentences whose negatives the n-gram model likes most."""
    if top_m <= 0:
        raise ValueError("top_m must be positive")
    if len(negsets) != len(corpus):
        raise ValueError("negative sets must align with the corpus")
    ranked = [i for i in negative_quality_ranking(negsets) if negsets[i] is not None]
    kept = sorted(ranked[:top_m])
    return Corpus(
        tuple(corpus[i] for i in kept),
        source_path=f"{corpus.source_path}#top{top_m}",
    )


def save_negative_sets(negsets, path) -> None:
    """JSON-lines dump; sentences without a set are skipped."""
    with open(path, "w", encoding="utf-8") as fh:
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
    """Rebuild per-sentence sets aligned with the corpus (None where absent)."""
    negsets: list = [None] * len(corpus)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            sid = rec["source_id"]
            negsets[sid] = NegativeSet(
                source=corpus[sid],
                negatives=tuple(Sentence(tuple(n["tokens"])) for n in rec["negatives"]),
                lm_logprobs=tuple(n["lm_logprob"] for n in rec["negatives"]),
                substituted_positions=tuple(
                    tuple(n["substituted_positions"]) for n in rec["negatives"]
                ),
            )
    return negsets
