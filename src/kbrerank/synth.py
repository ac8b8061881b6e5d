"""Deterministic synthetic world: music KB, query corpus, simulated n-best lists.

Words are consonant-vowel syllable strings, so the phonetic-confusion table is
dense and the simulated recognizer errors look like real homophone slips. The
generated first-pass scores rank a corrupted hypothesis first at a configured
rate, which makes end-to-end reranking quality measurable against ground truth.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .corpus import UNK, Corpus, Sentence, Vocabulary
from .evaluation import NBestList
from .kb import KBEntry
from .negsampler import ConfusionTable, build_confusion_table

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

DEFAULT_TEMPLATES = (
    "play <song> by <artist>",
    "play <song>",
    "play something by <artist>",
    "download <song> by <artist>",
    "download <song>",
    "put on <song> by <artist>",
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_artists: int = 100
    songs_per_artist: int = 20
    word_inventory: int = 400
    templates: tuple[str, ...] = DEFAULT_TEMPLATES
    n_train: int = 20000
    n_heldout: int = 1000
    n_test: int = 1000
    hyps_per_utt: int = 5
    noise_rate: float = 0.3
    unreachable_rate: float = 0.0
    corruption_p_sub: float = 0.25
    zipf_exponent: float = 1.1

    def __post_init__(self):
        counts = (
            self.n_artists,
            self.songs_per_artist,
            self.word_inventory,
            self.n_train,
            self.n_heldout,
            self.n_test,
            self.hyps_per_utt,
        )
        if any(c < 1 for c in counts):
            raise ValueError("all counts must be >= 1")
        for tpl in self.templates:
            for tok in tpl.split():
                if tok.startswith("<") and tok not in ("<artist>", "<song>"):
                    raise ValueError(f"template references unknown slot {tok!r}")
        if not 0 <= self.noise_rate <= 1 or not 0 <= self.unreachable_rate <= 1:
            raise ValueError("rates must be in [0, 1]")
        if not 0 < self.corruption_p_sub <= 1:  # 0 would redraw forever
            raise ValueError("corruption_p_sub must be in (0, 1]")


@dataclass
class World:
    config: SynthConfig
    inventory: list
    kb_entries: list
    train: Corpus
    heldout: list
    test: list


def _word_inventory(size: int, rng: random.Random) -> list[str]:
    syllables = [c + v for c in _CONSONANTS for v in _VOWELS]
    combos = [a + b for a in syllables for b in syllables]
    if size > len(combos):
        raise ValueError(f"inventory of {size} exceeds the {len(combos)} available words")
    rng.shuffle(combos)
    return combos[:size]


def _distinct_phrase(rng: random.Random, inventory, lengths, taken: set) -> tuple[str, ...]:
    # the length is re-drawn on collision, so exhausting the short phrases
    # only shifts later entities toward longer names
    for _ in range(2000):
        length = rng.choice(lengths)
        phrase = tuple(rng.choice(inventory) for _ in range(length))
        if phrase not in taken:
            taken.add(phrase)
            return phrase
    raise ValueError("inventory too small to generate distinct entity names")


def _make_kb(config: SynthConfig, rng: random.Random, inventory) -> list[KBEntry]:
    taken: set = set()
    entries = []
    rank = 0
    for _ in range(config.n_artists):
        artist = _distinct_phrase(rng, inventory, (1, 2, 2), taken)
        for _ in range(config.songs_per_artist):
            song = _distinct_phrase(rng, inventory, (1, 2, 2, 3), taken)
            freq = round(1000.0 / (rank + 1) ** config.zipf_exponent, 4)
            entries.append(KBEntry(artist, song, freq))
            rank += 1
    return entries


def _fill_template(template: str, entry: KBEntry) -> tuple[str, ...]:
    out: list[str] = []
    for tok in template.split():
        if tok == "<artist>":
            out.extend(entry.artist)
        elif tok == "<song>":
            out.extend(entry.song)
        else:
            out.append(tok)
    return tuple(out)


def _query_sampler(config: SynthConfig, rng: random.Random, entries):
    weights = [e.frequency + 0.1 for e in entries]

    def sample() -> tuple[str, ...]:
        entry = rng.choices(entries, weights=weights, k=1)[0]
        return _fill_template(rng.choice(config.templates), entry)

    return sample


def world_confusion_table(config: SynthConfig, inventory, entries) -> ConfusionTable:
    """Confusions over every word the world can produce, entities included."""
    words = set(inventory)
    for entry in entries:
        words.update(entry.artist)
        words.update(entry.song)
    for tpl in config.templates:
        words.update(t for t in tpl.split() if not t.startswith("<"))
    id_to_word = (UNK, *sorted(words))
    vocab = Vocabulary({w: i for i, w in enumerate(id_to_word)}, id_to_word)
    return build_confusion_table(vocab)


def _check_reachable(config: SynthConfig, table: ConfusionTable, entries) -> None:
    """Raise unless some query the world can draw has the ``hyps_per_utt -
    1`` distinct corruptions an n-best list needs; a query of k confusable
    words with c_1 .. c_k candidates has (1 + c_1) ... (1 + c_k) - 1."""
    need = config.hyps_per_utt - 1
    for entry in entries:
        for tpl in config.templates:
            confusable = table.confusable(table.vocab.encode(_fill_template(tpl, entry)))
            if math.prod(1 + n for _, _, n, _ in confusable) - 1 >= need:
                return
    raise ValueError(
        f"no query of this world has the hyps_per_utt - 1 = {need} distinct corruptions"
        " an n-best list needs; lower hyps_per_utt"
    )


def _make_nbest(
    config: SynthConfig,
    rng: random.Random,
    sample_query,
    table: ConfusionTable,
    utt_id: str,
) -> NBestList:
    n = config.hyps_per_utt
    max_queries = 1000
    for _ in range(max_queries):
        ref = sample_query()
        ref_ids = table.vocab.encode(ref)
        confusable = table.confusable(ref_ids)
        corruptions: list = []
        seen = {tuple(ref_ids)}
        draws = table.corruptions(ref_ids, confusable, config.corruption_p_sub, rng)
        for corr in itertools.islice(draws, 60 * n if confusable else 0):
            if corr not in seen:
                seen.add(corr)
                corruptions.append(tuple(table.vocab.id_to_word[w] for w in corr))
            if len(corruptions) >= n:
                break
        if len(corruptions) >= n - 1:
            break
    else:
        raise ValueError(
            f"no query in {max_queries} yielded the hyps_per_utt - 1 = {n - 1} distinct"
            " corruptions an n-best list needs; lower hyps_per_utt"
        )
    ref_present = rng.random() >= config.unreachable_rate
    candidates = [ref, *corruptions[: n - 1]] if ref_present else corruptions[:n]
    wrong_first = (not ref_present) or rng.random() < config.noise_rate
    if wrong_first and len(candidates) > 1:
        winner = rng.randrange(1, len(candidates)) if ref_present else rng.randrange(len(candidates))
    else:
        winner = 0
    scores = sorted((rng.gauss(-6.0, 1.5) for _ in candidates), reverse=True)
    rest = scores[1:]
    rng.shuffle(rest)
    assigned = {}
    assigned[winner] = scores[0]
    others = [i for i in range(len(candidates)) if i != winner]
    for i, sc in zip(others, rest):
        assigned[i] = sc
    hyps = sorted(
        ((Sentence(candidates[i]), assigned[i]) for i in range(len(candidates))),
        key=lambda pair: -pair[1],
    )
    return NBestList(utt_id, Sentence(ref), tuple(hyps))


def generate_world(config: SynthConfig) -> World:
    """Build KB, training corpus, and held-out/test n-best lists from one seed."""
    rng = random.Random(config.seed)
    inventory = _word_inventory(config.word_inventory, rng)
    entries = _make_kb(config, rng, inventory)
    sample_query = _query_sampler(config, rng, entries)
    train = Corpus(
        tuple(Sentence(sample_query()) for _ in range(config.n_train)),
        source_path=f"synth(seed={config.seed})",
    )
    table = world_confusion_table(config, inventory, entries)
    _check_reachable(config, table, entries)
    heldout = [
        _make_nbest(config, rng, sample_query, table, f"h{i:05d}")
        for i in range(config.n_heldout)
    ]
    test = [
        _make_nbest(config, rng, sample_query, table, f"t{i:05d}")
        for i in range(config.n_test)
    ]
    return World(config, inventory, entries, train, heldout, test)
