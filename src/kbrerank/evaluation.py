"""Word error rate, n-best reranking under each scorer, oracle WER, reports."""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_text_writer, read_jsonl
from .corpus import Sentence, Vocabulary, pad_ids, tokens_of
from .features import feature_bins
from .kb import KBTables
from .neural import RerankerParams, RerankerRows, score_lists
from .ngram import NGramModel, score_ids

# the components each scorer interpolates with the first pass, in the order
# its weights are swept and reported
SCORER_COMPONENTS = {
    "first-pass": (),
    "ngram": ("ngram",),
    "lstm": ("lstm",),
    "reranker": ("reranker",),
    "reranker+lstm": ("reranker", "lstm"),
}
SCORERS = tuple(SCORER_COMPONENTS)
# the components interpolated with the first pass, in the order combine()
# adds them; the order fixes the totals' rounding
COMPONENTS = ("ngram", "lstm", "reranker")
# the loaded models each component reads; the vocabulary encodes the split.
# Only a component of non-zero weight is scored, so only its models load
MODELS_NEEDED = {
    "ngram": ("ngram", "vocab"),
    "lstm": ("lstm", "vocab"),
    "reranker": ("reranker", "ngram", "kb_index", "vocab"),
}


@dataclass(frozen=True)
class NBestList:
    utt_id: str
    reference: Sentence | None
    hypotheses: tuple  # of (Sentence, first_pass_score)

    def __post_init__(self):
        if len(self.hypotheses) == 0:
            raise ValueError("n-best list needs at least one hypothesis")


@dataclass
class WerReport:
    """The hypothesis each utterance keeps and its error counts."""

    utt_ids: list
    chosen: np.ndarray  # (utterances,) index of the kept hypothesis
    errors: np.ndarray  # (utterances, 3) S/D/I of the kept hypothesis
    ref_words: np.ndarray  # (utterances,)

    @property
    def wer(self) -> float:
        """Corpus WER: all errors over all reference words."""
        return int(self.errors.sum()) / int(self.ref_words.sum())


def error_counts(ref_ids, ref_lengths, hyp_ids, hyp_lengths) -> np.ndarray:
    """(S, D, I) of each right-padded reference row against the hypothesis
    row beside it, (pairs, 3), by one Levenshtein program over all pairs. A
    cell is errors·M² + insertions·M + deletions, M one more than the longest
    row, so its minimum breaks ties between minimum-error alignments toward
    fewer insertions, then fewer deletions. The program steps over reference
    positions; along a row, the chain of insertions is one running minimum."""
    if np.any(ref_lengths == 0):
        raise ValueError("empty reference")
    width = int(hyp_lengths.max(initial=0))
    m = 1 + max(int(ref_lengths.max(initial=0)), width)
    ramp = np.arange(width + 1) * (m * m + m)  # j insertions
    hyp = hyp_ids[:, :width]
    prev = np.broadcast_to(ramp, (len(hyp_lengths), width + 1))
    out = np.empty(len(hyp_lengths), dtype=np.int64)
    for i in range(1, int(ref_lengths.max(initial=0)) + 1):
        cur = np.minimum(prev[:, :-1] + (hyp != ref_ids[:, i - 1 : i]) * (m * m), prev[:, 1:] + (m * m + 1))
        cur = np.insert(cur, 0, i * (m * m + 1), axis=1)  # column 0: i deletions
        prev = np.minimum.accumulate(cur - ramp, axis=1) + ramp
        done = np.flatnonzero(ref_lengths == i)
        out[done] = prev[done, hyp_lengths[done]]
    errors, rest = np.divmod(out, m * m)
    insertions, deletions = np.divmod(rest, m)
    return np.stack([errors - insertions - deletions, deletions, insertions], axis=1)


def _encode(rows, index: dict):
    """``pad_ids`` of token ``rows`` as ids into ``index``, grown as needed."""
    return pad_ids([[index.setdefault(t, len(index)) for t in row] for row in rows])


def wer(reference, hypothesis):
    """(S, D, I, N) of one pair of sentences or token sequences, the
    hypothesis possibly empty: ``error_counts`` of a batch of one."""
    index: dict = {}
    (counts,) = error_counts(*_encode([reference], index), *_encode([hypothesis], index)).tolist()
    return (*counts, len(reference))


@dataclass
class ScoredSplit:
    """A split's n-best lists as arrays, read in one pass over their tokens.

    Words are ids into the split's own table, so two words unknown to a model
    stay two words to WER. Hypotheses are flat in list order; ``valid`` lays
    them out as (utterances × hypotheses), row u holding list u. Padding
    scores and counts are 0, and ``valid`` keeps padding from being chosen.
    """

    utt_ids: list
    words: list  # the split's distinct words, in first-seen order
    tokens: list  # each hypothesis's tokens, which the KB encodes itself
    ids: np.ndarray  # (hypotheses, L) ids into words, right-padded
    lengths: np.ndarray  # (hypotheses,)
    ref_ids: np.ndarray | None  # (utterances, R) ids into words; None if a list has none
    ref_words: np.ndarray | None  # (utterances,) reference lengths
    valid: np.ndarray  # (utterances, hypotheses) real hypotheses
    scores: dict  # first_pass, then each scored component, (utterances, hypotheses)
    errors: np.ndarray | None = None  # (utterances, hypotheses, 3) S/D/I, once counted

    def vocab_ids(self, vocab: Vocabulary) -> np.ndarray:
        """``ids`` as ``vocab``'s ids, by one ``id_of`` per distinct word."""
        return np.array([vocab.id_of(w) for w in self.words], dtype=np.intp)[self.ids]

    def scorer_scores(self, scorer: str) -> dict:
        """The first pass and the components of ``scorer`` (as
        ``_component_names`` takes it), in the order ``combine`` sums them."""
        return {name: self.scores[name] for name in ("first_pass",) + _component_names(scorer)}


def read_split(dataset) -> ScoredSplit:
    """The lists of ``dataset`` as one ``ScoredSplit``, first pass only."""
    index: dict = {}
    tokens = [h.tokens for nbest in dataset for h, _ in nbest.hypotheses]
    ids, lengths = _encode(tokens, index)
    ref_ids = ref_words = None
    if all(nbest.reference is not None for nbest in dataset):
        ref_ids, ref_words = _encode([nbest.reference.tokens for nbest in dataset], index)
    sizes = np.array([len(nbest.hypotheses) for nbest in dataset], dtype=np.intp)
    # width 1 for an empty dataset keeps an axis for argmax to reduce
    valid = np.arange(max(sizes.max(initial=0), 1)) < sizes[:, None]
    first_pass = np.zeros(valid.shape)
    first_pass[valid] = [fp for nbest in dataset for _, fp in nbest.hypotheses]
    utt_ids = [nbest.utt_id for nbest in dataset]
    scores = {"first_pass": first_pass}
    return ScoredSplit(utt_ids, list(index), tokens, ids, lengths, ref_ids, ref_words, valid, scores)


@dataclass
class RerankModels:
    """Whatever models the requested scorer mode needs, and their vocabulary.
    Scoring reads only the attributes ``MODELS_NEEDED`` names for the
    components it scores, those of non-zero weight when weights are given
    (``weighted``), so an object that loads each on first read
    (``cli.Inputs``) serves as well."""

    ngram: NGramModel | None = None
    lstm: object = None  # anything with .logprobs(ids, lengths) -> array
    reranker: RerankerParams | None = None
    kb_index: KBTables | None = None
    vocab: Vocabulary | None = None


def _require(models: RerankModels, component: str, *names):
    for name in names:
        if getattr(models, name) is None:
            raise ValueError(f"component {component!r} requires a loaded {name} model")


def _component_names(scorer) -> tuple:
    """Components of a scorer name or of a collection of component names, in
    ``COMPONENTS`` order."""
    if isinstance(scorer, str):
        if scorer not in SCORER_COMPONENTS:
            raise ValueError(f"unknown scorer {scorer!r}")
        scorer = SCORER_COMPONENTS[scorer]
    unknown = set(scorer) - set(COMPONENTS)
    if unknown:
        raise ValueError(f"unknown components: {', '.join(sorted(unknown))}")
    return tuple(name for name in COMPONENTS if name in scorer)


def reranker_inputs(split: ScoredSplit, ids, kb_index: KBTables, lm_logprobs) -> RerankerRows:
    """The reranker rows of ``split``, one group per list, from its
    vocabulary ids ``ids`` (``ScoredSplit.vocab_ids``) and n-gram
    log-probabilities (flat in list order); one ``features.feature_bins``
    call covers the split."""
    starts = np.cumsum([0, *split.valid.sum(axis=1)])
    bins = feature_bins(split.tokens, kb_index)
    return RerankerRows(ids, split.lengths, bins, -np.asarray(lm_logprobs, dtype=float), starts)


def weighted(scorer, weights: dict) -> tuple:
    """The components of ``scorer`` (as ``_component_names`` takes it) that
    ``weights`` gives a non-zero weight, in ``COMPONENTS`` order: the only
    ones ``combine`` reads. A missing weight counts as 0; a weight naming no
    component of the scorer is an error, not a silent no-op."""
    names = _component_names(scorer)
    unused = [name for name in weights if name not in names]
    if unused:
        raise ValueError(
            f"weights for components the scorer does not use: {', '.join(unused)} "
            f"(its components: {', '.join(names) or 'none'})"
        )
    return tuple(name for name in names if weights.get(name, 0.0) != 0.0)


def combine(comps: dict, weights: dict) -> np.ndarray:
    """First-pass score plus each component of non-zero weight, summed in
    ``COMPONENTS`` order. Only those components are read, so ``comps`` need
    hold no other: adding ±0.0 to a finite total changes no comparison."""
    total = comps["first_pass"].copy()
    for name in COMPONENTS:
        if weights.get(name, 0.0) != 0.0:
            total += weights[name] * comps[name]
    return total


def score_hypotheses(split: ScoredSplit, components, models: RerankModels) -> dict:
    """Score every hypothesis of ``split`` once per component of
    ``components`` (a scorer name or a collection of component names) into
    ``split.scores``, which it returns: after the first pass, in the order
    ``combine`` sums them. Every component reads one id matrix,
    ``split.vocab_ids(models.vocab)``. References are not read."""
    names = _component_names(components)
    for name in names:
        _require(models, name, *MODELS_NEEDED[name])
    flat = {}
    ids = split.vocab_ids(models.vocab) if names else None
    # the ngram component and the reranker's n-gram feature share one scoring
    if "ngram" in names or "reranker" in names:
        lm_logprobs = score_ids(models.ngram, ids, split.lengths)
    if "ngram" in names:
        flat["ngram"] = lm_logprobs
    if "lstm" in names:
        flat["lstm"] = models.lstm.logprobs(ids, split.lengths)
    if "reranker" in names:
        inputs = reranker_inputs(split, ids, models.kb_index, lm_logprobs)
        flat["reranker"] = score_lists(models.reranker, inputs)
    for name, values in flat.items():
        split.scores[name] = np.zeros(split.valid.shape)
        split.scores[name][split.valid] = values
    return split.scores


def rerank(dataset, scorer: str, weights: dict, models: RerankModels) -> np.ndarray:
    """Index of the best-scoring hypothesis of each list; ties keep
    first-pass order. Only ``weighted`` components are scored; references are optional."""
    split = read_split(dataset)
    return _choose(split.valid, score_hypotheses(split, weighted(scorer, weights), models), weights)


def count_errors(split: ScoredSplit, source: str = "n-best lists") -> ScoredSplit:
    """``split`` with each hypothesis's S/D/I against its reference, all
    pairs in one ``error_counts`` call. A split with no lists, or with a list
    without a reference, is refused, naming ``source``."""
    if not split.utt_ids:
        raise ValueError(f"{source}: no n-best lists")
    if split.ref_ids is None:
        raise ValueError(f"{source}: references required")
    utt = np.nonzero(split.valid)[0]  # each hypothesis's utterance
    pairs = (split.ref_ids[utt], split.ref_words[utt], split.ids, split.lengths)
    split.errors = np.zeros(split.valid.shape + (3,), dtype=np.int64)
    split.errors[split.valid] = error_counts(*pairs)
    return split


def score_split(dataset, components, models: RerankModels, source: str = "n-best lists") -> ScoredSplit:
    """``count_errors`` and ``score_hypotheses`` of ``dataset``, read once."""
    split = count_errors(read_split(dataset), source)
    score_hypotheses(split, components, models)
    return split


def _choose(valid: np.ndarray, comps: dict, weights: dict) -> np.ndarray:
    """Best hypothesis per utterance; ties keep first-pass order."""
    return np.argmax(np.where(valid, combine(comps, weights), -np.inf), axis=1)


def decode(scored: ScoredSplit, comps: dict, weights: dict) -> WerReport:
    """Each utterance of ``scored`` keeps its best hypothesis under
    ``combine(comps, weights)`` (ties: first)."""
    return _report(scored, _choose(scored.valid, comps, weights))


def _report(scored: ScoredSplit, chosen: np.ndarray) -> WerReport:
    errors = scored.errors[np.arange(len(chosen)), chosen]
    return WerReport(scored.utt_ids, chosen, errors, scored.ref_words)


def evaluate(scored: ScoredSplit, scorer: str, weights: dict) -> WerReport:
    """``decode`` of ``scored``, reading only the components ``weighted`` names."""
    return decode(scored, scored.scorer_scores(weighted(scorer, weights)), weights)


def oracle_wer(scored: ScoredSplit) -> WerReport:
    """Pick the hypothesis with the fewest errors per utterance (ties: first)."""
    totals = np.where(scored.valid, scored.errors.sum(axis=2), np.iinfo(np.int64).max)
    return _report(scored, np.argmin(totals, axis=1))


def tune_weights(scored: ScoredSplit, scorer: str, grid) -> dict:
    """Grid-search interpolation weights by corpus WER; ties keep grid order.

    Zero weights are part of the grid, so a tuned mode can never do worse on
    the tuning data than the plain first pass. The grid is swept with the
    first of the scorer's components in the outermost loop.
    """
    comps = scored.scorer_scores(scorer)
    names = SCORER_COMPONENTS[scorer]
    if not names:
        return {}
    # min keeps the first of equal minima, so ties keep grid order
    sweep = (dict(zip(names, values)) for values in itertools.product(grid, repeat=len(names)))
    return min(sweep, key=lambda weights: decode(scored, comps, weights).wer)


def load_nbest(path) -> list[NBestList]:
    """The n-best lists of a JSON-lines file; each token field must be a list
    of strings, a reference (missing or null when there is none) nonempty,
    and each first-pass score a finite number, not a bool."""
    dataset = []
    for lineno, rec in read_jsonl(path):
        try:
            reference = rec.get("reference")
            if reference is not None:
                reference = Sentence(tokens_of(reference, "reference"))
                if not reference.tokens:
                    raise ValueError("reference may not be empty")
            hyps = tuple(
                (Sentence(tokens_of(h["tokens"])), _first_pass_score(h["first_pass_score"]))
                for h in rec["hypotheses"]
            )
            dataset.append(NBestList(str(rec["id"]), reference, hyps))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed n-best record ({exc!r})") from exc
    return dataset


def _first_pass_score(value) -> float:
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"first_pass_score must be a finite number, got {value!r}")
    return float(value)


def save_nbest(dataset, path) -> None:
    with atomic_text_writer(path) as fh:
        for nbest in dataset:
            rec = {
                "id": nbest.utt_id,
                "hypotheses": [
                    {"tokens": list(h.tokens), "first_pass_score": fp}
                    for h, fp in nbest.hypotheses
                ],
            }
            if nbest.reference is not None:
                rec["reference"] = list(nbest.reference.tokens)
            fh.write(json.dumps(rec) + "\n")


def write_utterance_csv(report: WerReport, path) -> None:
    with atomic_text_writer(path) as fh:
        fh.write("utt_id,chosen,substitutions,deletions,insertions,ref_words,wer\n")
        rows = zip(
            report.utt_ids, report.chosen.tolist(), report.errors.tolist(), report.ref_words.tolist()
        )
        for utt_id, c, (s, d, i), n in rows:
            fh.write(f"{utt_id},{c},{s},{d},{i},{n},{(s + d + i) / n:.6f}\n")


def summary_table(rows) -> str:
    """Human-readable WER summary; rows are (label, {column: WerReport})."""
    columns = []
    for _, reports in rows:
        for col in reports:
            if col not in columns:
                columns.append(col)
    width = max(len(label) for label, _ in rows) + 2
    lines = [" " * width + "".join(f"{c:>10}" for c in columns)]
    for label, reports in rows:
        cells = "".join(
            f"{100.0 * reports[c].wer:>10.2f}" if c in reports else f"{'-':>10}"
            for c in columns
        )
        lines.append(f"{label:<{width}}" + cells)
    return "\n".join(lines)
