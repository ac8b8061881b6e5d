"""Word error rate, n-best reranking under each scorer, oracle WER, reports."""

from __future__ import annotations

import itertools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .artifacts import atomic_text_writer, read_jsonl
from .corpus import Sentence, Vocabulary, tokens_of
from .features import feature_bins
from .kb import KBTables
from .neural import RerankerParams, group_inputs, score_lists
from .ngram import NGramModel, score_sentences

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
# the loaded models each component reads
MODELS_NEEDED = {
    "ngram": ("ngram",),
    "lstm": ("lstm",),
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


def _tokens(x) -> tuple:
    return x.tokens if isinstance(x, Sentence) else tuple(x)


def wer(reference, hypothesis):
    """Levenshtein alignment counts (S, D, I, N) with unit costs.

    Accepts sentences or raw token sequences; the hypothesis may be empty
    (every reference word is then a deletion). Ties between minimum-error
    alignments resolve toward fewer insertions, then fewer deletions, so the
    breakdown is deterministic.
    """
    ref, hyp = _tokens(reference), _tokens(hypothesis)
    if len(ref) == 0:
        raise ValueError("empty reference")
    # cells are (errors, insertions, deletions); lexicographic min
    prev = [(j, j, 0) for j in range(len(hyp) + 1)]
    for i in range(1, len(ref) + 1):
        cur = [(i, 0, i)]
        for j in range(1, len(hyp) + 1):
            e, ins, dele = prev[j - 1]
            best = (e + (ref[i - 1] != hyp[j - 1]), ins, dele)
            e, ins, dele = prev[j]
            cand = (e + 1, ins, dele + 1)
            if cand < best:
                best = cand
            e, ins, dele = cur[j - 1]
            cand = (e + 1, ins + 1, dele)
            if cand < best:
                best = cand
            cur.append(best)
        prev = cur
    errors, insertions, deletions = prev[len(hyp)]
    return errors - insertions - deletions, deletions, insertions, len(ref)


@dataclass
class RerankModels:
    """Whatever models the requested scorer mode needs."""

    ngram: NGramModel | None = None
    lstm: object = None  # anything with .logprobs(sentences) -> array
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


def dataset_inputs(dataset, vocab: Vocabulary, kb_index: KBTables, lm_logprobs) -> list:
    """The reranker's inputs of every list of ``dataset``, one group per
    list, given the hypotheses' n-gram log-probabilities ``lm_logprobs``
    (flat in list order); one ``features.feature_bins`` call covers the whole
    dataset."""
    hyps = [h.tokens for nbest in dataset for h, _ in nbest.hypotheses]
    sizes = [len(nbest.hypotheses) for nbest in dataset]
    feats = -np.asarray(lm_logprobs, dtype=float)
    ids = [vocab.encode(h) for h in hyps]
    return group_inputs(ids, feature_bins(hyps, kb_index), feats, sizes)


def score_ngram(dataset, models: RerankModels) -> np.ndarray:
    """n-gram log-probability of every hypothesis of ``dataset``, flat in list
    order, in one ``ngram.score_ids`` call."""
    hyps = [h for nbest in dataset for h, _ in nbest.hypotheses]
    return score_sentences(models.ngram, hyps)


def score_reranker(dataset, models: RerankModels, lm_logprobs) -> np.ndarray:
    """Interpolated deep score u of every hypothesis of ``dataset``, flat in
    list order, given their n-gram log-probabilities (``score_ngram``); the
    lists are scored together (``neural.score_lists``)."""
    inputs = dataset_inputs(dataset, models.vocab, models.kb_index, lm_logprobs)
    return score_lists(models.reranker, inputs)


def combine(comps: dict, weights: dict) -> np.ndarray:
    """First-pass score plus each weighted component, summed in ``comps`` order.

    A component without a weight adds nothing; a weight naming no component
    of ``comps`` is an error, not a silent no-op.
    """
    unused = [name for name in weights if name == "first_pass" or name not in comps]
    if unused:
        used = ", ".join(name for name in comps if name != "first_pass") or "none"
        raise ValueError(
            f"weights for components the scorer does not use: {', '.join(unused)} "
            f"(its components: {used})"
        )
    total = comps["first_pass"].copy()
    for name, arr in comps.items():
        if name != "first_pass":
            total += weights.get(name, 0.0) * arr
    return total


def score_hypotheses(dataset, components, models: RerankModels) -> tuple[dict, np.ndarray]:
    """Score every hypothesis of ``dataset`` once per component.

    ``components`` is a scorer name or a collection of component names.
    Returns (utterances × hypotheses) score arrays, the first pass first and
    the rest in ``COMPONENTS`` order (the order ``combine`` sums them in),
    and the mask of real hypotheses; row u holds list u in list order, and
    padding scores are 0. References are not read.
    """
    names = _component_names(components)
    # width 1 for an empty dataset keeps an axis for argmax to reduce
    shape = (len(dataset), max((len(n.hypotheses) for n in dataset), default=1))
    valid = np.zeros(shape, dtype=bool)
    for u, nbest in enumerate(dataset):
        valid[u, : len(nbest.hypotheses)] = True
    hyps = [h for nbest in dataset for h, _ in nbest.hypotheses]
    flat = {"first_pass": [fp for nbest in dataset for _, fp in nbest.hypotheses]}
    for name in names:
        _require(models, name, *MODELS_NEEDED[name])
    # the ngram component and the reranker's n-gram feature share one scoring
    if "ngram" in names or "reranker" in names:
        lm_logprobs = score_ngram(dataset, models)
    if "ngram" in names:
        flat["ngram"] = lm_logprobs
    if "lstm" in names:
        flat["lstm"] = models.lstm.logprobs(hyps)
    if "reranker" in names:
        flat["reranker"] = score_reranker(dataset, models, lm_logprobs)
    scores = {}
    for name, values in flat.items():
        scores[name] = np.zeros(shape)
        scores[name][valid] = values
    return scores, valid


def rerank(dataset, scorer: str, weights: dict, models: RerankModels) -> np.ndarray:
    """Index of the best-scoring hypothesis of each list; ties keep
    first-pass order. References are optional."""
    scores, valid = score_hypotheses(dataset, scorer, models)
    return _choose(valid, scores, weights)


@dataclass
class ScoredSplit:
    """Every hypothesis of a split with references, scored once per component.

    Row u holds utterance u's hypotheses in list order, padded to the longest
    list. Padding scores and counts are 0, so a zero weight times padding is
    never NaN, and ``valid`` keeps padding from being chosen.
    """

    utt_ids: list
    scores: dict  # first_pass, then COMPONENTS -> (utterances, hypotheses)
    errors: np.ndarray  # (utterances, hypotheses, 3) S/D/I
    ref_words: np.ndarray  # (utterances,)
    valid: np.ndarray  # (utterances, hypotheses) real hypotheses

    def scorer_scores(self, scorer: str) -> dict:
        """The arrays ``scorer`` interpolates, in the order ``combine`` sums them."""
        return {name: self.scores[name] for name in ("first_pass",) + _component_names(scorer)}


def score_split(dataset, components, models: RerankModels) -> ScoredSplit:
    """Count each hypothesis's substitutions, deletions and insertions against
    its reference and score it once per requested component
    (``score_hypotheses``)."""
    if any(nbest.reference is None for nbest in dataset):
        raise ValueError("references required")
    scores, valid = score_hypotheses(dataset, components, models)
    errors = np.zeros(valid.shape + (3,), dtype=np.int64)
    for u, nbest in enumerate(dataset):
        for k, (hyp, _) in enumerate(nbest.hypotheses):
            errors[u, k] = wer(nbest.reference, hyp)[:3]
    ref_words = np.array([len(nbest.reference) for nbest in dataset], dtype=np.int64)
    return ScoredSplit([n.utt_id for n in dataset], scores, errors, ref_words, valid)


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
    return decode(scored, scored.scorer_scores(scorer), weights)


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
