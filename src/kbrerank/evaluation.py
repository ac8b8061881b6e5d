"""Word error rate, n-best reranking under each scorer, oracle WER, reports."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Sentence, Vocabulary
from .features import extract_features
from .kb import KBIndex
from .neural import RerankerParams, score_batch, stack_bundles
from .ngram import NGramModel, score_sentence

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


@dataclass(frozen=True)
class NBestList:
    utt_id: str
    reference: Sentence | None
    hypotheses: tuple  # of (Sentence, first_pass_score)

    def __post_init__(self):
        if len(self.hypotheses) == 0:
            raise ValueError("n-best list needs at least one hypothesis")


@dataclass
class UtteranceResult:
    utt_id: str
    chosen: int
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int

    @property
    def wer(self) -> float:
        return (self.substitutions + self.deletions + self.insertions) / self.ref_words


@dataclass
class WerReport:
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    ref_words: int = 0
    per_utterance: list = field(default_factory=list)

    @property
    def wer(self) -> float:
        return (self.substitutions + self.deletions + self.insertions) / self.ref_words

    def add(self, result: UtteranceResult) -> None:
        self.substitutions += result.substitutions
        self.deletions += result.deletions
        self.insertions += result.insertions
        self.ref_words += result.ref_words
        self.per_utterance.append(result)


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
    lstm: object = None  # anything with .sentence_logprob(Sentence)
    reranker: RerankerParams | None = None
    kb_index: KBIndex | None = None
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


def reranker_scores(nbest: NBestList, models: RerankModels) -> np.ndarray:
    """Interpolated deep score u for every hypothesis."""
    sentences = [h for h, _ in nbest.hypotheses]
    bundles = [
        extract_features(s, score_sentence(models.ngram, s), models.kb_index)
        for s in sentences
    ]
    bins, feats = stack_bundles(bundles)
    lengths = {len(s) for s in sentences}
    if len(lengths) == 1:
        ids = np.array([models.vocab.encode(s.tokens) for s in sentences], dtype=np.intp)
        u, _ = score_batch(models.reranker, ids, bins, feats)
        return u
    out = np.empty(len(sentences))
    for i, s in enumerate(sentences):
        ids = np.array([models.vocab.encode(s.tokens)], dtype=np.intp)
        one_bins = {k: v[i : i + 1] for k, v in bins.items()}
        u, _ = score_batch(models.reranker, ids, one_bins, feats[i : i + 1])
        out[i] = u[0]
    return out


def component_scores(nbest: NBestList, scorer, models: RerankModels) -> dict:
    """Per-hypothesis score arrays: the first pass and each component of
    ``scorer``, a scorer name or a collection of component names.

    The first pass comes first and the rest in ``COMPONENTS`` order, the
    order ``combine`` sums them in.
    """
    names = _component_names(scorer)
    comps = {"first_pass": np.array([fp for _, fp in nbest.hypotheses], dtype=float)}
    if "ngram" in names:
        _require(models, "ngram", "ngram")
        comps["ngram"] = np.array(
            [score_sentence(models.ngram, h) for h, _ in nbest.hypotheses]
        )
    if "lstm" in names:
        _require(models, "lstm", "lstm")
        comps["lstm"] = np.array(
            [models.lstm.sentence_logprob(h) for h, _ in nbest.hypotheses]
        )
    if "reranker" in names:
        _require(models, "reranker", "reranker", "ngram", "kb_index", "vocab")
        comps["reranker"] = reranker_scores(nbest, models)
    return comps


def combine(comps: dict, weights: dict) -> np.ndarray:
    """First-pass score plus each weighted component, summed in ``comps`` order."""
    total = comps["first_pass"].copy()
    for name, arr in comps.items():
        if name != "first_pass":
            total += weights.get(name, 0.0) * arr
    return total


def rerank(nbest: NBestList, scorer: str, weights: dict, models: RerankModels) -> int:
    """Index of the best-scoring hypothesis; ties keep first-pass order."""
    totals = combine(component_scores(nbest, scorer, models), weights)
    return int(np.argmax(totals))


def hypothesis_errors(nbest: NBestList) -> tuple[np.ndarray, int]:
    """(hypotheses, 3) substitution, deletion and insertion counts of every
    hypothesis against the reference, and the reference length."""
    if nbest.reference is None:
        raise ValueError("references required")
    counts = [wer(nbest.reference, h)[:3] for h, _ in nbest.hypotheses]
    return np.array(counts, dtype=np.int64), len(nbest.reference)


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
    """Score each hypothesis once per requested component and count its errors.

    ``components`` is a scorer name or a collection of component names.
    """
    names = _component_names(components)
    shape = (len(dataset), max((len(n.hypotheses) for n in dataset), default=0))
    scores = {name: np.zeros(shape) for name in ("first_pass",) + names}
    errors = np.zeros(shape + (3,), dtype=np.int64)
    ref_words = np.zeros(len(dataset), dtype=np.int64)
    valid = np.zeros(shape, dtype=bool)
    for u, nbest in enumerate(dataset):
        counts, ref_words[u] = hypothesis_errors(nbest)
        width = len(counts)
        errors[u, :width] = counts
        valid[u, :width] = True
        for name, arr in component_scores(nbest, names, models).items():
            scores[name][u, :width] = arr
    return ScoredSplit([n.utt_id for n in dataset], scores, errors, ref_words, valid)


def _choose(scored: ScoredSplit, comps: dict, weights: dict) -> np.ndarray:
    """Best hypothesis per utterance; ties keep first-pass order."""
    return np.argmax(np.where(scored.valid, combine(comps, weights), -np.inf), axis=1)


def _report(scored: ScoredSplit, chosen: np.ndarray) -> WerReport:
    report = WerReport()
    picked = scored.errors[np.arange(len(chosen)), chosen]
    for utt_id, c, (s, d, i), n in zip(
        scored.utt_ids, chosen.tolist(), picked.tolist(), scored.ref_words.tolist()
    ):
        report.add(UtteranceResult(utt_id, c, s, d, i, n))
    return report


def evaluate(scored: ScoredSplit, scorer: str, weights: dict) -> WerReport:
    return _report(scored, _choose(scored, scored.scorer_scores(scorer), weights))


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
    errors = scored.errors.sum(axis=2)
    rows = np.arange(len(scored.utt_ids))
    ref_words = int(scored.ref_words.sum())
    best_weights = None
    best_wer = None
    for values in itertools.product(grid, repeat=len(names)):
        weights = dict(zip(names, values))
        w = int(errors[rows, _choose(scored, comps, weights)].sum()) / ref_words
        if best_wer is None or w < best_wer:
            best_wer, best_weights = w, weights
    return best_weights


def load_nbest(path) -> list[NBestList]:
    dataset = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            rec = json.loads(line)
            try:
                reference = (
                    Sentence(tuple(rec["reference"])) if rec.get("reference") else None
                )
                hyps = tuple(
                    (Sentence(tuple(h["tokens"])), float(h["first_pass_score"]))
                    for h in rec["hypotheses"]
                )
                dataset.append(NBestList(str(rec["id"]), reference, hyps))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"malformed n-best record at line {lineno}") from exc
    return dataset


def save_nbest(dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("utt_id,chosen,substitutions,deletions,insertions,ref_words,wer\n")
        for r in report.per_utterance:
            fh.write(
                f"{r.utt_id},{r.chosen},{r.substitutions},{r.deletions},"
                f"{r.insertions},{r.ref_words},{r.wer:.6f}\n"
            )


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
