"""Span tracer that wraps kbrerank's public functions from outside the package.

Every public function of every ``kbrerank`` module is replaced by a wrapper
in each module that binds it, because ``from .x import f`` copies the name
into the importing module and patching only the defining module would lose
those call sites. Two hot methods are patched on their classes. Spans (name,
parent, start, end) live in compact in-memory arrays and are written out once,
when the run ends; per-layer metrics are derived from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = (
    "artifacts",
    "corpus",
    "kb",
    "ngram",
    "negsampler",
    "features",
    "neural",
    "trainer",
    "evaluation",
    "cli",
)
METHODS = (("kb", "PairTable", "marginal"), ("trainer", "LstmLmParams", "sentence_logprob"))

# spans whose per-call latency is reported as median and p99
PER_CALL = (
    "ngram.score_sentence",
    "negsampler.sample_negatives",
    "features.extract_features",
    "neural.score_batch",
    "neural.backprop_batch",
    "trainer.LstmLmParams.sentence_logprob",
    "evaluation.wer",
)


def _tokens(sentence) -> tuple:
    return tuple(getattr(sentence, "tokens", sentence))


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counters gathered at the same boundaries as the spans. Each hook sees the
# call's arguments and result after a successful return.
def _on_score_sentence(tr, args, kwargs, result):
    toks = _tokens(_arg(args, kwargs, 1, "sentence"))
    tr.counters["ngram.score_sentence.tokens"] += len(toks)
    tr.distinct["ngram.score_sentence"].add(toks)


def _on_sample_negatives(tr, args, kwargs, result):
    tr.counters["negsampler.drawn"] += _arg(args, kwargs, 3, "n_samples")
    tr.counters["negsampler.kept"] += len(result.negatives)


def _on_extract_features(tr, args, kwargs, result):
    tr.distinct["features.extract_features"].add(_tokens(_arg(args, kwargs, 0, "sentence")))


def _on_score_batch(tr, args, kwargs, result):
    ids = np.asarray(_arg(args, kwargs, 1, "ids"))
    tr.counters["neural.score_batch.rows"] += ids.shape[0]
    tr.counters["neural.score_batch.tokens"] += ids.size


def _on_backprop_batch(tr, args, kwargs, result):
    tr.counters["neural.backprop_batch.tokens"] += _arg(args, kwargs, 1, "cache").ids.size


def _on_sentence_logprob(tr, args, kwargs, result):
    # one event per word plus end-of-sentence
    tr.counters["trainer.LstmLmParams.sentence_logprob.tokens"] += len(args[1]) + 1


def _on_wer(tr, args, kwargs, result):
    ref = _tokens(_arg(args, kwargs, 0, "reference"))
    hyp = _tokens(_arg(args, kwargs, 1, "hypothesis"))
    tr.distinct["evaluation.wer"].add((ref, hyp))


def _on_component_scores(tr, args, kwargs, result):
    nbest = args[0]
    key = (nbest.utt_id, tuple(_tokens(h) for h, _ in nbest.hypotheses), args[1])
    tr.distinct["evaluation.component_scores"].add(key)


def _on_reranker_scores(tr, args, kwargs, result):
    lengths = {len(h) for h, _ in args[0].hypotheses}
    tr.counters["evaluation.reranker_scores.unequal"] += len(lengths) > 1


def _on_save_artifact(tr, args, kwargs, result):
    tr.counters["artifacts.save.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


HOOKS = {
    "ngram.score_sentence": _on_score_sentence,
    "negsampler.sample_negatives": _on_sample_negatives,
    "features.extract_features": _on_extract_features,
    "neural.score_batch": _on_score_batch,
    "neural.backprop_batch": _on_backprop_batch,
    "trainer.LstmLmParams.sentence_logprob": _on_sentence_logprob,
    "evaluation.wer": _on_wer,
    "evaluation.component_scores": _on_component_scores,
    "evaluation.reranker_scores": _on_reranker_scores,
    "artifacts.save_artifact": _on_save_artifact,
}


class Tracer:
    """Installs wrappers, records spans while installed, and summarizes them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.errors: Counter = Counter()  # span name -> calls that raised
        self.counters: Counter = Counter()
        self.distinct: dict = defaultdict(set)
        self._patches: list = []  # (owner, attribute, original, wrapper)

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"kbrerank.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj, wrappers[obj]))
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[meth]
            self._patches.append(
                (cls, meth, original, self._wrap(f"{short}.{cls_name}.{meth}", original))
            )
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._patches = []

    def write(self, path) -> None:
        """Dump every span once, at the end of the run."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def layer_metrics(self) -> dict:
        """Per-layer counts, totals, self times and per-call percentiles."""
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        n_names = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name_of, minlength=n_names)
        total = np.bincount(name_of, weights=dur, minlength=n_names)
        self_total = np.bincount(name_of, weights=self_time, minlength=n_names)

        def nid(name):
            return self._name_ids.get(name)

        def n(name) -> int:
            i = nid(name)
            return int(calls[i]) if i is not None else 0

        def s(name) -> float:
            i = nid(name)
            return float(total[i]) if i is not None else 0.0

        def ratio(num, den) -> float:
            return float(num) / den if den else 0.0

        c = self.counters
        m = {
            "artifacts.save.calls": n("artifacts.save_artifact"),
            "artifacts.save.bytes": c["artifacts.save.bytes"],
            "artifacts.save.s": s("artifacts.save_artifact"),
            "artifacts.load.calls": n("artifacts.load_artifact"),
            "artifacts.load.s": s("artifacts.load_artifact"),
            "corpus.load_corpus.s": s("corpus.load_corpus"),
            "kb.build_index.s": s("kb.build_index"),
            "kb.load_index.s": s("kb.load_index"),
            "kb.PairTable.marginal.calls": n("kb.PairTable.marginal"),
            "ngram.train_ngram.calls": n("ngram.train_ngram"),
            "ngram.train_ngram.s": s("ngram.train_ngram"),
            "ngram.score_sentence.calls": n("ngram.score_sentence"),
            "ngram.score_sentence.tokens": c["ngram.score_sentence.tokens"],
            "ngram.score_sentence.us_per_token": 1e6
            * ratio(s("ngram.score_sentence"), c["ngram.score_sentence.tokens"]),
            "ngram.score_sentence.distinct_ratio": ratio(
                len(self.distinct["ngram.score_sentence"]), n("ngram.score_sentence")
            ),
            "negsampler.build_confusion_table.s": s("negsampler.build_confusion_table"),
            "negsampler.sample_negatives.calls": n("negsampler.sample_negatives"),
            "negsampler.sample_negatives.us_per_sentence": 1e6
            * ratio(s("negsampler.sample_negatives"), n("negsampler.sample_negatives")),
            "negsampler.dropped_share": ratio(
                self.errors["negsampler.sample_negatives"], n("negsampler.sample_negatives")
            ),
            "negsampler.kept_per_drawn": ratio(c["negsampler.kept"], c["negsampler.drawn"]),
            "features.extract_features.calls": n("features.extract_features"),
            "features.extract_features.us_per_sentence": 1e6
            * ratio(s("features.extract_features"), n("features.extract_features")),
            "features.extract_features.distinct_ratio": ratio(
                len(self.distinct["features.extract_features"]), n("features.extract_features")
            ),
            "features.npmi.calls": n("features.npmi"),
            "features.cooccurrence_total.s": s("features.cooccurrence_total"),
            "neural.score_batch.calls": n("neural.score_batch"),
            "neural.score_batch.rows_per_call": ratio(
                c["neural.score_batch.rows"], n("neural.score_batch")
            ),
            "neural.score_batch.us_per_token": 1e6
            * ratio(s("neural.score_batch"), c["neural.score_batch.tokens"]),
            "neural.backprop_batch.calls": n("neural.backprop_batch"),
            "neural.backprop_batch.us_per_token": 1e6
            * ratio(s("neural.backprop_batch"), c["neural.backprop_batch.tokens"]),
            "neural.sgd_momentum_update.calls": n("neural.sgd_momentum_update"),
            "neural.sgd_momentum_update.s": s("neural.sgd_momentum_update"),
            "trainer.train_reranker.s": s("trainer.train_reranker"),
            "trainer.prepare_heldout.s": s("trainer.prepare_heldout"),
            "trainer.heldout_wer.calls": n("trainer.heldout_wer"),
            "trainer.heldout_wer.s": s("trainer.heldout_wer"),
            "trainer.train_lstm_lm.s": s("trainer.train_lstm_lm"),
            "trainer.LstmLmParams.sentence_logprob.calls": n("trainer.LstmLmParams.sentence_logprob"),
            "trainer.LstmLmParams.sentence_logprob.us_per_token": 1e6
            * ratio(
                s("trainer.LstmLmParams.sentence_logprob"),
                c["trainer.LstmLmParams.sentence_logprob.tokens"],
            ),
            "evaluation.wer.calls": n("evaluation.wer"),
            "evaluation.wer.us_per_pair": 1e6 * ratio(s("evaluation.wer"), n("evaluation.wer")),
            "evaluation.wer.distinct_ratio": ratio(
                len(self.distinct["evaluation.wer"]), n("evaluation.wer")
            ),
            "evaluation.component_scores.calls": n("evaluation.component_scores"),
            "evaluation.component_scores.distinct_ratio": ratio(
                len(self.distinct["evaluation.component_scores"]),
                n("evaluation.component_scores"),
            ),
            "evaluation.tune_weights.s": s("evaluation.tune_weights"),
            "evaluation.reranker_scores.unequal_share": ratio(
                c["evaluation.reranker_scores.unequal"], n("evaluation.reranker_scores")
            ),
        }
        for name in PER_CALL:
            i = nid(name)
            sample = dur[name_of == i] if i is not None else np.zeros(0)
            p50, p99 = np.percentile(sample, [50, 99]) if sample.size else (0.0, 0.0)
            m[f"{name}.p50_us"] = 1e6 * float(p50)
            m[f"{name}.p99_us"] = 1e6 * float(p99)
        for short in MODULES:
            m[f"{short}.self_s"] = float(
                sum(self_total[i] for i, nm in enumerate(self.names) if nm.startswith(short + "."))
            )
        m["trace.spans"] = len(dur)
        return m
