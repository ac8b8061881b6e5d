"""Command-line pipeline: one subcommand per stage, conventional file layout.

Every stage reads and writes files under ``--out-dir`` using fixed names, so
the whole pipeline is a sequence of subcommands sharing one directory:

    synth-world -> build-vocab -> build-kb-index -> train-ngram ->
    gen-negatives -> extract-features -> train-reranker -> train-lstm-lm ->
    evaluate

All knobs live in a flat JSON config (``--config``), overridable per key with
``--set key=value``; ``--seed`` overrides the global seed. Each
``trainer.TrainConfig`` field is a key of its own name, each
``synth.SynthConfig`` field the key ``synth_`` plus its name, and both take
the global seed. A value of the wrong type, or one its record rejects, fails
when the config is loaded, before any stage runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import typing
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import evaluation, features, kb, negsampler, neural, ngram, synth, trainer
from .artifacts import ArtifactError, atomic_text_writer, read_jsonl
from .corpus import (
    Corpus,
    FoldAssignment,
    assign_folds,
    build_vocabulary,
    load_corpus,
    load_vocabulary,
    save_corpus,
    save_vocabulary,
    tokens_of,
)
from .neural import RerankerDims, RerankerParams, group_inputs
from .synth import SynthConfig
from .trainer import TrainConfig


@dataclass
class PipelineConfig:
    """Every pipeline setting, read and written as flat keys (see the module
    docstring). Stages hand ``train`` and ``synth`` the pipeline ``seed``. The
    reranker and LM dimensions stay flat: their records carry the vocabulary
    size, known only after build-vocab."""

    seed: int = 0
    out_dir: str = "out"
    corpus_path: str = ""
    kb_path: str = ""
    # vocabulary
    vocab_min_count: int = 1
    # folds and n-gram LM
    n_folds: int = 10
    ngram_order: int = 3
    # negative sampling
    neg_samples: int = 30
    neg_keep: int = 5
    neg_sub_prob: float = 0.3
    keep_top_m: int = 1000000
    # reranker dimensions
    word_dim: int = 200
    lstm_dim: int = 500
    hidden_dim: int = 256
    # reranker training, and the LM's with lm_max_epochs
    train: TrainConfig = field(default_factory=TrainConfig)
    # LSTM language model
    lm_word_dim: int = 200
    lm_lstm_dim: int = 1000
    lm_mode: str = "full-softmax"
    lm_nce_samples: int = 100
    lm_max_epochs: int = 8
    # evaluation weight grid
    weight_grid: tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    # synthetic world
    synth: SynthConfig = field(default_factory=SynthConfig)

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        unknown = set(data) - set(_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        cfg = cls()
        for key, value in data.items():
            cfg._assign(key, value)
        return cfg

    def to_dict(self) -> dict:
        out = {}
        for key, (record, name, _) in _KEYS.items():
            value = getattr(getattr(self, record) if record else self, name)
            out[key] = list(value) if isinstance(value, tuple) else value
        return out

    def set_key(self, key: str, raw: str) -> None:
        if key not in _KEYS:
            raise ValueError(f"unknown config key: {key}")
        tp = _KEYS[key][2]
        try:
            value = json.loads(raw) if typing.get_origin(tp) is tuple else tp(raw)
        except ValueError as exc:
            raise ValueError(f"--set {key}: cannot read {raw!r}") from exc
        self._assign(key, value)

    def _assign(self, key: str, value) -> None:
        record, name, tp = _KEYS[key]
        value = _checked(key, value, tp)
        if record is None:
            _validate_flat(key, value)
            setattr(self, name, value)
        else:  # replace() runs the record's own validation
            setattr(self, record, dataclasses.replace(getattr(self, record), **{name: value}))


# the nested records and the prefix their fields take as flat keys
_PREFIXES = {"train": "", "synth": "synth_"}


def _flat_keys() -> dict:
    """Flat key -> (nested record or None, field name, field type)."""
    keys = {}
    for name, tp in typing.get_type_hints(PipelineConfig).items():
        if name not in _PREFIXES:
            keys[name] = (None, name, tp)
            continue
        for sub, sub_tp in typing.get_type_hints(tp).items():
            if sub != "seed":  # the records take the pipeline's seed
                keys[_PREFIXES[name] + sub] = (name, sub, sub_tp)
    return keys


_KEYS = _flat_keys()


def _checked(key: str, value, tp):
    """``value`` as a ``tp`` field: an int passes for a float and a list for a
    tuple; any other type, and a float that is NaN or infinite, is an error
    naming ``key``."""
    if typing.get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {key} must be a list, got {value!r}")
        return tuple(_checked(key, v, typing.get_args(tp)[0]) for v in value)
    allowed = (int, float) if tp is float else tp
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"config key {key} must be {tp.__name__}, got {value!r}")
    if tp is float and not math.isfinite(value):
        raise ValueError(f"config key {key} must be a finite number, got {value!r}")
    return value


# flat values no record checks when the config is read (the dimension
# records also need the vocabulary size, known only after build-vocab), with
# the bounds their consumer enforces
_MIN_VALUES = {
    "vocab_min_count": 0,  # corpus.build_vocabulary
    "n_folds": 2,  # corpus.assign_folds
    "ngram_order": 1,  # ngram.count_ngrams
    "neg_samples": 1,  # negsampler.sample_corpus_negatives
    "neg_keep": 1,  # negsampler.sample_corpus_negatives
    "keep_top_m": 1,  # negsampler.best_groups
    "word_dim": 1,
    "lstm_dim": 1,
    "hidden_dim": 1,
    "lm_word_dim": 1,
    "lm_lstm_dim": 1,
    "lm_nce_samples": 1,
    "lm_max_epochs": 1,  # trainer.TrainConfig.max_epochs
}
_MAX_VALUES = {
    "ngram_order": ngram.MAX_ORDER,  # ngram.count_ngrams
}


def _validate_flat(key: str, value) -> None:
    if key in _MIN_VALUES and value < _MIN_VALUES[key]:
        raise ValueError(f"config key {key} must be >= {_MIN_VALUES[key]}, got {value!r}")
    if key in _MAX_VALUES and value > _MAX_VALUES[key]:
        raise ValueError(f"config key {key} must be <= {_MAX_VALUES[key]}, got {value!r}")
    if key == "neg_sub_prob" and not 0.0 < value <= 1.0:  # negsampler.draw_negatives
        raise ValueError(f"config key neg_sub_prob must be in (0, 1], got {value!r}")
    if key == "weight_grid" and not value:  # evaluation.tune_weights sweeps it
        raise ValueError("config key weight_grid must not be empty")
    if key == "lm_mode" and value not in trainer.LM_MODES:
        raise ValueError(
            f"config key lm_mode must be one of {', '.join(trainer.LM_MODES)}, got {value!r}"
        )


class Paths:
    """Conventional artifact names under the output directory."""

    def __init__(self, out_dir: str):
        self.out = Path(out_dir)
        self.kb = self.out / "kb.tsv"
        self.train = self.out / "train.txt"
        self.heldout = self.out / "heldout.jsonl"
        self.test = self.out / "test.jsonl"
        self.vocab = self.out / "vocab.tsv"
        self.kb_index = self.out / "kb_index.bin"
        self.folds = self.out / "folds.json"
        self.ngram_full = self.out / "ngram_full.bin"
        self.negatives = self.out / "negatives.bin"
        self.features = self.out / "features.jsonl"
        self.reranker = self.out / "reranker.bin"
        self.train_log = self.out / "train_log.csv"
        self.lstm = self.out / "lstm_lm.bin"
        self.summary = self.out / "summary.txt"

    def ngram_fold(self, fold: int) -> Path:
        return self.out / f"ngram_fold{fold}.bin"

    def report(self, split: str, scorer: str) -> Path:
        return self.out / f"report_{split}_{scorer.replace('+', '_')}.csv"


def _corpus_path(cfg: PipelineConfig, paths: Paths) -> Path:
    return Path(cfg.corpus_path) if cfg.corpus_path else paths.train


def _kb_path(cfg: PipelineConfig, paths: Paths) -> Path:
    return Path(cfg.kb_path) if cfg.kb_path else paths.kb


def _require_file(path: Path, hint: str) -> Path:
    if not path.exists():
        raise ValueError(f"missing input file {path} ({hint})")
    return path


def _load_vocab_checked(paths: Paths):
    return load_vocabulary(_require_file(paths.vocab, "run build-vocab first"))


def _load_folds(paths: Paths, corpus: Corpus) -> FoldAssignment:
    """The fold assignment ``train-ngram`` wrote: an int ``k`` and one int
    fold per sentence of ``corpus``."""
    path = _require_file(paths.folds, "run train-ngram first")
    try:
        data = json.loads(path.read_text())
        fold_of = tuple(data["fold_of"])
        if type(data["k"]) is not int or not all(type(f) is int for f in fold_of):
            raise ValueError("k and every fold must be ints")
        if len(fold_of) != len(corpus):
            raise ValueError(f"{len(fold_of)} sentences have folds, the corpus has {len(corpus)}")
        return FoldAssignment(fold_of, data["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path} does not fit the corpus {corpus.source_path} ({exc!r}); rerun train-ngram"
        ) from exc


def _load_ngram_checked(path: Path, vocab) -> ngram.NGramModel:
    return ngram.load_model(_require_file(path, "run train-ngram first"), vocab)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_synth_world(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    paths.out.mkdir(parents=True, exist_ok=True)
    world = synth.generate_world(dataclasses.replace(cfg.synth, seed=cfg.seed))
    kb.save_kb(world.kb_entries, paths.kb)
    save_corpus(world.train, paths.train)
    evaluation.save_nbest(world.heldout, paths.heldout)
    evaluation.save_nbest(world.test, paths.test)
    print(
        f"world: {len(world.kb_entries)} KB entries, {len(world.train)} train sentences, "
        f"{len(world.heldout)} heldout + {len(world.test)} test utterances"
    )
    return 0


def cmd_build_vocab(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    paths.out.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = build_vocabulary(corpus, cfg.vocab_min_count)
    save_vocabulary(vocab, paths.vocab)
    print(f"vocabulary: {vocab.size} entries (incl. unknown symbol)")
    return 0


def cmd_build_kb_index(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    paths.out.mkdir(parents=True, exist_ok=True)
    entries = kb.load_kb(_require_file(_kb_path(cfg, paths), "knowledge base"))
    tables = kb.build_index(entries)
    kb.save_index(tables, paths.kb_index)
    print(f"kb index: {tables.n_entries} entries, max co-occurrence {tables.max_cooccurrence}")
    return 0


def cmd_train_ngram(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = _load_vocab_checked(paths)
    folds = assign_folds(corpus, cfg.n_folds, cfg.seed)
    with atomic_text_writer(paths.folds) as fh:
        fh.write(json.dumps({"k": folds.k, "fold_of": list(folds.fold_of)}))
    full, fold_models = ngram.train_jackknife(corpus, vocab, cfg.ngram_order, folds)
    ngram.save_model(full, paths.ngram_full)
    for fold, model in enumerate(fold_models):
        ngram.save_model(model, paths.ngram_fold(fold))
    print(f"ngram: order {cfg.ngram_order}, full model + {folds.k} jackknife models")
    return 0


def cmd_gen_negatives(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = _load_vocab_checked(paths)
    folds = _load_folds(paths, corpus)
    fold_models = [_load_ngram_checked(paths.ngram_fold(f), vocab) for f in range(folds.k)]
    negs = negsampler.sample_corpus_negatives(
        corpus,
        negsampler.build_confusion_table(vocab),
        fold_models,
        folds.fold_of,
        n_samples=cfg.neg_samples,
        keep_k=cfg.neg_keep,
        p_sub=cfg.neg_sub_prob,
        seed=cfg.seed,
    )
    sampled = len(negs.groups())  # sentences without a confusable position leave training
    negsampler.save_negatives(negs, paths.negatives, vocab)
    print(f"negatives: {sampled} sentences sampled, {len(corpus) - sampled} dropped")
    return 0


def cmd_extract_features(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = _load_vocab_checked(paths)
    index = kb.load_index(_require_file(paths.kb_index, "run build-kb-index first"))
    negs = negsampler.load_negatives(
        _require_file(paths.negatives, "run gen-negatives first"), corpus, vocab
    )
    kept = negsampler.best_groups(negs, cfg.keep_top_m)
    # one row per candidate: each kept sentence, then its negatives
    rows, lps = [], negs.logprob.tolist()
    for group in kept:
        sid, start, _ = group
        for hyp_id, words in enumerate(negs.words(group, corpus, vocab)):
            rows.append((sid, hyp_id, words, lps[start + hyp_id]))
    bins = features.feature_bins([tokens for _, _, tokens, _ in rows], index).tolist()
    names = [name for name, _ in features.BIN_FIELDS]
    with atomic_text_writer(paths.features) as fh:
        for (sid, hyp_id, tokens, lp), row_bins in zip(rows, bins):
            rec = {
                "sentence_id": sid,
                "hypothesis_id": hyp_id,
                "tokens": list(tokens),
                "ngram_negative_logprob": -lp,
                **dict(zip(names, row_bins)),
            }
            fh.write(json.dumps(rec) + "\n")
    print(f"features: {len(kept)} training instances")
    return 0


_SCORE = "ngram_negative_logprob"
_FEATURE_FIELDS = {"sentence_id", "hypothesis_id", "tokens", _SCORE, *dict(features.BIN_FIELDS)}


def load_feature_instances(path, vocab) -> list:
    """The feature dump as training instances (``neural.RerankerInputs``) in
    ascending ``sentence_id``, each one's rows by ``hypothesis_id``.

    The rows are read and checked in one pass, each into the columns and
    then dropped: ids are ints, each row has exactly the dump's fields, its
    tokens are a list of strings, each score is a finite number >= 0 and each
    bin an integer in range
    (``features.BIN_FIELDS``). A sentence's rows must be hypotheses 0..n-1
    with n >= 2: row 0 is the source sentence, the correct candidate, and
    the rest its negatives.
    """
    sids, hyp_ids, feats, bins, ids = array("q"), array("q"), array("d"), array("q"), []
    for lineno, rec in read_jsonl(path):
        for key in ("sentence_id", "hypothesis_id"):
            value = rec.get(key)
            if type(value) is not int or not -(2**63) <= value < 2**63:  # an int64 column
                raise ValueError(f"{path}:{lineno}: {key} must be an int, got {value!r}")
        where = f"{path}: sentence_id {rec['sentence_id']}"
        if rec.keys() != _FEATURE_FIELDS:
            missing, unknown = _FEATURE_FIELDS - rec.keys(), rec.keys() - _FEATURE_FIELDS
            raise ValueError(
                f"{where}: missing fields {sorted(missing)}, unknown fields {sorted(unknown)}"
            )
        score = rec[_SCORE]
        if type(score) not in (int, float) or not 0 <= score <= sys.float_info.max:
            raise ValueError(f"{where}: {_SCORE} must be a finite number >= 0, got {score!r}")
        for name, limit in features.BIN_FIELDS:
            value = rec[name]
            if type(value) is not int:
                raise ValueError(f"{where}: {name} must be an integer, got {value!r}")
            if not 0 <= value < limit:
                raise ValueError(f"{where}: feature bin {value} outside [0, {limit})")
            bins.append(value)
        sids.append(rec["sentence_id"])
        hyp_ids.append(rec["hypothesis_id"])
        ids.append(vocab.encode(tokens_of(rec["tokens"], f"{where}: tokens")))
        feats.append(score)

    sids, hyp_ids = np.frombuffer(sids, dtype=np.int64), np.frombuffer(hyp_ids, dtype=np.int64)
    bins = np.frombuffer(bins, dtype=np.int64).astype(np.intp).reshape(-1, len(features.BIN_FIELDS))
    order = np.lexsort((hyp_ids, sids))  # stable: a duplicated row stays
    starts = np.flatnonzero(np.diff(sids[order], prepend=sids[order[:1]] - 1))
    sizes = np.diff(starts, append=len(ids)).tolist()
    for at, n in zip(starts.tolist(), sizes):
        got = hyp_ids[order[at : at + n]].tolist()
        if got != list(range(max(n, 2))):  # a lone row is never 0, 1
            raise ValueError(
                f"{path}: sentence_id {sids[order[at]]} has hypothesis ids {got}, expected "
                "0..n-1: the source sentence and at least one negative"
            )
    rows = [ids[i] for i in order.tolist()]
    return group_inputs(rows, bins[order], np.frombuffer(feats)[order], sizes)


def _train_config(cfg: PipelineConfig, **overrides) -> TrainConfig:
    """``cfg.train`` with the pipeline seed, then ``overrides``."""
    return dataclasses.replace(cfg.train, seed=cfg.seed, **overrides)


def cmd_train_reranker(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    vocab = _load_vocab_checked(paths)
    index = kb.load_index(_require_file(paths.kb_index, "run build-kb-index first"))
    full = _load_ngram_checked(paths.ngram_full, vocab)
    instances = load_feature_instances(
        _require_file(paths.features, "run extract-features first"), vocab
    )
    heldout_data = evaluation.load_nbest(_require_file(paths.heldout, "held-out n-best"))
    prepared = trainer.prepare_heldout(heldout_data, vocab, index, full, paths.heldout)
    dims = RerankerDims(
        vocab_size=vocab.size,
        word_dim=cfg.word_dim,
        lstm_dim=cfg.lstm_dim,
        hidden_dim=cfg.hidden_dim,
    )
    params = RerankerParams.initialize(dims, seed=cfg.seed)
    best, logs = trainer.train_reranker(instances, prepared, params, _train_config(cfg))
    best.save(paths.reranker, vocab)
    trainer.save_training_log(logs, paths.train_log)
    print(
        f"reranker: {len(logs)} epochs, best held-out WER "
        f"{min(l.heldout_wer for l in logs):.4f}, "
        f"LSTM threads per {neural.FUSE_ROWS}-row chunk: {neural._lstm_threads(neural.FUSE_ROWS, dims)}"
    )
    return 0


def cmd_train_lstm_lm(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = _load_vocab_checked(paths)
    heldout = None
    if paths.heldout.exists():
        refs = [n.reference for n in evaluation.load_nbest(paths.heldout) if n.reference]
        if refs:
            heldout = Corpus(tuple(refs), source_path=str(paths.heldout))
    dims = trainer.LstmLmDims(
        vocab_size=vocab.size, word_dim=cfg.lm_word_dim, lstm_dim=cfg.lm_lstm_dim
    )
    params = trainer.train_lstm_lm(
        corpus,
        vocab,
        mode=cfg.lm_mode,
        nce_samples=cfg.lm_nce_samples,
        config=_train_config(cfg, max_epochs=cfg.lm_max_epochs),
        dims=dims,
        heldout=heldout,
    )
    params.save(paths.lstm)
    # without held-out references there is no early stopping: say so
    held = len(heldout) if heldout else f"none, {cfg.lm_max_epochs} fixed epochs"
    print(
        f"lstm lm: mode {cfg.lm_mode}, dims {dims.word_dim}/{dims.lstm_dim}, "
        f"held-out sentences: {held}"
    )
    return 0


def _load_models(paths: Paths, components) -> evaluation.RerankModels:
    """Load the models that scoring the given components needs
    (``evaluation.MODELS_NEEDED``)."""
    models = evaluation.RerankModels()
    needed = {name for c in components for name in evaluation.MODELS_NEEDED[c]}
    if not needed:
        return models
    vocab = _load_vocab_checked(paths)  # every model is checked against it
    if "vocab" in needed:
        models.vocab = vocab
    if "ngram" in needed:
        models.ngram = _load_ngram_checked(paths.ngram_full, vocab)
    if "lstm" in needed:
        models.lstm = trainer.LstmLmParams.load(
            _require_file(paths.lstm, "run train-lstm-lm first"), vocab
        )
    if "reranker" in needed:
        models.reranker = RerankerParams.load(
            _require_file(paths.reranker, "run train-reranker first"), vocab
        )
    if "kb_index" in needed:
        models.kb_index = kb.load_index(_require_file(paths.kb_index, "kb index"))
    return models


def _parse_weights(raw: str) -> dict:
    """``--weights`` as name -> weight; each weight must be a finite number."""
    weights = {}
    if raw:
        for part in raw.split(","):
            name, _, value = part.partition("=")
            try:
                weight = float(value)
            except ValueError:  # no number at all, refused as NaN is
                weight = math.nan
            if not math.isfinite(weight):
                raise ValueError(f"bad weight spec {part!r}, expected name=<finite number>")
            weights[name.strip()] = weight
    return weights


def cmd_rerank(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    dataset = evaluation.load_nbest(_require_file(Path(args.nbest), "n-best file"))
    models = _load_models(paths, evaluation.SCORER_COMPONENTS[args.scorer])
    weights = _parse_weights(args.weights)
    choices = evaluation.rerank(dataset, args.scorer, weights, models).tolist()
    out_path = paths.out / f"selections_{args.scorer.replace('+', '_')}.jsonl"
    with atomic_text_writer(out_path) as fh:
        for nbest, chosen in zip(dataset, choices):
            tokens = list(nbest.hypotheses[chosen][0].tokens)
            rec = {"id": nbest.utt_id, "chosen_index": chosen, "tokens": tokens}
            fh.write(json.dumps(rec) + "\n")
    print(f"rerank: wrote {out_path}")
    return 0


def run_table_evaluation(cfg: PipelineConfig, heldout_path, test_path):
    """Score both splits once, tune each scorer's weights on the held-out
    scores, then decode both splits with them."""
    paths = Paths(cfg.out_dir)
    models = _load_models(paths, evaluation.COMPONENTS)
    scored = {
        split: evaluation.score_split(evaluation.load_nbest(path), evaluation.COMPONENTS, models, path)
        for split, path in (("heldout", heldout_path), ("test", test_path))
    }
    rows = []
    tuned: dict = {}
    for scorer in evaluation.SCORERS:
        weights = evaluation.tune_weights(scored["heldout"], scorer, cfg.weight_grid)
        tuned[scorer] = weights
        split_reports = {}
        for split, split_scores in scored.items():
            report = evaluation.evaluate(split_scores, scorer, weights)
            evaluation.write_utterance_csv(report, paths.report(split, scorer))
            split_reports[split] = report
        rows.append((scorer, split_reports))
    rows.append(("oracle", {split: evaluation.oracle_wer(ss) for split, ss in scored.items()}))
    table = evaluation.summary_table(rows)
    weight_lines = "\n".join(f"# {s}: weights {json.dumps(tuned[s])}" for s in tuned)
    with atomic_text_writer(paths.summary) as fh:
        fh.write(table + "\n" + weight_lines + "\n")
    return rows, table


def cmd_evaluate(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    if args.nbest:
        dataset = evaluation.load_nbest(_require_file(Path(args.nbest), "n-best file"))
        models = _load_models(paths, evaluation.SCORER_COMPONENTS[args.scorer])
        scored = evaluation.score_split(dataset, args.scorer, models, args.nbest)
        report = evaluation.evaluate(scored, args.scorer, _parse_weights(args.weights))
        evaluation.write_utterance_csv(report, paths.report("custom", args.scorer))
        print(f"{args.scorer}: WER {100.0 * report.wer:.2f}")
        return 0
    heldout_path = Path(args.heldout) if args.heldout else paths.heldout
    test_path = Path(args.test) if args.test else paths.test
    _require_file(heldout_path, "held-out n-best")
    _require_file(test_path, "test n-best")
    _, table = run_table_evaluation(cfg, heldout_path, test_path)
    print(table)
    print(f"summary written to {paths.summary}")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON pipeline config")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a single config field",
    )
    common.add_argument("--seed", type=int, help="override the global seed")
    common.add_argument("--out-dir", help="override the output directory")

    parser = argparse.ArgumentParser(prog="kbrerank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth-world", parents=[common]).set_defaults(func=cmd_synth_world)
    sub.add_parser("build-vocab", parents=[common]).set_defaults(func=cmd_build_vocab)
    sub.add_parser("build-kb-index", parents=[common]).set_defaults(func=cmd_build_kb_index)
    sub.add_parser("train-ngram", parents=[common]).set_defaults(func=cmd_train_ngram)
    sub.add_parser("gen-negatives", parents=[common]).set_defaults(func=cmd_gen_negatives)
    sub.add_parser("extract-features", parents=[common]).set_defaults(func=cmd_extract_features)
    sub.add_parser("train-reranker", parents=[common]).set_defaults(func=cmd_train_reranker)
    sub.add_parser("train-lstm-lm", parents=[common]).set_defaults(func=cmd_train_lstm_lm)

    p_rerank = sub.add_parser("rerank", parents=[common])
    p_rerank.add_argument("--nbest", required=True)
    p_rerank.add_argument("--scorer", default="reranker", choices=evaluation.SCORERS)
    p_rerank.add_argument("--weights", default="", help="comma list, e.g. reranker=1.0,lstm=0.5")
    p_rerank.set_defaults(func=cmd_rerank)

    p_eval = sub.add_parser("evaluate", parents=[common])
    p_eval.add_argument("--heldout", help="held-out n-best for weight tuning")
    p_eval.add_argument("--test", help="test n-best for the summary table")
    p_eval.add_argument("--nbest", help="single n-best file (with --scorer/--weights)")
    p_eval.add_argument("--scorer", default="reranker", choices=evaluation.SCORERS)
    p_eval.add_argument("--weights", default="")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def resolve_config(args) -> PipelineConfig:
    if args.config:
        cfg = PipelineConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = PipelineConfig()
    for item in args.set:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        cfg.set_key(key.strip(), value)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args)
    except (ValueError, OSError, KeyError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
