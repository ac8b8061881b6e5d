"""Command-line pipeline: one subcommand per stage, conventional file layout.

Every stage reads and writes files under ``--out-dir`` using fixed names, so
the whole pipeline is a sequence of subcommands sharing one directory:

    synth-world -> build-vocab -> build-kb-index -> train-ngram ->
    gen-negatives -> extract-features -> train-reranker -> train-lstm-lm ->
    evaluate

``FILES`` names each file once, with the stage that writes it. ``main`` makes
the output directory and hands the stage one ``Inputs``, which loads each input
on first use; a missing one fails naming the stage that writes it, or the
option that gave its path (``--nbest``, config key ``corpus_path``).

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
import functools
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
    Vocabulary,
    assign_folds,
    build_vocabulary,
    load_corpus,
    load_vocabulary,
    pad_ids,
    save_corpus,
    save_vocabulary,
    tokens_of,
)
from .neural import RerankerDims, RerankerParams, RerankerRows
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


# each conventional file under the output directory: Paths attribute ->
# (file name, the stage that writes it)
FILES = {
    "kb": ("kb.tsv", "synth-world"),
    "train": ("train.txt", "synth-world"),
    "heldout": ("heldout.jsonl", "synth-world"),
    "test": ("test.jsonl", "synth-world"),
    "vocab": ("vocab.tsv", "build-vocab"),
    "kb_index": ("kb_index.bin", "build-kb-index"),
    "ngram_full": ("ngram_full.bin", "train-ngram"),
    "ngram_folds": ("ngram_folds.bin", "train-ngram"),
    "negatives": ("negatives.bin", "gen-negatives"),
    "features": ("features.jsonl", "extract-features"),
    "reranker": ("reranker.bin", "train-reranker"),
    "train_log": ("train_log.csv", "train-reranker"),
    "lstm": ("lstm_lm.bin", "train-lstm-lm"),
    "summary": ("summary.txt", "evaluate"),
}


class Paths:
    """Conventional artifact names under the output directory (``FILES``)."""

    def __init__(self, out_dir: str):
        self.out = Path(out_dir)
        for attr, (name, _) in FILES.items():
            setattr(self, attr, self.out / name)

    def report(self, split: str, scorer: str) -> Path:
        return self.out / f"report_{split}_{scorer.replace('+', '_')}.csv"


class Inputs:
    """One stage call's config, paths and inputs, each input loaded on first
    use. The model attributes are those of ``evaluation.RerankModels``, so
    scoring takes an ``Inputs`` as its models and loads only those its
    components read (``evaluation.MODELS_NEEDED``). Every model is checked
    against the vocabulary."""

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.paths = Paths(cfg.out_dir)

    def path(self, name: str | None, given: str = "", option: str = "") -> Path:
        """The file ``name`` (a ``FILES`` key), or ``given`` when ``option``
        names it (always, without ``name``). A missing file is refused,
        naming the stage that writes it or the option."""
        own = name and not given
        path = getattr(self.paths, name) if own else Path(given)
        if not path.exists():
            hint = f"run {FILES[name][1]} first" if own else f"given by {option}"
            raise ValueError(f"missing input file {path} ({hint})")
        return path

    @functools.cached_property
    def corpus(self) -> Corpus:
        return load_corpus(self.path("train", self.cfg.corpus_path, "config key corpus_path"))

    @functools.cached_property
    def vocab(self) -> Vocabulary:
        return load_vocabulary(self.path("vocab"))

    @functools.cached_property
    def kb_index(self) -> kb.KBTables:
        return kb.load_index(self.path("kb_index"))

    @functools.cached_property
    def ngram(self) -> ngram.NGramModel:
        return ngram.load_models(self.path("ngram_full"), self.vocab)[0][0]

    @functools.cached_property
    def lstm(self) -> trainer.LstmLmParams:
        return trainer.LstmLmParams.load(self.path("lstm"), self.vocab)

    @functools.cached_property
    def reranker(self) -> RerankerParams:
        return RerankerParams.load(self.path("reranker"), self.vocab)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_synth_world(inp: Inputs, args) -> int:
    cfg, paths = inp.cfg, inp.paths
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


def cmd_build_vocab(inp: Inputs, args) -> int:
    vocab = build_vocabulary(inp.corpus, inp.cfg.vocab_min_count)
    save_vocabulary(vocab, inp.paths.vocab)
    print(f"vocabulary: {vocab.size} entries (incl. unknown symbol)")
    return 0


def cmd_build_kb_index(inp: Inputs, args) -> int:
    tables = kb.build_index(kb.load_kb(inp.path("kb", inp.cfg.kb_path, "config key kb_path")))
    kb.save_index(tables, inp.paths.kb_index)
    print(f"kb index: {tables.n_entries} entries, max co-occurrence {tables.max_cooccurrence}")
    return 0


def cmd_train_ngram(inp: Inputs, args) -> int:
    cfg, paths, corpus = inp.cfg, inp.paths, inp.corpus
    folds = assign_folds(corpus, cfg.n_folds, cfg.seed)
    full, fold_models = ngram.train_jackknife(corpus, inp.vocab, cfg.ngram_order, folds)
    ngram.save_models(paths.ngram_full, [full])
    ngram.save_models(paths.ngram_folds, fold_models, folds)
    print(f"ngram: order {cfg.ngram_order}, full model + {folds.k} jackknife models")
    return 0


def cmd_gen_negatives(inp: Inputs, args) -> int:
    cfg, corpus, vocab = inp.cfg, inp.corpus, inp.vocab
    fold_models, folds = ngram.load_models(inp.path("ngram_folds"), vocab, corpus)
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
    negsampler.save_negatives(negs, inp.paths.negatives, vocab)
    print(f"negatives: {sampled} sentences sampled, {len(corpus) - sampled} dropped")
    return 0


def cmd_extract_features(inp: Inputs, args) -> int:
    corpus, vocab, index = inp.corpus, inp.vocab, inp.kb_index
    negs = negsampler.load_negatives(inp.path("negatives"), corpus, vocab)
    kept = negsampler.best_groups(negs, inp.cfg.keep_top_m)
    # one row per candidate: each kept sentence, then its negatives
    rows, lps = [], negs.logprob.tolist()
    for group in kept:
        sid, start, _ = group
        for hyp_id, words in enumerate(negs.words(group, corpus, vocab)):
            rows.append((sid, hyp_id, words, lps[start + hyp_id]))
    bins = features.feature_bins([tokens for _, _, tokens, _ in rows], index).tolist()
    names = [name for name, _ in features.BIN_FIELDS]
    with atomic_text_writer(inp.paths.features) as fh:
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


def load_feature_instances(path, vocab) -> RerankerRows:
    """The feature dump as training instances, one group of
    ``neural.RerankerRows`` each, in ascending ``sentence_id``, each one's
    rows by ``hypothesis_id``.

    The rows are read and checked in one pass, each into the columns and
    then dropped: ids are ints, each row has exactly the dump's fields, its
    tokens are a list of strings, each score is a finite number >= 0 and each
    bin an integer in range
    (``features.BIN_FIELDS``). A sentence's rows must be hypotheses 0..n-1
    with n >= 2: row 0 is the source sentence, the correct candidate, and
    the rest its negatives. The ids are padded once, after every check.
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
    ids, lengths = pad_ids([ids[i] for i in order.tolist()])
    return RerankerRows(ids, lengths, bins[order], np.frombuffer(feats)[order], [*starts, len(ids)])


def _train_config(cfg: PipelineConfig, **overrides) -> TrainConfig:
    """``cfg.train`` with the pipeline seed, then ``overrides``."""
    return dataclasses.replace(cfg.train, seed=cfg.seed, **overrides)


def cmd_train_reranker(inp: Inputs, args) -> int:
    cfg, paths, vocab, index, full = inp.cfg, inp.paths, inp.vocab, inp.kb_index, inp.ngram
    instances = load_feature_instances(inp.path("features"), vocab)
    heldout = inp.path("heldout")
    prepared = trainer.prepare_heldout(evaluation.load_nbest(heldout), vocab, index, full, heldout)
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


def cmd_train_lstm_lm(inp: Inputs, args) -> int:
    cfg, paths, corpus, vocab = inp.cfg, inp.paths, inp.corpus, inp.vocab
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


def _parse_weights(raw: str) -> dict:
    """``--weights`` as name -> weight; each name must be nonempty and given
    once, each weight a finite number."""
    weights = {}
    if raw:
        for part in raw.split(","):
            name, _, value = part.partition("=")
            name = name.strip()
            try:
                weight = float(value)
            except ValueError:  # no number at all, refused as NaN is
                weight = math.nan
            if not name or name in weights or not math.isfinite(weight):
                raise ValueError(
                    f"bad weight spec {part!r}, expected name=<finite number>, each name once"
                )
            weights[name] = weight
    return weights


def cmd_rerank(inp: Inputs, args) -> int:
    dataset = evaluation.load_nbest(inp.path(None, args.nbest, "--nbest"))
    weights = _parse_weights(args.weights)
    choices = evaluation.rerank(dataset, args.scorer, weights, inp).tolist()
    out_path = inp.paths.out / f"selections_{args.scorer.replace('+', '_')}.jsonl"
    with atomic_text_writer(out_path) as fh:
        for nbest, chosen in zip(dataset, choices):
            tokens = list(nbest.hypotheses[chosen][0].tokens)
            rec = {"id": nbest.utt_id, "chosen_index": chosen, "tokens": tokens}
            fh.write(json.dumps(rec) + "\n")
    print(f"rerank: wrote {out_path}")
    return 0


def run_table_evaluation(inp: Inputs, heldout_path, test_path):
    """Read both splits and count their errors, score the held-out split with
    every component and tune each scorer's weights on it, score the test
    split with the components some tuned weights read, then decode both."""
    scored = {
        split: evaluation.count_errors(evaluation.read_split(evaluation.load_nbest(path)), path)
        for split, path in (("heldout", heldout_path), ("test", test_path))
    }
    evaluation.score_hypotheses(scored["heldout"], evaluation.COMPONENTS, inp)
    grid = inp.cfg.weight_grid
    tuned = {s: evaluation.tune_weights(scored["heldout"], s, grid) for s in evaluation.SCORERS}
    read = {name for s, weights in tuned.items() for name in evaluation.weighted(s, weights)}
    evaluation.score_hypotheses(scored["test"], read, inp)
    rows = []
    for scorer, weights in tuned.items():
        split_reports = {}
        for split, split_scores in scored.items():
            report = evaluation.evaluate(split_scores, scorer, weights)
            evaluation.write_utterance_csv(report, inp.paths.report(split, scorer))
            split_reports[split] = report
        rows.append((scorer, split_reports))
    rows.append(("oracle", {split: evaluation.oracle_wer(ss) for split, ss in scored.items()}))
    table = evaluation.summary_table(rows)
    weight_lines = "\n".join(f"# {s}: weights {json.dumps(tuned[s])}" for s in tuned)
    with atomic_text_writer(inp.paths.summary) as fh:
        fh.write(table + "\n" + weight_lines + "\n")
    return rows, table


def cmd_evaluate(inp: Inputs, args) -> int:
    # each mode refuses the flags only the other one reads
    if args.nbest and (args.heldout or args.test):
        raise ValueError(f"evaluate --nbest reads no {'--heldout' if args.heldout else '--test'}")
    if args.weights and not args.nbest:
        raise ValueError("evaluate reads --weights only with --nbest; without it, it tunes them")
    if args.scorer and not args.nbest:
        raise ValueError("evaluate reads --scorer only with --nbest; without it, it runs them all")
    if args.nbest:
        scorer = args.scorer or "reranker"
        path, weights = inp.path(None, args.nbest, "--nbest"), _parse_weights(args.weights)
        components = evaluation.weighted(scorer, weights)
        scored = evaluation.score_split(evaluation.load_nbest(path), components, inp, args.nbest)
        report = evaluation.evaluate(scored, scorer, weights)
        evaluation.write_utterance_csv(report, inp.paths.report("custom", scorer))
        print(f"{scorer}: WER {100.0 * report.wer:.2f}")
        return 0
    heldout_path = inp.path("heldout", args.heldout, "--heldout")
    test_path = inp.path("test", args.test, "--test")
    _, table = run_table_evaluation(inp, heldout_path, test_path)
    print(table)
    print(f"summary written to {inp.paths.summary}")
    return 0


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


@functools.cache  # parsing never changes the parser: build it once per process
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
    p_eval.add_argument("--scorer", choices=evaluation.SCORERS, help="with --nbest (reranker)")
    p_eval.add_argument("--weights", default="")
    p_eval.set_defaults(func=cmd_evaluate)
    return parser


def resolve_config(args) -> PipelineConfig:
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except ValueError as exc:  # malformed JSON, or not UTF-8
            raise ValueError(f"config {args.config}: malformed JSON ({exc})") from exc
        if not isinstance(data, dict):
            raise ValueError(f"config {args.config}: expected a JSON object of keys")
        cfg = PipelineConfig.from_dict(data)
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
        inp = Inputs(resolve_config(args))
        inp.paths.out.mkdir(parents=True, exist_ok=True)  # every stage writes there
        return args.func(inp, args)
    except (ValueError, OSError, KeyError, ArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
