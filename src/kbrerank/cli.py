"""Command-line pipeline: one subcommand per stage, conventional file layout.

Every stage reads and writes files under ``--out-dir`` using fixed names, so
the whole pipeline is a sequence of subcommands sharing one directory:

    synth-world -> build-vocab -> build-kb-index -> train-ngram ->
    gen-negatives -> extract-features -> train-reranker -> train-lstm-lm ->
    evaluate

All knobs live in a flat JSON config (``--config``), overridable per key with
``--set key=value``; ``--seed`` overrides the global seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import evaluation, features, kb, negsampler, ngram, synth, trainer
from .artifacts import ArtifactError, check_vocab_hash
from .corpus import (
    Corpus,
    FoldAssignment,
    assign_folds,
    build_vocabulary,
    load_corpus,
    load_vocabulary,
    save_corpus,
    save_vocabulary,
)
from .neural import RerankerDims, RerankerParams


@dataclass
class PipelineConfig:
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
    # reranker training
    lr: float = 1.0
    momentum: float = 0.9
    lr_decay: float = 0.5
    l2: float = 1e-6
    dropout: float = 0.2
    batch_size: int = 64
    max_epochs: int = 20
    patience: int = 3
    # LSTM language model
    lm_word_dim: int = 200
    lm_lstm_dim: int = 1000
    lm_mode: str = "full-softmax"
    lm_nce_samples: int = 100
    lm_max_epochs: int = 8
    # evaluation weight grid
    weight_grid: tuple = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    # synthetic world
    synth_n_artists: int = 100
    synth_songs_per_artist: int = 20
    synth_word_inventory: int = 400
    synth_templates: tuple = synth.DEFAULT_TEMPLATES
    synth_n_train: int = 20000
    synth_n_heldout: int = 1000
    synth_n_test: int = 1000
    synth_hyps_per_utt: int = 5
    synth_noise_rate: float = 0.3
    synth_unreachable_rate: float = 0.0
    synth_corruption_p_sub: float = 0.25
    synth_zipf_exponent: float = 1.1

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
        cfg = cls(**data)
        for name in ("weight_grid", "synth_templates"):
            setattr(cfg, name, tuple(getattr(cfg, name)))
        return cfg

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["weight_grid"] = list(self.weight_grid)
        out["synth_templates"] = list(self.synth_templates)
        return out

    def set_key(self, key: str, raw: str) -> None:
        field_types = {f.name: f.type for f in dataclasses.fields(self)}
        if key not in field_types:
            raise ValueError(f"unknown config key: {key}")
        current = getattr(self, key)
        if isinstance(current, tuple):
            try:
                value = tuple(json.loads(raw))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValueError(f"--set {key} expects a JSON list") from exc
        elif isinstance(current, bool):
            value = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float):
            value = float(raw)
        else:
            value = raw
        setattr(self, key, value)


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
        self.negatives = self.out / "negatives.jsonl"
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


def _load_folds(paths: Paths) -> FoldAssignment:
    data = json.loads(_require_file(paths.folds, "run train-ngram first").read_text())
    return FoldAssignment(tuple(data["fold_of"]), data["k"])


def _load_ngram_checked(path: Path, vocab) -> ngram.NGramModel:
    model = ngram.load_model(_require_file(path, "run train-ngram first"))
    check_vocab_hash(model.vocab_hash, vocab.content_hash(), str(path))
    return model


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_synth_world(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    paths.out.mkdir(parents=True, exist_ok=True)
    world = synth.generate_world(
        synth.SynthConfig(
            seed=cfg.seed,
            n_artists=cfg.synth_n_artists,
            n_songs_per_artist=cfg.synth_songs_per_artist,
            word_inventory=cfg.synth_word_inventory,
            templates=tuple(cfg.synth_templates),
            n_train=cfg.synth_n_train,
            n_heldout=cfg.synth_n_heldout,
            n_test=cfg.synth_n_test,
            hyps_per_utt=cfg.synth_hyps_per_utt,
            noise_rate=cfg.synth_noise_rate,
            noise_unreachable_rate=cfg.synth_unreachable_rate,
            corruption_p_sub=cfg.synth_corruption_p_sub,
            zipf_exponent=cfg.synth_zipf_exponent,
        )
    )
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
    index = kb.build_index(entries)
    kb.save_index(index, paths.kb_index)
    print(f"kb index: {index.n_entries} entries, max co-occurrence {index.max_cooccurrence}")
    return 0


def cmd_train_ngram(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = _load_vocab_checked(paths)
    folds = assign_folds(corpus, cfg.n_folds, cfg.seed)
    paths.folds.write_text(json.dumps({"k": folds.k, "fold_of": list(folds.fold_of)}))
    full = ngram.train_ngram(corpus, vocab, cfg.ngram_order)
    ngram.save_model(full, paths.ngram_full)
    for fold in range(folds.k):
        model = ngram.train_ngram(corpus, vocab, cfg.ngram_order, exclude_fold=fold, folds=folds)
        ngram.save_model(model, paths.ngram_fold(fold))
    print(f"ngram: order {cfg.ngram_order}, full model + {folds.k} jackknife models")
    return 0


def cmd_gen_negatives(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = _load_vocab_checked(paths)
    folds = _load_folds(paths)
    fold_models = [_load_ngram_checked(paths.ngram_fold(f), vocab) for f in range(folds.k)]
    table = negsampler.build_confusion_table(vocab)
    negsets: list = []
    dropped = 0
    for j, sentence in enumerate(corpus):
        try:
            negsets.append(
                negsampler.sample_negatives(
                    sentence,
                    table,
                    fold_models[folds.fold_of[j]],
                    n_samples=cfg.neg_samples,
                    keep_k=cfg.neg_keep,
                    p_sub=cfg.neg_sub_prob,
                    seed=negsampler.derive_seed(cfg.seed, "neg", j),
                )
            )
        except negsampler.NoConfusablePosition:
            negsets.append(None)  # sentence leaves training
            dropped += 1
    negsampler.save_negative_sets(negsets, paths.negatives)
    print(f"negatives: {len(corpus) - dropped} sentences sampled, {dropped} dropped")
    return 0


def cmd_extract_features(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    corpus = load_corpus(_require_file(_corpus_path(cfg, paths), "corpus"))
    vocab = _load_vocab_checked(paths)
    index = kb.load_index(_require_file(paths.kb_index, "run build-kb-index first"))
    folds = _load_folds(paths)
    fold_models = [_load_ngram_checked(paths.ngram_fold(f), vocab) for f in range(folds.k)]
    negsets = negsampler.load_negative_sets(
        _require_file(paths.negatives, "run gen-negatives first"), corpus
    )
    ranked = [
        i
        for i in negsampler.negative_quality_ranking(negsets)
        if negsets[i] is not None
    ]
    kept = sorted(ranked[: cfg.keep_top_m])
    with open(paths.features, "w", encoding="utf-8") as fh:
        for sid in kept:
            negset = negsets[sid]
            source_lp = ngram.score_sentence(fold_models[folds.fold_of[sid]], corpus[sid])
            candidates = [(corpus[sid], source_lp)]
            candidates.extend(zip(negset.negatives, negset.lm_logprobs))
            for hyp_id, (sentence, lp) in enumerate(candidates):
                bundle = features.extract_features(sentence, lp, index)
                rec = {
                    "sentence_id": sid,
                    "hypothesis_id": hyp_id,
                    "tokens": list(sentence.tokens),
                    "ngram_negative_logprob": bundle.ngram_negative_logprob,
                    "cooccurrence_bin": bundle.cooccurrence_bin,
                    "artist_freq_bin": bundle.artist_freq_bin,
                    "song_freq_bin": bundle.song_freq_bin,
                    "cross_npmi_bin": bundle.cross_npmi_bin,
                    "intra_npmi_bin": bundle.intra_npmi_bin,
                }
                fh.write(json.dumps(rec) + "\n")
    print(f"features: {len(kept)} training instances")
    return 0


def load_feature_instances(path, vocab) -> list:
    """Group the feature dump back into per-sentence training instances."""
    groups: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            groups.setdefault(rec["sentence_id"], []).append(rec)
    instances = []
    for sid in sorted(groups):
        rows = sorted(groups[sid], key=lambda r: r["hypothesis_id"])
        bundles = [
            features.FeatureBundle(
                ngram_negative_logprob=r["ngram_negative_logprob"],
                cooccurrence_bin=r["cooccurrence_bin"],
                artist_freq_bin=r["artist_freq_bin"],
                song_freq_bin=r["song_freq_bin"],
                cross_npmi_bin=r["cross_npmi_bin"],
                intra_npmi_bin=r["intra_npmi_bin"],
            )
            for r in rows
        ]
        ids = np.array([vocab.encode(r["tokens"]) for r in rows], dtype=np.intp)
        bins, feats = trainer.stack_bundles(bundles)
        instances.append(trainer.RerankInstance(ids, bins, feats))
    return instances


def cmd_train_reranker(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    vocab = _load_vocab_checked(paths)
    index = kb.load_index(_require_file(paths.kb_index, "run build-kb-index first"))
    full = _load_ngram_checked(paths.ngram_full, vocab)
    instances = load_feature_instances(
        _require_file(paths.features, "run extract-features first"), vocab
    )
    heldout_data = evaluation.load_nbest(_require_file(paths.heldout, "held-out n-best"))
    prepared = trainer.prepare_heldout(heldout_data, vocab, index, full)
    dims = RerankerDims(
        vocab_size=vocab.size,
        word_dim=cfg.word_dim,
        lstm_dim=cfg.lstm_dim,
        hidden_dim=cfg.hidden_dim,
    )
    params = RerankerParams.initialize(dims, seed=cfg.seed)
    config = trainer.TrainConfig(
        lr=cfg.lr,
        momentum=cfg.momentum,
        lr_decay=cfg.lr_decay,
        l2=cfg.l2,
        dropout=cfg.dropout,
        batch_size=cfg.batch_size,
        max_epochs=cfg.max_epochs,
        patience=cfg.patience,
        seed=cfg.seed,
    )
    best, logs = trainer.train_reranker(instances, prepared, params, config)
    best.save(paths.reranker, vocab.content_hash())
    trainer.save_training_log(logs, paths.train_log)
    print(
        f"reranker: {len(logs)} epochs, best held-out WER "
        f"{min(l.heldout_wer for l in logs):.4f}"
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
    config = trainer.TrainConfig(
        lr=cfg.lr,
        momentum=cfg.momentum,
        lr_decay=cfg.lr_decay,
        l2=cfg.l2,
        dropout=cfg.dropout,
        batch_size=cfg.batch_size,
        max_epochs=cfg.lm_max_epochs,
        patience=cfg.patience,
        seed=cfg.seed,
    )
    dims = trainer.LstmLmDims(
        vocab_size=vocab.size, word_dim=cfg.lm_word_dim, lstm_dim=cfg.lm_lstm_dim
    )
    params = trainer.train_lstm_lm(
        corpus,
        vocab,
        mode=cfg.lm_mode,
        nce_samples=cfg.lm_nce_samples,
        config=config,
        dims=dims,
        heldout=heldout,
    )
    params.save(paths.lstm, vocab.content_hash())
    print(f"lstm lm: mode {cfg.lm_mode}, dims {dims.word_dim}/{dims.lstm_dim}")
    return 0


def _load_models(paths: Paths, components) -> evaluation.RerankModels:
    """Load the models that scoring the given components needs."""
    models = evaluation.RerankModels()
    if not components:
        return models
    vocab = _load_vocab_checked(paths)
    models.vocab = vocab
    if "ngram" in components or "reranker" in components:
        models.ngram = _load_ngram_checked(paths.ngram_full, vocab)
    if "lstm" in components:
        lstm, lstm_hash = trainer.LstmLmParams.load(
            _require_file(paths.lstm, "run train-lstm-lm first")
        )
        check_vocab_hash(lstm_hash, vocab.content_hash(), str(paths.lstm))
        models.lstm = lstm
    if "reranker" in components:
        reranker, rr_hash = RerankerParams.load(
            _require_file(paths.reranker, "run train-reranker first")
        )
        check_vocab_hash(rr_hash, vocab.content_hash(), str(paths.reranker))
        models.reranker = reranker
        models.kb_index = kb.load_index(_require_file(paths.kb_index, "kb index"))
    return models


def _parse_weights(raw: str) -> dict:
    weights = {}
    if raw:
        for part in raw.split(","):
            name, _, value = part.partition("=")
            if not value:
                raise ValueError(f"bad weight spec {part!r}, expected name=value")
            weights[name.strip()] = float(value)
    return weights


def cmd_rerank(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    dataset = evaluation.load_nbest(_require_file(Path(args.nbest), "n-best file"))
    models = _load_models(paths, evaluation.SCORER_COMPONENTS[args.scorer])
    weights = _parse_weights(args.weights)
    out_path = paths.out / f"selections_{args.scorer.replace('+', '_')}.jsonl"
    with open(out_path, "w", encoding="utf-8") as fh:
        for nbest in dataset:
            chosen = evaluation.rerank(nbest, args.scorer, weights, models)
            fh.write(
                json.dumps(
                    {
                        "id": nbest.utt_id,
                        "chosen_index": chosen,
                        "tokens": list(nbest.hypotheses[chosen][0].tokens),
                    }
                )
                + "\n"
            )
    print(f"rerank: wrote {out_path}")
    return 0


def run_table_evaluation(cfg: PipelineConfig, heldout_path, test_path):
    """Score both splits once, tune each scorer's weights on the held-out
    scores, then decode both splits with them."""
    paths = Paths(cfg.out_dir)
    splits = {
        "heldout": evaluation.load_nbest(heldout_path),
        "test": evaluation.load_nbest(test_path),
    }
    for name, dataset in splits.items():
        if any(n.reference is None for n in dataset):
            raise ValueError(f"references required in {name} data")
    models = _load_models(paths, evaluation.COMPONENTS)
    scored = {
        split: evaluation.score_split(dataset, evaluation.COMPONENTS, models)
        for split, dataset in splits.items()
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
    paths.summary.write_text(table + "\n" + weight_lines + "\n", encoding="utf-8")
    return rows, table


def cmd_evaluate(cfg: PipelineConfig, args) -> int:
    paths = Paths(cfg.out_dir)
    if args.nbest:
        dataset = evaluation.load_nbest(_require_file(Path(args.nbest), "n-best file"))
        if any(n.reference is None for n in dataset):
            raise ValueError("references required")
        models = _load_models(paths, evaluation.SCORER_COMPONENTS[args.scorer])
        scored = evaluation.score_split(dataset, args.scorer, models)
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
