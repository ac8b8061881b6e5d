import argparse
import ast
import dataclasses
import importlib.util
import itertools
import json
import math
import pickle
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kbrerank import cli, evaluation, features, kb, negsampler, ngram, neural, trainer
from kbrerank.artifacts import atomic_text_writer, save_artifact
from kbrerank.cli import FILES, PipelineConfig, _train_config, build_parser, main, resolve_config
from kbrerank.corpus import build_vocabulary, corpus_from_lines, load_corpus, load_vocabulary
from oracles import every_component_scores, force_lstm_path, reference_decode


MINI_SETS = [
    "--set", "synth_n_artists=8",
    "--set", "synth_songs_per_artist=4",
    "--set", "synth_word_inventory=80",
    "--set", "synth_n_train=250",
    "--set", "synth_n_heldout=40",
    "--set", "synth_n_test=40",
    "--set", "n_folds=4",
    "--set", "keep_top_m=150",
    "--set", "word_dim=12",
    "--set", "lstm_dim=12",
    "--set", "hidden_dim=16",
    "--set", "lr=0.1",
    "--set", "max_epochs=3",
    "--set", "patience=2",
    "--set", "lm_word_dim=8",
    "--set", "lm_lstm_dim=10",
    "--set", "lm_max_epochs=2",
    "--set", 'weight_grid=[0.0, 1.0, 4.0]',
]

PIPELINE = (
    "synth-world", "build-vocab", "build-kb-index", "train-ngram",
    "gen-negatives", "extract-features", "train-reranker", "train-lstm-lm",
)


def run_pipeline(out_dir, seed=5):
    common = ["--out-dir", str(out_dir), "--seed", str(seed), *MINI_SETS]
    for command in PIPELINE:
        assert main([command, *common]) == 0, command
    assert main(["evaluate", *common]) == 0


class TestConfig:
    def test_roundtrip(self):
        cfg = PipelineConfig(seed=7, lstm_dim=32)
        again = PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys: turbo"):
            PipelineConfig.from_dict({"turbo": True})

    def test_set_coercion(self):
        cfg = PipelineConfig()
        cfg.set_key("lr", "0.25")
        cfg.set_key("n_folds", "4")
        cfg.set_key("lm_mode", "nce")
        cfg.set_key("weight_grid", "[0, 2.0]")
        assert cfg.train.lr == 0.25 and cfg.n_folds == 4
        assert cfg.lm_mode == "nce"
        assert cfg.weight_grid == (0, 2.0)

    def test_set_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig().set_key("warp", "9")

    # every flat key a config file or --set may name, in to_dict order
    FLAT_KEYS = [
        "seed", "out_dir", "corpus_path", "kb_path", "vocab_min_count", "n_folds",
        "ngram_order", "neg_samples", "neg_keep", "neg_sub_prob", "keep_top_m",
        "word_dim", "lstm_dim", "hidden_dim", "lr", "momentum", "lr_decay", "l2",
        "dropout", "batch_size", "max_epochs", "patience", "lm_word_dim",
        "lm_lstm_dim", "lm_mode", "lm_nce_samples", "lm_max_epochs", "weight_grid",
        "synth_n_artists", "synth_songs_per_artist", "synth_word_inventory",
        "synth_templates", "synth_n_train", "synth_n_heldout", "synth_n_test",
        "synth_hyps_per_utt", "synth_noise_rate", "synth_unreachable_rate",
        "synth_corruption_p_sub", "synth_zipf_exponent",
    ]

    def test_flat_keys_pinned(self):
        assert list(PipelineConfig().to_dict()) == self.FLAT_KEYS

    @pytest.mark.parametrize("key", FLAT_KEYS)
    def test_each_key_roundtrips(self, key):
        default = PipelineConfig().to_dict()
        value = default[key]
        # a valid value other than the default
        if key == "lm_mode":
            value = "nce"
        elif isinstance(value, list):
            value = value[:-1]
        elif isinstance(value, str):
            value += "x"
        elif isinstance(value, int):
            value += 1
        else:
            value = value * 0.5 if value else 0.5
        cfg = PipelineConfig()
        cfg.set_key(key, json.dumps(value) if isinstance(value, list) else str(value))
        assert cfg.to_dict() == {**default, key: value}
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_int_accepted_for_float(self):
        cfg = PipelineConfig.from_dict({"lr": 2, "synth_noise_rate": 0, "weight_grid": [0, 1]})
        assert cfg.train.lr == 2 and cfg.synth.noise_rate == 0
        assert cfg.weight_grid == (0, 1)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"synth_n_train": "50"}, "synth_n_train"),
            ({"lr": "fast"}, "lr"),
            ({"n_folds": 2.5}, "n_folds"),
            ({"patience": True}, "patience"),
            ({"lm_mode": 1}, "lm_mode"),
            ({"weight_grid": 1.0}, "weight_grid"),
            ({"synth_templates": ["play <song>", 3]}, "synth_templates"),
        ],
    )
    def test_wrong_typed_value_fails(self, tmp_path, capsys, data, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(data))
        out = tmp_path / "out"
        code = main(["synth-world", "--config", str(config), "--out-dir", str(out)])
        assert code == 1
        assert f"config key {key} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("lr=0", "lr must be positive"),
            ("synth_n_artists=0", "all counts must be >= 1"),
            ("lm_mode=bogus", "config key lm_mode must be one of full-softmax, nce"),
            ("word_dim=0", "config key word_dim must be >= 1"),
            ("lstm_dim=0", "config key lstm_dim must be >= 1"),
            ("hidden_dim=-1", "config key hidden_dim must be >= 1"),
            ("lm_word_dim=0", "config key lm_word_dim must be >= 1"),
            ("lm_lstm_dim=0", "config key lm_lstm_dim must be >= 1"),
            ("lm_nce_samples=-3", "config key lm_nce_samples must be >= 1"),
            ("lm_max_epochs=0", "config key lm_max_epochs must be >= 1"),
            ("n_folds=1", "config key n_folds must be >= 2"),
            ("ngram_order=0", "config key ngram_order must be >= 1"),
            ("neg_samples=0", "config key neg_samples must be >= 1"),
            ("ngram_order=6", "config key ngram_order must be <= 5"),
            ("neg_keep=0", "config key neg_keep must be >= 1"),
            ("neg_sub_prob=0", "config key neg_sub_prob must be in (0, 1]"),
            ("neg_sub_prob=1.5", "config key neg_sub_prob must be in (0, 1]"),
            ("keep_top_m=0", "config key keep_top_m must be >= 1"),
            ("vocab_min_count=-1", "config key vocab_min_count must be >= 0"),
            ("weight_grid=[]", "config key weight_grid must not be empty"),
            ("weight_grid=[NaN,1.0]", "config key weight_grid must be a finite number, got nan"),
            ("weight_grid=[Infinity]", "config key weight_grid must be a finite number, got inf"),
            ("lr=inf", "config key lr must be a finite number, got inf"),
            ("l2=nan", "config key l2 must be a finite number, got nan"),
            ("momentum=-inf", "config key momentum must be a finite number, got -inf"),
            ("synth_noise_rate=nan", "config key synth_noise_rate must be a finite number"),
            ("l2=-1", "l2 must be a finite number >= 0, got -1.0"),
            ("synth_corruption_p_sub=0", "corruption_p_sub must be in (0, 1]"),
        ],
    )
    def test_bad_value_fails_at_config_load(self, tmp_path, capsys, setting, message):
        common = ["--out-dir", str(tmp_path), "--seed", "5", *MINI_SETS]
        assert main(["synth-world", *common]) == 0
        capsys.readouterr()
        assert main(["build-vocab", *common, "--set", setting]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "vocab.tsv").exists()

    def test_empty_weight_grid_in_config_file_fails(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"weight_grid": []}))
        out = tmp_path / "out"
        assert main(["synth-world", "--config", str(config), "--out-dir", str(out)]) == 1
        assert "config key weight_grid must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"[]", "expected a JSON object of keys"),
            (b'"x"', "expected a JSON object of keys"),
            (b"3", "expected a JSON object of keys"),
            (b"{bad", "malformed JSON (Expecting property name"),
            (b'{"seed": 1', "malformed JSON (Expecting ',' delimiter"),
            (b'\xff{"seed": 1}', "malformed JSON ('utf-8' codec can't decode"),
        ],
    )
    def test_config_file_not_a_json_object_fails(self, tmp_path, capsys, content, message):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out = tmp_path / "out"
        assert main(["synth-world", "--config", str(config), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: config {config}: {message}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_seed_reaches_nested_records(self, tmp_path):
        cfg = resolve_config(build_parser().parse_args(["train-reranker", "--seed", "9"]))
        assert cfg.seed == 9
        assert _train_config(cfg).seed == 9
        assert _train_config(cfg, max_epochs=2).seed == 9
        texts = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["synth-world", "--out-dir", str(out), "--seed", seed, *MINI_SETS]) == 0
            texts.append((out / "train.txt").read_text())
        assert texts[0] != texts[1]


class TestCliErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["build-vocab", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_set_flag(self, tmp_path, capsys):
        code = main(["synth-world", "--out-dir", str(tmp_path), "--set", "nonsense"])
        assert code == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_evaluate_requires_references(self, tmp_path, capsys):
        nbest = tmp_path / "blind.jsonl"
        nbest.write_text(
            '{"id": "u1", "hypotheses": [{"tokens": ["a"], "first_pass_score": -1.0}]}\n'
        )
        code = main(
            ["evaluate", "--nbest", str(nbest), "--scorer", "first-pass",
             "--out-dir", str(tmp_path)]
        )
        assert code == 1
        assert "references required" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--nbest", "a.jsonl", "--heldout", "b.jsonl"), "evaluate --nbest reads no --heldout"),
            (("--nbest", "a.jsonl", "--test", "b.jsonl"), "evaluate --nbest reads no --test"),
            (("--weights", "reranker=1.0"), "evaluate reads --weights only with --nbest"),
            (("--scorer", "lstm"), "evaluate reads --scorer only with --nbest"),
        ],
    )
    def test_evaluate_refuses_flags_it_would_not_read(self, tmp_path, capsys, extra, message):
        # refused before any input is looked for: none of these files exists
        assert main(["evaluate", "--out-dir", str(tmp_path), *extra]) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rerank_empty_nbest_path_fails_cleanly(self, tmp_path, capsys):
        # an empty path names the current directory, which is no n-best file
        argv = ["--nbest", "", "--scorer", "first-pass", "--out-dir", str(tmp_path)]
        assert main(["rerank", *argv]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("marker", ["</s>", "<s>"])
    def test_build_vocab_refuses_sentence_markers(self, tmp_path, capsys, marker):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(f"a {marker} b\n", encoding="utf-8")
        code = main(
            ["build-vocab", "--out-dir", str(tmp_path / "run"), "--set", f"corpus_path={corpus}"]
        )
        assert code == 1
        assert f"corpus token {marker!r}" in capsys.readouterr().err
        assert not (tmp_path / "run" / "vocab.tsv").exists()

    def test_gen_negatives_fails_on_bad_sampler_config(self, tmp_path, capsys):
        # only "no confusable position" drops a sentence; any other sampler
        # error fails the stage instead of silently dropping every sentence
        common = ["--out-dir", str(tmp_path), "--seed", "5", *MINI_SETS]
        for command in ("synth-world", "build-vocab", "train-ngram"):
            assert main([command, *common]) == 0, command
        capsys.readouterr()
        code = main(
            ["gen-negatives", *common, "--set", "neg_samples=4", "--set", "neg_keep=5"]
        )
        assert code == 1
        assert "need 1 <= keep_k <= n_samples" in capsys.readouterr().err
        assert not (tmp_path / "negatives.bin").exists()


class TestAtomicTextWriter:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        with atomic_text_writer(path) as fh:
            fh.write("new\n")
            assert path.read_text() == "old\n"
        assert path.read_text() == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_failure_midway_leaves_nothing(self, tmp_path):
        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            with atomic_text_writer(path) as fh:
                fh.write("partial\n")
                raise RuntimeError("stop")
        assert list(tmp_path.iterdir()) == []

    def test_text_writer_raising_midway_keeps_old_file(self, tmp_path):
        path = tmp_path / "train_log.csv"
        path.write_text("old\n")

        class Row:
            epoch, heldout_wer, lr = 0, 0.5, 1.0

            @property
            def mean_loss(self):
                raise RuntimeError("row failed")

        with pytest.raises(RuntimeError, match="row failed"):
            trainer.save_training_log([trainer.EpochLog(0, 1.0, 0.5, 1.0), Row()], path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["train_log.csv"]

    def test_binary_writer_raising_midway_keeps_old_file(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"old")
        # the 1 MB array goes to the file before the object array, which
        # would need a pickle, is refused
        arrays = {"tensors": np.zeros(1 << 17), "hook": np.array([{}, None], dtype=object)}
        with pytest.raises(ValueError, match="allow_pickle=False"):
            save_artifact(path, "reranker-params", arrays)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    run_pipeline(out)
    return out


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        for name in (
            "kb.tsv", "train.txt", "heldout.jsonl", "test.jsonl", "vocab.tsv",
            "kb_index.bin", "ngram_full.bin", "ngram_folds.bin",
            "negatives.bin", "features.jsonl", "reranker.bin", "train_log.csv",
            "lstm_lm.bin", "summary.txt",
        ):
            assert (pipeline_dir / name).exists(), name
        # train-ngram writes the full model and the jackknife file, nothing else
        assert sorted(p.name for p in pipeline_dir.glob("*fold*")) == ["ngram_folds.bin"]
        assert sorted(p.name for p in pipeline_dir.glob("ngram_*")) == [
            "ngram_folds.bin", "ngram_full.bin"
        ]

    def test_summary_has_all_scorer_rows(self, pipeline_dir):
        text = (pipeline_dir / "summary.txt").read_text()
        for row in ("first-pass", "ngram", "lstm", "reranker", "reranker+lstm", "oracle"):
            assert row in text
        assert "heldout" in text and "test" in text

    def test_training_log_format(self, pipeline_dir):
        lines = (pipeline_dir / "train_log.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,heldout_wer,lr"
        assert len(lines) >= 2

    def test_rerank_subcommand(self, pipeline_dir):
        code = main(
            ["rerank", "--nbest", str(pipeline_dir / "test.jsonl"),
             "--scorer", "reranker", "--weights", "reranker=1.0",
             "--out-dir", str(pipeline_dir), *MINI_SETS]
        )
        assert code == 0
        out = pipeline_dir / "selections_reranker.jsonl"
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 40
        assert all("chosen_index" in r and "tokens" in r for r in records)

    def test_rerank_needs_no_references(self, pipeline_dir, tmp_path):
        blind = tmp_path / "blind.jsonl"
        records = [json.loads(l) for l in (pipeline_dir / "test.jsonl").read_text().splitlines()]
        assert all("reference" in r for r in records)
        blind.write_text(
            "".join(json.dumps({k: v for k, v in r.items() if k != "reference"}) + "\n" for r in records)
        )
        out = pipeline_dir / "selections_reranker_lstm.jsonl"
        selections = []
        for nbest in (pipeline_dir / "test.jsonl", blind):
            code = main(
                ["rerank", "--nbest", str(nbest), "--scorer", "reranker+lstm",
                 "--weights", "reranker=1.0,lstm=0.5", "--out-dir", str(pipeline_dir), *MINI_SETS]
            )
            assert code == 0
            selections.append(out.read_text())
        assert len(selections[0].splitlines()) == 40
        assert selections[0] == selections[1]

    def test_vocab_hash_mismatch_detected(self, pipeline_dir, tmp_path, capsys):
        # models were trained against min_count=1; a coarser vocabulary must
        # be refused by every consumer of a trained model
        run = copy_run(pipeline_dir, tmp_path)
        assert main(
            ["build-vocab", "--out-dir", str(run), *MINI_SETS,
             "--set", "vocab_min_count=3"]
        ) == 0
        code = main(
            ["rerank", "--nbest", str(run / "test.jsonl"), "--scorer", "reranker",
             "--weights", "reranker=1.0", "--out-dir", str(run), *MINI_SETS]
        )
        assert code == 1
        assert "vocabulary-hash mismatch" in capsys.readouterr().err

    def test_features_keep_top_m_sentences(self, pipeline_dir):
        lines = (pipeline_dir / "features.jsonl").read_text().splitlines()
        assert len({json.loads(l)["sentence_id"] for l in lines}) == 150

    def test_extract_features_reads_no_ngram_model(self, pipeline_dir, tmp_path):
        # gen-negatives scored every sentence with its draws
        run = copy_run(pipeline_dir, tmp_path)
        (run / "features.jsonl").unlink()
        models = sorted(p.name for p in run.glob("ngram_*.bin"))
        assert models == ["ngram_folds.bin", "ngram_full.bin"]
        for name in models:
            (run / name).unlink()
        assert stage("extract-features", run) == 0
        written = (run / "features.jsonl").read_bytes()
        assert written == (pipeline_dir / "features.jsonl").read_bytes()

    @pytest.mark.parametrize("top_m", ["0", "-1"])
    def test_extract_features_rejects_non_positive_keep_top_m(
        self, pipeline_dir, tmp_path, capsys, top_m
    ):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        (run / "features.jsonl").unlink()
        code = main(
            ["extract-features", "--out-dir", str(run), "--seed", "5", *MINI_SETS,
             "--set", f"keep_top_m={top_m}"]
        )
        assert code == 1
        assert "config key keep_top_m must be >= 1" in capsys.readouterr().err
        assert not (run / "features.jsonl").exists()

    @pytest.mark.parametrize("damage", ["missing_source", "duplicate_row", "single_row"])
    def test_malformed_feature_groups_rejected(self, pipeline_dir, tmp_path, capsys, damage):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        lines = (run / "features.jsonl").read_text().splitlines(keepends=True)
        sid = json.loads(lines[0])["sentence_id"]
        own = [i for i, l in enumerate(lines) if json.loads(l)["sentence_id"] == sid]
        if damage == "missing_source":
            del lines[own[0]]
        elif damage == "duplicate_row":
            lines.insert(own[-1], lines[own[-1]])
        else:
            del lines[own[1] : own[-1] + 1]
        (run / "features.jsonl").write_text("".join(lines))
        capsys.readouterr()
        code = main(["train-reranker", "--out-dir", str(run), "--seed", "5", *MINI_SETS])
        assert code == 1
        err = capsys.readouterr().err
        assert "features.jsonl" in err and f"sentence_id {sid} " in err
        assert "at least one negative" in err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("ngram_negative_logprob", math.nan, "must be a finite number"),
            ("ngram_negative_logprob", math.inf, "must be a finite number"),
            ("artist_freq_bin", 1.5, "artist_freq_bin must be an integer"),
            ("cross_npmi_bin", True, "cross_npmi_bin must be an integer"),
            ("ngram_negative_logprob", True, "must be a finite number >= 0, got True"),
            ("ngram_negative_logprob", "1.0", "must be a finite number >= 0, got '1.0'"),
            ("ngram_negative_logprob", -0.5, "must be a finite number >= 0, got -0.5"),
            ("ngram_negative_logprob", None, "must be a finite number >= 0, got None"),
            ("ngram_negative_logprob", 10**400, "must be a finite number >= 0, got 1000"),
            ("cooccurrence_bin", 1.0, "cooccurrence_bin must be an integer, got 1.0"),
            ("song_freq_bin", True, "song_freq_bin must be an integer, got True"),
            ("intra_npmi_bin", 1.5, "intra_npmi_bin must be an integer, got 1.5"),
            ("intra_npmi_bin", "3", "intra_npmi_bin must be an integer, got '3'"),
            *(
                (name, value, f"feature bin {value} outside [0, {limit})")
                for name, limit in features.BIN_FIELDS
                for value in (-1, limit)
            ),
        ],
    )
    def test_bad_feature_values_rejected(
        self, pipeline_dir, tmp_path, capsys, field, value, message
    ):
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        lines = (run / "features.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        rec[field] = value
        lines[1] = json.dumps(rec) + "\n"
        (run / "features.jsonl").write_text("".join(lines))
        capsys.readouterr()
        code = main(["train-reranker", "--out-dir", str(run), "--seed", "5", *MINI_SETS])
        assert code == 1
        err = capsys.readouterr().err
        assert f"features.jsonl: sentence_id {rec['sentence_id']}: " in err
        assert message in err

    @pytest.mark.parametrize("damage", ["missing", "unknown"])
    def test_bad_feature_fields_rejected(self, pipeline_dir, tmp_path, capsys, damage):
        run = copy_run(pipeline_dir, tmp_path)
        lines = (run / "features.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[3])
        if damage == "missing":
            del rec["song_freq_bin"]
        else:
            rec["lm_score"] = 1.0
        lines[3] = json.dumps(rec) + "\n"
        (run / "features.jsonl").write_text("".join(lines))
        capsys.readouterr()
        assert stage("train-reranker", run) == 1
        err = capsys.readouterr().err
        expected = (
            "missing fields ['song_freq_bin'], unknown fields []" if damage == "missing"
            else "missing fields [], unknown fields ['lm_score']"
        )
        assert f"features.jsonl: sentence_id {rec['sentence_id']}: {expected}" in err
        assert "Traceback" not in err

    def test_failed_extract_features_leaves_no_file(
        self, pipeline_dir, tmp_path, capsys, monkeypatch
    ):
        # C9 compares every file of the output directory, so a failed stage
        # must leave neither a partial features.jsonl nor its temporary file
        run = tmp_path / "run"
        shutil.copytree(pipeline_dir, run)
        (run / "features.jsonl").unlink()
        before = sorted(p.name for p in run.iterdir())

        def failing_kernel(sequences, index):
            raise ValueError("kernel failed midway")

        monkeypatch.setattr(features, "feature_bins", failing_kernel)
        code = main(["extract-features", "--out-dir", str(run), "--seed", "5", *MINI_SETS])
        assert code == 1
        assert "kernel failed midway" in capsys.readouterr().err
        assert sorted(p.name for p in run.iterdir()) == before

    @pytest.mark.parametrize(
        "command, scorer, weights, unused",
        [
            ("rerank", "reranker", "rerankr=1.0", "rerankr"),
            ("rerank", "reranker", "reranker=1.0,lstm=0.5", "lstm"),
            ("rerank", "first-pass", "first_pass=2.0", "first_pass"),
            ("evaluate", "ngram", "ngram=1.0,reranker=1.0", "reranker"),
        ],
    )
    def test_weights_for_unused_components_rejected(
        self, pipeline_dir, capsys, command, scorer, weights, unused
    ):
        code = main(
            [command, "--nbest", str(pipeline_dir / "test.jsonl"), "--scorer", scorer,
             "--weights", weights, "--out-dir", str(pipeline_dir), *MINI_SETS]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "weights for components the scorer does not use" in err
        assert unused in err

    @pytest.mark.parametrize(
        "weights, spec",
        [("reranker=nan,lstm=inf", "reranker=nan"), ("reranker=1.0,lstm=inf", "lstm=inf"),
         ("reranker=-Infinity", "reranker=-Infinity"), ("reranker=", "reranker="),
         # the weights decide which models load: a name twice, or none
         ("reranker=1,reranker=2", "reranker=2"), ("reranker=1, reranker =2", " reranker =2"),
         ("=1", "=1"), ("reranker=1, =0.5", " =0.5")],
    )
    def test_non_finite_weight_rejected(self, pipeline_dir, tmp_path, capsys, weights, spec):
        run = copy_run(pipeline_dir, tmp_path)
        (run / "selections_reranker_lstm.jsonl").unlink(missing_ok=True)
        capsys.readouterr()
        code = stage("rerank", run, "--nbest", str(run / "test.jsonl"),
                     "--scorer", "reranker+lstm", "--weights", weights)
        assert code == 1
        err = capsys.readouterr().err
        assert f"bad weight spec {spec!r}, expected name=<finite number>" in err
        assert not (run / "selections_reranker_lstm.jsonl").exists()

    def test_parser_built_once_keeps_stages_apart(self, pipeline_dir, tmp_path, monkeypatch):
        # main reuses one parser; each call still sees only its own stage's
        # flags, and defaults that an earlier call's flags never touched
        seen = []
        resolve = cli.resolve_config
        monkeypatch.setattr(cli, "resolve_config", lambda args: seen.append(vars(args)) or resolve(args))
        run = copy_run(pipeline_dir, tmp_path)
        nbest = str(run / "test.jsonl")
        assert stage("rerank", run, "--nbest", nbest, "--scorer", "lstm", "--weights", "lstm=1.0") == 0
        assert main(["evaluate", "--out-dir", str(run), "--nbest", nbest, "--scorer", "first-pass"]) == 0
        assert main(["rerank", "--out-dir", str(run), "--nbest", nbest]) == 0
        assert build_parser() is build_parser()
        first, second, third = seen
        assert first["set"] == MINI_SETS[1::2] and first["seed"] == 5
        assert (first["scorer"], first["weights"], first["func"]) == ("lstm", "lstm=1.0", cli.cmd_rerank)
        assert second["set"] == [] and second["seed"] is None
        assert (second["scorer"], second["weights"], second["func"]) == ("first-pass", "", cli.cmd_evaluate)
        assert (second["heldout"], second["test"]) == (None, None)
        assert third["set"] == [] and third["seed"] is None
        assert (third["scorer"], third["weights"], third["func"]) == ("reranker", "", cli.cmd_rerank)
        assert "heldout" not in first and "heldout" not in third


class TestEvaluateSplits:
    """``evaluate`` and ``train-reranker`` refuse a split they cannot count
    errors on, naming the file; errors count surface words, not vocabulary
    ids."""

    @pytest.mark.parametrize("flag", ["--nbest", "--heldout", "--test"])
    def test_empty_split_refused(self, pipeline_dir, tmp_path, capsys, flag):
        run = copy_run(pipeline_dir, tmp_path)
        empty = run / "empty.jsonl"
        empty.write_text("")
        args = {"--heldout": str(run / "heldout.jsonl"), "--test": str(run / "test.jsonl")}
        args = {flag: str(empty)} if flag == "--nbest" else {**args, flag: str(empty)}
        if flag == "--nbest":  # the table mode runs every scorer and takes no --scorer
            args["--scorer"] = "first-pass"
        capsys.readouterr()
        code = stage("evaluate", run, *itertools.chain(*args.items()))
        assert code == 1
        assert capsys.readouterr().err.strip() == f"error: {empty}: no n-best lists"

    def test_train_reranker_names_the_heldout_file(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        heldout = run / "heldout.jsonl"
        records = [json.loads(line) for line in heldout.read_text().splitlines()]
        records[3]["reference"] = None
        heldout.write_text("".join(json.dumps(r) + "\n" for r in records))
        capsys.readouterr()
        assert stage("train-reranker", run) == 1
        assert capsys.readouterr().err.strip() == f"error: {heldout}: references required"

    def test_distinct_unknown_words_count_as_a_substitution(self, pipeline_dir, tmp_path):
        run = copy_run(pipeline_dir, tmp_path)
        vocab = load_vocabulary(run / "vocab.tsv")
        index = kb.load_index(run / "kb_index.bin")
        words = ("zzoovone", "zzoovtwo")
        for word in words:  # one unknown word to every scorer
            assert vocab.id_of(word) == vocab.unk_id and word not in index.word_id
        record = json.loads((run / "test.jsonl").read_text().splitlines()[0])
        ref = record["reference"]
        nbest = run / "oov.jsonl"
        nbest.write_text(json.dumps({
            "id": "u0", "reference": [*ref, words[0]],
            "hypotheses": [{"tokens": [*ref, words[1]], "first_pass_score": -1.0}],
        }) + "\n")
        args = ("--nbest", str(nbest), "--scorer", "reranker+lstm", "--weights", "reranker=1.0,lstm=0.5")
        assert stage("evaluate", run, *args) == 0
        rows = (run / "report_custom_reranker_lstm.csv").read_text().splitlines()
        assert rows[1].split(",")[:6] == ["u0", "0", "1", "0", "0", str(len(ref) + 1)]


class TestEmptyHypotheses:
    """An n-best list may hold empty hypotheses, or only empty ones: the
    n-gram and LSTM LMs score end-of-sentence only, the KB bins are those of
    an empty sequence and the reranker reads the zero start states."""

    @staticmethod
    def with_empty_hypotheses(run):
        """test.jsonl with an empty hypothesis added to list 0 and list 1's
        hypotheses all emptied; returns the new file."""
        records = [json.loads(l) for l in (run / "test.jsonl").read_text().splitlines()]
        records[0]["hypotheses"].insert(1, {"tokens": [], "first_pass_score": -0.5})
        records[1]["hypotheses"] = [
            {"tokens": [], "first_pass_score": -1.0}, {"tokens": [], "first_pass_score": -2.0}
        ]
        path = run / "empty.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        return path

    @pytest.mark.parametrize("scorer", ["ngram", "lstm", "reranker", "reranker+lstm"])
    def test_rerank(self, pipeline_dir, tmp_path, scorer):
        run = copy_run(pipeline_dir, tmp_path)
        out = run / f"selections_{scorer.replace('+', '_')}.jsonl"
        weights = ",".join(f"{c}=1.0" for c in scorer.split("+"))
        selections = []
        for nbest in (run / "test.jsonl", self.with_empty_hypotheses(run)):
            args = ("--nbest", str(nbest), "--scorer", scorer, "--weights", weights)
            assert stage("rerank", run, *args) == 0
            selections.append([json.loads(l) for l in out.read_text().splitlines()])
        original, changed = selections
        assert len(changed) == 40
        assert changed[1]["chosen_index"] in (0, 1) and changed[1]["tokens"] == []
        assert changed[2:] == original[2:]

    def test_evaluate_nbest(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        nbest = str(self.with_empty_hypotheses(run))
        capsys.readouterr()
        args = ("--nbest", nbest, "--scorer", "reranker+lstm", "--weights", "reranker=1.0,lstm=0.5")
        assert stage("evaluate", run, *args) == 0
        assert "reranker+lstm: WER" in capsys.readouterr().out
        rows = (run / "report_custom_reranker_lstm.csv").read_text().splitlines()
        assert len(rows) == 41
        # either empty hypothesis of list 1 deletes every reference word
        utt, chosen, s, d, i, n, _ = rows[2].split(",")
        assert (s, d, i) == ("0", n, "0")


def load_span_tracer():
    """``perfbench/spans.py``, imported as it stands."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSpanTracer:
    """The benchmark's tracer wraps the package from outside: it looks up
    ``LstmLmParams.sentence_logprob`` by name, its ``score_batch`` hook reads
    ``ids`` and ``cache.ids``, and its ``evaluation.reranker_scores`` hook
    reads ``args[0].hypotheses``. A rename that breaks a traced run shows
    here."""

    def test_traced_pipeline_runs_clean(self, tmp_path):
        originals = (neural.score_batch, trainer.LstmLmParams.sentence_logprob)
        tracer = load_span_tracer().Tracer()
        tracer.install()
        try:
            run_pipeline(tmp_path)
            code = main(
                ["rerank", "--nbest", str(tmp_path / "test.jsonl"), "--scorer", "reranker+lstm",
                 "--weights", "reranker=1.0,lstm=0.5", "--out-dir", str(tmp_path), *MINI_SETS]
            )
        finally:
            tracer.uninstall()
        assert code == 0
        assert (neural.score_batch, trainer.LstmLmParams.sentence_logprob) == originals
        assert not tracer.errors  # no call raised inside a span
        metrics = tracer.layer_metrics()
        # the KB build and its PairTable marginals, looked up by name
        assert metrics["kb.build_index.s"] > 0
        assert metrics["kb.PairTable.marginal.calls"] > 0
        assert metrics["neural.score_batch.calls"] > 0
        assert metrics["neural.backprop_batch.calls"] > 0
        assert metrics["neural.score_batch.rows_per_call"] > 0


class TestTwoLstmThreads:
    """``train-reranker`` and ``rerank`` write the same bytes whether the
    reranker's two LSTM directions run on one thread or on two."""

    OUTPUTS = ("reranker.bin", "train_log.csv", "selections_reranker_lstm.jsonl")

    def run(self, pipeline_dir, run, monkeypatch, capsys, thread_work, tracer=None):
        """The outputs, the train-reranker stdout and the sweeps' threads."""
        shutil.copytree(pipeline_dir, run)
        with monkeypatch.context() as m:
            ran_on = force_lstm_path(m, thread_work)
            if tracer is not None:
                tracer.install()
            try:
                capsys.readouterr()
                assert stage("train-reranker", run) == 0
                out = capsys.readouterr().out
                assert stage(
                    "rerank", run, "--nbest", str(run / "test.jsonl"), "--scorer", "reranker+lstm",
                    "--weights", "reranker=1.0,lstm=0.5",
                ) == 0
            finally:
                if tracer is not None:
                    tracer.uninstall()
        return {name: (run / name).read_bytes() for name in self.OUTPUTS}, out, set(ran_on)

    def test_same_bytes_on_two_threads(self, pipeline_dir, tmp_path, monkeypatch, capsys):
        serial, out1, threads1 = self.run(pipeline_dir, tmp_path / "a", monkeypatch, capsys, math.inf)
        threaded, out2, threads2 = self.run(pipeline_dir, tmp_path / "b", monkeypatch, capsys, 0.0)
        assert len(threads1) == 1 and len(threads2) == 2
        assert f"LSTM threads per {neural.FUSE_ROWS}-row chunk: 1" in out1
        assert f"LSTM threads per {neural.FUSE_ROWS}-row chunk: 2" in out2
        assert threaded == serial

    def test_mini_dims_stay_serial(self, pipeline_dir, tmp_path, monkeypatch, capsys):
        outputs, out, threads = self.run(
            pipeline_dir, tmp_path / "run", monkeypatch, capsys, neural.THREAD_WORK
        )
        assert len(threads) == 1 and f"LSTM threads per {neural.FUSE_ROWS}-row chunk: 1" in out
        for name in ("reranker.bin", "train_log.csv"):
            assert outputs[name] == (pipeline_dir / name).read_bytes()

    def test_traced_run_on_two_threads(self, pipeline_dir, tmp_path, monkeypatch, capsys):
        # the worker calls no public function, so the tracer's span stack
        # stays whole
        serial, _, _ = self.run(pipeline_dir, tmp_path / "a", monkeypatch, capsys, math.inf)
        tracer = load_span_tracer().Tracer()
        traced, _, threads = self.run(
            pipeline_dir, tmp_path / "b", monkeypatch, capsys, 0.0, tracer=tracer
        )
        assert len(threads) == 2
        assert not tracer.errors and not tracer.stack
        assert tracer.layer_metrics()["neural.backprop_batch.calls"] > 0
        assert traced == serial


def copy_run(pipeline_dir, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(pipeline_dir, run)
    return run


def stage(command, run, *extra):
    return main([command, "--out-dir", str(run), "--seed", "5", *MINI_SETS, *extra])


class TestInputRecords:
    """Each input reader names the file and the line or the sentence of a
    bad record."""

    @staticmethod
    def damage_negatives(run, edit):
        """Rewrite ``negatives.bin`` after ``edit(arrays, groups)``, where
        ``groups`` holds each group's (sentence, first row, end row), and
        delete ``features.jsonl``; returns the path and what ``edit``
        returns, the sentence the error must name."""
        path, named = run / "negatives.bin", []
        (run / "features.jsonl").unlink()
        rewrite_artifact(
            path, lambda header, arrays: named.append(edit(arrays, groups_of(arrays["sentence"])))
        )
        return path, named[0]

    def fails_extract_features(self, run, capsys, message):
        capsys.readouterr()
        assert stage("extract-features", run) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (run / "features.jsonl").exists()

    @pytest.mark.parametrize("source_id", [-1, 250, "3", "duplicate", "descending"])
    def test_bad_source_id_fails_extract_features(self, pipeline_dir, tmp_path, capsys, source_id):
        # the sentence column: an index outside the corpus, a column of
        # strings, a group repeated after another, two groups swapped
        run = copy_run(pipeline_dir, tmp_path)
        assert len((run / "train.txt").read_text().splitlines()) == 250

        def edit(arrays, groups):
            (a, _, end_a), (_, start_b, end_b), (_, start_c, end_c) = groups[:3]
            sentence = arrays["sentence"]
            if source_id == "3":
                arrays["sentence"] = sentence.astype(str)
            elif source_id == "duplicate":
                sentence[start_c:end_c] = a
            elif source_id == "descending":
                order = np.r_[start_b:end_b, 0:end_a, end_b : len(sentence)]
                arrays.update({name: column[order] for name, column in arrays.items()})
            else:
                sentence[start_b:end_b] = source_id
                return source_id
            return a  # the first group's sentence, now after a later one

        path, named = self.damage_negatives(run, edit)
        message = {
            "3": "member 'sentence' is <U",
            -1: "index outside [0, 250)",
            250: "index outside [0, 250)",
        }.get(source_id, "groups not in ascending corpus order")
        if source_id != "3":
            message = f"sentence {named}: {message}"
        self.fails_extract_features(run, capsys, f"{path}: {message}")

    # a logprob column of another dtype, or a score that is not finite
    LOGPROB_FAULTS = {
        '"x"': (lambda lp: lp.astype(str), "member 'logprob' is <U"),
        "true": (lambda lp: lp.astype(bool), "member 'logprob' is bool"),
        "null": (lambda lp: lp.astype(np.float32), "member 'logprob' is float32"),
        "NaN": (lambda lp: np.r_[lp[:1], math.nan, lp[2:]], "logprob is not finite"),
        "1e400": (lambda lp: np.r_[lp[:1], math.inf, lp[2:]], "logprob is not finite"),
        "-Infinity": (lambda lp: np.r_[lp[:1], -math.inf, lp[2:]], "logprob is not finite"),
    }

    @pytest.mark.parametrize("raw", ['"x"', "true", "NaN", "1e400", "-Infinity", "null"])
    def test_bad_lm_logprob_fails_extract_features(self, pipeline_dir, tmp_path, capsys, raw):
        # each would fail later, or reorder keep_top_m's ranking silently
        run = copy_run(pipeline_dir, tmp_path)
        fault, message = self.LOGPROB_FAULTS[raw]

        def edit(arrays, groups):
            arrays["logprob"] = fault(arrays["logprob"])
            return groups[0][0]  # row 1 is the first group's first negative

        path, named = self.damage_negatives(run, edit)
        where = f"{path}: " if "member" in message else f"{path}: sentence {named}: "
        self.fails_extract_features(run, capsys, where + message)

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("no_negative", "group holds no negative"),
            ("no_source", "group does not start with the sentence's own ids"),
            ("longer", "negative of another length"),
            ("equal", "negative equals its sentence"),
            ("id_too_large", "id outside [0, "),
            ("id_negative", "id outside [0, "),
        ],
    )
    def test_bad_group_fails_extract_features(
        self, pipeline_dir, tmp_path, capsys, damage, message
    ):
        run = copy_run(pipeline_dir, tmp_path)
        corpus = load_corpus(run / "train.txt")
        vocab_size = load_vocabulary(run / "vocab.tsv").size

        def edit(arrays, groups):
            ids = arrays["ids"]
            # the group of the shortest sentence, so that its rows have padding
            sid, start, end = min(groups, key=lambda g: len(corpus[g[0]]))
            assert len(corpus[sid]) < ids.shape[1]
            drop = {"no_negative": range(start + 1, end), "no_source": [start]}.get(damage)
            if drop is not None:
                keep = np.setdiff1d(np.arange(len(ids)), list(drop))
                arrays.update({name: column[keep] for name, column in arrays.items()})
            elif damage == "longer":
                ids[start + 1, len(corpus[sid])] = 1
            elif damage == "equal":
                ids[start + 1] = ids[start]
            else:
                ids[start + 1, 0] = vocab_size if damage == "id_too_large" else -1
            return sid

        path, sid = self.damage_negatives(run, edit)
        self.fails_extract_features(run, capsys, f"{path}: sentence {sid}: {message}")

    @pytest.mark.parametrize(
        "name, edit, shape",
        [
            ("ids", lambda a: a["ids"][1:], lambda n, width: (n - 1, width)),
            ("ids", lambda a: a["ids"][:, 0], lambda n, width: (n,)),
            ("sentence", lambda a: a["sentence"][0], lambda n, width: ()),
            ("logprob", lambda a: a["logprob"][:, None], lambda n, width: (n, 1)),
        ],
    )
    def test_negatives_member_of_another_shape(
        self, pipeline_dir, tmp_path, capsys, name, edit, shape
    ):
        run = copy_run(pipeline_dir, tmp_path)
        before = np.load(run / "negatives.bin")["ids"].shape
        path, _ = self.damage_negatives(run, lambda arrays, _: arrays.update({name: edit(arrays)}))
        dtype = {"sentence": "int64", "ids": "int32", "logprob": "float64"}[name]
        message = f"{path}: member {name!r} is {dtype} of shape {shape(*before)}, expected {dtype}"
        self.fails_extract_features(run, capsys, message)

    @staticmethod
    def truncate(path, line):
        """Cut ``path`` in the middle of its ``line``-th record."""
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[: line - 1]) + lines[line - 1][: len(lines[line - 1]) // 2])

    def test_truncated_features(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        self.truncate(run / "features.jsonl", 7)
        capsys.readouterr()
        assert stage("train-reranker", run) == 1
        assert f"{run / 'features.jsonl'}:7: malformed JSON" in capsys.readouterr().err

    def test_feature_row_without_sentence_id(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        lines = (run / "features.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[4])
        del rec["sentence_id"]
        lines[4] = json.dumps(rec) + "\n"
        (run / "features.jsonl").write_text("".join(lines))
        capsys.readouterr()
        assert stage("train-reranker", run) == 1
        assert f"{run / 'features.jsonl'}:5: sentence_id must be an int, got None" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["sentence_id", "hypothesis_id"])
    def test_feature_id_beyond_64_bits(self, pipeline_dir, tmp_path, capsys, key):
        run = copy_run(pipeline_dir, tmp_path)
        lines = (run / "features.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[4])
        rec[key] = 2**64
        lines[4] = json.dumps(rec) + "\n"
        (run / "features.jsonl").write_text("".join(lines))
        capsys.readouterr()
        assert stage("train-reranker", run) == 1
        err = capsys.readouterr().err
        assert f"{run / 'features.jsonl'}:5: {key} must be an int, got {2**64}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "1e400", "true", '"3.0"', "null"])
    @pytest.mark.parametrize("command", ["rerank", "evaluate"])
    def test_bad_first_pass_score(self, pipeline_dir, tmp_path, capsys, command, raw):
        # a NaN first-pass score would otherwise win the first-pass argmax
        run = copy_run(pipeline_dir, tmp_path)
        lines = (run / "test.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        rec["hypotheses"][-1]["first_pass_score"] = "__SCORE__"
        lines[2] = json.dumps(rec).replace('"__SCORE__"', raw) + "\n"
        path = run / "bad.jsonl"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert stage(command, run, "--nbest", str(path), "--scorer", "first-pass") == 1
        err = capsys.readouterr().err
        assert f"{path}:3: malformed n-best record" in err
        assert "first_pass_score must be a finite number" in err
        assert "Traceback" not in err

    def test_truncated_nbest(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        self.truncate(run / "test.jsonl", 2)
        capsys.readouterr()
        assert stage("rerank", run, "--nbest", str(run / "test.jsonl"), "--scorer", "first-pass") == 1
        assert f"{run / 'test.jsonl'}:2: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("reference", "play"), ("tokens", "play"), ("tokens", [1, 2]), ("reference", ["a", None])],
    )
    @pytest.mark.parametrize("command", ["rerank", "evaluate"])
    def test_nbest_tokens_not_a_list_of_strings(
        self, pipeline_dir, tmp_path, capsys, command, field, value
    ):
        # a string would load as one-letter words, an int fail as a traceback
        run = copy_run(pipeline_dir, tmp_path)
        lines = (run / "test.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        if field == "reference":
            rec["reference"] = value
        else:
            rec["hypotheses"][-1]["tokens"] = value
        lines[2] = json.dumps(rec) + "\n"
        path = run / "bad.jsonl"
        path.write_text("".join(lines))
        capsys.readouterr()
        assert stage(command, run, "--nbest", str(path), "--scorer", "first-pass") == 1
        err = capsys.readouterr().err
        assert f"{path}:3: malformed n-best record" in err
        assert f"{field} must be a list of strings, got {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["a b", [1, 2], ["a", None], None])
    def test_feature_tokens_not_a_list_of_strings(self, pipeline_dir, tmp_path, capsys, value):
        run = copy_run(pipeline_dir, tmp_path)
        lines = (run / "features.jsonl").read_text().splitlines(keepends=True)
        rec = json.loads(lines[4])
        rec["tokens"] = value
        lines[4] = json.dumps(rec) + "\n"
        (run / "features.jsonl").write_text("".join(lines))
        capsys.readouterr()
        assert stage("train-reranker", run) == 1
        err = capsys.readouterr().err
        sid = rec["sentence_id"]
        message = f"tokens must be a list of strings, got {value!r}"
        assert f"{run / 'features.jsonl'}: sentence_id {sid}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "damage", ["longer", "shorter", "no_fold_of", "float_fold", "not_json", "models"]
    )
    def test_folds_not_fitting_the_corpus_fail_gen_negatives(
        self, pipeline_dir, tmp_path, capsys, damage
    ):
        # 40 more balanced entries would pass silently, one fewer fail as a
        # traceback; the fold assignment and its models share ngram_folds.bin
        run = copy_run(pipeline_dir, tmp_path)
        path = run / "ngram_folds.bin"

        def edit(header, arrays):
            fold_of = arrays["fold_of"]
            k = len(header["lengths"])
            if damage == "longer":
                arrays["fold_of"] = np.r_[fold_of, np.arange(40) % k]
            elif damage == "shorter":
                largest = np.bincount(fold_of).argmax()
                arrays["fold_of"] = np.delete(fold_of, np.flatnonzero(fold_of == largest)[-1])
            elif damage == "no_fold_of":
                del arrays["fold_of"]
            elif damage == "float_fold":
                arrays["fold_of"] = fold_of.astype(np.float64)
            elif damage == "models":  # the last fold's model dropped
                last, order = header["lengths"].pop(), header["order"]
                for names, cut in (
                    (("gram_keys", "logprobs"), sum(last[:order])),
                    (("context_keys", "backoffs"), sum(last[order:])),
                ):
                    for name in names:
                        arrays[name] = arrays[name][: len(arrays[name]) - cut]

        if damage == "not_json":
            path.write_bytes(b"{")
        else:
            rewrite_artifact(path, edit)
        (run / "negatives.bin").unlink()
        capsys.readouterr()
        assert stage("gen-negatives", run) == 1
        err = capsys.readouterr().err
        fits = f"fold_of does not fit the corpus {run / 'train.txt'} and"
        expected = {
            "longer": f"{fits} 4 models (290 sentences have folds, not 250); rerun train-ngram",
            "shorter": f"{fits} 4 models (249 sentences have folds, not 250); rerun train-ngram",
            "no_fold_of": "missing member 'fold_of'",
            "float_fold": "member 'fold_of' is float64 of shape (250,), expected int64 of shape (any,)",
            "not_json": "not an artifact (not an .npz archive)",
            "models": f"{fits} 3 models (every fold must be non-empty); rerun train-ngram",
        }[damage]
        assert f"{path}: {expected}" in err
        assert "Traceback" not in err
        assert not (run / "negatives.bin").exists()


class TestFormatDocs:
    def test_every_binary_kind_named_in_readme(self, pipeline_dir):
        # README's binary-artifacts entry lists the kinds a reader may meet
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        entry = readme[readme.index("- binary artifacts (") :]
        entry = entry[: entry.index("\n- ")]
        kinds = {}
        for path in sorted(pipeline_dir.glob("*.bin")):
            with np.load(path, allow_pickle=False) as archive:
                kinds[path.name] = json.loads(archive["header"].item())["kind"]
        written = {"kb_index.bin", "ngram_full.bin", "negatives.bin", "reranker.bin", "lstm_lm.bin"}
        assert written <= kinds.keys()
        assert {name: kind for name, kind in kinds.items() if f"`{kind}`" not in entry} == {}


# every model file rerank and evaluate may read, the vocabulary included
MODEL_FILES = ("vocab.tsv", "ngram_full.bin", "lstm_lm.bin", "reranker.bin", "kb_index.bin")
# (scorer, weights, files its components do not read)
UNNEEDED_MODELS = [
    ("lstm", "lstm=1.0", ("reranker.bin", "kb_index.bin")),
    ("ngram", "ngram=1.0", ("lstm_lm.bin",)),
    ("first-pass", "", MODEL_FILES),
    # a component of weight 0, given or left out, is neither loaded nor scored
    ("reranker+lstm", "reranker=1.0,lstm=0.0", ("lstm_lm.bin",)),
    ("reranker+lstm", "reranker=1.0", ("lstm_lm.bin",)),
    ("lstm", "lstm=0", MODEL_FILES),
]


class TestModelsLoaded:
    """``rerank`` and ``evaluate --nbest`` load only the models their
    scorer's components need (``evaluation.MODELS_NEEDED``)."""

    @pytest.mark.parametrize("scorer, weights, absent", UNNEEDED_MODELS)
    def test_rerank_runs_without_unneeded_models(self, pipeline_dir, tmp_path, scorer, weights, absent):
        run = copy_run(pipeline_dir, tmp_path)
        for name in absent:
            (run / name).unlink()
        nbest = str(run / "test.jsonl")
        assert stage("rerank", run, "--nbest", nbest, "--scorer", scorer, "--weights", weights) == 0
        out = run / f"selections_{scorer.replace('+', '_')}.jsonl"
        assert len(out.read_text().splitlines()) == 40

    @pytest.mark.parametrize("scorer, weights, absent", UNNEEDED_MODELS)
    def test_evaluate_nbest_runs_without_unneeded_models(
        self, pipeline_dir, tmp_path, scorer, weights, absent
    ):
        run = copy_run(pipeline_dir, tmp_path)
        for name in absent:
            (run / name).unlink()
        nbest = str(run / "test.jsonl")
        argv = ("--nbest", nbest, "--scorer", scorer, "--weights", weights)
        assert stage("evaluate", run, *argv) == 0
        out = run / f"report_custom_{scorer.replace('+', '_')}.csv"
        assert len(out.read_text().splitlines()) == 1 + 40

    @pytest.mark.parametrize(
        "weights",
        ["reranker=1.0,lstm=0.0", "reranker=1.0", "lstm=0", "", "reranker=0.5,lstm=2.0",
         "lstm=-1.0"],
    )
    def test_choices_match_decoding_with_every_component_scored(self, pipeline_dir, tmp_path, weights):
        run = copy_run(pipeline_dir, tmp_path)
        nbest = run / "test.jsonl"
        argv = ("--nbest", str(nbest), "--scorer", "reranker+lstm", "--weights", weights)
        assert stage("rerank", run, *argv) == 0
        assert stage("evaluate", run, *argv) == 0
        dataset = evaluation.load_nbest(nbest)
        comps = every_component_scores(dataset, cli.Inputs(PipelineConfig(out_dir=str(run))))
        parsed = cli._parse_weights(weights)
        picks, _ = reference_decode(dataset, comps, ("reranker", "lstm"), parsed)
        selections = (run / "selections_reranker_lstm.jsonl").read_text().splitlines()
        assert [json.loads(line)["chosen_index"] for line in selections] == [c for c, _ in picks]
        rows = (run / "report_custom_reranker_lstm.csv").read_text().splitlines()[1:]
        reported = [row.split(",") for row in rows]
        assert [(int(r[1]), tuple(map(int, r[2:5]))) for r in reported] == picks


class TestTableScoring:
    """``evaluate`` scores the held-out split with every component, and the
    test split only with those some tuned weights read."""

    @staticmethod
    def lm_rows(monkeypatch) -> list:
        rows = []
        logprobs = trainer.LstmLmParams.logprobs
        monkeypatch.setattr(
            trainer.LstmLmParams, "logprobs",
            lambda self, ids, lengths: rows.append(len(lengths)) or logprobs(self, ids, lengths),
        )
        return rows

    @pytest.mark.parametrize("grid, splits", [("[0.0]", ("heldout",)), ("[1.0]", ("heldout", "test"))])
    def test_lm_scores_test_split_only_when_weighted(self, pipeline_dir, tmp_path, monkeypatch, grid, splits):
        run = copy_run(pipeline_dir, tmp_path)
        rows = self.lm_rows(monkeypatch)
        assert stage("evaluate", run, "--set", f"weight_grid={grid}") == 0
        lm_weights = [
            json.loads(line.split(" weights ")[1]).get("lstm")
            for line in (run / "summary.txt").read_text().splitlines()
            if line.startswith("# lstm:") or line.startswith("# reranker+lstm:")
        ]
        assert lm_weights == [json.loads(grid)[0]] * 2
        hypotheses = [
            sum(len(n.hypotheses) for n in evaluation.load_nbest(run / f"{split}.jsonl"))
            for split in splits
        ]
        assert rows == hypotheses


# the stage that writes each input file, as a missing one's error names it
PRODUCERS = {
    "kb.tsv": "synth-world",
    "train.txt": "synth-world",
    "heldout.jsonl": "synth-world",
    "test.jsonl": "synth-world",
    "vocab.tsv": "build-vocab",
    "kb_index.bin": "build-kb-index",
    "ngram_full.bin": "train-ngram",
    "ngram_folds.bin": "train-ngram",
    "negatives.bin": "gen-negatives",
    "features.jsonl": "extract-features",
    "reranker.bin": "train-reranker",
    "lstm_lm.bin": "train-lstm-lm",
}
SCORE_ALL = ("--scorer", "reranker+lstm", "--weights", "reranker=1.0,lstm=1.0")
REPORTS = tuple(
    f"report_{split}_{scorer}.csv"
    for split in ("heldout", "test")
    for scorer in ("first-pass", "ngram", "lstm", "reranker", "reranker_lstm")
)
# (stage and its arguments, the files it reads, the files it writes), {run}
# standing for the run directory. Each file read maps to the option or
# config key that gives its path in the arguments, None for the stage's own
STAGE_FILES = [
    (("build-vocab",), {"train.txt": None}, ("vocab.tsv",)),
    (
        ("build-vocab", "--set", "corpus_path={run}/train.txt"),
        {"train.txt": "config key corpus_path"},
        ("vocab.tsv",),
    ),
    (("build-kb-index",), {"kb.tsv": None}, ("kb_index.bin",)),
    (
        ("build-kb-index", "--set", "kb_path={run}/kb.tsv"),
        {"kb.tsv": "config key kb_path"},
        ("kb_index.bin",),
    ),
    (
        ("train-ngram",),
        dict.fromkeys(("train.txt", "vocab.tsv")),
        ("ngram_full.bin", "ngram_folds.bin"),
    ),
    (
        ("gen-negatives",),
        dict.fromkeys(("train.txt", "vocab.tsv", "ngram_folds.bin")),
        ("negatives.bin",),
    ),
    (
        ("extract-features",),
        dict.fromkeys(("train.txt", "vocab.tsv", "kb_index.bin", "negatives.bin")),
        ("features.jsonl",),
    ),
    (
        ("train-reranker",),
        dict.fromkeys(
            ("vocab.tsv", "kb_index.bin", "ngram_full.bin", "features.jsonl", "heldout.jsonl")
        ),
        ("reranker.bin", "train_log.csv"),
    ),
    (("train-lstm-lm",), dict.fromkeys(("train.txt", "vocab.tsv")), ("lstm_lm.bin",)),
    (
        ("rerank", "--nbest", "{run}/test.jsonl", *SCORE_ALL),
        {"test.jsonl": "--nbest", **dict.fromkeys(MODEL_FILES)},
        ("selections_reranker_lstm.jsonl",),
    ),
    (
        ("evaluate",),
        dict.fromkeys(("heldout.jsonl", "test.jsonl", *MODEL_FILES)),
        ("summary.txt", *REPORTS),
    ),
    (
        ("evaluate", "--heldout", "{run}/heldout.jsonl", "--test", "{run}/test.jsonl"),
        {"heldout.jsonl": "--heldout", "test.jsonl": "--test"},
        ("summary.txt", *REPORTS),
    ),
    (
        ("evaluate", "--nbest", "{run}/test.jsonl", *SCORE_ALL),
        {"test.jsonl": "--nbest", **dict.fromkeys(MODEL_FILES)},
        ("report_custom_reranker_lstm.csv",),
    ),
]


def missing_input_cases():
    for argv, inputs, outputs in STAGE_FILES:
        for name, option in inputs.items():
            yield pytest.param(argv, name, option, outputs, id=f"{'_'.join(argv[:2])}-{name}")


class TestMissingInputs:
    """Every stage refuses each missing input, naming the stage that writes
    it, or the option or config key that gave its path, and writes nothing."""

    @pytest.mark.parametrize("argv, name, option, outputs", missing_input_cases())
    def test_missing_input_named(self, pipeline_dir, tmp_path, capsys, argv, name, option, outputs):
        run = copy_run(pipeline_dir, tmp_path)
        for out in outputs:
            (run / out).unlink(missing_ok=True)
        (run / name).unlink()
        argv = [arg.replace("{run}", str(run)) for arg in argv]
        capsys.readouterr()
        assert stage(*argv[:1], run, *argv[1:]) == 1
        err = capsys.readouterr().err
        hint = f"given by {option}" if option else f"run {PRODUCERS[name]} first"
        assert f"missing input file {run / name} ({hint})" in err
        assert "Traceback" not in err
        for out in outputs:
            assert not (run / out).exists(), out

    def test_every_producer_is_a_stage(self):
        [commands] = [
            action.choices
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert {stage for _, stage in FILES.values()} <= set(commands)
        assert dict(FILES.values()).items() >= PRODUCERS.items()


class Marker:
    """Unpickling this object creates the file ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (open, (self.path, "w"))


def other_vocabulary():
    return build_vocabulary(corpus_from_lines(["some other words"]), min_count=0)


def rewrite_artifact(path, edit):
    """Rewrite the artifact at ``path`` after ``edit(header, arrays)`` has
    changed its header and its members in place."""
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name] for name in archive.files}
    header = json.loads(arrays.pop("header").item())
    edit(header, arrays)
    with open(path, "wb") as fh:
        np.savez(fh, header=np.array(json.dumps(header)), **arrays)


def resave_ngram(path, vocab):
    run = path.parent
    corpus = load_corpus(run / "train.txt") if path.name == "ngram_folds.bin" else None
    models, folds = ngram.load_models(path, load_vocabulary(run / "vocab.tsv"), corpus)
    ngram.save_models(path, [dataclasses.replace(m, vocab=vocab) for m in models], folds)


def resave_reranker(path, vocab):
    neural.RerankerParams.load(path, load_vocabulary(path.parent / "vocab.tsv")).save(path, vocab)


def resave_negatives(path, vocab):
    run = path.parent
    corpus, own = load_corpus(run / "train.txt"), load_vocabulary(run / "vocab.tsv")
    negsampler.save_negatives(negsampler.load_negatives(path, corpus, own), path, vocab)


def groups_of(sentence) -> list:
    """(sentence, first row, end row) of each run of equal values in a
    negatives file's sentence column."""
    starts = np.flatnonzero(np.diff(sentence, prepend=-1)).tolist()
    return list(zip(sentence[starts].tolist(), starts, [*starts[1:], len(sentence)]))


def resave_lstm(path, vocab):
    lm = trainer.LstmLmParams.load(path, load_vocabulary(path.parent / "vocab.tsv"))
    trainer.LstmLmParams(lm.dims, lm.tensors, vocab).save(path)


def ngram_table(header, name, k) -> slice:
    """Where member ``name`` of an n-gram file holds the first model's
    table of ``k`` ids."""
    lengths, order = header["lengths"][0], header["order"]
    lengths = lengths[:order] if name in ("gram_keys", "logprobs") else lengths[order:]
    return slice(sum(lengths[: k - 1]), sum(lengths[:k]))


def reverse_ngram_table(name, k):
    def edit(header, arrays):
        at = ngram_table(header, name, k)
        arrays[name][at] = arrays[name][at][::-1].copy()

    return edit


def set_ngram_value(name, value):
    def edit(header, arrays):
        arrays[name][ngram_table(header, name, 2).start] = value

    return edit


def shift_unigram_event(header, arrays):
    """The last unigram, end-of-sentence, moved to the bigram table."""
    header["lengths"][0][0] -= 1
    header["lengths"][0][1] += 1


class TestHostileArtifacts:
    """Each binary artifact, as the stage that consumes it loads it: a pickle
    (whose loading would create a marker file), a truncated file, an artifact
    of another kind and a model of another vocabulary each fail with their
    own message naming the file, and without a traceback."""

    # artifact -> (stage arguments, an artifact of another kind, re-saver
    # against another vocabulary); rerank weights the component that reads
    # the artifact, as a weight of 0 would leave it unloaded
    CASES = {
        "kb_index.bin": (("extract-features",), "ngram_full.bin", None),
        "ngram_full.bin": (
            ("rerank", "--scorer", "ngram", "--weights", "ngram=1.0"), "kb_index.bin", resave_ngram
        ),
        "ngram_folds.bin": (("gen-negatives",), "negatives.bin", resave_ngram),
        "reranker.bin": (
            ("rerank", "--scorer", "reranker", "--weights", "reranker=1.0"),
            "lstm_lm.bin",
            resave_reranker,
        ),
        "lstm_lm.bin": (
            ("rerank", "--scorer", "lstm", "--weights", "lstm=1.0"), "reranker.bin", resave_lstm
        ),
        "negatives.bin": (("extract-features",), "kb_index.bin", resave_negatives),
    }

    def fails(self, run, name, capsys, message):
        (command, *extra), _, _ = self.CASES[name]
        if command == "rerank":
            extra += ["--nbest", str(run / "test.jsonl")]
        capsys.readouterr()
        assert stage(command, run, *extra) == 1
        err = capsys.readouterr().err
        assert f"{run / name}: " in err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("protocol", [0, 4, pickle.HIGHEST_PROTOCOL])
    def test_pickle_refused_without_running_it(self, pipeline_dir, tmp_path, capsys, name, protocol):
        run = copy_run(pipeline_dir, tmp_path)
        marker = tmp_path / "unpickled"
        (run / name).write_bytes(pickle.dumps({"payload": Marker(marker)}, protocol=protocol))
        expected = "pickles are refused" if protocol >= 2 else "not an .npz archive"
        self.fails(run, name, capsys, expected)
        assert not marker.exists()

    @pytest.mark.parametrize("name", list(CASES))
    def test_truncated_file(self, pipeline_dir, tmp_path, capsys, name):
        run = copy_run(pipeline_dir, tmp_path)
        data = (run / name).read_bytes()
        (run / name).write_bytes(data[: len(data) // 2])
        self.fails(run, name, capsys, "truncated or corrupt artifact")

    @pytest.mark.parametrize("name", list(CASES))
    def test_artifact_of_another_kind(self, pipeline_dir, tmp_path, capsys, name):
        run = copy_run(pipeline_dir, tmp_path)
        shutil.copyfile(run / self.CASES[name][1], run / name)
        self.fails(run, name, capsys, "artifact, found '")

    @pytest.mark.parametrize(
        "name", ["ngram_full.bin", "ngram_folds.bin", "reranker.bin", "lstm_lm.bin", "negatives.bin"]
    )
    def test_model_of_another_vocabulary(self, pipeline_dir, tmp_path, capsys, name):
        run = copy_run(pipeline_dir, tmp_path)
        self.CASES[name][2](run / name, other_vocabulary())
        self.fails(run, name, capsys, "vocabulary-hash mismatch")

    def test_pickled_member_refused_without_running_it(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        marker = tmp_path / "unpickled"
        header = np.array(json.dumps({"kind": "reranker-params", "format_version": 2}))
        with open(run / "reranker.bin", "wb") as fh:
            np.savez(fh, header=header, emb=np.array([Marker(marker)], dtype=object))
        self.fails(run, "reranker.bin", capsys, "Object arrays cannot be loaded")
        assert not marker.exists()

    def test_bare_npy_refused(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        with open(run / "reranker.bin", "wb") as fh:
            np.save(fh, np.zeros(3))
        self.fails(run, "reranker.bin", capsys, "not an .npz archive")

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("kb_index.bin", lambda h, a: a.pop("cross_keys"), "missing member 'cross_keys'"),
            ("kb_index.bin", lambda h, a: a.update(extra=np.zeros(2)), "unexpected member 'extra'"),
            ("kb_index.bin", lambda h, a: h.pop("n_entries"),
             "bad header (n_entries must be a number, got None)"),
            ("kb_index.bin", lambda h, a: a.update(words=np.array("x")),
             "member 'words' is <U1 of shape (), expected str of shape (any,)"),
            ("kb_index.bin", lambda h, a: a.update(edge_keys=a["edge_keys"][:, None]),
             "member 'edge_keys' is int64 of shape ("),
            ("kb_index.bin", lambda h, a: a.update(pair_counts=a["pair_counts"] * 1.0),
             "member 'pair_counts' is float64 of shape ("),
            ("ngram_full.bin", lambda h, a: a.pop("logprobs"), "missing member 'logprobs'"),
            ("ngram_full.bin", lambda h, a: h.update(order=9),
             "bad header (order must be an int in [1, 5], got 9)"),
            ("ngram_full.bin", lambda h, a: h["lengths"][0].pop(),
             "bad header (lengths must list 5 ints >= 0 per model)"),
            ("ngram_full.bin", lambda h, a: h["lengths"].append(h["lengths"][0]),
             "bad header (lengths must list 5 ints >= 0 per model)"),
            # a table cut short, a 2-d table, keys of another dtype
            ("ngram_full.bin", lambda h, a: a.update(logprobs=a["logprobs"][:-1]),
             "member 'logprobs' holds "),
            ("ngram_full.bin", lambda h, a: a.update(logprobs=a["logprobs"][:, None]),
             "member 'logprobs' is float64 of shape ("),
            ("ngram_full.bin", lambda h, a: a.update(gram_keys=a["gram_keys"] * 1.0),
             "member 'gram_keys' is float64 of shape ("),
            ("ngram_folds.bin", lambda h, a: a.update(backoffs=a["backoffs"].astype(np.float32)),
             "member 'backoffs' is float32 of shape ("),
            ("ngram_folds.bin", lambda h, a: a.update(fold_of=a["fold_of"][:, None]),
             "member 'fold_of' is int64 of shape (250, 1), expected int64 of shape (any,)"),
            # tables that load with the right dtypes and lengths but would score wrongly
            ("ngram_full.bin", reverse_ngram_table("gram_keys", 2),
             "model 0's keys are not strictly ascending"),
            ("ngram_folds.bin", reverse_ngram_table("context_keys", 1),
             "model 0's keys are not strictly ascending"),
            ("ngram_full.bin", shift_unigram_event, "model 0's unigram keys are not the V+1 events"),
            ("ngram_full.bin", set_ngram_value("logprobs", math.nan),
             "a log-probability or backoff weight is not finite"),
            ("ngram_folds.bin", set_ngram_value("backoffs", -math.inf),
             "a log-probability or backoff weight is not finite"),
            ("reranker.bin", lambda h, a: h["dims"].update(extra=3), "'extra': 3}"),
            ("reranker.bin", lambda h, a: h["dims"].pop("lstm_dim"), "bad header (dims must map"),
            ("reranker.bin", lambda h, a: h["dims"].update(word_dim=0), "'word_dim': 0"),
            ("reranker.bin", lambda h, a: h["dims"].update(word_dim=2.0), "'word_dim': 2.0"),
            ("reranker.bin", lambda h, a: h.pop("dims"), "to ints >= 1, got None)"),
            ("lstm_lm.bin", lambda h, a: h["dims"].update(n_out=3), "bad header (dims must map "
             "vocab_size, word_dim, lstm_dim to ints >= 1, got {"),
            ("reranker.bin", lambda h, a: a.update(fwd_w=a["fwd_w"][:, 1:]),
             "member 'fwd_w' is float64 of shape (48, 23), expected float64 of shape (48, 24)"),
            ("reranker.bin", lambda h, a: a.update(alpha=a["alpha"].astype(np.float32)),
             "member 'alpha' is float32 of shape (2,), expected float64 of shape (2,)"),
            ("reranker.bin", lambda h, a: a.pop("intra_emb"), "missing member 'intra_emb'"),
            ("lstm_lm.bin", lambda h, a: a.update(out_w=a["out_w"].T), "member 'out_w' is float64"),
            ("lstm_lm.bin", lambda h, a: h["dims"].update(lstm_dim=11), "member 'w' is float64"),
        ],
    )
    def test_member_or_header_refused(self, pipeline_dir, tmp_path, capsys, name, edit, message):
        run = copy_run(pipeline_dir, tmp_path)
        rewrite_artifact(run / name, edit)
        self.fails(run, name, capsys, message)


class TestLstmLmHeldoutReport:
    """train-lstm-lm says whether held-out references stop it early."""

    @staticmethod
    def lm_line(run, capsys):
        capsys.readouterr()
        assert stage("train-lstm-lm", run) == 0
        return capsys.readouterr().out.splitlines()[-1]

    def test_heldout_sentences_counted(self, pipeline_dir, tmp_path, capsys):
        run = copy_run(pipeline_dir, tmp_path)
        assert self.lm_line(run, capsys).endswith(", held-out sentences: 40")

    @pytest.mark.parametrize("damage", ["missing", "no_references"])
    def test_fixed_epochs_without_heldout(self, pipeline_dir, tmp_path, capsys, damage):
        run = copy_run(pipeline_dir, tmp_path)
        heldout = run / "heldout.jsonl"
        if damage == "missing":
            heldout.unlink()
        else:
            records = [json.loads(line) for line in heldout.read_text().splitlines()]
            heldout.write_text("".join(
                json.dumps({k: v for k, v in r.items() if k != "reference"}) + "\n"
                for r in records
            ))
        # lm_max_epochs=2 in MINI_SETS
        assert self.lm_line(run, capsys).endswith(", held-out sentences: none, 2 fixed epochs")


class TestNoUnusedPublicNames:
    """Every public function, class and method of ``src/kbrerank`` is named
    somewhere in ``src/`` outside its own definition; helpers only the tests
    call belong in ``tests/oracles.py``. A module-level name is resolved: it
    is used through a bare name in its module or in one that imports it, or
    as an attribute of its imported module (``ngram.score_ids``). A method
    is matched by identifier, so it counts as used when any object's
    attribute of that name is read."""

    # what is reached only from outside src/, each with the reason
    ALLOWED = {
        # perfbench/spans.METHODS patches it on its class by name
        "trainer.LstmLmParams.sentence_logprob",
        # the inverse of from_dict: config files are written with it
        "cli.PipelineConfig.to_dict",
        # library API for the optional ARPA export (README); no stage writes ARPA
        "ngram.export_arpa",
        # perfbench/checks.py counts the benchmark's WER with it
        "evaluation.wer",
    }

    @staticmethod
    def imports(tree) -> dict:
        """Local name -> the module (``ngram``) or module-level name
        (``ngram.score_ids``) a module binds it to by a relative import."""
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    bound[alias.asname or alias.name] = target
        return bound

    @staticmethod
    def names_in(node, module, bound, modules) -> Counter:
        """What ``node``, code of ``module``, refers to: ``module.name`` for
        a bare name or an attribute of an imported module, ``.attr`` for any
        other attribute."""
        names = Counter()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names[bound.get(sub.id, f"{module}.{sub.id}")] += 1
            elif isinstance(sub, ast.Attribute):
                owner = sub.value.id if isinstance(sub.value, ast.Name) else None
                if bound.get(owner) in modules:
                    names[f"{bound[owner]}.{sub.attr}"] += 1
                else:
                    names[f".{sub.attr}"] += 1
        return names

    def unused(self, src: Path) -> list:
        trees = {
            path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py"))
        }
        assert trees
        bound = {module: self.imports(tree) for module, tree in trees.items()}
        used = sum(
            (self.names_in(tree, m, bound[m], trees) for m, tree in trees.items()), Counter()
        )
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        found = []
        for module, tree in trees.items():
            defs = []
            for node in tree.body:
                if isinstance(node, (*functions, ast.ClassDef)):
                    defs.append((node.name, f"{module}.{node.name}", node))
                if isinstance(node, ast.ClassDef):
                    defs += [
                        (f"{node.name}.{sub.name}", f".{sub.name}", sub)
                        for sub in node.body
                        if isinstance(sub, functions)
                    ]
            for qualname, key, node in defs:
                # private and dunder names are skipped; a definition's own
                # body (recursion) does not count as a use
                own = self.names_in(node, module, bound[module], trees)
                if not node.name.startswith("_") and used[key] == own[key]:
                    found.append(f"{module}.{qualname}")
        return found

    def test_every_public_name_has_a_caller_in_src(self):
        src = Path(__file__).resolve().parent.parent / "src" / "kbrerank"
        unused = self.unused(src)
        assert set(self.ALLOWED) <= set(unused), "an allowlist entry is used now: drop it"
        assert sorted(set(unused) - self.ALLOWED) == []

    def test_guard_sees_an_unused_method(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "class A:\n"
            "    def used(self):\n        return self.used_too()\n"
            "    def used_too(self):\n        return 1\n"
            "    def lonely(self):\n        return self.lonely()\n"
            "def main():\n    return A().used()\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "main()\n"
        )
        assert self.unused(tmp_path) == ["mod.A.lonely", "mod.recursive"]

    def test_guard_resolves_module_level_names(self, tmp_path):
        # a function is not used by an attribute of its name on another
        # object (report.wer, model.load_model), nor by an attribute of
        # another module; it is used through its module or an import of it
        (tmp_path / "lib.py").write_text(
            "def wer(a):\n    return a\n"
            "def load_model(p):\n    return p\n"
            "def save_model(p):\n    return p\n"
            "def via_module(p):\n    return p\n"
            "def via_import(p):\n    return p\n"
        )
        (tmp_path / "app.py").write_text(
            "from . import lib, other\n"
            "from .lib import via_import\n"
            "def main(report, model):\n"
            "    return report.wer, model.load_model(1), other.save_model,"
            " lib.via_module(2), via_import(3)\n"
        )
        (tmp_path / "other.py").write_text("from . import app\napp.main(1, 2)\n")
        assert self.unused(tmp_path) == ["lib.wer", "lib.load_model", "lib.save_model"]


class TestNoPickle:
    def test_no_module_imports_pickle(self):
        src = Path(__file__).resolve().parent.parent / "src" / "kbrerank"
        modules = sorted(src.glob("*.py"))
        assert modules
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] in ("pickle", "_pickle") for n in names), path.name

    def test_pipeline_runs_with_unpickling_disabled(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("unpickling called")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        run_pipeline(tmp_path)
        nbest = str(tmp_path / "test.jsonl")
        assert stage("rerank", tmp_path, "--nbest", nbest, "--scorer", "reranker+lstm") == 0
        assert (tmp_path / "selections_reranker_lstm.jsonl").exists()
