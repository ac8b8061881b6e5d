import json

import pytest

from kbrerank.cli import PipelineConfig, main


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
        assert cfg.lr == 0.25 and cfg.n_folds == 4
        assert cfg.lm_mode == "nce"
        assert cfg.weight_grid == (0, 2.0)

    def test_set_unknown_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig().set_key("warp", "9")


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
        assert not (tmp_path / "negatives.jsonl").exists()


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    run_pipeline(out)
    return out


class TestPipeline:
    def test_artifacts_exist(self, pipeline_dir):
        for name in (
            "kb.tsv", "train.txt", "heldout.jsonl", "test.jsonl", "vocab.tsv",
            "kb_index.bin", "folds.json", "ngram_full.bin", "ngram_fold0.bin",
            "negatives.jsonl", "features.jsonl", "reranker.bin", "train_log.csv",
            "lstm_lm.bin", "summary.txt",
        ):
            assert (pipeline_dir / name).exists(), name

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

    def test_vocab_hash_mismatch_detected(self, pipeline_dir, tmp_path, capsys):
        # models were trained against min_count=1; a coarser vocabulary must
        # be refused by every consumer of a trained model
        assert main(
            ["build-vocab", "--out-dir", str(pipeline_dir), *MINI_SETS,
             "--set", "vocab_min_count=3"]
        ) == 0
        code = main(
            ["rerank", "--nbest", str(pipeline_dir / "test.jsonl"),
             "--scorer", "reranker", "--out-dir", str(pipeline_dir), *MINI_SETS]
        )
        assert code == 1
        assert "vocabulary-hash mismatch" in capsys.readouterr().err
        # restore the original vocabulary for any later test
        assert main(["build-vocab", "--out-dir", str(pipeline_dir), *MINI_SETS]) == 0
