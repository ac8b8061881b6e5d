"""Acceptance checklist for the toolkit.

One test per shipping criterion, each printing a PASS line with its measured
margin; run with ``pytest -s tests/test_acceptance.py`` to see the checklist.
The end-to-end criterion builds a seed-fixed synthetic world (20k training
sentences, 2000-entry KB, 1k+1k n-best lists, 5 hypotheses, 30% injected
first-pass error) and requires the reranker to beat the first pass by at
least 10% relative WER.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    candidates_of,
    dict_kb_index,
    event_distribution,
    exhaustive_wer,
    finite_difference_check,
    lm_hidden_states,
    negative_sets,
    reference_bins,
    score_sentences,
)

import kbrerank
from kbrerank import synth
from kbrerank.cli import Inputs, PipelineConfig, Paths, main, run_table_evaluation
from kbrerank.corpus import (
    UNK,
    Sentence,
    assign_folds,
    build_vocabulary,
    corpus_from_lines,
    pad_ids,
)
from kbrerank.evaluation import RerankModels, error_counts, oracle_wer, score_split, wer
from kbrerank.features import BIN_FIELDS, feature_bins, max_span_pairs
from kbrerank.kb import KBEntry, build_index
from kbrerank.negsampler import build_confusion_table, sample_corpus_negatives
from kbrerank.neural import (
    RerankerDims,
    RerankerParams,
    backprop_batch,
    contrastive_loss,
    score_batch,
)
from kbrerank.ngram import count_ngrams, estimate, train_jackknife
from kbrerank.trainer import LstmLmDims, LstmLmParams, heldout_wer, prepare_heldout

SEED = 20260808


def test_c1_gradient_correctness(capsys):
    started = time.monotonic()
    dims = RerankerDims(
        vocab_size=20, word_dim=8, lstm_dim=8, hidden_dim=8,
        co_dim=4, freq_dim=4, cross_dim=4, intra_dim=4,
    )
    params = RerankerParams.initialize(dims, seed=SEED)
    rng = np.random.default_rng(SEED)
    ids = rng.integers(0, dims.vocab_size, size=(6, 4))
    rows = [
        [rng.random() * 8.0, *(rng.integers(0, count) for _, count in BIN_FIELDS)]
        for _ in range(6)
    ]
    feats = np.array([row[0] for row in rows], dtype=float)
    bins = np.array([row[1:] for row in rows], dtype=np.intp)

    u, cache = score_batch(params, ids, bins, feats)
    _, du = contrastive_loss(u, 0)
    grads = backprop_batch(params, cache, du)

    def loss_fn():
        out, _ = score_batch(params, ids, bins, feats)
        return contrastive_loss(out, 0)[0]

    bad = finite_difference_check(params, loss_fn, grads, rel=1e-4)
    elapsed = time.monotonic() - started
    assert bad is None, f"gradient mismatch in tensor {bad}"
    assert elapsed < 10.0, f"gradient check took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS - analytic gradients match central differences "
              f"(rel < 1e-4) for every tensor in {elapsed:.1f}s")


def test_c2_normalization_suite(capsys):
    started = time.monotonic()
    # (a) contrastive softmax
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        _, grad = contrastive_loss(rng.normal(size=6) * 20.0, 0)
        p = grad.copy()
        p[0] += 1.0
        assert abs(p.sum() - 1.0) <= 1e-12

    # (b) n-gram conditionals over 100 sampled contexts
    world = synth.generate_world(
        synth.SynthConfig(seed=SEED, n_artists=20, songs_per_artist=5,
                          word_inventory=150, n_train=500, n_heldout=5, n_test=5)
    )
    vocab = build_vocabulary(world.train, min_count=1)
    model = estimate(count_ngrams(world.train, vocab, 3), vocab)
    contexts = []
    for sent in world.train:
        toks = sent.tokens
        for i in range(len(toks)):
            contexts.append(toks[max(0, i - 2) : i])
        if len(contexts) >= 98:
            break
    contexts = contexts[:98] + [("zz", "qq"), ()]
    assert len(contexts) == 100
    for ctx in contexts:
        total = sum(event_distribution(model, ctx).values())
        assert abs(total - 1.0) <= 1e-6, ctx

    # (c) untrained LSTM LM is exactly uniform
    dims = LstmLmDims(vocab_size=vocab.size, word_dim=8, lstm_dim=8)
    lm = LstmLmParams.initialize(dims, vocab, seed=SEED)
    ids = np.array(vocab.encode(world.train[0].tokens), dtype=np.intp)
    hs, _ = lm_hidden_states(lm, ids)
    logits = hs @ lm.tensors["out_w"].T + lm.tensors["out_b"]
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    assert np.all(probs == 1.0 / dims.n_out)

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 2 PASS - softmax sums to 1 +/- 1e-12, n-gram contexts "
              f"sum to 1 +/- 1e-6, untrained LM exactly uniform ({elapsed:.1f}s)")


def test_c3_wer_oracle_equivalence(capsys):
    started = time.monotonic()
    alpha = ("a", "b", "c")
    refs = [s for l in range(1, 6) for s in itertools.product(alpha, repeat=l)]
    hyps = [s for l in range(0, 6) for s in itertools.product(alpha, repeat=l)]
    # every pair in one batched call; WER sees tokens only through pairwise
    # equality, so the exhaustive search runs once per equality pattern
    code = {t: k for k, t in enumerate(alpha)}
    ref_ids, ref_lengths = pad_ids([[code[t] for t in ref] for ref in refs])
    hyp_ids, hyp_lengths = pad_ids([[code[t] for t in hyp] for hyp in hyps])
    n_hyps = len(hyps)
    pairs = len(refs) * n_hyps
    counts = error_counts(
        np.repeat(ref_ids, n_hyps, axis=0), np.repeat(ref_lengths, n_hyps),
        np.tile(hyp_ids, (len(refs), 1)), np.tile(hyp_lengths, len(refs)),
    ).tolist()
    assert len(counts) == pairs == 132132
    seen = {}
    for p, (s, d, i) in enumerate(counts):
        ref, hyp = refs[p // n_hyps], hyps[p % n_hyps]
        sig = (len(ref), len(hyp), tuple(r == h for r in ref for h in hyp))
        if sig not in seen:
            seen[sig] = exhaustive_wer(ref, hyp)
        assert (s + d + i, i, d) == seen[sig], (ref, hyp)

    rng = random.Random(SEED)
    words = ["a", "b", "c", "d", "e"]
    from kbrerank.evaluation import NBestList

    dataset = []
    for u in range(100):
        ref = tuple(rng.choice(words) for _ in range(rng.randint(1, 6)))
        cands = []
        for _ in range(rng.randint(1, 5)):
            hyp = [rng.choice(words) if rng.random() < 0.5 else t for t in ref]
            if rng.random() < 0.3 and len(hyp) > 1:
                hyp.pop(rng.randrange(len(hyp)))
            cands.append((Sentence(tuple(hyp)), -rng.random()))
        dataset.append(NBestList(f"u{u}", Sentence(ref), tuple(cands)))
    report = oracle_wer(score_split(dataset, (), RerankModels()))
    s = d = i = n = 0
    for lists in dataset:
        errs = [wer(lists.reference, h) for h, _ in lists.hypotheses]
        cs, cd, ci, cn = min(errs, key=lambda e: e[0] + e[1] + e[2])
        s, d, i, n = s + cs, d + cd, i + ci, n + cn
    assert report.errors.sum(axis=0).tolist() == [s, d, i]
    assert report.ref_words.sum() == n

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"WER oracle check took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 3 PASS - batched WER matches exhaustive edit search on "
              f"{pairs} pairs ({len(seen)} equality patterns) and oracle WER matches "
              f"brute force on 100 utterances ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def feature_world():
    world = synth.generate_world(
        synth.SynthConfig(seed=SEED, n_artists=40, songs_per_artist=8,
                          word_inventory=300, n_train=1000, n_heldout=5, n_test=5)
    )
    return world, dict_kb_index(world.kb_entries)


def test_c4_feature_bounds_and_oracles(feature_world, capsys):
    world, index = feature_world
    rng = random.Random(SEED)
    words = sorted({w for e in world.kb_entries for w in e.artist + e.song})[:60]
    words += ["play", "download", "by", "zz", "qq"]

    def brute_cooccurrence(sentence):
        toks = sentence.tokens
        l = len(toks)
        total = 0
        for i1, j1, i2, j2 in itertools.product(range(l), repeat=4):
            if i1 <= j1 < i2 <= j2:
                p, q = toks[i1 : j1 + 1], toks[i2 : j2 + 1]
                total += index.pair_counts.get((p, q), 0) + index.pair_counts.get((q, p), 0)
        return total

    sents = []
    for _ in range(1000):
        length = rng.randint(1, 9)
        sents.append(Sentence(tuple(rng.choice(words) for _ in range(length))))
        rng.random()  # the sentence's n-gram score, drawn to keep the stream
    bins = feature_bins([s.tokens for s in sents], build_index(world.kb_entries))
    np.testing.assert_array_equal(bins, reference_bins(sents, index))
    assert 0 <= bins[:, 0].min() and bins[:, 0].max() < 10
    assert 0 <= bins[:, 1:].min() and bins[:, 1:].max() < 100
    for k, sent in enumerate(sents):
        if len(sent) <= 8 and k % 5 == 0:
            total = brute_cooccurrence(sent)
            expected = 0
            if total:
                ratio = math.log1p(total) / math.log1p(
                    index.max_cooccurrence * max_span_pairs(len(sent))
                )
                expected = min(9, max(1, int(10 * ratio)))
            assert bins[k, 0] == expected

    def cross_bin(tokens, entries):
        return int(feature_bins([tokens], build_index(entries))[0, 3])

    perfect = [KBEntry(("a",), ("b",), 1.0)]
    assert cross_bin(("a", "b"), perfect) == 99
    independent = [KBEntry(("a",), ("b",), 1.0), KBEntry(("a",), ("c",), 1.0)]
    assert cross_bin(("a", "b"), independent) == 50
    assert cross_bin(("x", "y"), perfect) == 0
    with capsys.disabled():
        print("\nACCEPTANCE 4 PASS - 1000 random sentences' kernel bins in range and equal "
              "to the per-sentence reference, co-occurrence matches brute force, NPMI "
              "corners hit bins 0/50/99")


def test_c5_negative_sampling_contract(feature_world, capsys):
    world, _ = feature_world
    vocab = build_vocabulary(world.train, min_count=1)
    model = estimate(count_ngrams(world.train, vocab, 3), vocab)
    table = build_confusion_table(vocab)

    def generate():
        negs = sample_corpus_negatives(world.train, table, [model], [0] * len(world.train),
                                       n_samples=30, keep_k=5, p_sub=0.3, seed=SEED)
        return negs, negative_sets(negs, world.train, vocab)

    first_arrays, first = generate()
    sampled = [ns for ns in first if ns is not None]
    assert len(sampled) >= 990  # synthetic words are almost always confusable
    for ns in sampled:
        assert 1 <= len(ns.negatives) <= 5
        assert list(ns.lm_logprobs) == sorted(ns.lm_logprobs, reverse=True)
        for neg, positions in zip(ns.negatives, ns.substituted_positions):
            assert len(neg) == len(ns.source)
            assert len(positions) >= 1
            assert neg.tokens != ns.source.tokens
            for pos in positions:
                assert neg.tokens[pos] in candidates_of(table, ns.source.tokens[pos])

    second_arrays, second = generate()
    assert first == second
    for name in ("sentence", "ids", "logprob"):
        assert np.array_equal(getattr(first_arrays, name), getattr(second_arrays, name))
    blob_a = json.dumps([None if ns is None else [list(n.tokens) for n in ns.negatives] for ns in first])
    blob_b = json.dumps([None if ns is None else [list(n.tokens) for n in ns.negatives] for ns in second])
    assert blob_a == blob_b
    with capsys.disabled():
        print(f"\nACCEPTANCE 5 PASS - {len(sampled)} negative sets obey the sampling "
              f"contract and regenerate byte-identically under the same seed")


def test_c6_jackknife_leakage(capsys):
    corpus = corpus_from_lines(
        ["play zebra now", "play carrie now", "play carrie by sufjan", "download carrie"]
    )
    vocab = build_vocabulary(corpus, min_count=0)
    folds = assign_folds(corpus, 2, seed=1)
    full, models = train_jackknife(corpus, vocab, 2, folds)
    target = corpus[0]  # "zebra" appears nowhere else
    masked = Sentence(tuple(UNK if t == "zebra" else t for t in target.tokens))
    jack = models[folds.fold_of[0]]
    jack_scores = score_sentences(jack, [target, masked])
    full_scores = score_sentences(full, [target, masked])
    assert jack_scores[0] == jack_scores[1]
    assert full_scores[0] != full_scores[1]
    with capsys.disabled():
        print("\nACCEPTANCE 6 PASS - fold-unique word scores exactly as UNK under its "
              "jackknife model and differently under the full model")


FIXTURE_SETS = {
    "synth_n_artists": "100",
    "synth_songs_per_artist": "20",
    "synth_word_inventory": "400",
    "synth_n_train": "20000",
    "synth_n_heldout": "1000",
    "synth_n_test": "1000",
    "synth_hyps_per_utt": "5",
    "synth_noise_rate": "0.3",
    "n_folds": "10",
    "ngram_order": "3",
    "keep_top_m": "10000",
    "word_dim": "32",
    "lstm_dim": "32",
    "hidden_dim": "64",
    "lr": "0.1",
    "batch_size": "64",
    "max_epochs": "8",
    "patience": "2",
    "lm_word_dim": "24",
    "lm_lstm_dim": "32",
    "lm_max_epochs": "3",
}

SMALL_SETS = {
    **FIXTURE_SETS,
    "synth_n_artists": "12",
    "synth_songs_per_artist": "6",
    "synth_word_inventory": "100",
    "synth_n_train": "400",
    "synth_n_heldout": "60",
    "synth_n_test": "60",
    "n_folds": "4",
    "keep_top_m": "250",
    "word_dim": "12",
    "lstm_dim": "12",
    "hidden_dim": "16",
    "max_epochs": "3",
    "lm_max_epochs": "2",
    "weight_grid": "[0.0, 1.0, 4.0]",
}

STAGES = ("synth-world", "build-vocab", "build-kb-index", "train-ngram",
          "gen-negatives", "extract-features", "train-reranker", "train-lstm-lm")


# fresh interpreters import the same kbrerank package as this process
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(Path(kbrerank.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p
    ),
}


def run_pipeline(out_dir, sets, seed=SEED, evaluate=True, fresh_process=False):
    common = ["--out-dir", str(out_dir), "--seed", str(seed)]
    for key, value in sets.items():
        common += ["--set", f"{key}={value}"]
    stages = STAGES + (("evaluate",) if evaluate else ())
    for stage in stages:
        if fresh_process:
            # separate interpreters (fresh hash seeds) so reproducibility is
            # checked across runs, not just within one process
            proc = subprocess.run(
                [sys.executable, "-m", "kbrerank.cli", stage, *common],
                capture_output=True, text=True, env=_CHILD_ENV,
            )
            assert proc.returncode == 0, f"stage {stage} failed: {proc.stderr}"
        else:
            assert main([stage, *common]) == 0, f"stage {stage} failed"
    cfg = PipelineConfig()
    for key, value in sets.items():
        cfg.set_key(key, value)
    cfg.seed = seed
    cfg.out_dir = str(out_dir)
    return cfg


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    dirs = (tmp_path_factory.mktemp("rep_a"), tmp_path_factory.mktemp("rep_b"))
    configs = tuple(run_pipeline(d, SMALL_SETS, fresh_process=True) for d in dirs)
    return dirs, configs


def test_c7_end_to_end_directional(tmp_path_factory, capsys):
    started = time.monotonic()
    out = tmp_path_factory.mktemp("world")
    cfg = run_pipeline(out, FIXTURE_SETS, evaluate=False)
    paths = Paths(cfg.out_dir)
    rows, table = run_table_evaluation(Inputs(cfg), paths.heldout, paths.test)
    with capsys.disabled():
        print("\n" + table)
    test_wer = {label: reports["test"].wer for label, reports in rows}

    assert test_wer["oracle"] <= test_wer["reranker+lstm"] + 1e-12
    assert test_wer["reranker+lstm"] <= test_wer["reranker"] + 1e-12
    assert test_wer["reranker"] <= test_wer["first-pass"] + 1e-12
    assert test_wer["reranker"] <= 0.9 * test_wer["first-pass"], (
        f"reranker {test_wer['reranker']:.4f} not 10% below "
        f"first-pass {test_wer['first-pass']:.4f}"
    )
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0, f"end-to-end run took {elapsed:.0f}s"
    rel_gain = 100.0 * (1.0 - test_wer["reranker"] / test_wer["first-pass"])
    with capsys.disabled():
        print(f"ACCEPTANCE 7 PASS - oracle <= reranker+lstm <= reranker <= first-pass "
              f"on the fixture; reranker {rel_gain:.0f}% relatively below first-pass "
              f"({elapsed:.0f}s)")


def test_c8_early_stopping_returns_heldout_minimum(small_runs, capsys):
    (out, _), (cfg, _) = small_runs
    paths = Paths(str(out))
    logged = []
    for line in paths.train_log.read_text().splitlines()[1:]:
        _, _, wer_value, _ = line.split(",")
        logged.append(float(wer_value))
    from kbrerank import evaluation, kb as kb_mod, ngram as ngram_mod
    from kbrerank.corpus import load_vocabulary

    vocab = load_vocabulary(paths.vocab)
    params = RerankerParams.load(paths.reranker, vocab)
    index = kb_mod.load_index(paths.kb_index)
    [full], _ = ngram_mod.load_models(paths.ngram_full, vocab)
    prepared = prepare_heldout(evaluation.load_nbest(paths.heldout), vocab, index, full)
    checkpoint_wer = heldout_wer(params, prepared)
    assert math.isclose(checkpoint_wer, min(logged), rel_tol=1e-12, abs_tol=1e-12)
    with capsys.disabled():
        print(f"\nACCEPTANCE 8 PASS - saved checkpoint held-out WER {checkpoint_wer:.4f} "
              f"equals the minimum over {len(logged)} logged epochs")


def test_c9_reproducibility(small_runs, capsys):
    (dir_a, dir_b), _ = small_runs
    compared = 0
    for path_a in sorted(dir_a.iterdir()):
        path_b = dir_b / path_a.name
        assert path_b.exists(), path_a.name
        assert path_a.read_bytes() == path_b.read_bytes(), f"{path_a.name} differs"
        compared += 1
    assert compared >= 15
    with capsys.disabled():
        print(f"\nACCEPTANCE 9 PASS - two pipeline runs with the same config and seed "
              f"produced {compared} byte-identical artifacts")
