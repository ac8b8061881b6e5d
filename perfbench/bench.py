"""Workloads, stage runner and metrics of the kbrerank benchmark.

Each run builds a synthetic world from its seed with the ``synth-world``
stage (input generation, not timed). It then repeats cycles for the requested
seconds: copy the inputs into a fresh output directory, run the set-up stages,
then the timed stages. Every stage is a real ``kbrerank.cli.main`` call in
this process, and every cycle must produce byte-identical artifacts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from kbrerank import cli

# training seed handed to the pipeline; the benchmark seed only shapes the world
PIPELINE_SEED = 20260808
FIXED_WEIGHTS = "reranker=1.0,lstm=1.0"

# acceptance-fixture shape (100 artists x 20 songs, 400 words, 5 hypotheses,
# 30 % first-pass noise) at fixture dims; the sizes below scale it down. At
# the fixture's Zipf exponent of 1.1 a corpus this small is dominated by a few
# head entities whose name lengths differ per seed, and the tokens trained on
# varied by 25-28 % between seeds; at 0.3 they vary by about 4 %
FIXTURE = {
    "seed": PIPELINE_SEED,
    "synth_n_artists": 100,
    "synth_songs_per_artist": 20,
    "synth_word_inventory": 400,
    "synth_hyps_per_utt": 5,
    "synth_noise_rate": 0.3,
    "synth_zipf_exponent": 0.3,
    "n_folds": 10,
    "ngram_order": 3,
    "word_dim": 32,
    "lstm_dim": 32,
    "hidden_dim": 64,
    "lr": 0.1,
    "batch_size": 64,
    "lm_word_dim": 24,
    "lm_lstm_dim": 32,
    "lm_max_epochs": 1,
}

SETUP_ALL = ("build-vocab", "build-kb-index", "train-ngram")


@dataclass(frozen=True)
class Workload:
    config: dict
    setup: tuple
    timed: tuple
    mixed_lengths: bool = False


# patience == max_epochs, so every run trains the same number of epochs
WORKLOADS = {
    # full training path at fixture dims: negsampler, n-gram scoring and KB
    # features do most of their work here, and the reranker trains in its
    # overhead-bound regime (about 5 rows per score_batch call). evaluate and
    # rerank then decode, forward passes only, lists whose hypotheses differ
    # in length, the only inputs that take the per-hypothesis fallback
    "pipeline_narrow": Workload(
        config={
            **FIXTURE,
            "synth_n_train": 1000,
            "synth_n_heldout": 100,
            "synth_n_test": 100,
            "keep_top_m": 128,
            "max_epochs": 2,
            "patience": 2,
        },
        setup=SETUP_ALL,
        timed=("gen-negatives", "extract-features", "train-reranker", "train-lstm-lm", "evaluate", "rerank"),
        mixed_lengths=True,
    ),
    # train-reranker at the README's production dims: forward/backward and
    # the optimizer step are matmul-bound, features, n-gram and WER idle,
    # and every n-best list is equal-length
    "train_wide": Workload(
        config={
            **FIXTURE,
            "synth_n_train": 600,
            "synth_n_heldout": 32,
            "synth_n_test": 32,
            "keep_top_m": 64,
            "batch_size": 32,
            "word_dim": 200,
            "lstm_dim": 500,
            "hidden_dim": 256,
            "max_epochs": 1,
            "patience": 1,
        },
        setup=SETUP_ALL + ("gen-negatives", "extract-features", "train-lstm-lm"),
        timed=("train-reranker", "rerank"),
    ),
}

INPUT_FILES = ("kb.tsv", "train.txt", "heldout.jsonl", "test.jsonl")
# rerank decodes the held-out and test lists together, so it runs long enough
# per cycle to time steadily
DECODE_FILE = "decode.jsonl"
MIXED_LIST_SHARE = 0.5


class StageFailed(RuntimeError):
    pass


def make_mixed_lengths(src: Path, dst: Path, seed: int) -> None:
    """Copy an n-best file, inserting or deleting one token in some hypotheses.

    About half of the lists get at least one changed non-reference hypothesis:
    a deletion (only from hypotheses of two or more tokens, so none becomes
    empty) or a repeated-word insertion. The reference hypothesis and the
    first-pass scores stay as they are.
    """
    rng = random.Random(f"perfbench-mixed:{seed}:{src.name}")
    lines = []
    for rec in checks.load_lists(src):
        if rng.random() < MIXED_LIST_SHARE:
            others = [h for h in rec["hypotheses"] if h["tokens"] != rec["reference"]]
            picked = [h for h in others if rng.random() < 0.5] or others[:1]
            for hyp in picked:
                toks = hyp["tokens"]
                if len(toks) >= 2 and rng.random() < 0.5:
                    del toks[rng.randrange(len(toks))]
                else:
                    toks.insert(rng.randrange(len(toks) + 1), rng.choice(toks))
        lines.append(json.dumps(rec) + "\n")
    dst.write_text("".join(lines), encoding="utf-8")


class Run:
    """Stage timings and failure counts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.times: dict = defaultdict(list)  # stage wall times, every call

    def stage(self, stage: str, args: list) -> float:
        self.attempted += 1
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([stage, *map(str, args)])
        except Exception:  # a stage that raises counts as a failed operation
            traceback.print_exc(file=sys.stderr)
            rc = -1
        elapsed = time.perf_counter() - started
        if rc != 0:
            self.failed += 1
            raise StageFailed(f"stage {stage} failed (exit {rc})")
        self.times[stage].append(elapsed)
        return elapsed


# the share of a run's cycles that are slower than the reported cycle time
SLOW_SHARE = 0.1
WARMUP_CYCLES = 1


def cycle_time(times: list) -> float:
    """The statistic every per-cycle time of a run is reported as.

    On a shared machine this code runs in phases of about a minute that differ
    by up to 1.7x in speed, as other tenants load the same cores and caches;
    how much of a run falls into the fast phases varies from run to run,
    which moves a mean or a median of the cycles. Nearly every run has some
    cycles in the slow phase, and a high quantile follows them. The first
    cycle is a warm-up and is left out.
    """
    return float(np.quantile(times[WARMUP_CYCLES:], 1.0 - SLOW_SHARE))


def list_files(wl: Workload) -> dict:
    """The held-out and test n-best files that evaluate and rerank read."""
    suffix = "_mixed" if wl.mixed_lengths else ""
    return {kind: f"{kind}{suffix}.jsonl" for kind in ("heldout", "test")}


def stage_args(stage: str, out: Path, cfg_path: Path, wl: Workload) -> list:
    args = ["--config", cfg_path, "--out-dir", out]
    lists = {kind: out / fname for kind, fname in list_files(wl).items()}
    if stage == "evaluate":
        args += ["--heldout", lists["heldout"], "--test", lists["test"]]
    if stage == "rerank":
        if "evaluate" in wl.timed:
            _, tuned = checks.read_summary(out / "summary.txt")
            weights = ",".join(f"{k}={v!r}" for k, v in tuned["reranker+lstm"].items())
        else:
            weights = FIXED_WEIGHTS
        args += ["--nbest", out / DECODE_FILE, "--scorer", "reranker+lstm", "--weights", weights]
    return args


def digests(out: Path) -> dict:
    names = ["reranker.bin", "lstm_lm.bin", "summary.txt", "selections_reranker_lstm.jsonl"]
    names += sorted(p.name for p in out.glob("report_*.csv"))
    return {n: checks.sha256(out / n) for n in names if (out / n).exists()}


def environment(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    src = sorted((root / "src" / "kbrerank").glob("*.py"))
    src_digest = hashlib.sha256(b"".join(p.read_bytes() for p in src)).hexdigest()
    return {
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "src_sha256": src_digest,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail record)."""
    wl = WORKLOADS[name]
    run = Run()
    problems: list = []
    detail: dict = {"workload": name, "seed": seed, "env": environment(root)}
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    work = root / ".perfbench" / "work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    metrics: dict = {}
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(wl.config), encoding="utf-8")
        inputs = work / "inputs"
        run.stage("synth-world", ["--config", cfg_path, "--out-dir", inputs, "--seed", seed])
        files = list_files(wl)
        input_names = INPUT_FILES + (DECODE_FILE,)
        if wl.mixed_lengths:
            for kind, fname in files.items():
                make_mixed_lengths(inputs / f"{kind}.jsonl", inputs / fname, seed)
            input_names += tuple(files.values())
        lists = {kind: checks.load_lists(inputs / fname) for kind, fname in files.items()}
        decode_lists = lists["heldout"] + lists["test"]
        (inputs / DECODE_FILE).write_text(
            "".join(json.dumps(rec) + "\n" for rec in decode_lists), encoding="utf-8"
        )
        detail["unequal_length_share"] = checks.unequal_length_share(decode_lists)

        def cycle(k: int) -> tuple[float, float]:
            """Set up a fresh output directory, then run the timed stages in it."""
            out = work / f"run{k}"
            out.mkdir()
            for fname in input_names:
                shutil.copyfile(inputs / fname, out / fname)
            setup = sum(run.stage(s, stage_args(s, out, cfg_path, wl)) for s in wl.setup)
            wall = sum(run.stage(s, stage_args(s, out, cfg_path, wl)) for s in wl.timed)
            cycle_digests.append(digests(out))
            return setup, wall

        # whole cycles, so set-up and timed samples are spread over the run
        cycle_digests: list = []
        setup_totals, rep_walls = [], []
        started = time.perf_counter()
        while True:
            setup, wall = cycle(len(rep_walls))
            setup_totals.append(setup)
            rep_walls.append(wall)
            done = time.perf_counter() - started + setup + wall > seconds
            if trace or (done and len(rep_walls) > WARMUP_CYCLES):
                break
        # stage times of the untraced cycles; the traced cycle mostly times the tracer
        stage_times = {stage: list(times) for stage, times in run.times.items()}
        if tracer:
            tracer.install()
            try:
                _, traced_wall = cycle(len(rep_walls))
            finally:
                tracer.uninstall()
            tracer.write(root / ".perfbench" / f"spans-{name}-seed{seed}.npz")
        out = work / f"run{len(cycle_digests) - 1}"

        # -- correctness -------------------------------------------------
        if any(d != cycle_digests[0] for d in cycle_digests):
            problems.append("outputs differ between repeated cycles")
        detail["digests"] = cycle_digests[0]
        if "evaluate" in wl.timed:
            detail["wer_pct"] = checks.check_table(out, lists, problems)
        chosen = checks.check_selections(out / "selections_reranker_lstm.jsonl", decode_lists, problems)
        if "evaluate" in wl.timed and chosen != [
            c for split in ("heldout", "test") for c in checks.report_choices(out, split, "reranker+lstm")
        ]:
            problems.append("rerank choices differ from evaluate's reranker+lstm reports")
        epochs = len((out / "train_log.csv").read_text(encoding="utf-8").splitlines()) - 1
        if epochs != wl.config["max_epochs"]:
            problems.append(f"train-reranker ran {epochs} epochs, expected {wl.config['max_epochs']}")
        instances = len({json.loads(line)["sentence_id"] for line in (out / "features.jsonl").open(encoding="utf-8")})
        share = detail["unequal_length_share"]
        if wl.mixed_lengths != (share > 0):
            problems.append(f"unequal-length share {share:.3f} does not fit the workload")

        # -- metrics -----------------------------------------------------
        if trace:
            metrics = tracer.layer_metrics()
            for stage in SETUP_ALL + WORKLOADS["pipeline_narrow"].timed:
                metrics[f"cli.{stage}.wall_s"] = sum(stage_times.get(stage, ()))
            metrics["trace.overhead_s"] = traced_wall - rep_walls[-1]
            metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / rep_walls[-1]
        else:
            metrics = {
                "setup_s": cycle_time(setup_totals),
                "wall_s": cycle_time(rep_walls),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "train_instances_per_s": instances * epochs / cycle_time(run.times["train-reranker"]),
                "decode_utts_per_s": len(decode_lists) / cycle_time(run.times["rerank"]),
            }
        detail["cycles"] = len(rep_walls)
        detail["stage_times"] = stage_times
    except StageFailed as exc:
        problems.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    detail["problems"] = problems
    result = {
        "correct": not problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    return result, detail
