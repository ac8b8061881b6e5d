import hashlib
import io
import json
import random
import signal
from contextlib import contextmanager

import pytest
from oracles import candidates_of, negative_sets

from kbrerank import synth
from kbrerank.corpus import build_vocabulary
from kbrerank.evaluation import RerankModels, evaluate, oracle_wer, score_split
from kbrerank.negsampler import build_confusion_table, sample_corpus_negatives
from kbrerank.ngram import count_ngrams, estimate


def small_config(**overrides):
    base = dict(
        seed=11, n_artists=6, songs_per_artist=3, word_inventory=60,
        n_train=40, n_heldout=15, n_test=15, hyps_per_utt=4,
        noise_rate=0.3, unreachable_rate=0.0,
    )
    base.update(overrides)
    return synth.SynthConfig(**base)


def world_fingerprint(world):
    buf = io.StringIO()
    for e in world.kb_entries:
        buf.write(f"{e.artist}|{e.song}|{e.frequency!r}\n")
    for s in world.train:
        buf.write(s.text() + "\n")
    for nbest in world.heldout + world.test:
        buf.write(nbest.utt_id + "::" + nbest.reference.text() + "\n")
        for h, fp in nbest.hypotheses:
            buf.write(f"{h.text()}@{fp!r}\n")
    return buf.getvalue()


class TestGeneration:
    def test_sizes(self):
        world = synth.generate_world(small_config())
        assert len(world.kb_entries) == 18
        assert len(world.train) == 40
        assert len(world.heldout) == 15 and len(world.test) == 15
        for nbest in world.heldout + world.test:
            assert 2 <= len(nbest.hypotheses) <= 4

    def test_deterministic_under_seed(self):
        a = synth.generate_world(small_config())
        b = synth.generate_world(small_config())
        assert world_fingerprint(a) == world_fingerprint(b)

    def test_different_seeds_differ(self):
        a = synth.generate_world(small_config())
        b = synth.generate_world(small_config(seed=12))
        assert world_fingerprint(a) != world_fingerprint(b)

    def test_zero_noise_gives_zero_first_pass_wer(self):
        world = synth.generate_world(small_config(noise_rate=0.0))
        report = evaluate(score_split(world.test, "first-pass", RerankModels()), "first-pass", {})
        assert report.wer == 0.0

    def test_reference_reachable_gives_zero_oracle(self):
        world = synth.generate_world(small_config())
        assert oracle_wer(score_split(world.test, (), RerankModels())).wer == 0.0
        assert oracle_wer(score_split(world.heldout, (), RerankModels())).wer == 0.0

    def test_unreachable_rate_lifts_oracle(self):
        world = synth.generate_world(small_config(unreachable_rate=1.0))
        assert oracle_wer(score_split(world.test, (), RerankModels())).wer > 0.0

    def test_queries_mention_kb_entities(self):
        world = synth.generate_world(small_config())
        phrases = {p for e in world.kb_entries for p in (e.artist, e.song)}
        for sent in list(world.train)[:20]:
            toks = sent.tokens
            spans = {
                toks[i : j + 1] for i in range(len(toks)) for j in range(i, len(toks))
            }
            assert spans & phrases, sent.text()

    def test_hypotheses_differ_only_at_confusable_positions(self):
        config = small_config()
        world = synth.generate_world(config)
        table = synth.world_confusion_table(config, world.inventory, world.kb_entries)
        for nbest in world.heldout[:10]:
            ref = nbest.reference.tokens
            for hyp, _ in nbest.hypotheses:
                assert len(hyp) == len(ref)
                for pos, (r, h) in enumerate(zip(ref, hyp.tokens)):
                    if r != h:
                        assert h in candidates_of(table, r), (r, h)


@contextmanager
def time_limit(seconds):
    """Fail with TimeoutError instead of hanging past ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def golden_digests(seed):
    """sha256 of a small world (its n-best lists included) and of the
    negatives ``sample_corpus_negatives`` draws for its training corpus."""
    world = synth.generate_world(
        small_config(seed=seed, n_artists=10, songs_per_artist=5, word_inventory=100,
                     n_train=300, n_heldout=30, n_test=30, hyps_per_utt=5)
    )
    vocab = build_vocabulary(world.train, min_count=1)  # singletons become <unk>
    lm = estimate(count_ngrams(world.train, vocab, 3), vocab)
    negs = sample_corpus_negatives(
        world.train, build_confusion_table(vocab), [lm], [0] * len(world.train),
        n_samples=30, keep_k=5, p_sub=0.3, seed=seed,
    )
    negsets = negative_sets(negs, world.train, vocab)
    # scores to 6 decimals: the digest pins the draws and the ranking, not
    # the last bits of a vectorized log
    records = [
        None if ns is None else [
            [list(neg.tokens), f"{lp:.6f}", list(pos)]
            for neg, lp, pos in zip(ns.negatives, ns.lm_logprobs, ns.substituted_positions)
        ]
        for ns in negsets
    ]
    return (
        hashlib.sha256(world_fingerprint(world).encode()).hexdigest(),
        hashlib.sha256(json.dumps(records).encode()).hexdigest(),
    )


class TestGolden:
    """Pinned outputs: a change to the confusion draw alters every rerun the
    same way, so only a digest fixed in advance catches it. The digests were
    computed before the synthetic world and the negative sampler shared one
    draw (``ConfusionTable.corruptions``)."""

    # seed -> (world digest, negatives digest)
    DIGESTS = {
        1: (
            "ff4cee243bbf0bbd1d9b06647f66ff0bd777d76900bb61434a17f9a46deed7ff",
            "e67b0fb280fe4c642db0c2a3eae8256433f36239dd683f11f9a82767afe151de",
        ),
        20260808: (
            "189a247ad7fc4d251a4fc3b58032ccfb9a7fef0c2450f3654decd82c032899b5",
            "473a11039f3446ed9713db70be66e1cad297e73eecfc83ea3dfc0735a01f05b2",
        ),
    }

    @pytest.mark.parametrize("seed", sorted(DIGESTS))
    def test_world_and_negatives_pinned(self, seed):
        assert golden_digests(seed) == self.DIGESTS[seed]


class TestValidation:
    @pytest.mark.parametrize("p_sub", [0.0, -0.25, 1.5])
    def test_corruption_p_sub_outside_unit_interval_rejected(self, p_sub):
        # at 0 no draw ever substitutes, so the redraw would never end
        with pytest.raises(ValueError, match=r"corruption_p_sub must be in \(0, 1\]"):
            small_config(corruption_p_sub=p_sub)

    def test_unknown_slot_rejected(self):
        with pytest.raises(ValueError, match="unknown slot"):
            small_config(templates=("play <album>",))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            small_config(n_train=0)

    def test_hyps_per_utt_no_query_reaches_rejected(self):
        # one song over a 20-word inventory has far fewer than 49,999
        # distinct corruptions, so no query can fill a list
        config = synth.SynthConfig(
            seed=1, n_artists=1, songs_per_artist=1, word_inventory=20, n_train=5,
            n_heldout=2, n_test=2, hyps_per_utt=50000, templates=("ab <song>",),
        )
        with time_limit(30), pytest.raises(ValueError, match=r"hyps_per_utt - 1 = 49999"):
            synth.generate_world(config)

    def test_query_draws_bounded(self):
        # a query no word of which has a confusion never yields a
        # corruption; the list gives up after a bounded number of queries
        config = small_config()
        world = synth.generate_world(config)
        table = synth.world_confusion_table(config, world.inventory, world.kb_entries)
        with time_limit(30), pytest.raises(ValueError, match=r"no query in \d+ yielded the hyps_per_utt"):
            synth._make_nbest(config, random.Random(0), lambda: ("zz",), table, "h00000")

    def test_oversized_inventory_rejected(self):
        with pytest.raises(ValueError, match="inventory"):
            synth.generate_world(small_config(word_inventory=10**6))
