import io

import pytest

from kbrerank import synth
from kbrerank.evaluation import RerankModels, evaluate, oracle_wer, score_split


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
                        assert h in table.candidates_of(r), (r, h)


class TestValidation:
    def test_unknown_slot_rejected(self):
        with pytest.raises(ValueError, match="unknown slot"):
            small_config(templates=("play <album>",))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            small_config(n_train=0)

    def test_oversized_inventory_rejected(self):
        with pytest.raises(ValueError, match="inventory"):
            synth.generate_world(small_config(word_inventory=10**6))
