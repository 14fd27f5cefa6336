"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.
"""

import json
import math
import random
import statistics
import time

import pytest

from bild import (
    PRESETS,
    PolicyConfig,
    Sampler,
    ablation_decode,
    agreement,
    align_small,
    bild_decode,
    distance,
    fit_ngram,
    oracle_blend_decode,
    perplexity,
    save_corpus,
    synthesize_rate_trace,
    step_cost,
    tally_trace,
    vanilla_decode,
)
from bild.cli import main as cli_main
from synthetic_tasks import VOCAB, skill_gap_task, two_phrasing_task
from bild.trace import Fallback, LargeVerify, Rollback, SmallStep
from conftest import make_table, random_corpus, random_model_pair

T5_SMALL = PRESETS["t5-small"]
T5_LARGE = PRESETS["t5-large"]


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS: {text}")


def test_criterion_1_degenerate_equivalences():
    started = time.monotonic()
    for seed in range(100):
        vocab, small, large = random_model_pair(seed, max_vocab=8, horizon=20)
        pure_small = bild_decode(
            small,
            large,
            PolicyConfig(alpha_fb=0.0, alpha_rb=1.0, window_cap=20),
            Sampler.greedy(),
            [],
            20,
        )
        assert pure_small.sequence == vanilla_decode(small, [], Sampler.greedy(), 20).sequence
        assert pure_small.counters.fallback_count == 0
        pure_large = bild_decode(
            small,
            large,
            PolicyConfig(alpha_fb=1.01, alpha_rb=1.0, window_cap=20),
            Sampler.greedy(),
            [],
            20,
        )
        assert pure_large.sequence == vanilla_decode(large, [], Sampler.greedy(), 20).sequence
        assert pure_large.counters.small_tokens == 0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    report(1, f"100 random pairs match pure-small/pure-large exactly ({elapsed:.2f}s)")


def test_criterion_2_golden_trace():
    vocab = VOCAB.__class__(size=3, eos=2, tokens=("a", "b", "<eos>"))
    small = make_table(vocab, default=[0.9, 0.05, 0.05])
    large = make_table(vocab, default=[0.05, 0.9, 0.05])
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    assert result.sequence == [1, 1, 1, 1]
    d = -math.log(0.05)
    expected = []
    for base in range(4):
        expected += [SmallStep(base + j, 0, 0.9) for j in range(3)]
        expected += [
            Fallback(base + 3, "window_cap"),
            LargeVerify(positions=(base, base + 1, base + 2), distances=(d, d, d)),
            Rollback(base, 3, 1),
        ]
    assert result.trace == expected
    report(2, "hand-derived run reproduces [b,b,b,b] and its 24-event trace bit-for-bit")


def _quick_random_pair(seed: int):
    """Random fitted pair without the eos-termination guarantee (cheap)."""
    rng = random.Random(seed)
    size = rng.randint(3, 8)
    vocab = VOCAB.__class__(size=size, eos=size - 1)
    corpus_a = random_corpus(rng, vocab, rng.randint(4, 10))
    corpus_b = random_corpus(rng, vocab, rng.randint(4, 10))
    small = fit_ngram(corpus_a, rng.choice([1, 2, 3]), rng.choice([0.1, 1.0]), vocab)
    large = fit_ngram(corpus_b, rng.choice([1, 2, 3]), rng.choice([0.1, 1.0]), vocab)
    return vocab, small, large


def test_criterion_3_randomized_trace_invariants():
    started = time.monotonic()
    for run in range(1000):
        rng = random.Random(10_000 + run)
        vocab, small, large = _quick_random_pair(10_000 + run)
        config = PolicyConfig(
            alpha_fb=rng.choice([0.2, 0.4, 0.6, 0.8]),
            alpha_rb=rng.choice([0.5, 1.0, 2.0, 5.0]),
            window_cap=rng.choice([1, 2, 3, 5, 10]),
        )
        if rng.random() >= 0.85:
            config = config.without_rollback()
        prompt = [rng.randrange(vocab.size) for _ in range(rng.randint(0, 3))]
        max_len = rng.randint(1, 15)
        variant = rng.choice(["bild", "bild", "bild", "no_rollback", "fixed_window"])
        k = rng.randint(1, 4)
        if variant == "bild":
            effective = config
            result = bild_decode(small, large, config, Sampler.greedy(), prompt, max_len)
        else:
            effective = (
                config.without_rollback()
                if variant == "no_rollback"
                else config.with_fixed_window(k)
            )
            result = ablation_decode(
                variant, small, large, config, Sampler.greedy(), prompt, max_len, k=k
            )
        consecutive = 0
        for i, event in enumerate(result.trace):
            if isinstance(event, SmallStep):
                consecutive += 1
                assert consecutive <= effective.window_cap
            elif isinstance(event, Fallback):
                consecutive = 0
            elif isinstance(event, Rollback):
                verify = result.trace[i - 1]
                assert isinstance(verify, LargeVerify)
                idx = verify.positions.index(event.position)
                assert all(x <= effective.alpha_rb for x in verify.distances[:idx])
                assert verify.distances[idx] > effective.alpha_rb
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(3, f"window cap and rollback minimality hold on 1000 random traces ({elapsed:.2f}s)")


# Criterion 4, speculative decoding's first-token marginal matching the large
# model's (3 handcrafted pairs, 10,000 seeds each, window 2, TVD <= 0.02), is
# test_speculative.py::test_first_token_marginal_matches_large_model.


def test_criterion_5_oracle_blend_endpoints():
    for seed in range(20):
        task = skill_gap_task(seed)
        pure_small, pure_large, blend0, blend1 = [], [], [], []
        for prompt in task.eval_prompts:
            pure_small.append(vanilla_decode(task.small, prompt, Sampler.greedy(), 12).sequence)
            pure_large.append(vanilla_decode(task.large, prompt, Sampler.greedy(), 12).sequence)
            r0 = oracle_blend_decode(task.small, task.large, 0.0, Sampler.greedy(), prompt, 12)
            r1 = oracle_blend_decode(task.small, task.large, 1.0, Sampler.greedy(), prompt, 12)
            blend0.append(r0.sequence)
            blend1.append(r1.sequence)
            assert r0.extras["engagement"] == 0.0 and r1.extras["engagement"] == 1.0
        assert blend0 == pure_small
        assert blend1 == pure_large
        ppl_blend1 = perplexity(task.gold, blend1)
        ppl_large = perplexity(task.gold, pure_large)
        assert abs(ppl_blend1 - ppl_large) <= 1e-9 * ppl_large
    report(5, "engagement endpoints reproduce pure decodes; perplexity matches to 1e-9")


def test_criterion_6_flops_parity_and_weight_mops():
    for desc in (T5_SMALL, T5_LARGE, PRESETS["mt5-small"], PRESETS["mt5-large"]):
        for k in (1, 2, 3, 5, 10, 32):
            parallel = step_cost(desc, 0, k)
            singles = [step_cost(desc, i, 1) for i in range(k)]
            assert parallel.flops == sum(s.flops for s in singles)
            assert sum(s.weight_mops for s in singles) == k * parallel.weight_mops
    report(6, "parallel k-token FLOPs equal k single steps; weight-MOPs ratio is exactly k")


def test_criterion_7_memory_reduction_direction():
    trace = synthesize_rate_trace(600, fallback_rate=0.3233, rollback_rate=0.0641)
    drafts = sum(1 for e in trace if isinstance(e, SmallStep))
    handovers = sum(1 for e in trace if isinstance(e, Fallback))
    discarded = sum(e.tokens_discarded for e in trace if isinstance(e, Rollback))
    assert handovers / (drafts + handovers) == pytest.approx(0.3233, abs=0.01)
    assert discarded / drafts == pytest.approx(0.0641, abs=0.01)
    rep = tally_trace(trace, T5_SMALL, T5_LARGE)
    ratio = rep.vanilla_large_equivalent.mops / rep.bild.mops
    assert ratio > 2.0
    report(7, f"modeled memory-traffic ratio at the reported rates is {ratio:.2f}x (> 2)")


def test_criterion_8_ablation_direction():
    nr_wins, fw_wins = 0, 0
    seeds = range(20)
    for seed in seeds:
        task = two_phrasing_task(300 + seed)

        def agree(sequences):
            scores = []
            for prompt, seq in zip(task.eval_prompts, sequences):
                ref = vanilla_decode(task.large, prompt, Sampler.greedy(), 12).sequence
                scores.append(agreement(seq, ref))
            return statistics.mean(scores)

        def run(strategy, k=None):
            seqs, calls = [], 0
            for prompt in task.eval_prompts:
                if strategy == "bild":
                    r = bild_decode(
                        task.small, task.large, task.config, Sampler.greedy(), prompt, 12
                    )
                else:
                    r = ablation_decode(
                        strategy,
                        task.small,
                        task.large,
                        task.config,
                        Sampler.greedy(),
                        prompt,
                        12,
                        k=k,
                    )
                seqs.append(r.sequence)
                calls += r.counters.large_calls
            return seqs, calls

        full_seqs, full_calls = run("bild")
        nr_seqs, _ = run("no_rollback")
        if agree(full_seqs) >= agree(nr_seqs):
            nr_wins += 1
        by_k = {k: run("fixed_window", k=k) for k in range(1, 8)}
        matched = min(by_k, key=lambda k: abs(by_k[k][1] - full_calls))
        if agree(full_seqs) >= agree(by_k[matched][0]):
            fw_wins += 1
    assert nr_wins >= 16, nr_wins
    assert fw_wins >= 16, fw_wins
    report(8, f"full policy >= no-rollback in {nr_wins}/20, >= fixed-window in {fw_wins}/20 seeds")


def test_criterion_9_alignment_direction():
    wins = 0
    for seed in range(20):
        task = two_phrasing_task(400 + seed)
        aligned = align_small(
            task.large, task.calibration_prompts, task.order, task.smoothing, 12
        )

        def mean_distance(model):
            total, n = 0.0, 0
            for prompt in task.heldout_prompts:
                out = vanilla_decode(task.large, prompt, Sampler.greedy(), 12).sequence
                for i in range(1, len(out)):
                    ctx = list(prompt) + out[:i]
                    total += distance(
                        model.score_next(ctx).argmax(), task.large.score_next(ctx)
                    )
                    n += 1
            return total / n

        if mean_distance(aligned) <= mean_distance(task.small):
            wins += 1
    assert wins >= 16, wins
    report(9, f"aligned model's mean rollback distance <= corpus-fit in {wins}/20 seeds")


def test_criterion_10_sweep_reproducibility(tmp_path):
    task = two_phrasing_task(0)
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("\n".join(VOCAB.tokens) + "\n")
    small_path, large_path = tmp_path / "small.json", tmp_path / "large.json"
    task.small.save(small_path)
    task.large.save(large_path)
    prompts_path = tmp_path / "prompts.txt"
    save_corpus(task.eval_prompts, VOCAB, prompts_path)
    config = {
        "small_model": {"kind": "ngram", "path": str(small_path), "vocab": str(vocab_path)},
        "large_model": {"kind": "ngram", "path": str(large_path), "vocab": str(vocab_path)},
        "policy": {"alpha_fb": 0.6, "alpha_rb": 2.0, "window_cap": 3},
        "sampler": {"kind": "nucleus", "p": 0.9},
        "prompts": str(prompts_path),
        "max_len": 12,
        "seed": 17,
        "out_dir": str(tmp_path / "out"),
        "sweep": {"alpha_fb": [0.5, 0.7], "alpha_rb": [1.0, 3.0]},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    sweep1 = (tmp_path / "out" / "sweep.csv").read_bytes()
    pareto1 = (tmp_path / "out" / "pareto.csv").read_bytes()
    assert cli_main(["sweep", "--config", str(config_path)]) == 0
    assert (tmp_path / "out" / "sweep.csv").read_bytes() == sweep1
    assert (tmp_path / "out" / "pareto.csv").read_bytes() == pareto1
    report(10, "sweep with a fixed seed emits byte-identical CSVs across runs")
