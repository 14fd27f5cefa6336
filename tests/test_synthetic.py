"""Direction tests on the synthetic task families of tests/synthetic_tasks.py."""

import statistics

from bild import (
    Sampler,
    ablation_decode,
    agreement,
    align_small,
    bild_decode,
    distance,
    oracle_blend_decode,
    perplexity,
    vanilla_decode,
)
from synthetic_tasks import skill_gap_task, two_phrasing_task

MAX_LEN = 12


def mean_greedy_distance(model, task):
    """Mean rollback distance of a model's greedy picks against the large
    model, over contexts arising in held-out large-model generations."""
    total, n = 0.0, 0
    for prompt in task.heldout_prompts:
        out = vanilla_decode(task.large, prompt, Sampler.greedy(), MAX_LEN).sequence
        for i in range(1, len(out)):
            ctx = list(prompt) + out[:i]
            token = model.score_next(ctx).argmax()
            total += distance(token, task.large.score_next(ctx))
            n += 1
    return total / n


def test_alignment_reduces_disagreement():
    wins = 0
    for seed in range(20):
        task = two_phrasing_task(seed)
        aligned = align_small(
            task.large, task.calibration_prompts, task.order, task.smoothing, MAX_LEN
        )
        if mean_greedy_distance(aligned, task) <= mean_greedy_distance(task.small, task):
            wins += 1
    assert wins >= 16  # at least 80% of seeds


def agreement_with_large(task, result_sequences):
    scores = []
    for prompt, seq in zip(task.eval_prompts, result_sequences):
        ref = vanilla_decode(task.large, prompt, Sampler.greedy(), MAX_LEN).sequence
        scores.append(agreement(seq, ref))
    return sum(scores) / len(scores)


def run_strategy(task, strategy, k=None):
    sequences, large_calls = [], 0
    for prompt in task.eval_prompts:
        if strategy == "bild":
            res = bild_decode(
                task.small, task.large, task.config, Sampler.greedy(), prompt, MAX_LEN
            )
        else:
            res = ablation_decode(
                strategy,
                task.small,
                task.large,
                task.config,
                Sampler.greedy(),
                prompt,
                MAX_LEN,
                k=k,
            )
        sequences.append(res.sequence)
        large_calls += res.counters.large_calls
    return sequences, large_calls


def test_rollback_improves_agreement_with_large():
    wins = 0
    for seed in range(20):
        task = two_phrasing_task(100 + seed)
        full_seqs, _ = run_strategy(task, "bild")
        nr_seqs, _ = run_strategy(task, "no_rollback")
        if agreement_with_large(task, full_seqs) >= agreement_with_large(task, nr_seqs):
            wins += 1
    assert wins >= 16


def test_confidence_window_beats_fixed_window_at_matched_budget():
    wins = 0
    for seed in range(20):
        task = two_phrasing_task(100 + seed)
        full_seqs, full_calls = run_strategy(task, "bild")
        by_k = {k: run_strategy(task, "fixed_window", k=k) for k in range(1, 8)}
        matched_k = min(by_k, key=lambda k: abs(by_k[k][1] - full_calls))
        if agreement_with_large(task, full_seqs) >= agreement_with_large(
            task, by_k[matched_k][0]
        ):
            wins += 1
    assert wins >= 16


def test_bild_dominates_every_token_verification():
    # same agreement with strictly fewer large calls than verify-every-token
    agree_margin, call_wins = [], 0
    for seed in range(20):
        task = two_phrasing_task(200 + seed)
        full_seqs, full_calls = run_strategy(task, "bild")
        fw_seqs, fw_calls = run_strategy(task, "fixed_window", k=1)
        agree_margin.append(
            agreement_with_large(task, full_seqs) - agreement_with_large(task, fw_seqs)
        )
        if full_calls < fw_calls:
            call_wins += 1
    assert statistics.mean(agree_margin) >= -0.01
    assert call_wins >= 16


def test_skill_gap_premise_large_knows_more():
    wins = 0
    for seed in range(20):
        task = skill_gap_task(seed)
        if perplexity(task.large, task.heldout) < perplexity(task.small, task.heldout):
            wins += 1
    assert wins >= 16


def test_blend_quality_curve_non_increasing():
    thresholds = [0.0, 0.3, 0.6, 1.0]
    curve = {t: [] for t in thresholds}
    engagement_curve = {t: [] for t in thresholds}
    for seed in range(20):
        task = skill_gap_task(seed)
        for t in thresholds:
            outs, engs = [], []
            for prompt in task.eval_prompts:
                res = oracle_blend_decode(
                    task.small, task.large, t, Sampler.greedy(), prompt, MAX_LEN
                )
                outs.append(res.sequence)
                engs.append(res.extras["engagement"])
            curve[t].append(perplexity(task.gold, outs))
            engagement_curve[t].append(sum(engs) / len(engs))
    means = [statistics.mean(curve[t]) for t in thresholds]
    for lo, hi in zip(means[1:], means[:-1]):
        assert lo <= hi * 1.01  # non-increasing within noise
    assert statistics.mean(engagement_curve[0.0]) == 0.0
    assert statistics.mean(engagement_curve[1.0]) == 1.0


def test_blend_endpoint_equals_pure_large_exactly():
    for seed in range(20):
        task = skill_gap_task(seed)
        for prompt in task.eval_prompts:
            pure = vanilla_decode(task.large, prompt, Sampler.greedy(), MAX_LEN).sequence
            blend = oracle_blend_decode(
                task.small, task.large, 1.0, Sampler.greedy(), prompt, MAX_LEN
            )
            assert blend.sequence == pure
