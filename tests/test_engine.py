import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bild import (
    MAX_DISTANCE,
    InvalidInputError,
    PolicyConfig,
    Sampler,
    SpecConfig,
    VocabularyMismatchError,
    Vocabulary,
    ablation_decode,
    bild_decode,
    fit_ngram,
    oracle_blend_decode,
    replay_trace,
    speculative_decode,
    vanilla_decode,
)
from bild.trace import LOW_CONFIDENCE, Eos, Fallback, LargeAppend, LargeVerify, Rollback, SmallStep
from conftest import make_table, random_model_pair

A, B, EOS = 0, 1, 2
D_05 = -math.log(0.05)  # distance of a token the large model gives 0.05


@pytest.fixture
def vocab3():
    return Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))


@pytest.fixture
def golden_pair(vocab3):
    small = make_table(vocab3, default=[0.9, 0.05, 0.05])  # greedy "a", confident
    large = make_table(vocab3, default=[0.05, 0.9, 0.05])  # greedy "b", confident
    return small, large


def golden_config():
    return PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)


# vanilla decoding


def test_vanilla_immediate_eos(vocab3):
    model = make_table(vocab3, default=[0.05, 0.05, 0.9])
    result = vanilla_decode(model, [], Sampler.greedy(), 8)
    assert result.sequence == [EOS]
    assert result.counters.small_calls == 1
    assert result.trace == [SmallStep(0, EOS, 0.9), Eos(0)]


def test_vanilla_table_walk(vocab3):
    model = make_table(
        vocab3,
        default=[0.05, 0.05, 0.9],
        rows={(): [0.9, 0.05, 0.05], (A,): [0.05, 0.9, 0.05]},
    )
    result = vanilla_decode(model, [], Sampler.greedy(), 8)
    assert result.sequence == [A, B, EOS]
    assert result.counters.small_calls == 3
    assert result.counters.small_tokens == 3


def test_vanilla_matches_hand_replay(vocab3):
    model = fit_ngram([[A, B, A, B]], 2, 1.0, vocab3)
    expected = []
    ctx = []
    for _ in range(6):
        tok = model.score_next(ctx).argmax()
        expected.append(tok)
        ctx.append(tok)
        if tok == EOS:
            break
    result = vanilla_decode(model, [], Sampler.greedy(), 6)
    assert result.sequence == expected


def test_vanilla_max_len_validation(vocab3):
    model = make_table(vocab3, default=[0.05, 0.05, 0.9])
    with pytest.raises(InvalidInputError):
        vanilla_decode(model, [], Sampler.greedy(), 0)


# the frozen golden trace


def test_golden_sequence_and_counters(golden_pair):
    small, large = golden_pair
    result = bild_decode(small, large, golden_config(), Sampler.greedy(), [], 4)
    assert result.sequence == [B, B, B, B]
    assert result.provenance == ["large"] * 4
    c = result.counters
    assert c.small_tokens == 0
    assert c.large_tokens == 4
    assert c.fallback_count == 4
    assert c.rollback_count == 4
    assert c.tokens_discarded == 12
    assert c.small_calls == 12
    assert c.large_calls == 4


def test_golden_trace_bit_for_bit(golden_pair):
    small, large = golden_pair
    result = bild_decode(small, large, golden_config(), Sampler.greedy(), [], 4)
    expected = []
    for round_idx in range(4):
        base = round_idx  # committed tokens before this round
        for j in range(3):
            expected.append(SmallStep(base + j, A, 0.9))
        expected.append(Fallback(base + 3, "window_cap"))
        expected.append(
            LargeVerify(
                positions=(base, base + 1, base + 2),
                distances=(D_05, D_05, D_05),
            )
        )
        expected.append(Rollback(base, 3, B))
    assert result.trace == expected


def test_golden_trace_replays(golden_pair):
    small, large = golden_pair
    result = bild_decode(small, large, golden_config(), Sampler.greedy(), [], 4)
    assert replay_trace(result.trace, 4) == result.sequence


# degenerate thresholds


def test_alpha_fb_zero_equals_vanilla_small(golden_pair, vocab3):
    # an eos-terminating small model so the run ends before any handover
    small = make_table(
        vocab3,
        default=[0.05, 0.05, 0.9],
        rows={(): [0.9, 0.05, 0.05], (A,): [0.9, 0.05, 0.05], (A, A): [0.05, 0.05, 0.9]},
    )
    _, large = golden_pair
    config = PolicyConfig(alpha_fb=0.0, alpha_rb=0.5, window_cap=20)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 20)
    reference = vanilla_decode(small, [], Sampler.greedy(), 20)
    assert result.sequence == reference.sequence == [A, A, EOS]
    assert result.counters.fallback_count == 0
    assert result.counters.large_calls == 0


def test_alpha_fb_above_one_equals_vanilla_large(golden_pair):
    small, large = golden_pair
    config = PolicyConfig(alpha_fb=1.01, alpha_rb=2.0, window_cap=10)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 6)
    reference = vanilla_decode(large, [], Sampler.greedy(), 6)
    assert result.sequence == reference.sequence == [B] * 6
    assert result.counters.small_tokens == 0
    assert result.counters.fallback_count == 6
    assert result.counters.large_calls == 6
    assert result.counters.small_calls == 6  # the unconfident scores that triggered


def test_degenerate_equivalence_random_pairs():
    for seed in range(40):
        vocab, small, large = random_model_pair(seed)
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


def test_rollback_at_zero_distance_is_vanilla_large_under_greedy():
    # With alpha_rb = 0, every draft that is not the large model's certain
    # choice is rolled back and replaced by the large model's argmax, and
    # verify_eos puts an eos draft under the same test. The output is then
    # greedy large decoding, whatever the fallback threshold and window.
    rollbacks = 0
    for seed in range(100):
        vocab, small, large = random_model_pair(seed)
        prompt = [t % (vocab.size - 1) for t in range(seed, seed + seed % 4)]
        reference = vanilla_decode(large, prompt, Sampler.greedy(), 20).sequence
        for alpha_fb in (0.0, 0.3, 0.6, 1.01):
            for window_cap in (1, 3, 10):
                config = PolicyConfig(alpha_fb=alpha_fb, alpha_rb=0.0, window_cap=window_cap, verify_eos=True)
                result = bild_decode(small, large, config, Sampler.greedy(), prompt, 20)
                assert result.sequence == reference, (seed, alpha_fb, window_cap)
                rollbacks += result.counters.rollback_count
    assert rollbacks > 1000  # the identity is exercised, not met by drafts the large model agrees with


# structural invariants over random runs


def run_random(seed: int):
    rng = random.Random(seed)
    vocab, small, large = random_model_pair(seed)
    config = PolicyConfig(
        alpha_fb=rng.choice([0.2, 0.4, 0.6, 0.8]),
        alpha_rb=rng.choice([0.5, 1.0, 2.0, 5.0, 30.0]),
        window_cap=rng.choice([1, 2, 3, 5]),
    )
    if rng.random() >= 0.8:
        config = config.without_rollback()
    prompt = [rng.randrange(vocab.size) for _ in range(rng.randint(0, 3))]
    max_len = rng.randint(1, 15)
    result = bild_decode(small, large, config, Sampler.greedy(), prompt, max_len)
    return config, max_len, result


def test_window_cap_invariant():
    for seed in range(150):
        config, _, result = run_random(seed)
        consecutive = 0
        for event in result.trace:
            if isinstance(event, SmallStep):
                consecutive += 1
                assert consecutive <= config.window_cap
            elif isinstance(event, Fallback):
                consecutive = 0


def test_rollback_minimality_invariant():
    for seed in range(150):
        config, _, result = run_random(seed)
        events = result.trace
        for i, event in enumerate(events):
            if isinstance(event, Rollback):
                verify = events[i - 1]
                assert isinstance(verify, LargeVerify)
                idx = verify.positions.index(event.position)
                for d in verify.distances[:idx]:
                    assert d <= config.alpha_rb
                assert verify.distances[idx] > config.alpha_rb


def test_trace_replay_invariant():
    for seed in range(150):
        _, max_len, result = run_random(seed)
        assert replay_trace(result.trace, max_len) == result.sequence


def run_random_speculative(seed: int):
    rng = random.Random(seed)
    vocab, small, large = random_model_pair(seed)
    config = SpecConfig(window=rng.choice([1, 2, 3, 5]), seed=seed)
    prompt = [rng.randrange(vocab.size) for _ in range(rng.randint(0, 3))]
    return speculative_decode(small, large, config, prompt, rng.randint(1, 15))


def run_random_ablation(seed: int, variant: str):
    rng = random.Random(seed)
    vocab, small, large = random_model_pair(seed)
    config = PolicyConfig(
        alpha_fb=rng.choice([0.2, 0.6]), alpha_rb=rng.choice([0.5, 2.0]), window_cap=5
    )
    prompt = [rng.randrange(vocab.size) for _ in range(rng.randint(0, 3))]
    max_len, k = rng.randint(1, 15), rng.choice([1, 2, 3])
    return ablation_decode(variant, small, large, config, Sampler.greedy(), prompt, max_len, k=k)


def run_random_single(seed: int):
    """A vanilla decode of the small model and an oracle blend of the pair."""
    rng = random.Random(seed)
    vocab, small, large = random_model_pair(seed)
    prompt = [rng.randrange(vocab.size) for _ in range(rng.randint(0, 3))]
    sampler = Sampler.nucleus(0.9, seed=seed)
    max_len = rng.randint(1, 15)
    vanilla = vanilla_decode(small, prompt, sampler, max_len)
    blend = oracle_blend_decode(small, large, rng.random(), sampler, prompt, max_len)
    return vanilla, blend


def test_call_accounting_invariant():
    results = [run_random(seed)[2] for seed in range(150)]
    results += [run_random_speculative(seed) for seed in range(150)]
    for variant in ("no_rollback", "fixed_window"):
        results += [run_random_ablation(seed, variant) for seed in range(75)]
    for result in results:
        small_steps = sum(1 for e in result.trace if isinstance(e, SmallStep))
        low_conf = sum(
            1
            for e in result.trace
            if isinstance(e, Fallback) and e.reason == "low_confidence"
        )
        fallbacks = sum(1 for e in result.trace if isinstance(e, Fallback))
        undos = [e for e in result.trace if isinstance(e, Rollback)]  # rejections included
        assert result.counters.large_calls == result.counters.fallback_count == fallbacks
        assert result.counters.small_calls == small_steps + low_conf
        assert result.counters.rollback_count == len(undos)
        assert result.counters.tokens_discarded == sum(e.tokens_discarded for e in undos)
        assert (
            result.counters.small_tokens + result.counters.large_tokens
            == len(result.sequence)
        )
    for seed in range(150):
        vanilla, blend = run_random_single(seed)
        small_steps = sum(1 for e in vanilla.trace if isinstance(e, SmallStep))
        assert vanilla.counters.small_calls == small_steps == len(vanilla.sequence)
        assert vanilla.counters.large_calls == 0
        steps = sum(1 for e in blend.trace if isinstance(e, (SmallStep, LargeAppend)))
        assert blend.counters.small_calls == blend.counters.large_calls == steps


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    alpha_fb=st.floats(0.0, 1.01),
    alpha_rb=st.floats(0.0, 27.0),
    k=st.integers(1, 5),
    kind=st.sampled_from(["greedy", "nucleus", "temperature"]),
)
def test_ablation_thresholds_switch_their_rule_off(seed, alpha_fb, alpha_rb, k, kind):
    """``with_fixed_window(k)`` never falls back on confidence, and
    ``without_rollback()`` never rolls back, even where the large model puts
    less than ``PROB_FLOOR`` on a draft (``floor_large`` does on every
    non-eos token)."""
    vocab, small, large = random_model_pair(seed)
    floor_large = make_table(vocab, default=[0.0] * (vocab.size - 1) + [1.0])
    sampler = {
        "greedy": Sampler.greedy(),
        "nucleus": Sampler.nucleus(0.9, seed=seed),
        "temperature": Sampler.temperature(1.3, seed=seed),
    }[kind]
    config = PolicyConfig(alpha_fb=alpha_fb, alpha_rb=alpha_rb, window_cap=k)
    for verifier in (large, floor_large):
        fixed = bild_decode(small, verifier, config.with_fixed_window(k), sampler, [], 15)
        assert not any(isinstance(e, Fallback) and e.reason == LOW_CONFIDENCE for e in fixed.trace)
        kept = bild_decode(small, verifier, config.without_rollback(), sampler, [], 15)
        assert not any(isinstance(e, Rollback) for e in kept.trace)


def test_without_rollback_keeps_drafts_at_max_distance(vocab3):
    small = make_table(vocab3, default=[0.9, 0.05, 0.05])
    large = make_table(vocab3, default=[0.0, 0.0, 1.0])  # no mass on the drafts
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=0.0, window_cap=2).without_rollback()
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    verifies = [e for e in result.trace if isinstance(e, LargeVerify)]
    assert verifies[0].distances == (MAX_DISTANCE, MAX_DISTANCE)
    assert result.sequence == [A, A, EOS]
    assert result.counters.rollback_count == 0


def test_identical_models_never_roll_back():
    # compatible thresholds: drafted tokens have max_prob >= alpha_fb, so
    # the self-distance -ln(max_prob) <= -ln(alpha_fb) < alpha_rb
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)
    for seed in range(30):
        vocab, model, _ = random_model_pair(seed)
        result = bild_decode(model, model, config, Sampler.greedy(), [], 12)
        reference = vanilla_decode(model, [], Sampler.greedy(), 12)
        assert result.sequence == reference.sequence
        assert result.counters.rollback_count == 0


def test_vocabulary_mismatch_is_configuration_error(vocab3):
    small = make_table(vocab3, default=[0.9, 0.05, 0.05])
    other = Vocabulary(size=4, eos=3)
    large = make_table(other, default=[0.7, 0.1, 0.1, 0.1])
    with pytest.raises(VocabularyMismatchError):
        bild_decode(small, large, golden_config(), Sampler.greedy(), [], 4)


def test_confident_eos_terminates_without_verification(vocab3, golden_pair):
    small = make_table(vocab3, default=[0.05, 0.05, 0.9])
    _, large = golden_pair
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    assert result.sequence == [EOS]
    assert result.counters.fallback_count == 0
    assert result.trace == [SmallStep(0, EOS, 0.9), Eos(0)]


def test_verify_eos_switch_forces_verification(vocab3, golden_pair):
    small = make_table(vocab3, default=[0.05, 0.05, 0.9])
    _, large = golden_pair
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3, verify_eos=True)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    # eos has large prob 0.05 -> distance ~3.0 > 2.0 -> rolled back to "b"
    assert result.sequence[0] == B
    fallbacks = [e for e in result.trace if isinstance(e, Fallback)]
    assert fallbacks[0].reason == "forced"


def test_prompt_conditions_but_does_not_appear(vocab3):
    model = make_table(
        vocab3,
        default=[0.05, 0.05, 0.9],
        rows={(B,): [0.9, 0.05, 0.05], (B, A): [0.05, 0.05, 0.9]},
    )
    result = vanilla_decode(model, [B], Sampler.greedy(), 5)
    assert result.sequence == [A, EOS]


def test_fallback_verification_conditions_on_prompt(vocab3):
    # the large model's append must be conditioned on the prompt context
    small = make_table(vocab3, default=[0.4, 0.4, 0.2])  # never confident
    large = make_table(
        vocab3,
        default=[0.05, 0.05, 0.9],
        rows={(B,): [0.9, 0.05, 0.05]},
    )
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [B], 4)
    assert result.sequence == [A, EOS]  # large saw prompt [b], then [b, a]
    assert result.counters.small_calls == result.counters.large_calls == 2


def test_stochastic_bild_is_reproducible(golden_pair):
    small, large = golden_pair
    sampler = Sampler.nucleus(0.95, seed=7)
    first = bild_decode(small, large, golden_config(), sampler, [], 6)
    second = bild_decode(small, large, golden_config(), sampler, [], 6)
    assert first.sequence == second.sequence
    assert first.trace == second.trace


# oracle blend


def test_blend_threshold_zero_is_pure_small(golden_pair):
    small, large = golden_pair
    result = oracle_blend_decode(small, large, 0.0, Sampler.greedy(), [], 3)
    assert result.extras["engagement"] == 0.0
    assert result.sequence == vanilla_decode(small, [], Sampler.greedy(), 3).sequence


def test_blend_threshold_one_is_pure_large(golden_pair):
    small, large = golden_pair
    result = oracle_blend_decode(small, large, 1.0, Sampler.greedy(), [], 3)
    assert result.extras["engagement"] == 1.0
    assert result.sequence == vanilla_decode(large, [], Sampler.greedy(), 3).sequence


def test_blend_hand_example(golden_pair):
    small, large = golden_pair
    result = oracle_blend_decode(small, large, 0.5, Sampler.greedy(), [], 3)
    assert result.sequence == [B, B, B]
    assert result.extras["engagement"] == 1.0
    assert result.counters.small_calls == result.counters.large_calls == 3


def test_blend_threshold_validation(golden_pair):
    small, large = golden_pair
    with pytest.raises(InvalidInputError):
        oracle_blend_decode(small, large, 1.5, Sampler.greedy(), [], 3)


# ablations


def test_no_rollback_with_alpha_zero_is_vanilla_small(vocab3, golden_pair):
    small = make_table(
        vocab3,
        default=[0.05, 0.05, 0.9],
        rows={(): [0.9, 0.05, 0.05]},
    )
    _, large = golden_pair
    config = PolicyConfig(alpha_fb=0.0, alpha_rb=2.0, window_cap=20)
    result = ablation_decode("no_rollback", small, large, config, Sampler.greedy(), [], 10)
    assert result.sequence == vanilla_decode(small, [], Sampler.greedy(), 10).sequence


def test_no_rollback_commits_disputed_drafts(golden_pair):
    small, large = golden_pair
    result = ablation_decode(
        "no_rollback", small, large, golden_config(), Sampler.greedy(), [], 4
    )
    # drafts a,a,a survive verification, then the large model appends b
    assert result.sequence == [A, A, A, B]
    assert result.counters.rollback_count == 0
    full = bild_decode(small, large, golden_config(), Sampler.greedy(), [], 4)
    assert result.sequence != full.sequence


def test_fixed_window_one_verifies_every_token(golden_pair):
    small, large = golden_pair
    result = ablation_decode(
        "fixed_window", small, large, golden_config(), Sampler.greedy(), [], 4, k=1
    )
    max_pending = 0
    pending = 0
    for event in result.trace:
        if isinstance(event, SmallStep):
            pending += 1
            max_pending = max(max_pending, pending)
        elif isinstance(event, Fallback):
            pending = 0
    assert max_pending == 1
    assert all(
        e.reason == "window_cap" for e in result.trace if isinstance(e, Fallback)
    )


def test_unknown_variant_rejected(golden_pair):
    small, large = golden_pair
    with pytest.raises(InvalidInputError):
        ablation_decode("no_fallback", small, large, golden_config(), Sampler.greedy(), [], 4)


# budget handling


def test_commit_overshoot_is_truncated(vocab3, golden_pair):
    # small drafts three confident tokens; verification keeps them and the
    # large model appends, overshooting max_len=2; result is truncated.
    small = make_table(vocab3, default=[0.9, 0.05, 0.05])
    large = make_table(vocab3, default=[0.9, 0.05, 0.05])
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=30.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 2)
    assert result.sequence == [A, A]
    assert len(result.provenance) == 2
    assert replay_trace(result.trace, 2) == result.sequence


# validation cost: each token is checked once, when it enters the working sequence

LONG = 512


@pytest.fixture(scope="module")
def long_pair():
    """Bigram small and trigram large models whose corpus never ends, so decodes run to LONG."""
    rng = random.Random(7)
    vocab = Vocabulary(size=6, eos=5)
    corpus = []
    for _ in range(4):
        seq = [0]
        for _ in range(200):  # mostly t -> 2t + 1 mod 5, so both models are often confident
            seq.append((2 * seq[-1] + 1) % 5 if rng.random() < 0.7 else rng.randrange(5))
        corpus.append(seq)
    return vocab, fit_ngram(corpus, 2, 1e-3, vocab), fit_ngram(corpus, 3, 1e-3, vocab)


LONG_DECODERS = {
    "bild": lambda s, l, p: bild_decode(
        s, l, PolicyConfig(alpha_fb=0.5, alpha_rb=1.0, window_cap=6), Sampler.nucleus(0.9, seed=1), p, LONG
    ),
    "speculative": lambda s, l, p: speculative_decode(s, l, SpecConfig(window=4, seed=1), p, LONG),
    "vanilla": lambda s, l, p: vanilla_decode(l, p, Sampler.nucleus(0.9, seed=1), LONG),
    "oracle_blend": lambda s, l, p: oracle_blend_decode(s, l, 0.2, Sampler.nucleus(0.9, seed=1), p, LONG),
}


@pytest.mark.parametrize("strategy", sorted(LONG_DECODERS))
def test_each_token_is_validated_once(long_pair, strategy, monkeypatch):
    _, small, large = long_pair
    prompt = [0, 1, 2, 3, 4, 0, 1, 2]
    calls = [0]
    validate = Vocabulary.validate_token

    def counted(self, token):
        calls[0] += 1
        return validate(self, token)

    monkeypatch.setattr(Vocabulary, "validate_token", counted)
    result = LONG_DECODERS[strategy](small, large, prompt)
    assert len(result.sequence) == LONG
    assert calls[0] <= len(prompt) + len(result.trace)
    if strategy in ("bild", "speculative"):
        assert result.counters.rollback_count > 0  # truncation was exercised
