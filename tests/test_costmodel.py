import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bild import (
    InvalidInputError,
    InvalidTraceError,
    ModelDescriptor,
    PRESETS,
    PolicyConfig,
    RooflinePeaks,
    Sampler,
    SpecConfig,
    TallyReport,
    WorkloadTally,
    bild_decode,
    oracle_blend_decode,
    speculative_decode,
    step_cost,
    synthesize_rate_trace,
    tally_trace,
    vanilla_decode,
)
from bild.costmodel import latency_proxy
from bild.jsondoc import read_dataclass
from bild.trace import (
    FORCED,
    LOW_CONFIDENCE,
    WINDOW_CAP,
    Fallback,
    LargeVerify,
    Rollback,
    SmallStep,
    walk_trace,
)
from conftest import random_model_pair

MT5_LARGE = PRESETS["mt5-large"]
T5_LARGE = PRESETS["t5-large"]
T5_SMALL = PRESETS["t5-small"]


def test_presets_match_published_configurations():
    assert (MT5_LARGE.layers, MT5_LARGE.hidden_dim, MT5_LARGE.ffn_dim) == (24, 1024, 2816)
    assert MT5_LARGE.decoder_params == 409_000_000
    assert PRESETS["mt5-small"].decoder_params == 25_000_000
    assert (T5_LARGE.layers, T5_LARGE.hidden_dim, T5_LARGE.ffn_dim) == (24, 1024, 4096)
    assert T5_LARGE.decoder_params == 402_000_000
    assert (T5_SMALL.layers, T5_SMALL.hidden_dim, T5_SMALL.ffn_dim) == (6, 512, 2048)


def test_zero_tokens_costs_nothing():
    tally = step_cost(MT5_LARGE, 10, 0)
    assert tally.flops == 0 and tally.mops == 0 and tally.invocations == 0


def test_flops_parity_and_weight_amortization():
    # one 4-token call vs four 1-token calls (context advancing)
    single = step_cost(MT5_LARGE, 0, 4)
    split = WorkloadTally()
    for i in range(4):
        split = split + step_cost(MT5_LARGE, i, 1)
    assert single.flops == split.flops == 2 * 409e6 * 4
    assert split.weight_mops == 4 * single.weight_mops
    assert single.invocations == 1 and split.invocations == 4
    # same KV traffic either way: reads of j-1 prior entries plus one write
    assert single.kv_mops == split.kv_mops


def test_arithmetic_intensity_rises_with_batched_tokens():
    one = step_cost(MT5_LARGE, 0, 1)
    four = step_cost(MT5_LARGE, 0, 4)
    assert four.arithmetic_intensity > one.arithmetic_intensity


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_arithmetic_intensity_strictly_increasing_to_64(name):
    desc = PRESETS[name]
    last = 0.0
    for k in range(1, 65):
        ai = step_cost(desc, 0, k).arithmetic_intensity
        assert ai > last
        last = ai


def test_flops_parity_any_split():
    total = step_cost(T5_LARGE, 0, 10).flops
    for cut in range(1, 10):
        merged = step_cost(T5_LARGE, 0, cut) + step_cost(T5_LARGE, cut, 10 - cut)
        assert merged.flops == total


def test_tally_additivity():
    a = step_cost(T5_LARGE, 0, 3)
    b = step_cost(T5_SMALL, 3, 1)
    c = a + b
    assert c.flops == a.flops + b.flops
    assert c.mops == a.mops + b.mops
    assert c.weight_mops == a.weight_mops + b.weight_mops
    assert c.kv_mops == a.kv_mops + b.kv_mops
    assert c.invocations == a.invocations + b.invocations
    assert c.mops == c.weight_mops + c.kv_mops


def test_descriptor_validation_and_json():
    with pytest.raises(InvalidInputError):
        ModelDescriptor(layers=0, hidden_dim=512, ffn_dim=1024, decoder_params=1)
    data = asdict(T5_LARGE)
    assert data == {
        "layers": 24,
        "hidden_dim": 1024,
        "ffn_dim": 4096,
        "decoder_params": 402_000_000,
        "bytes_per_param": 2,
    }
    assert read_dataclass(ModelDescriptor, data, "") == T5_LARGE


def test_kv_bytes_per_token():
    assert T5_LARGE.kv_bytes_per_token == 2 * 24 * 1024 * 2


# trace tallies


def test_pure_large_trace_is_identity():
    # pure large decoding, tallied with the large model as the sole actor
    vocab, _, large = random_model_pair(0)
    result = vanilla_decode(large, [], Sampler.greedy(), 12)
    report = tally_trace(result.trace, T5_LARGE, T5_LARGE)
    assert report.bild == report.vanilla_large_equivalent
    assert report.speedup_estimate == 1.0
    assert report.arithmetic_intensity_ratio == 1.0


def test_pure_small_trace_ratio_is_param_ratio():
    vocab, small, _ = random_model_pair(1)
    result = vanilla_decode(small, [], Sampler.greedy(), 12)
    report = tally_trace(result.trace, T5_SMALL, T5_LARGE)
    ratio = report.vanilla_large_equivalent.mops / report.bild.mops
    assert ratio == pytest.approx(402 / 25, rel=0.05)


def test_reported_operating_point_halves_memory_traffic():
    # published fallback/rollback rates for the summarization pair
    trace = synthesize_rate_trace(600, 0.3233, 0.0641)
    drafts = sum(1 for e in trace if isinstance(e, SmallStep))
    handovers = sum(1 for e in trace if isinstance(e, Fallback))
    discarded = sum(e.tokens_discarded for e in trace if isinstance(e, Rollback))
    assert handovers / (drafts + handovers) == pytest.approx(0.3233, abs=0.01)
    assert discarded / drafts == pytest.approx(0.0641, abs=0.01)
    report = tally_trace(trace, T5_SMALL, T5_LARGE)
    mops_ratio = report.vanilla_large_equivalent.mops / report.bild.mops
    assert mops_ratio > 2.0
    assert report.arithmetic_intensity_ratio > 1.0
    # total arithmetic rises slightly (small-model overhead plus re-verified
    # positions) even as memory traffic collapses
    flops_ratio = report.bild.flops / report.vanilla_large_equivalent.flops
    assert 1.0 < flops_ratio < 1.5


def test_bild_trace_tally_accumulates_small_and_large():
    vocab, small, large = random_model_pair(2)
    config = PolicyConfig(alpha_fb=0.6, alpha_rb=2.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 12)
    report = tally_trace(result.trace, T5_SMALL, T5_LARGE, max_len=12)
    assert report.bild.invocations == (
        result.counters.small_calls + result.counters.large_calls
    )
    assert report.vanilla_large_equivalent.invocations == len(result.sequence)


def test_speculative_trace_tallies():
    vocab, small, large = random_model_pair(5)
    result = speculative_decode(small, large, SpecConfig(window=3, seed=1), [], 12)
    report = tally_trace(result.trace, T5_SMALL, T5_LARGE, max_len=12)
    assert report.bild.invocations == (
        result.counters.small_calls + result.counters.large_calls
    )
    assert report.vanilla_large_equivalent.invocations == len(result.sequence)


def test_inconsistent_trace_rejected():
    bad = [SmallStep(1, 0, 0.9)]  # starts at position 1
    with pytest.raises(InvalidTraceError):
        tally_trace(bad, T5_SMALL, T5_LARGE)


def test_roofline_proxy():
    tally = step_cost(T5_LARGE, 0, 1)
    assert latency_proxy(tally) == tally.mops
    compute_bound = RooflinePeaks(peak_flops=1.0, peak_bandwidth=1e30)
    assert latency_proxy(tally, compute_bound) == tally.flops
    with pytest.raises(InvalidInputError):
        RooflinePeaks(peak_flops=0.0, peak_bandwidth=1.0)


def test_synthesize_rate_trace_validation():
    for num_tokens in (0, -3):
        with pytest.raises(InvalidInputError, match="num_tokens"):
            synthesize_rate_trace(num_tokens, 0.3, 0.1)
    with pytest.raises(InvalidInputError):
        synthesize_rate_trace(100, 0.0, 0.1)
    with pytest.raises(InvalidInputError):
        synthesize_rate_trace(100, 0.3, 1.0)


# differential test against the per-event tally


def _reference_step_cost(desc, context_len, new_tokens):
    """The per-call cost, as ``step_cost`` computed it before ``_price``."""
    if new_tokens == 0:
        return WorkloadTally()
    flops = 2.0 * desc.decoder_params * new_tokens
    weight = float(desc.decoder_params * desc.bytes_per_param)
    kv_reads = new_tokens * context_len + new_tokens * (new_tokens + 1) // 2
    kv = float(desc.kv_bytes_per_token * (kv_reads + new_tokens))
    return WorkloadTally(
        flops=flops, mops=weight + kv, invocations=1, weight_mops=weight, kv_mops=kv
    )


def _reference_tally_trace(trace, small_desc, large_desc, *, prompt_len=0, max_len=None, peaks=None):
    """The tally that sums one ``WorkloadTally`` per model call and per
    reference token, kept as the oracle for the integer-count tally."""
    seq_len = 0
    tally = WorkloadTally()
    for event, seq_len in walk_trace(trace):
        if isinstance(event, SmallStep):
            tally = tally + _reference_step_cost(small_desc, prompt_len + event.position, 1)
        elif isinstance(event, Fallback):
            if event.reason == LOW_CONFIDENCE:
                tally = tally + _reference_step_cost(small_desc, prompt_len + event.position, 1)
        elif isinstance(event, LargeVerify):
            k = len(event.positions)
            tally = tally + _reference_step_cost(large_desc, prompt_len + seq_len - k, k + 1)

    final_len = seq_len if max_len is None else min(seq_len, max_len)
    vanilla = WorkloadTally()
    for i in range(final_len):
        vanilla = vanilla + _reference_step_cost(large_desc, prompt_len + i, 1)

    bild_proxy = latency_proxy(tally, peaks)
    vanilla_proxy = latency_proxy(vanilla, peaks)
    if bild_proxy == 0.0 and vanilla_proxy == 0.0:
        speedup = 1.0
    elif bild_proxy == 0.0:
        speedup = float("inf")
    else:
        speedup = vanilla_proxy / bild_proxy
    if tally.mops > 0 and vanilla.mops > 0 and vanilla.arithmetic_intensity > 0:
        ai_ratio = tally.arithmetic_intensity / vanilla.arithmetic_intensity
    else:
        ai_ratio = 1.0
    return TallyReport(
        bild=tally,
        vanilla_large_equivalent=vanilla,
        speedup_estimate=speedup,
        arithmetic_intensity_ratio=ai_ratio,
    )


def _outcome(tally, trace, *args, **kwargs):
    try:
        report = tally(trace, *args, **kwargs)
    except InvalidTraceError as e:
        return "InvalidTraceError", str(e)
    for part in (report.bild, report.vanilla_large_equivalent):
        assert max(part.flops, part.mops) < 2**53, "outside the exact domain"
    return asdict(report), json.dumps(report.to_json_dict())


# The domain keeps every count, and so every float partial sum of the
# reference, an integer below 2**53: a trace of at most ~4,400 calls and
# scored tokens and ~10**7 KV entries per model, priced at most 4 * 10**10
# weight bytes per call and 2 * 64 * 8192 * 4 KV bytes per entry; `_outcome`
# checks it. There both tallies are exact and must agree bit for bit; beyond
# it the reference rounds once per call.
descriptors = st.one_of(
    st.sampled_from(sorted(PRESETS.values(), key=lambda d: d.decoder_params)),
    st.builds(
        ModelDescriptor,
        layers=st.integers(1, 64),
        hidden_dim=st.integers(1, 8192),
        ffn_dim=st.integers(1, 8192),
        decoder_params=st.integers(1, 10**10),
        bytes_per_param=st.integers(1, 4),
    ),
)
peak_settings = st.one_of(
    st.none(),
    st.builds(
        RooflinePeaks,
        peak_flops=st.floats(1e6, 1e18),
        peak_bandwidth=st.floats(1e6, 1e15),
    ),
)
cuts = st.one_of(st.none(), st.integers(0, 500))
DIFFERENTIAL = settings(max_examples=150, deadline=None)


@DIFFERENTIAL
@given(
    num_tokens=st.integers(1, 400),
    fallback_rate=st.floats(0.01, 0.99),
    rollback_rate=st.floats(0.0, 0.9),
    reasons=st.lists(st.sampled_from([LOW_CONFIDENCE, WINDOW_CAP, FORCED]), min_size=1, max_size=8),
    drop=st.one_of(st.none(), st.integers(0, 10**6)),
    small_desc=descriptors,
    large_desc=descriptors,
    prompt_len=st.integers(0, 500),
    max_len=cuts,
    peaks=peak_settings,
)
def test_tally_matches_the_per_event_reference_on_synthesized_traces(
    num_tokens, fallback_rate, rollback_rate, reasons, drop, small_desc, large_desc, prompt_len, max_len, peaks
):
    trace = synthesize_rate_trace(num_tokens, fallback_rate, rollback_rate)
    fallbacks = [i for i, e in enumerate(trace) if isinstance(e, Fallback)]
    for n, i in enumerate(fallbacks):
        trace[i] = Fallback(trace[i].position, reasons[n % len(reasons)])
    if drop is not None:  # a dropped event usually breaks the trace; both must reject it alike
        del trace[drop % len(trace)]
    args = (trace, small_desc, large_desc)
    kwargs = dict(prompt_len=prompt_len, max_len=max_len, peaks=peaks)
    assert _outcome(tally_trace, *args, **kwargs) == _outcome(_reference_tally_trace, *args, **kwargs)


def _engine_trace(strategy, small, large, prompt, seed, max_len):
    sampler = Sampler.nucleus(0.9, seed=seed)
    if strategy == "bild":
        config = PolicyConfig(alpha_fb=0.5, alpha_rb=1.0, window_cap=1 + seed % 5)
        return bild_decode(small, large, config, sampler, prompt, max_len).trace
    if strategy == "speculative":
        config = SpecConfig(window=1 + seed % 4, seed=seed)
        return speculative_decode(small, large, config, prompt, max_len, draft_sampler=sampler).trace
    if strategy == "vanilla":
        return vanilla_decode(small, prompt, sampler, max_len).trace
    return oracle_blend_decode(small, large, 0.5, sampler, prompt, max_len).trace


@DIFFERENTIAL
@given(
    strategy=st.sampled_from(["bild", "speculative", "vanilla", "oracle_blend"]),
    seed=st.integers(0, 40),
    prompt_body=st.integers(0, 4),
    decode_len=st.integers(1, 24),
    small_desc=descriptors,
    large_desc=descriptors,
    prompt_len=st.integers(0, 500),
    max_len=cuts,
    peaks=peak_settings,
)
def test_tally_matches_the_per_event_reference_on_engine_traces(
    strategy, seed, prompt_body, decode_len, small_desc, large_desc, prompt_len, max_len, peaks
):
    vocab, small, large = random_model_pair(seed)
    prompt = [t % (vocab.size - 1) for t in range(seed, seed + prompt_body)]
    trace = _engine_trace(strategy, small, large, prompt, seed, decode_len)
    args = (trace, small_desc, large_desc)
    kwargs = dict(prompt_len=prompt_len, max_len=max_len, peaks=peaks)
    assert _outcome(tally_trace, *args, **kwargs) == _outcome(_reference_tally_trace, *args, **kwargs)
