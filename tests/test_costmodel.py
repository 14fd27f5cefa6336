from dataclasses import asdict

import pytest

from bild import (
    InvalidInputError,
    InvalidTraceError,
    ModelDescriptor,
    PRESETS,
    PolicyConfig,
    RooflinePeaks,
    Sampler,
    WorkloadTally,
    bild_decode,
    step_cost,
    synthesize_rate_trace,
    tally_trace,
    vanilla_decode,
)
from bild.costmodel import latency_proxy
from bild.jsondoc import read_dataclass
from bild.trace import Fallback, Rollback, SmallStep
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
    from bild import SpecConfig, speculative_decode

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
