import json
import math
import re
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bild import (
    MAX_DISTANCE,
    InvalidInputError,
    PolicyConfig,
    ProbDist,
    distance,
    find_rollback_position,
    should_fallback,
)
from bild.jsondoc import load_json, read_dataclass


def dist(*probs):
    return ProbDist(np.array(probs))


def cfg(alpha_fb=0.5, alpha_rb=2.0, **kw):
    return PolicyConfig(alpha_fb=alpha_fb, alpha_rb=alpha_rb, **kw)


# fallback rule


def test_confident_distribution_does_not_fall_back():
    assert should_fallback(dist(0.95, 0.04, 0.01).max_prob(), cfg(alpha_fb=0.9)) is False


def test_boundary_is_strict():
    assert should_fallback(dist(0.5, 0.3, 0.2).max_prob(), cfg(alpha_fb=0.5)) is False


def test_unconfident_distribution_falls_back():
    assert should_fallback(dist(0.3, 0.4, 0.3).max_prob(), cfg(alpha_fb=0.5)) is True


@given(st.floats(min_value=0.0, max_value=1.01))
def test_fallback_monotone_in_threshold(alpha):
    d = dist(0.3, 0.4, 0.3).max_prob()
    lower = should_fallback(d, cfg(alpha_fb=alpha))
    higher = should_fallback(d, cfg(alpha_fb=min(alpha + 0.1, 1.01)))
    assert higher or not lower  # once true, stays true as alpha grows


# distance metric


def test_distance_perfect_agreement_is_zero():
    assert distance(1, dist(0.0, 1.0, 0.0)) == 0.0


def test_distance_negative_log():
    assert distance(0, dist(math.exp(-2), 1.0 - math.exp(-2), 0.0)) == pytest.approx(
        2.0, abs=1e-12
    )


def test_distance_zero_probability_hits_floor():
    d = distance(0, dist(0.0, 1.0, 0.0))
    assert d == pytest.approx(MAX_DISTANCE)
    assert d == pytest.approx(27.631021, abs=1e-5)


def test_distance_zero_iff_near_certain():
    assert distance(0, dist(1.0 - 1e-13, 1e-13, 0.0)) == 0.0
    assert distance(0, dist(1.0 - 1e-9, 1e-9, 0.0)) > 0.0


@given(st.lists(st.floats(min_value=0.001, max_value=1.0), min_size=2, max_size=8))
def test_distance_bounds(weights):
    arr = np.array(weights)
    d = ProbDist(arr / arr.sum())
    for t in range(len(weights)):
        value = distance(t, d)
        assert 0.0 <= value <= MAX_DISTANCE


# rollback search


def big_distances(values):
    """Token 0's distances under distributions engineered so each equals the given value."""
    return [distance(0, dist(math.exp(-v), 1.0 - math.exp(-v))) for v in values]


def test_no_exceedance_returns_none():
    assert find_rollback_position(big_distances([0.1, 0.2]), cfg(alpha_rb=1.0)) is None


def test_first_strict_exceedance_wins():
    assert find_rollback_position(big_distances([0.5, 3.2, 0.1]), cfg(alpha_rb=3.0)) == 1


def test_minimal_index_returned():
    assert find_rollback_position(big_distances([5.0, 6.0]), cfg(alpha_rb=4.0)) == 0


def test_rollback_disabled_returns_none():
    config = cfg(alpha_rb=4.0).without_rollback()
    assert find_rollback_position(big_distances([5.0, 6.0]), config) is None


def test_empty_pending_returns_none():
    assert find_rollback_position([], cfg()) is None


def test_max_threshold_never_rolls_back():
    distances = [distance(0, dist(0.0, 1.0)), distance(0, dist(1e-12, 1.0 - 1e-12))]
    assert find_rollback_position(distances, cfg(alpha_rb=MAX_DISTANCE)) is None


@given(
    values=st.lists(st.floats(min_value=0.0, max_value=27.0), min_size=1, max_size=8),
    alpha_lo=st.floats(min_value=0.0, max_value=27.0),
    bump=st.floats(min_value=0.0, max_value=5.0),
)
def test_rollback_monotone_in_threshold(values, alpha_lo, bump):
    distances = big_distances(values)
    lo = find_rollback_position(distances, cfg(alpha_rb=alpha_lo))
    hi = find_rollback_position(distances, cfg(alpha_rb=alpha_lo + bump))
    if hi is not None:
        assert lo is not None and lo <= hi  # raising alpha never moves it earlier


def fallback_over_distribution(small_dist, config):
    """The fallback rule as it was written over the distribution."""
    return small_dist.max_prob() < config.alpha_fb


def rollback_over_distributions(pending_tokens, large_dists, config):
    """The rollback search as it was written over tokens and distributions."""
    if len(pending_tokens) != len(large_dists):
        raise InvalidInputError("pending tokens and distributions must align")
    for i, (token, d) in enumerate(zip(pending_tokens, large_dists)):
        if distance(token, d) > config.alpha_rb:
            return i
    return None


WEIGHTS = st.sampled_from([0.0, 1e-13, 1e-9, 0.3, 1.0, 7.0]) | st.floats(0.0, 10.0)


@st.composite
def distributions(draw, size):
    """Normalized vectors with zeros, near-certain and tied entries among them."""
    weights = np.array(draw(st.lists(WEIGHTS, min_size=size, max_size=size)))
    if weights.sum() == 0:
        weights[draw(st.integers(0, size - 1))] = 1.0
    return ProbDist(weights / weights.sum())


@st.composite
def verify_windows(draw):
    size = draw(st.integers(2, 6))
    k = draw(st.integers(0, 6))
    tokens = draw(st.lists(st.integers(0, size - 1), min_size=k, max_size=k))
    dists = [draw(distributions(size)) for _ in range(k)]
    return draw(distributions(size)), tokens, dists


@given(
    window=verify_windows(),
    alpha_fb=st.sampled_from([0.0, 0.5, 1.0, 1.01]) | st.floats(0.0, 1.01),
    alpha_rb=st.sampled_from([0.0, 2.0, MAX_DISTANCE]) | st.floats(0.0, MAX_DISTANCE),
)
def test_scalar_rules_decide_as_the_distribution_rules(window, alpha_fb, alpha_rb):
    small_dist, tokens, dists = window
    config = cfg(alpha_fb=alpha_fb, alpha_rb=alpha_rb)
    assert should_fallback(small_dist.max_prob(), config) == fallback_over_distribution(small_dist, config)
    distances = [distance(t, d) for t, d in zip(tokens, dists)]
    assert find_rollback_position(distances, config) == rollback_over_distributions(tokens, dists, config)


# config plumbing


def test_config_validation():
    with pytest.raises(InvalidInputError):
        PolicyConfig(alpha_fb=-0.1, alpha_rb=1.0)
    with pytest.raises(InvalidInputError):
        PolicyConfig(alpha_fb=0.5, alpha_rb=1.0, window_cap=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidInputError, match="finite"):
            PolicyConfig(alpha_fb=bad, alpha_rb=1.0)
        with pytest.raises(InvalidInputError, match="finite"):
            PolicyConfig(alpha_fb=0.5, alpha_rb=bad)
    with pytest.raises(InvalidInputError):
        PolicyConfig(alpha_fb=0.5, alpha_rb=1.0).with_fixed_window(0)


def test_config_has_four_fields():
    assert [f.name for f in fields(PolicyConfig)] == ["alpha_fb", "alpha_rb", "window_cap", "verify_eos"]


def test_config_json_roundtrip(tmp_path):
    config = PolicyConfig(alpha_fb=0.7, alpha_rb=3.0, window_cap=10)
    data = asdict(config)
    assert data == {"alpha_fb": 0.7, "alpha_rb": 3.0, "window_cap": 10, "verify_eos": False}
    assert read_dataclass(PolicyConfig, data, "") == config
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    assert read_dataclass(PolicyConfig, load_json(path), f"{path}:") == config


def test_fixed_window_json_roundtrip():
    config = PolicyConfig(alpha_fb=0.7, alpha_rb=3.0, verify_eos=True).with_fixed_window(4)
    data = asdict(config)
    assert data == {"alpha_fb": 0.0, "alpha_rb": 3.0, "window_cap": 4, "verify_eos": True}
    assert read_dataclass(PolicyConfig, data, "") == config


def test_ablations_are_threshold_settings():
    config = cfg(alpha_fb=0.7, alpha_rb=3.0, window_cap=6, verify_eos=True)
    assert config.without_rollback() == cfg(alpha_fb=0.7, alpha_rb=MAX_DISTANCE, window_cap=6, verify_eos=True)
    assert config.with_fixed_window(2) == cfg(alpha_fb=0.0, alpha_rb=3.0, window_cap=2, verify_eos=True)


def test_fixed_window_never_falls_back():
    config = cfg(alpha_fb=1.01).with_fixed_window(2)
    for d in (dist(0.5, 0.5), dist(1e-300, 1.0 - 1e-300), dist(1.0, 0.0)):
        assert should_fallback(d.max_prob(), config) is False


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
def test_without_rollback_never_rolls_back(probs):
    distances = [distance(0, dist(p, 1.0 - p)) for p in probs]  # includes p = 0, below PROB_FLOOR
    config = cfg(alpha_rb=0.0).without_rollback()
    assert find_rollback_position(distances, config) is None


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"alpha_fb": 0.5, "alpha_rb": 1.0, "rollback_enabled": False}, "rollback_enabled"),
        ({"alpha_fb": 0.5, "alpha_rb": 1.0, "fallback_mode": "fixed_window"}, "fallback_mode"),
        ({"alpha_fb": 0.5, "alpha_rb": 1.0, "fixed_window_k": 3}, "fixed_window_k"),
        ({"alpha_fb": 0.5, "alpha_rb": 1.0, "windowcap": 1}, "windowcap"),
    ],
)
def test_removed_or_misspelt_keys_fail_at_load(tmp_path, doc, key):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: {key}: unknown field$"):
        read_dataclass(PolicyConfig, load_json(path), f"{path}:")
