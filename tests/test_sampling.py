import random
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bild import InvalidInputError, ProbDist, Sampler, sample
from bild.jsondoc import read_dataclass
from bild.sampling import multinomial, nucleus_support


class FixedRng:
    """rng stub returning a preset uniform value."""

    def __init__(self, u: float) -> None:
        self.u = u
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.u


def dist(*probs):
    return ProbDist(np.array(probs))


def test_greedy_argmax():
    assert sample(dist(0.1, 0.8, 0.1), Sampler.greedy(), random.Random(0)) == 1


def test_greedy_tie_to_lowest_id():
    assert sample(dist(0.45, 0.45, 0.1), Sampler.greedy(), random.Random(0)) == 0


def test_greedy_consumes_no_randomness():
    rng = FixedRng(0.99)
    sample(dist(0.5, 0.5), Sampler.greedy(), rng)
    assert rng.calls == 0


def test_nucleus_hand_example():
    # support {0,1}: 0.7 alone misses p=0.8, adding token 1 reaches 0.9.
    # renormalized [7/9, 2/9]; inverse CDF at u=0.5 lands on token 0.
    rng = FixedRng(0.5)
    assert sample(dist(0.7, 0.2, 0.1), Sampler.nucleus(0.8), rng) == 0
    assert rng.calls == 1


def test_nucleus_upper_tail_selects_second_token():
    # u=0.9 exceeds 7/9, so token 1 is drawn.
    assert sample(dist(0.7, 0.2, 0.1), Sampler.nucleus(0.8), FixedRng(0.9)) == 1


def test_nucleus_support_construction():
    assert nucleus_support(np.array([0.7, 0.2, 0.1]), 0.8) == [0, 1]
    assert nucleus_support(np.array([0.7, 0.2, 0.1]), 0.7) == [0]
    assert nucleus_support(np.array([0.7, 0.2, 0.1]), 1.0) == [0, 1, 2]
    # ties rank by lowest id first
    assert nucleus_support(np.array([0.4, 0.4, 0.2]), 0.5) == [0, 1]


@given(
    weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8),
    p=st.floats(min_value=0.05, max_value=0.999),
)
def test_nucleus_support_minimality(weights, p):
    arr = np.array(weights)
    arr = arr / arr.sum()
    support = nucleus_support(arr, p)
    mass = float(arr[support].sum())
    assert mass >= p - 1e-12
    if len(support) > 1:
        assert float(arr[support[:-1]].sum()) < p


def _reference_nucleus_support(probs, p):
    """The sorted-list construction: rank by (-prob, id), add until mass >= p."""
    support, mass = [], 0.0
    for token in sorted(range(len(probs)), key=lambda i: (-probs[i], i)):
        support.append(token)
        mass += float(probs[token])
        if mass >= p - 1e-12:
            break
    return support


@st.composite
def tied_rows(draw):
    """Probability rows with ties: uniform, one-hot, or a few repeated values."""
    size = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["uniform", "one_hot", "repeated"]))
    if kind == "uniform":
        return np.full(size, 1.0 / size)
    if kind == "one_hot":
        row = np.zeros(size)
        row[draw(st.integers(0, size - 1))] = 1.0
        return row
    levels = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=size, max_size=size))
    row = np.array(levels) if sum(levels) > 0 else np.ones(size)
    return row / row.sum()


@given(probs=tied_rows(), p=st.sampled_from([1e-3, 0.25, 0.5, 0.9, 1.0]))
def test_nucleus_support_matches_sorted_reference_on_ties(probs, p):
    assert nucleus_support(probs, p) == _reference_nucleus_support(probs, p)


@given(
    weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=16).filter(
        lambda w: sum(w) > 0
    ),
    p=st.floats(min_value=0.01, max_value=1.0),
)
def test_nucleus_support_matches_sorted_reference(weights, p):
    arr = np.array(weights) / sum(weights)
    assert nucleus_support(arr, p) == _reference_nucleus_support(arr, p)


def _reference_inverse_cdf(tokens, weights, u):
    """The sorted-support inverse CDF: a Python weight list over ascending ids."""
    tokens = sorted(tokens)
    cdf = np.cumsum([weights[t] for t in tokens])
    cdf /= cdf[-1]
    idx = int(np.searchsorted(cdf, u, side="right"))
    return tokens[min(idx, len(tokens) - 1)]


def _reference_sample(probs, sampler, u):
    """The draw the sorted-support algorithm makes; ``sampler=None`` is multinomial."""
    if sampler is None:
        return _reference_inverse_cdf(range(len(probs)), probs, u)
    if sampler.kind == "nucleus":
        return _reference_inverse_cdf(_reference_nucleus_support(probs, sampler.p), probs, u)
    weights = np.zeros_like(probs)
    positive = probs > 0
    log_w = np.log(probs[positive]) / sampler.t
    weights[positive] = np.exp(log_w - log_w.max())
    return _reference_inverse_cdf(range(len(probs)), weights, u)


@st.composite
def ngram_rows(draw):
    """Rows shaped like ``NgramLM._row``: one background value over V ids,
    plus 1-20 observed values, a zero count equal to the background."""
    size = draw(st.integers(2, 1024))
    s = draw(st.sampled_from([1e-3, 1e-2, 0.1, 1.0]))
    ids = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=min(20, size), unique=True))
    counts = draw(st.lists(st.integers(0, 50), min_size=len(ids), max_size=len(ids)))
    denom = sum(counts) + s * size
    row = np.full(size, s / denom)
    row[ids] = [(c + s) / denom for c in counts]
    return row


def _dense_nucleus_draw(probs, p, u):
    """The nucleus draw over a zeroed full-length vector, as the support-only draw replaced."""
    order = np.argsort(-probs, kind="stable")
    mass = np.cumsum(probs[order])
    support = order[: int(np.searchsorted(mass, p - 1e-12, side="left")) + 1].tolist()
    weights = np.zeros_like(probs)
    weights[support] = probs[support]
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


@settings(max_examples=200, deadline=None)
@given(
    probs=st.one_of(tied_rows(), ngram_rows()),
    sampler=st.sampled_from(
        [
            Sampler.nucleus(1e-3),
            Sampler.nucleus(0.5),
            Sampler.nucleus(0.9),
            Sampler.nucleus(0.999),  # on n-gram rows, often more than 32 tokens
            Sampler.nucleus(1.0),
            Sampler.temperature(0.3),
            Sampler.temperature(1.0),
            Sampler.temperature(4.0),
            None,  # multinomial
        ]
    ),
    u=st.one_of(
        st.sampled_from([0.0, 0.25, 0.5, 1 / 3, 2 / 3, 0.999999]),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
)
def test_draws_match_sorted_support_reference(probs, sampler, u):
    d = ProbDist(probs)
    rng = FixedRng(u)
    got = multinomial(d, rng) if sampler is None else sample(d, sampler, rng)
    assert rng.calls == 1
    assert got == _reference_sample(d.probs, sampler, u)
    if sampler is not None and sampler.kind == "nucleus":
        assert got == _dense_nucleus_draw(d.probs, sampler.p, u)


def test_temperature_one_matches_distribution_within_tvd():
    target = [0.5, 0.3, 0.2]
    rng = random.Random(1234)
    sampler = Sampler.temperature(1.0, seed=1234)
    counts = Counter(sample(dist(*target), sampler, rng) for _ in range(10_000))
    tvd = 0.5 * sum(abs(counts[t] / 10_000 - target[t]) for t in range(3))
    assert tvd <= 0.02


def test_temperature_sharpens_and_flattens():
    d = dist(0.6, 0.3, 0.1)
    cold = Counter(
        sample(d, Sampler.temperature(0.2), random.Random(i)) for i in range(2_000)
    )
    hot = Counter(
        sample(d, Sampler.temperature(5.0), random.Random(i)) for i in range(2_000)
    )
    assert cold[0] / 2_000 > 0.9  # near-greedy
    assert hot[2] / 2_000 > 0.2  # near-uniform


def test_extreme_temperatures_stay_finite():
    d = dist(0.3, 0.3, 0.4)
    # near-zero temperature degenerates to argmax, not to a NaN cdf
    assert all(
        sample(d, Sampler.temperature(1e-4), random.Random(i)) == 2 for i in range(50)
    )
    hot = Counter(sample(d, Sampler.temperature(1e4), random.Random(i)) for i in range(3_000))
    assert min(hot[t] for t in range(3)) / 3_000 > 0.25  # near-uniform


def test_temperature_preserves_exact_zeros():
    d = dist(0.0, 0.6, 0.4)
    draws = {sample(d, Sampler.temperature(3.0), random.Random(i)) for i in range(500)}
    assert 0 not in draws


def test_stochastic_kinds_consume_exactly_one_draw():
    for sampler in (Sampler.nucleus(0.9), Sampler.temperature(2.0)):
        rng = FixedRng(0.3)
        sample(dist(0.5, 0.3, 0.2), sampler, rng)
        assert rng.calls == 1


def test_multinomial_matches_distribution():
    target = [0.1, 0.6, 0.3]
    rng = random.Random(7)
    counts = Counter(multinomial(dist(*target), rng) for _ in range(10_000))
    tvd = 0.5 * sum(abs(counts[t] / 10_000 - target[t]) for t in range(3))
    assert tvd <= 0.02


def test_sampler_validation():
    with pytest.raises(InvalidInputError):
        Sampler.nucleus(0.0)
    with pytest.raises(InvalidInputError):
        Sampler.nucleus(1.5)
    with pytest.raises(InvalidInputError):
        Sampler.temperature(0.0)
    with pytest.raises(InvalidInputError):
        Sampler(kind="beam")


def test_sampler_json_roundtrip():
    for s in (Sampler.greedy(), Sampler.nucleus(0.8, seed=3), Sampler.temperature(1.5, seed=9)):
        assert read_dataclass(Sampler, asdict(s), "") == s


def test_same_seed_same_stream():
    d = dist(0.4, 0.3, 0.3)
    s = Sampler.temperature(1.0, seed=42)
    a = [sample(d, s, random.Random(42)) for _ in range(5)]
    b = [sample(d, s, random.Random(42)) for _ in range(5)]
    assert a == b
