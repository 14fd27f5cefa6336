import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bild import InvalidInputError, ProbDist
from bild.dist import NORMALIZATION_ATOL, PROB_FLOOR, floored_log


def test_valid_dist_roundtrip():
    d = ProbDist(np.array([0.7, 0.2, 0.1]))
    assert len(d) == 3
    assert d[0] == 0.7
    assert d.max_prob() == 0.7
    assert d.argmax() == 0
    assert d.to_list() == [0.7, 0.2, 0.1]


def test_argmax_tie_breaks_to_lowest_id():
    assert ProbDist(np.array([0.45, 0.45, 0.1])).argmax() == 0
    assert ProbDist(np.array([0.2, 0.4, 0.4])).argmax() == 1


@pytest.mark.parametrize(
    "probs",
    [
        [0.5, 0.4],  # sums to 0.9
        [0.6, 0.6],  # sums to 1.2
        [-0.1, 1.1],  # negative entry
        [],
    ],
)
def test_invalid_dist_rejected(probs):
    with pytest.raises(InvalidInputError):
        ProbDist(np.array(probs))


def test_normalization_tolerance_is_tight():
    ProbDist(np.array([0.5, 0.5 + 5e-10]))  # inside 1e-9
    with pytest.raises(InvalidInputError):
        ProbDist(np.array([0.5, 0.5 + 5e-9]))  # outside 1e-9


def test_dist_is_read_only():
    d = ProbDist(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        d.probs[0] = 1.0


def test_floored_log():
    assert floored_log(1.0) == 0.0
    assert floored_log(0.0) == math.log(PROB_FLOOR)
    assert floored_log(1e-20) == math.log(PROB_FLOOR)


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=8))
def test_any_normalized_vector_is_accepted(weights):
    arr = np.array(weights)
    d = ProbDist(arr / arr.sum())
    assert abs(sum(d.to_list()) - 1.0) <= 1e-9
    assert d.max_prob() >= 1.0 / len(weights) - 1e-12


def _reference_check(probs) -> str | None:
    """The entry-wise ProbDist checks before the one-pass version: the message, or None."""
    arr = np.asarray(probs, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        return "probability vector must be 1-D and non-empty"
    if np.any(arr < 0) or not np.all(np.isfinite(arr)):
        return "probabilities must be finite and non-negative"
    total = float(arr.sum())
    if abs(total - 1.0) > NORMALIZATION_ATOL:
        return f"probabilities must sum to 1, got {total!r}"
    return None


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-300, -0.5, 1e308, 1.7e308, 0.5, 1.0]


@st.composite
def probability_inputs(draw):
    """Vectors near the checks' edges: normalized ones, with or without one special entry."""
    kind = draw(st.sampled_from(["normalized", "spoiled", "raw", "2-D"]))
    if kind == "2-D":
        width = draw(st.integers(0, 3))
        row = st.lists(st.sampled_from(SPECIAL), min_size=width, max_size=width)
        return np.array(draw(st.lists(row, max_size=3)))
    if kind == "raw":
        entry = st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from(SPECIAL))
        return np.array(draw(st.lists(entry, max_size=6)), dtype=np.float64)
    weights = np.array(draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6)))
    arr = weights / weights.sum() if weights.sum() > 0 else np.full(len(weights), 1.0 / len(weights))
    if kind == "spoiled":
        arr[draw(st.integers(0, len(arr) - 1))] = draw(st.sampled_from(SPECIAL))
    return arr


@given(probability_inputs())
@example(np.array([math.inf, 0.0]))
@example(np.array([0.5, math.nan, 0.5]))
@example(np.array([-math.inf, math.inf]))
@example(np.array([1e308, 1e308]))  # finite entries, overflowing sum
@example(np.array([-0.0, 1.0]))
@example(np.array([-0.5, 1.5]))
@example(np.array([]))
@example(np.array([[0.5, 0.5]]))
def test_one_pass_checks_match_entrywise_reference(probs):
    with warnings.catch_warnings(record=True):  # the reference warns on a sum that overflows
        warnings.simplefilter("always")
        expected = _reference_check(probs)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            dist = ProbDist(probs)
        except InvalidInputError as e:
            got = str(e)
        else:
            got = None
            assert np.array_equal(dist.probs, probs)
    assert got == expected
    assert [str(w.message) for w in seen] == []  # not even where the reference warned


def test_overflowing_sum_raises_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"^probabilities must sum to 1, got inf$"):
            ProbDist(np.array([1e308, 1e308]))


def test_dist_owns_a_copy_of_the_callers_array():
    arr = np.array([0.25, 0.75])
    d = ProbDist(arr)
    arr[0] = 5.0
    assert d.to_list() == [0.25, 0.75]
    assert d.probs is not arr
