"""Fallback and rollback decision rules.

The fallback rule hands control to the large model when the small model's
maximum next-token probability falls strictly below ``alpha_fb``. The
rollback rule reviews drafted tokens with the large model's distributions
and discards everything from the first position whose hard-label
cross-entropy distance strictly exceeds ``alpha_rb``.

Both comparisons are strict, so boundary cases keep the small model's
output. The distance is a negative natural log, floored at ``PROB_FLOOR``
and therefore bounded by ``MAX_DISTANCE``. So the paper's two ablations
are points of the threshold space: ``alpha_rb = MAX_DISTANCE`` never rolls
back, and ``alpha_fb = 0`` never falls back, which leaves only the
``window_cap`` handover (a fixed window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .dist import PROB_FLOOR, ProbDist
from .errors import FieldError, InvalidInputError

# Largest value the distance metric can take given the probability floor.
MAX_DISTANCE = -math.log(PROB_FLOOR)


def check_threshold(key: str, value: float) -> None:
    """The rule for every threshold: finite and non-negative; a ``FieldError`` on ``key`` otherwise."""
    if not (math.isfinite(value) and value >= 0):
        raise FieldError(key, f"must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class PolicyConfig:
    """Thresholds steering a collaborative decode run.

    ``alpha_fb``: fallback threshold on the small model's max probability.
    ``alpha_rb``: rollback threshold on the hard-label distance.
    ``window_cap``: most consecutive small-model tokens before a forced
      handover (10 by default).
    ``verify_eos``: when true, a drafted end-of-sequence token triggers a
      verification pass instead of terminating immediately.

    The ablations are settings of these: ``without_rollback()`` sets
    ``alpha_rb = MAX_DISTANCE``, and ``with_fixed_window(k)`` sets
    ``alpha_fb = 0`` and ``window_cap = k``.
    """

    alpha_fb: float
    alpha_rb: float
    window_cap: int = 10
    verify_eos: bool = False

    def __post_init__(self) -> None:
        check_threshold("alpha_fb", self.alpha_fb)
        check_threshold("alpha_rb", self.alpha_rb)
        if self.window_cap < 1:
            raise InvalidInputError("window_cap must be >= 1")

    def without_rollback(self) -> "PolicyConfig":
        """No rollback: no distance exceeds ``MAX_DISTANCE``, and the test is strict."""
        return replace(self, alpha_rb=MAX_DISTANCE)

    def with_fixed_window(self, k: int) -> "PolicyConfig":
        """A handover after exactly ``k`` drafts: no max probability is below 0."""
        return replace(self, alpha_fb=0.0, window_cap=k)


def should_fallback(small_dist: ProbDist, config: PolicyConfig) -> bool:
    """True iff the small model's max probability is strictly below alpha_fb."""
    return small_dist.max_prob() < config.alpha_fb


def distance(chosen: int, large_dist: ProbDist) -> float:
    """Hard-label cross-entropy: -ln of the large model's mass on ``chosen``.

    Probabilities are clamped to ``PROB_FLOOR`` below and snapped to 1 when
    within ``PROB_FLOOR`` of it, so the result is 0 exactly when the large
    model (numerically) agrees with certainty, and never exceeds
    ``MAX_DISTANCE``.
    """
    p = large_dist[chosen]
    if p >= 1.0 - PROB_FLOOR:
        return 0.0
    return -math.log(max(p, PROB_FLOOR))


def find_rollback_position(
    pending_tokens: Sequence[int],
    large_dists: Sequence[ProbDist],
    config: PolicyConfig,
) -> int | None:
    """Index of the first drafted token whose distance strictly exceeds alpha_rb.

    ``large_dists[i]`` must be the large model's distribution for the
    position at which ``pending_tokens[i]`` was emitted (conditioned on
    everything strictly before it). Returns ``None`` when no position
    violates the threshold; with ``alpha_rb = MAX_DISTANCE`` none does.
    """
    if len(pending_tokens) != len(large_dists):
        raise InvalidInputError("pending tokens and distributions must align")
    for i, (token, dist) in enumerate(zip(pending_tokens, large_dists)):
        if distance(token, dist) > config.alpha_rb:
            return i
    return None
