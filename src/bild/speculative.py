"""Rejection-sampling speculative decoding with a fixed draft window.

The small model drafts ``k`` tokens; the large model scores all drafted
positions plus one in a single parallel call. Draft token ``i`` is accepted
with probability ``min(1, p_L(t) / p_S(t))``, evaluated left to right. On
the first rejection the replacement token is drawn from the normalized
residual ``max(0, p_L - p_S)`` and the rest of the draft is discarded; if
every draft survives, one bonus token is drawn from the large model's
next-position distribution. With drafts sampled from the small model's
distribution this emits tokens whose marginal law is exactly the large
model's.

Randomness, in draw order per round: one draw per stochastic draft, one
uniform per acceptance test, one draw for the residual replacement or the
bonus token. Replacement and bonus draws always come from their
distributions directly (inverse CDF); the configurable sampler shapes only
the drafts, and greedy drafting makes the output biased.

The draft→verify→resolve loop is ``engine._collaborate``; this module
supplies its rules: a fixed window, a drafted end-of-sequence verified like
a full window (``WINDOW_CAP``), the acceptance test and the residual or
bonus draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .dist import PROB_FLOOR, ProbDist
from .engine import _collaborate
from .errors import InvalidInputError
from .models import LanguageModel
from .sampling import Sampler, multinomial
from .trace import WINDOW_CAP, DecodeResult, Rejection

# Drafts are sampled and verify distances computed inside ``engine``. These
# names stay importable here because ``perfbench``'s traced run rebinds them.
from .policies import distance  # noqa: F401
from .sampling import sample  # noqa: F401


@dataclass(frozen=True)
class SpecConfig:
    """Draft window size and run seed."""

    window: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise InvalidInputError("draft window must be >= 1")


def residual_dist(large_dist: ProbDist, small_dist: ProbDist) -> ProbDist:
    """Normalized element-wise ``max(0, p_L - p_S)``.

    Falls back to the large distribution in the degenerate case where the
    residual mass vanishes (possible only up to float rounding, since a
    rejection implies the large model undershoots the draft somewhere).
    """
    resid = np.maximum(0.0, large_dist.probs - small_dist.probs)
    total = float(resid.sum())
    if total <= 0.0:
        return large_dist
    return ProbDist(resid / total)


def speculative_decode(
    small: LanguageModel,
    large: LanguageModel,
    config: SpecConfig,
    prompt: Sequence[int],
    max_len: int,
    draft_sampler: Sampler | None = None,
) -> DecodeResult:
    """Draft-and-verify decode with stochastic acceptance.

    ``draft_sampler`` defaults to plain sampling from the small model's
    distribution (temperature 1), the mode for which the emitted tokens are
    an unbiased sample of the large model. The run's generator is seeded
    from ``config.seed``, whatever ``draft_sampler.seed`` says.
    """
    draft_sampler = replace(draft_sampler or Sampler.temperature(1.0), seed=config.seed)
    return _collaborate(
        small, large, prompt, max_len, draft_sampler,
        draft_cap=config.window,
        fallback=None,
        eos_reason=WINDOW_CAP,
        accept=_accepted_prefix,
        draw=_draw_large,
        undo=Rejection,
        extras={"greedy_draft_biased": True} if draft_sampler.kind == "greedy" else None,
    )


def _accepted_prefix(
    drafted: list[tuple[int, ProbDist]],
    large_dists: list[ProbDist],
    distances: tuple[float, ...],
    rng: random.Random,
) -> int:
    """Drafts kept: test each with probability ``min(1, p_L(t) / p_S(t))``; ``distances`` is unused."""
    for i, (token, small_dist) in enumerate(drafted):
        ratio = min(1.0, large_dists[i][token] / max(small_dist[token], PROB_FLOOR))
        if not rng.random() < ratio:
            return i
    return len(drafted)


def _draw_large(
    drafted: list[tuple[int, ProbDist]], large_dists: list[ProbDist], m: int, rng: random.Random
) -> int:
    """The residual resample at a rejected draft, or the bonus token after all."""
    if m < len(drafted):
        return multinomial(residual_dist(large_dists[m], drafted[m][1]), rng)
    return multinomial(large_dists[m], rng)
