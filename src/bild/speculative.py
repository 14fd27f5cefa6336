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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dist import PROB_FLOOR, ProbDist
from .engine import _require_shared_vocabulary, _validate_run_args, _Run
from .errors import InvalidInputError
from .models import LanguageModel
from .policies import distance
from .sampling import Sampler, multinomial, sample
from .trace import (
    LARGE,
    SMALL,
    WINDOW_CAP,
    DecodeResult,
    Fallback,
    LargeAppend,
    LargeVerify,
    Rejection,
    SmallStep,
)


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
    from ``config.seed``.
    """
    _require_shared_vocabulary(small, large)
    _validate_run_args(small, prompt, max_len)
    if draft_sampler is None:
        draft_sampler = Sampler.temperature(1.0, seed=config.seed)
    eos = small.vocabulary.eos
    run = _Run(draft_sampler)
    run.rng = random.Random(config.seed)
    committed: list[tuple[int, str]] = []
    prompt = list(prompt)

    while len(committed) < max_len:
        if committed and committed[-1][0] == eos:
            break
        base = prompt + [t for t, _ in committed]
        # Draft up to `window` tokens, stopping early at end-of-sequence.
        drafted: list[tuple[int, ProbDist]] = []
        context = list(base)
        for _ in range(config.window):
            dist = small.score_next(context)
            run.small_calls += 1
            token = sample(dist, draft_sampler, run.rng)
            run.trace.append(
                SmallStep(len(committed) + len(drafted), token, dist.max_prob())
            )
            drafted.append((token, dist))
            context.append(token)
            if token == eos:
                break

        d = len(drafted)
        run.trace.append(Fallback(len(committed) + d, WINDOW_CAP))
        run.fallback_count += 1
        run.large_calls += 1
        large_dists = large.score_range(base + [t for t, _ in drafted], len(base))
        first = len(committed)
        run.trace.append(
            LargeVerify(
                positions=tuple(range(first, first + d)),
                distances=tuple(
                    distance(t, ld) for (t, _), ld in zip(drafted, large_dists)
                ),
            )
        )

        rejected_at: int | None = None
        for i, (token, small_dist) in enumerate(drafted):
            ratio = min(
                1.0, large_dists[i][token] / max(small_dist[token], PROB_FLOOR)
            )
            if run.rng.random() < ratio:
                committed.append((token, SMALL))
            else:
                rejected_at = i
                break

        if rejected_at is not None:
            replacement = multinomial(
                residual_dist(large_dists[rejected_at], drafted[rejected_at][1]), run.rng
            )
            run.trace.append(
                Rejection(len(committed), d - rejected_at, replacement)
            )
            committed.append((replacement, LARGE))
            run.rollback_count += 1
            run.tokens_discarded += d - rejected_at
        elif not (committed and committed[-1][0] == eos):
            bonus = multinomial(large_dists[d], run.rng)
            run.trace.append(LargeAppend(len(committed), bonus))
            committed.append((bonus, LARGE))

    extras = {}
    if draft_sampler.kind == "greedy":
        extras["greedy_draft_biased"] = True
    return run.finalize(committed, eos, max_len, extras=extras)
