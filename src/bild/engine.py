"""Decode loops: vanilla autoregressive, collaborative small/large, oracle
blend, and the ablation variants.

The collaborative loop (``bild_decode``) lets the small model draft tokens
autoregressively until it loses confidence or hits the window cap, then
hands control to the large model, which scores every drafted position plus
the next one in a single parallel call. Drafts that diverge too far from
the large model's judgment are rolled back from the first offending
position; otherwise the drafts are committed and the large model appends
one token from the distribution it already computed.

Randomness: each decode run owns one ``random.Random`` seeded from the
sampler. Draws are consumed in generation order: one per stochastic draft,
one per rollback replacement, one per large append. Greedy runs consume no
randomness.

Budget semantics: drafting is bounded by the window cap, not by
``max_len``; the final sequence is truncated to ``max_len`` after the run.
Termination happens when the committed sequence ends with end-of-sequence
or reaches ``max_len``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from .dist import ProbDist
from .errors import InvalidInputError, VocabularyMismatchError
from .models import LanguageModel
from .policies import CONFIDENCE, PolicyConfig, distance, find_rollback_position, should_fallback
from .sampling import Sampler, sample
from .trace import (
    FORCED,
    LARGE,
    LOW_CONFIDENCE,
    SMALL,
    WINDOW_CAP,
    Counters,
    DecodeResult,
    Eos,
    Fallback,
    LargeAppend,
    LargeVerify,
    Rollback,
    SmallStep,
    TraceEvent,
)

NO_ROLLBACK = "no_rollback"
FIXED_WINDOW_VARIANT = "fixed_window"


@dataclass
class GenerationState:
    """Working state of a collaborative run.

    ``committed`` tokens are final (with their provenance); ``pending``
    tokens were drafted by the small model and await verification, each
    stored with the exact distribution it was sampled from. The committed
    and pending tokens, in order, form the current working sequence.
    """

    committed: list[tuple[int, str]] = field(default_factory=list)
    pending: list[tuple[int, ProbDist]] = field(default_factory=list)

    @property
    def steps_since_fallback(self) -> int:
        # Drafts accumulate only between handovers, so the pending length
        # is exactly the number of small steps since the last fallback.
        return len(self.pending)

    def working_length(self) -> int:
        return len(self.committed) + len(self.pending)

    def tokens(self) -> list[int]:
        return [t for t, _ in self.committed] + [t for t, _ in self.pending]


def _require_shared_vocabulary(small: LanguageModel, large: LanguageModel) -> None:
    if not small.vocabulary.compatible_with(large.vocabulary):
        raise VocabularyMismatchError(
            f"models disagree on vocabulary: size {small.vocabulary.size}/eos "
            f"{small.vocabulary.eos} vs size {large.vocabulary.size}/eos {large.vocabulary.eos}"
        )


def _validate_run_args(model: LanguageModel, prompt: Sequence[int], max_len: int) -> None:
    if max_len < 1:
        raise InvalidInputError("max_len must be >= 1")
    model.vocabulary.validate_sequence(prompt)


class _Run:
    """Mutable bookkeeping shared by the decode loops."""

    def __init__(self, sampler: Sampler) -> None:
        self.rng = random.Random(sampler.seed)
        self.sampler = sampler
        self.trace: list[TraceEvent] = []
        self.fallback_count = 0
        self.rollback_count = 0
        self.tokens_discarded = 0
        self.small_calls = 0
        self.large_calls = 0

    def finalize(
        self,
        committed: list[tuple[int, str]],
        eos: int,
        max_len: int,
        extras: dict | None = None,
    ) -> DecodeResult:
        committed = committed[:max_len]
        sequence = [t for t, _ in committed]
        provenance = [p for _, p in committed]
        if sequence and sequence[-1] == eos:
            self.trace.append(Eos(len(sequence) - 1))
        counters = Counters(
            small_tokens=sum(1 for p in provenance if p == SMALL),
            large_tokens=sum(1 for p in provenance if p == LARGE),
            fallback_count=self.fallback_count,
            rollback_count=self.rollback_count,
            tokens_discarded=self.tokens_discarded,
            small_calls=self.small_calls,
            large_calls=self.large_calls,
        )
        return DecodeResult(
            sequence=sequence,
            provenance=provenance,
            trace=self.trace,
            counters=counters,
            extras=extras or {},
        )


def vanilla_decode(
    model: LanguageModel,
    prompt: Sequence[int],
    sampler: Sampler,
    max_len: int,
) -> DecodeResult:
    """Plain autoregressive decoding: one model call per emitted token."""
    _validate_run_args(model, prompt, max_len)
    eos = model.vocabulary.eos
    run = _Run(sampler)
    committed: list[tuple[int, str]] = []
    context = list(prompt)
    while len(committed) < max_len:
        dist = model.score_next(context)
        run.small_calls += 1
        token = sample(dist, sampler, run.rng)
        run.trace.append(SmallStep(len(committed), token, dist.max_prob()))
        committed.append((token, SMALL))
        context.append(token)
        if token == eos:
            break
    return run.finalize(committed, eos, max_len)


def bild_decode(
    small: LanguageModel,
    large: LanguageModel,
    config: PolicyConfig,
    sampler: Sampler,
    prompt: Sequence[int],
    max_len: int,
) -> DecodeResult:
    """Collaborative decode: small model drafts, large model verifies.

    Each loop iteration either drafts one small-model token or performs a
    handover (fallback), in which the large model scores all pending
    drafted positions plus the next position in one parallel call. A
    rollback discards drafts from the first position whose distance
    exceeds the threshold and commits the large model's replacement there;
    otherwise all drafts are committed and the large model appends one
    token. A confidently drafted end-of-sequence token terminates the run
    without a final verification unless ``config.verify_eos`` is set.
    """
    _require_shared_vocabulary(small, large)
    _validate_run_args(small, prompt, max_len)
    eos = small.vocabulary.eos
    run = _Run(sampler)
    state = GenerationState()
    prompt = list(prompt)

    def handover(reason: str) -> None:
        run.trace.append(Fallback(state.working_length(), reason))
        run.fallback_count += 1
        run.large_calls += 1
        k = len(state.pending)
        # k+1 distributions: one per pending position plus the next position,
        # all from a single parallel scoring pass over the working sequence.
        dists = large.score_range(prompt + state.tokens(), len(prompt) + len(state.committed))
        pending_tokens = [t for t, _ in state.pending]
        pending_dists = dists[:k]
        next_dist = dists[k]
        first = len(state.committed)
        run.trace.append(
            LargeVerify(
                positions=tuple(range(first, first + k)),
                distances=tuple(distance(t, d) for t, d in zip(pending_tokens, pending_dists)),
            )
        )
        m = find_rollback_position(pending_tokens, pending_dists, config)
        if m is not None:
            for token, _ in state.pending[:m]:
                state.committed.append((token, SMALL))
            replacement = sample(pending_dists[m], sampler, run.rng)
            run.trace.append(Rollback(len(state.committed), k - m, replacement))
            state.committed.append((replacement, LARGE))
            run.rollback_count += 1
            run.tokens_discarded += k - m
        else:
            for token, _ in state.pending:
                state.committed.append((token, SMALL))
            if not (state.committed and state.committed[-1][0] == eos):
                token = sample(next_dist, sampler, run.rng)
                run.trace.append(LargeAppend(len(state.committed), token))
                state.committed.append((token, LARGE))
        state.pending.clear()

    while True:
        if state.committed and state.committed[-1][0] == eos:
            break
        if len(state.committed) >= max_len:
            break
        if state.pending and len(state.pending) >= config.draft_cap:
            handover(WINDOW_CAP)
            continue
        small_dist = small.score_next(prompt + state.tokens())
        run.small_calls += 1
        if config.fallback_mode == CONFIDENCE and should_fallback(small_dist, config):
            handover(LOW_CONFIDENCE)
            continue
        token = sample(small_dist, sampler, run.rng)
        run.trace.append(SmallStep(state.working_length(), token, small_dist.max_prob()))
        state.pending.append((token, small_dist))
        if token == eos:
            if config.verify_eos:
                handover(FORCED)
            else:
                for tok, _ in state.pending:
                    state.committed.append((tok, SMALL))
                state.pending.clear()

    return run.finalize(state.committed, eos, max_len)


def oracle_blend_decode(
    small: LanguageModel,
    large: LanguageModel,
    likelihood_threshold: float,
    sampler: Sampler,
    prompt: Sequence[int],
    max_len: int,
) -> tuple[DecodeResult, float]:
    """Idealized both-models-every-step decode for engagement analysis.

    The small model's sampled token is kept unless the large model assigns
    it probability strictly below ``likelihood_threshold``, in which case
    the large model's own sample replaces it. Returns the result and the
    engagement fraction (replaced positions over total positions).
    """
    if not 0.0 <= likelihood_threshold <= 1.0:
        raise InvalidInputError("likelihood_threshold must lie in [0, 1]")
    _require_shared_vocabulary(small, large)
    _validate_run_args(small, prompt, max_len)
    eos = small.vocabulary.eos
    run = _Run(sampler)
    committed: list[tuple[int, str]] = []
    context = list(prompt)
    replaced = 0
    while len(committed) < max_len:
        small_dist = small.score_next(context)
        large_dist = large.score_next(context)
        run.small_calls += 1
        run.large_calls += 1
        token = sample(small_dist, sampler, run.rng)
        if large_dist[token] < likelihood_threshold:
            token = sample(large_dist, sampler, run.rng)
            run.trace.append(LargeAppend(len(committed), token))
            committed.append((token, LARGE))
            replaced += 1
        else:
            run.trace.append(SmallStep(len(committed), token, small_dist.max_prob()))
            committed.append((token, SMALL))
        context.append(token)
        if token == eos:
            break
    engagement = replaced / len(committed) if committed else 0.0
    result = run.finalize(committed, eos, max_len, extras={"engagement": engagement})
    return result, engagement


def ablation_decode(
    variant: str,
    small: LanguageModel,
    large: LanguageModel,
    config: PolicyConfig,
    sampler: Sampler,
    prompt: Sequence[int],
    max_len: int,
    *,
    k: int | None = None,
) -> DecodeResult:
    """Run a policy-ablated collaborative decode.

    ``"no_rollback"`` keeps the fallback rule but never discards verified
    drafts; ``"fixed_window"`` replaces the confidence rule with an
    unconditional handover after exactly ``k`` drafts (rollback retained).
    """
    if variant == NO_ROLLBACK:
        return bild_decode(small, large, config.without_rollback(), sampler, prompt, max_len)
    if variant == FIXED_WINDOW_VARIANT:
        k = k if k is not None else config.fixed_window_k
        if k is None:
            raise InvalidInputError("fixed_window ablation requires k")
        return bild_decode(small, large, config.with_fixed_window(k), sampler, prompt, max_len)
    raise InvalidInputError(f"unknown ablation variant {variant!r}")
