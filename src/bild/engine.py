"""Decode loops: vanilla autoregressive, collaborative small/large, oracle
blend, and the ablation variants.

One draft→verify→resolve loop (``_collaborate``) serves BiLD and
speculative decoding. The small model drafts until a stop rule fires (a
draft cap, or a fallback predicate on its distribution), then the large
model scores every drafted position plus the next one in a single parallel
call. An acceptance rule keeps a prefix of the drafts, and a draw rule
commits one large-model token: a replacement where drafts were discarded,
otherwise a bonus token. ``bild_decode`` passes the confidence fallback and
the rollback rule; ``speculative.speculative_decode`` passes a fixed window
and the rejection test.

Randomness: each decode run owns one ``random.Random``, seeded from the
sampler here. Draws are consumed in generation order: one per stochastic
draft, one per rollback replacement, one per large append. Greedy runs
consume no randomness.

Budget semantics: drafting is bounded by the window cap, not by
``max_len``; the final sequence is truncated to ``max_len`` after the run.
Termination happens when the committed sequence ends with end-of-sequence
or reaches ``max_len``.

Working sequence: each loop keeps one ``vocab.TokenSequence``, seeded with
the prompt, which is validated once there. Every draft, replacement and
bonus token is appended to it; a verify truncates it to the prompt plus the
committed tokens before appending the replacement. Models are called with
that object, so they skip revalidating it, and a step's cost does not grow
with the sequence's length.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .dist import ProbDist
from .errors import InvalidInputError, VocabularyMismatchError
from .models import LanguageModel
from .policies import PolicyConfig, distance, find_rollback_position, should_fallback
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
from .vocab import TokenSequence

NO_ROLLBACK = "no_rollback"
FIXED_WINDOW_VARIANT = "fixed_window"


@dataclass
class GenerationState:
    """Working state of a collaborative run.

    ``committed`` tokens are final (with their provenance); ``pending``
    tokens were drafted by the small model and await verification, each
    stored with the exact distribution it was sampled from. The committed
    and pending tokens, in order, follow the prompt in the working sequence.
    """

    committed: list[tuple[int, str]] = field(default_factory=list)
    pending: list[tuple[int, ProbDist]] = field(default_factory=list)

    def working_length(self) -> int:
        return len(self.committed) + len(self.pending)


def _require_shared_vocabulary(small: LanguageModel, large: LanguageModel) -> None:
    if not small.vocabulary.compatible_with(large.vocabulary):
        raise VocabularyMismatchError(
            f"models disagree on vocabulary: size {small.vocabulary.size}/eos "
            f"{small.vocabulary.eos} vs size {large.vocabulary.size}/eos {large.vocabulary.eos}"
        )


def _working_sequence(model: LanguageModel, prompt: Sequence[int], max_len: int) -> TokenSequence:
    """Check the run's arguments; the working sequence, seeded with the prompt."""
    if max_len < 1:
        raise InvalidInputError("max_len must be >= 1")
    return TokenSequence(prompt, model.vocabulary)


class _Run:
    """Mutable bookkeeping shared by the decode loops."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
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
    context = _working_sequence(model, prompt, max_len)
    eos = model.vocabulary.eos
    run = _Run(sampler.seed)
    committed: list[tuple[int, str]] = []
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


def _collaborate(
    small: LanguageModel,
    large: LanguageModel,
    prompt: Sequence[int],
    max_len: int,
    sampler: Sampler,
    seed: int,
    *,
    draft_cap: int,
    fallback: Callable[[ProbDist], bool] | None,
    eos_reason: str | None,
    accept: Callable[..., int],
    draw: Callable[..., int],
    undo: type[Rollback],
    extras: dict | None = None,
) -> DecodeResult:
    """Draft with ``sampler``, verify with one ``large.score_range`` call, resolve.

    A handover happens with reason ``WINDOW_CAP`` once ``draft_cap`` drafts
    are pending, ``LOW_CONFIDENCE`` when ``fallback(small_dist)`` holds, and
    ``eos_reason`` right after a drafted end-of-sequence (``None`` commits
    the drafts unverified). Given the k drafts ``pending`` as (token, dist)
    pairs and the k+1 large ``dists``, ``accept(pending, dists, rng)`` is the
    number m of drafts kept and ``draw(pending, dists, m, rng)`` the large
    token at position m: a replacement (an ``undo`` event) when m < k, the
    bonus token when m == k.
    """
    _require_shared_vocabulary(small, large)
    working = _working_sequence(small, prompt, max_len)
    base = len(working)  # the prompt's length
    eos = small.vocabulary.eos
    run = _Run(seed)
    state = GenerationState()

    def handover(reason: str) -> None:
        run.trace.append(Fallback(state.working_length(), reason))
        run.fallback_count += 1
        run.large_calls += 1
        pending = state.pending
        k = len(pending)
        first = len(state.committed)
        # k+1 distributions: one per pending position plus the next position,
        # all from a single parallel scoring pass over the working sequence.
        dists = large.score_range(working, base + first)
        run.trace.append(
            LargeVerify(
                positions=tuple(range(first, first + k)),
                distances=tuple(distance(t, d) for (t, _), d in zip(pending, dists)),
            )
        )
        m = accept(pending, dists, run.rng)
        state.committed.extend((token, SMALL) for token, _ in pending[:m])
        if m < k:
            replacement = draw(pending, dists, m, run.rng)
            run.trace.append(undo(len(state.committed), k - m, replacement))
            working.truncate(base + len(state.committed))
            working.append(replacement)
            state.committed.append((replacement, LARGE))
            run.rollback_count += 1
            run.tokens_discarded += k - m
        elif not (state.committed and state.committed[-1][0] == eos):
            token = draw(pending, dists, k, run.rng)
            run.trace.append(LargeAppend(len(state.committed), token))
            state.committed.append((token, LARGE))
            working.append(token)
        pending.clear()

    while True:
        if state.committed and state.committed[-1][0] == eos:
            break
        if len(state.committed) >= max_len:
            break
        if len(state.pending) >= draft_cap:
            handover(WINDOW_CAP)
            continue
        small_dist = small.score_next(working)
        run.small_calls += 1
        if fallback is not None and fallback(small_dist):
            handover(LOW_CONFIDENCE)
            continue
        token = sample(small_dist, sampler, run.rng)
        run.trace.append(SmallStep(state.working_length(), token, small_dist.max_prob()))
        state.pending.append((token, small_dist))
        working.append(token)
        if token == eos:
            if eos_reason is not None:
                handover(eos_reason)
            else:
                state.committed.extend((tok, SMALL) for tok, _ in state.pending)
                state.pending.clear()

    return run.finalize(state.committed, eos, max_len, extras)


def bild_decode(
    small: LanguageModel,
    large: LanguageModel,
    config: PolicyConfig,
    sampler: Sampler,
    prompt: Sequence[int],
    max_len: int,
) -> DecodeResult:
    """Collaborative decode: small model drafts, large model verifies.

    The small model drafts until its max probability falls below
    ``alpha_fb`` or ``config.window_cap`` drafts are pending. A rollback
    discards drafts from the first position whose distance exceeds
    ``alpha_rb`` and commits the large model's replacement there; otherwise
    the large model appends one token. A drafted end-of-sequence token ends
    the run unverified unless ``config.verify_eos`` is set.
    """

    # The rules look ``should_fallback``, ``find_rollback_position`` and
    # ``sample`` up in this module at call time, so instrumentation that
    # rebinds those names sees every call.
    def keep(pending, dists, rng) -> int:
        m = find_rollback_position([t for t, _ in pending], dists[:-1], config)
        return len(pending) if m is None else m

    return _collaborate(
        small, large, prompt, max_len, sampler, sampler.seed,
        draft_cap=config.window_cap,
        fallback=lambda dist: should_fallback(dist, config),
        eos_reason=FORCED if config.verify_eos else None,
        accept=keep,
        draw=lambda pending, dists, m, rng: sample(dists[m], sampler, rng),
        undo=Rollback,
    )


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
    context = _working_sequence(small, prompt, max_len)
    eos = small.vocabulary.eos
    run = _Run(sampler.seed)
    committed: list[tuple[int, str]] = []
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
    """Run a policy-ablated collaborative decode: ``bild_decode`` at other thresholds.

    ``"no_rollback"`` keeps the fallback rule but never discards verified
    drafts (``alpha_rb = MAX_DISTANCE``); ``"fixed_window"`` replaces the
    confidence rule with an unconditional handover after exactly ``k``
    drafts (``alpha_fb = 0``, ``window_cap = k``; rollback retained).
    """
    if variant == NO_ROLLBACK:
        return bild_decode(small, large, config.without_rollback(), sampler, prompt, max_len)
    if variant == FIXED_WINDOW_VARIANT:
        if k is None:
            raise InvalidInputError("fixed_window ablation requires k")
        return bild_decode(small, large, config.with_fixed_window(k), sampler, prompt, max_len)
    raise InvalidInputError(f"unknown ablation variant {variant!r}")
