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

Randomness: each decode run owns one ``random.Random``, seeded from its
sampler's ``seed``. Draws are consumed in generation order: one per stochastic
draft, one per rollback replacement, one per large append. Greedy runs
consume no randomness.

Budget semantics: drafting is bounded by the window cap, not by
``max_len``; the final sequence is truncated to ``max_len`` after the run.
Termination happens when the committed sequence ends with end-of-sequence
or reaches ``max_len``.

Working sequence: a run's tokens live only in its ``_Run``. ``working`` is
one ``vocab.TokenSequence``: the prompt (validated once there), then the
committed tokens, then the drafts awaiting verification; ``provenance``
records which model wrote each committed token. Every draft, replacement
and bonus token is appended to ``working``; a rollback truncates it to the
prompt plus the committed tokens before appending the replacement. Models
are called with that object, so they skip revalidating it, and a step's
cost does not grow with the sequence's length. Every decode function,
``oracle_blend_decode`` included, returns a ``DecodeResult``.
"""

from __future__ import annotations

import random
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


def _require_shared_vocabulary(small: LanguageModel, large: LanguageModel) -> None:
    if not small.vocabulary.compatible_with(large.vocabulary):
        raise VocabularyMismatchError(
            f"models disagree on vocabulary: size {small.vocabulary.size}/eos "
            f"{small.vocabulary.eos} vs size {large.vocabulary.size}/eos {large.vocabulary.eos}"
        )


class _Run:
    """One decode run: its working sequence, provenance, rng and counts.

    ``working`` holds the prompt (``base`` tokens), then the committed
    tokens, one per entry of ``provenance``, then any drafts still pending.
    """

    def __init__(self, model: LanguageModel, prompt: Sequence[int], max_len: int, seed: int) -> None:
        if max_len < 1:
            raise InvalidInputError("max_len must be >= 1")
        self.working = TokenSequence(prompt, model.vocabulary)
        self.base = len(self.working)
        self.provenance: list[str] = []
        self.eos = model.vocabulary.eos
        self.max_len = max_len
        self.rng = random.Random(seed)
        self.trace: list[TraceEvent] = []
        self.fallback_count = 0
        self.rollback_count = 0
        self.tokens_discarded = 0
        self.small_calls = 0
        self.large_calls = 0

    def commit(self, token: int, source: str) -> None:
        self.working.append(token)
        self.provenance.append(source)

    def ended(self) -> bool:
        """Whether the committed tokens end with end-of-sequence."""
        n = len(self.provenance)
        return n > 0 and self.working[self.base + n - 1] == self.eos

    def done(self) -> bool:
        """The stop test: ``max_len`` tokens committed, or end-of-sequence."""
        return len(self.provenance) >= self.max_len or self.ended()

    def finalize(self, extras: dict | None = None) -> DecodeResult:
        n = min(len(self.provenance), self.max_len)
        sequence = self.working[self.base : self.base + n]
        provenance = self.provenance[:n]
        if sequence and sequence[-1] == self.eos:
            self.trace.append(Eos(n - 1))
        counters = Counters(
            small_tokens=provenance.count(SMALL),
            large_tokens=provenance.count(LARGE),
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
    run = _Run(model, prompt, max_len, sampler.seed)
    while not run.done():
        dist = model.score_next(run.working)
        run.small_calls += 1
        token = sample(dist, sampler, run.rng)
        run.trace.append(SmallStep(len(run.provenance), token, dist.max_prob()))
        run.commit(token, SMALL)
    return run.finalize()


def _collaborate(
    small: LanguageModel,
    large: LanguageModel,
    prompt: Sequence[int],
    max_len: int,
    sampler: Sampler,
    *,
    draft_cap: int,
    fallback: Callable[[float], bool] | None,
    eos_reason: str | None,
    accept: Callable[..., int],
    draw: Callable[..., int],
    undo: type[Rollback],
    extras: dict | None = None,
) -> DecodeResult:
    """Draft with ``sampler``, verify with one ``large.score_range`` call, resolve.

    A handover happens with reason ``WINDOW_CAP`` once ``draft_cap`` drafts
    are pending, ``LOW_CONFIDENCE`` when ``fallback(max_prob)`` holds for the
    small model's max probability, and ``eos_reason`` right after a drafted
    end-of-sequence (``None`` commits the drafts unverified). Given the k
    drafts ``pending`` as (token, dist) pairs, the k+1 large ``dists`` and the
    drafts' k ``distances``, ``accept(pending, dists, distances, rng)`` is the
    number m of drafts kept and ``draw(pending, dists, m, rng)`` the large
    token at position m: a replacement (an ``undo`` event) when m < k, the
    bonus token when m == k.
    """
    _require_shared_vocabulary(small, large)
    run = _Run(small, prompt, max_len, sampler.seed)
    working, provenance = run.working, run.provenance
    # the drafts after the committed tokens, each with the distribution it was sampled from
    pending: list[tuple[int, ProbDist]] = []

    def handover(reason: str) -> None:
        first = len(provenance)
        k = len(pending)
        run.trace.append(Fallback(first + k, reason))
        run.fallback_count += 1
        run.large_calls += 1
        # k+1 distributions: one per pending position plus the next position,
        # all from a single parallel scoring pass over the working sequence.
        dists = large.score_range(working, run.base + first)
        distances = tuple(distance(t, d) for (t, _), d in zip(pending, dists))
        run.trace.append(LargeVerify(positions=tuple(range(first, first + k)), distances=distances))
        m = accept(pending, dists, distances, run.rng)
        provenance.extend([SMALL] * m)
        if m < k:
            replacement = draw(pending, dists, m, run.rng)
            run.trace.append(undo(first + m, k - m, replacement))
            working.truncate(run.base + first + m)
            run.commit(replacement, LARGE)
            run.rollback_count += 1
            run.tokens_discarded += k - m
        elif not run.ended():
            token = draw(pending, dists, k, run.rng)
            run.trace.append(LargeAppend(first + k, token))
            run.commit(token, LARGE)
        pending.clear()

    while not run.done():
        if len(pending) >= draft_cap:
            handover(WINDOW_CAP)
            continue
        small_dist = small.score_next(working)
        run.small_calls += 1
        max_prob = small_dist.max_prob()
        if fallback is not None and fallback(max_prob):
            handover(LOW_CONFIDENCE)
            continue
        token = sample(small_dist, sampler, run.rng)
        run.trace.append(SmallStep(len(working) - run.base, token, max_prob))
        pending.append((token, small_dist))
        working.append(token)
        if token == run.eos:
            if eos_reason is not None:
                handover(eos_reason)
            else:
                provenance.extend([SMALL] * len(pending))
                pending.clear()

    return run.finalize(extras)


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
    def keep(pending, dists, distances, rng) -> int:
        m = find_rollback_position(distances, config)
        return len(pending) if m is None else m

    return _collaborate(
        small, large, prompt, max_len, sampler,
        draft_cap=config.window_cap,
        fallback=lambda max_prob: should_fallback(max_prob, config),
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
) -> DecodeResult:
    """Idealized both-models-every-step decode for engagement analysis.

    The small model's sampled token is kept unless the large model assigns
    it probability strictly below ``likelihood_threshold``, in which case
    the large model's own sample replaces it. ``extras["engagement"]`` is
    the fraction of positions the large model wrote.
    """
    if not 0.0 <= likelihood_threshold <= 1.0:
        raise InvalidInputError("likelihood_threshold must lie in [0, 1]")
    _require_shared_vocabulary(small, large)
    run = _Run(small, prompt, max_len, sampler.seed)
    while not run.done():
        small_dist = small.score_next(run.working)
        large_dist = large.score_next(run.working)
        run.small_calls += 1
        run.large_calls += 1
        token = sample(small_dist, sampler, run.rng)
        if large_dist[token] < likelihood_threshold:
            token = sample(large_dist, sampler, run.rng)
            run.trace.append(LargeAppend(len(run.provenance), token))
            run.commit(token, LARGE)
        else:
            run.trace.append(SmallStep(len(run.provenance), token, small_dist.max_prob()))
            run.commit(token, SMALL)
    engagement = run.provenance.count(LARGE) / len(run.provenance)
    return run.finalize({"engagement": engagement})


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
