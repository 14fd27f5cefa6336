"""Measured work equals modeled work.

``costmodel.step_cost`` charges a large-model verify for its k drafted
positions plus the next one. These tests count the distributions the large
model actually returns and require that count to equal the sum of k+1 over
the trace's ``LargeVerify`` events, for every verify-based decoder. The
counts are exact, so they gate the scoring work independently of the
machine's speed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Sequence

import pytest

from bild import PolicyConfig, Sampler, SpecConfig, bild_decode, speculative_decode
from bild.dist import ProbDist
from bild.engine import FIXED_WINDOW_VARIANT, NO_ROLLBACK, ablation_decode
from bild.models import LanguageModel
from bild.trace import LargeVerify
from bild.vocab import Vocabulary
from conftest import random_model_pair


class CountingModel(LanguageModel):
    """Delegates scoring to ``inner`` and counts the distributions returned."""

    def __init__(self, inner: LanguageModel) -> None:
        self.inner = inner
        self.positions = 0

    @property
    def vocabulary(self) -> Vocabulary:
        return self.inner.vocabulary

    def score_next(self, prefix: Sequence[int]) -> ProbDist:
        self.positions += 1
        return self.inner.score_next(prefix)

    def score_range(self, sequence: Sequence[int], start: int) -> list[ProbDist]:
        dists = self.inner.score_range(sequence, start)
        self.positions += len(dists)
        return dists


def modeled_positions(result) -> int:
    return sum(len(e.positions) + 1 for e in result.trace if isinstance(e, LargeVerify))


CONFIG = PolicyConfig(alpha_fb=0.5, alpha_rb=1.0, window_cap=4)
MAX_LEN = 24


def _nucleus(seed: int) -> Sampler:
    return Sampler.nucleus(0.9, seed=seed)


# strategy -> decode(small, large, prompt, seed)
DECODERS = {
    "bild": lambda s, l, p, seed: bild_decode(s, l, CONFIG, _nucleus(seed), p, MAX_LEN),
    "bild_verify_eos": lambda s, l, p, seed: bild_decode(
        s, l, replace(CONFIG, verify_eos=True), _nucleus(seed), p, MAX_LEN
    ),
    NO_ROLLBACK: lambda s, l, p, seed: ablation_decode(
        NO_ROLLBACK, s, l, CONFIG, _nucleus(seed), p, MAX_LEN
    ),
    FIXED_WINDOW_VARIANT: lambda s, l, p, seed: ablation_decode(
        FIXED_WINDOW_VARIANT, s, l, CONFIG, _nucleus(seed), p, MAX_LEN, k=3
    ),
    "speculative": lambda s, l, p, seed: speculative_decode(
        s, l, SpecConfig(window=3, seed=seed), p, MAX_LEN
    ),
}


@pytest.mark.parametrize("strategy", sorted(DECODERS))
def test_large_model_scores_exactly_the_modeled_positions(strategy):
    verifies = 0
    for seed in range(20):
        vocab, small, large = random_model_pair(seed)
        rng = random.Random(seed)
        # the empty prompt puts the first verify at prefix length 0
        for prompt in ([], [rng.randrange(vocab.size - 1) for _ in range(rng.randint(1, 5))]):
            counted = CountingModel(large)
            result = DECODERS[strategy](small, counted, prompt, seed)
            assert counted.positions == modeled_positions(result), (seed, prompt)
            verifies += result.counters.large_calls
    assert verifies > 0
