"""Token sampling strategies: greedy, nucleus (top-p), and temperature.

Determinism contract
--------------------
Greedy consumes no randomness and breaks argmax ties toward the lowest
token id. The stochastic strategies consume exactly one uniform draw from
the supplied generator per call and select by inverse CDF with candidate
tokens ordered by ascending token id. A decode run owns a single
``random.Random`` seeded from ``Sampler.seed``, so traces replay exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .dist import ProbDist
from .errors import InvalidInputError

GREEDY = "greedy"
NUCLEUS = "nucleus"
TEMPERATURE = "temperature"


@dataclass(frozen=True)
class Sampler:
    """A sampling strategy specification.

    ``p`` is the nucleus mass threshold (used when ``kind == "nucleus"``),
    ``t`` the temperature (used when ``kind == "temperature"``), and
    ``seed`` seeds the per-run generator for the stochastic kinds.
    """

    kind: str = GREEDY
    p: float | None = None
    t: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (GREEDY, NUCLEUS, TEMPERATURE):
            raise InvalidInputError(f"unknown sampler kind {self.kind!r}")
        if self.kind == NUCLEUS and not (self.p is not None and 0.0 < self.p <= 1.0):
            raise InvalidInputError("nucleus sampling requires p in (0, 1]")
        if self.kind == TEMPERATURE and not (self.t is not None and self.t > 0.0):
            raise InvalidInputError("temperature sampling requires t > 0")

    @classmethod
    def greedy(cls) -> "Sampler":
        return cls(kind=GREEDY)

    @classmethod
    def nucleus(cls, p: float, seed: int = 0) -> "Sampler":
        return cls(kind=NUCLEUS, p=p, seed=seed)

    @classmethod
    def temperature(cls, t: float, seed: int = 0) -> "Sampler":
        return cls(kind=TEMPERATURE, t=t, seed=seed)

    @property
    def is_stochastic(self) -> bool:
        return self.kind != GREEDY


def nucleus_support(probs: np.ndarray, p: float) -> list[int]:
    """Token ids of the smallest descending-probability prefix with mass >= p.

    Tokens are ranked by probability descending, ties broken toward the
    lowest id; tokens join the support until the cumulative mass reaches
    ``p`` (within a 1e-12 slack for float accumulation).
    """
    order = np.argsort(-probs, kind="stable")
    # cumsum adds left to right, the same sums a running Python total makes
    mass = np.cumsum(probs[order])
    size = int(np.searchsorted(mass, p - 1e-12, side="left")) + 1
    return order[:size].tolist()


def _inverse_cdf(weights: np.ndarray, u: float) -> int:
    """Pick the first token id whose normalized CDF over ``weights`` exceeds ``u``.

    A zero weight adds nothing to a partial sum, so zeroing the tokens
    outside a support draws exactly as summing over the support alone.
    """
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)


def sample(dist: ProbDist, sampler: Sampler, rng: random.Random) -> int:
    """Draw a token id from ``dist`` according to ``sampler``.

    ``rng`` is the decode run's generator; exactly one ``rng.random()`` call
    is consumed for the stochastic kinds and none for greedy.
    """
    if sampler.kind == GREEDY:
        return dist.argmax()

    if sampler.kind == NUCLEUS:
        support = nucleus_support(dist.probs, sampler.p)
        weights = np.zeros_like(dist.probs)
        weights[support] = dist.probs[support]
        return _inverse_cdf(weights, rng.random())

    # temperature: reweight as probs**(1/t), computed in log space and
    # rescaled so the largest weight is 1 (a direct power underflows to an
    # all-zero vector at low temperatures); exact zeros stay zero
    weights = np.zeros_like(dist.probs)
    positive = dist.probs > 0
    log_w = np.log(dist.probs[positive]) / sampler.t
    weights[positive] = np.exp(log_w - log_w.max())
    return _inverse_cdf(weights, rng.random())


def multinomial(dist: ProbDist, rng: random.Random) -> int:
    """One inverse-CDF draw from ``dist`` itself (ascending token id order)."""
    return _inverse_cdf(dist.probs, rng.random())
