"""Token sampling strategies: greedy, nucleus (top-p), and temperature.

Determinism contract
--------------------
Greedy consumes no randomness and breaks argmax ties toward the lowest
token id. The stochastic strategies consume exactly one uniform draw from
the supplied generator per call and select by inverse CDF with candidate
tokens ordered by ascending token id. A decode run owns a single
``random.Random`` seeded from ``Sampler.seed``, so traces replay exactly.

The nucleus is drawn over its support alone, in id order. This is exactly
the draw over a full-length vector that is zero off the support: a zero
weight adds nothing to a partial sum, so the CDF at each support id is the
same, and the CDF is flat between them.
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


# Most nuclei are short: the mass is first summed over this many top tokens.
_HEAD = 32


def _nucleus(probs: np.ndarray, p: float) -> np.ndarray:
    """The nucleus of ``probs`` at mass ``p``, as token ids in rank order.

    cumsum adds left to right, the same sums a running Python total makes,
    so the cumsum of the head is the head of the full cumsum; the full one
    is taken only when the head's mass falls short of the target.
    """
    order = np.argsort(-probs, kind="stable")
    target = p - 1e-12
    mass = np.cumsum(probs[order[:_HEAD]])
    if mass[-1] < target:
        mass = np.cumsum(probs[order])
    size = int(np.searchsorted(mass, target, side="left")) + 1
    return order[:size]


def nucleus_support(probs: np.ndarray, p: float) -> list[int]:
    """Token ids of the smallest descending-probability prefix with mass >= p.

    Tokens are ranked by probability descending, ties broken toward the
    lowest id; tokens join the support until the cumulative mass reaches
    ``p`` (within a 1e-12 slack for float accumulation).
    """
    return _nucleus(probs, p).tolist()


def _inverse_cdf(weights: np.ndarray, u: float) -> int:
    """The first index whose normalized CDF over ``weights`` exceeds ``u``."""
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
        # the support in id order; see the module docstring for why this is exact
        support = np.sort(_nucleus(dist.probs, sampler.p))
        return int(support[_inverse_cdf(dist.probs[support], rng.random())])

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
