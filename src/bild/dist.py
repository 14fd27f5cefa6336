"""Probability distributions over a finite token vocabulary.

A ``ProbDist`` is a validated, read-only vector of probabilities. All model
scoring APIs return these, and every policy decision consumes them. Any
probability fed to a logarithm anywhere in the package is first clamped to
``PROB_FLOOR`` so log-domain quantities stay finite and bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# Floor applied to probabilities before logarithms. Keeps the rollback
# distance metric finite: values are bounded by -ln(PROB_FLOOR).
PROB_FLOOR = 1e-12

# Absolute tolerance on the total mass of a valid distribution.
NORMALIZATION_ATOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProbDist:
    """A normalized probability vector over token ids ``0..V-1``.

    Entries must be non-negative and sum to 1 within ``NORMALIZATION_ATOL``.
    The underlying array is made read-only; instances are safe to share.
    """

    probs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.array(self.probs, dtype=np.float64)  # the private copy
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidInputError("probability vector must be 1-D and non-empty")
        # One reduction each in the common case: a NaN, negative or infinite
        # entry leaves ``total`` non-finite. Only then does the entry-wise
        # scan run, to choose the message; a finite vector whose sum
        # overflows passes it and fails the sum check.
        total = float(arr.sum()) if arr.min() >= 0.0 else math.nan
        if not math.isfinite(total):
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise InvalidInputError("probabilities must be finite and non-negative")
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise InvalidInputError(f"probabilities must sum to 1, got {total!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return int(self.probs.size)

    def __getitem__(self, token: int) -> float:
        return float(self.probs[token])

    def max_prob(self) -> float:
        """The largest probability in the distribution."""
        return float(self.probs.max())

    def argmax(self) -> int:
        """Token id of the largest probability; ties go to the lowest id."""
        return int(np.argmax(self.probs))

    def to_list(self) -> list[float]:
        return [float(p) for p in self.probs]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ProbDist({self.to_list()})"


def floored_log(p: float) -> float:
    """``ln(p)`` with the probability clamped to ``PROB_FLOOR`` first."""
    return math.log(max(p, PROB_FLOOR))
