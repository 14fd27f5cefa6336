"""The abstract language-model interface.

A model is a pure function from a token prefix to a next-token
distribution. ``score_range``, the one method a model implements, scores a
contiguous run of positions of one sequence in a single logical invocation,
which is what lets a verifying model review many drafted tokens at the cost
of one weight load. Element ``i`` of ``score_range(y, start)`` is
``score_next(y[:start + i])``.

``score_range`` covers every prefix length from ``start`` through
``len(y)``, the empty prefix included when ``start`` is 0, so a verify of
``k`` drafted tokens after a committed prefix of length ``b`` is the single
call ``score_range(working, b)`` returning ``k + 1`` distributions. Only
the positions asked for are scored, mirroring an incremental (KV-cached)
verify.

Scoring validates its tokens. A plain sequence is checked on every call
(a list or tuple in C-speed passes), which costs O(len(y)) per call. A
``vocab.TokenSequence`` was validated once, as each token entered it, and
passes at once; the decode loops hold their working sequence as one, so a
step's cost does not grow with the sequence's length.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from .dist import ProbDist
from .errors import InvalidInputError
from .vocab import Vocabulary


class LanguageModel(ABC):
    """Pure next-token scorer over a fixed vocabulary.

    Implementations must be deterministic and stateless across calls:
    identical prefixes yield identical distributions. Models are immutable
    after construction and safe to share between concurrent decode runs.
    """

    @property
    @abstractmethod
    def vocabulary(self) -> Vocabulary:
        ...

    def score_next(self, prefix: Sequence[int]) -> ProbDist:
        """Next-token distribution conditioned on ``prefix`` (may be empty)."""
        return self.score_range(prefix, len(prefix))[0]

    @abstractmethod
    def score_range(self, sequence: Sequence[int], start: int) -> list[ProbDist]:
        """Distributions after each prefix ``sequence[:m]``, m=start..len(sequence).

        Returns ``len(sequence) - start + 1`` distributions. Raises when
        ``start`` lies outside ``0..len(sequence)`` or a token is out of
        range (``_check_range`` does both).
        """

    def _check_range(self, sequence: Sequence[int], start: int) -> None:
        """Validate ``sequence`` once and require ``0 <= start <= len(sequence)``."""
        if not isinstance(start, int) or not 0 <= start <= len(sequence):
            raise InvalidInputError(f"start {start!r} outside 0..len(sequence) = 0..{len(sequence)}")
        self.vocabulary.validate_sequence(sequence)
