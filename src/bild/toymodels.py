"""Deterministic toy language models and the prediction-alignment recipe.

``TableLM`` maps exact prefixes to stored distributions and is the main
test oracle. ``NgramLM`` is a Laplace-smoothed n-gram model fit from a
corpus; it stands in for the trained small/large models at desk scale.
``align_small`` refits a small n-gram model on the large model's greedy
generations so the two models disagree less, mirroring how a drafting
model is fine-tuned on the verifying model's outputs.
"""

from __future__ import annotations

import gc
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .dist import ProbDist
from .engine import vanilla_decode
from .errors import InvalidInputError
from .jsondoc import load_json, read_dataclass, read_text
from .models import LanguageModel
from .sampling import Sampler
from .vocab import EMPTY_SEQUENCE_MARK, Vocabulary

# Begin-of-sequence context padding: a reserved id outside the vocabulary,
# used only inside n-gram context tuples, never predicted.
BOS = -1

DEFAULT_ROW_MARK = "DEFAULT"


class TableLM(LanguageModel):
    """Lookup-table model: exact prefix -> stored distribution.

    Unlisted prefixes fall through to ``default_row``.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        rows: dict[tuple[int, ...], ProbDist],
        default_row: ProbDist,
    ) -> None:
        for ctx, row in rows.items():
            vocabulary.validate_sequence(ctx)
            if len(row) != vocabulary.size:
                raise InvalidInputError("table row length must equal vocabulary size")
        if len(default_row) != vocabulary.size:
            raise InvalidInputError("default row length must equal vocabulary size")
        self._vocabulary = vocabulary
        self._rows = dict(rows)
        self._default_row = default_row
        self._longest = max(map(len, self._rows), default=0)

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def default_row(self) -> ProbDist:
        return self._default_row

    def score_range(self, sequence: Sequence[int], start: int) -> list[ProbDist]:
        self._check_range(sequence, start)
        # No stored context is longer than self._longest, so longer prefixes
        # take the default row and only the head up to it is copied.
        head = tuple(sequence[: self._longest])
        stop = len(head) + 1
        rows = [self._rows.get(head[:m], self._default_row) for m in range(start, stop)]
        return rows + [self._default_row] * (len(sequence) + 1 - max(start, stop))


def load_table_lm(path: str | Path, vocabulary: Vocabulary) -> TableLM:
    """Parse a table-model file.

    One record per line: ``<context tokens or -> | <p_0> ... <p_{V-1}>``.
    A ``DEFAULT`` context row is required and covers unlisted prefixes.
    """
    rows: dict[tuple[int, ...], ProbDist] = {}
    default_row: ProbDist | None = None
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "|" not in line:
                raise InvalidInputError("expected '<context> | <probs>'")
            ctx_part, probs_part = line.split("|", 1)
            probs = [float(x) for x in probs_part.split()]
            if len(probs) != vocabulary.size:
                raise InvalidInputError(f"expected {vocabulary.size} probabilities, got {len(probs)}")
            dist = ProbDist(np.array(probs))
            ctx_part = ctx_part.strip()
            if ctx_part == DEFAULT_ROW_MARK:
                default_row = dist
            elif ctx_part in ("", EMPTY_SEQUENCE_MARK):
                rows[()] = dist
            else:
                rows[tuple(vocabulary.id_of(s) for s in ctx_part.split())] = dist
        except ValueError as e:  # from float() or any check above (InvalidInputError is one)
            raise InvalidInputError(f"{path}:{lineno}: {e}") from None
    if default_row is None:
        raise InvalidInputError(f"{path}: missing required DEFAULT row")
    return TableLM(vocabulary, rows, default_row)


@dataclass(frozen=True)
class _NgramDocument:
    """The fields of an n-gram JSON document; ``eos`` is needed only without a vocabulary file."""

    order: int
    smoothing: float
    vocab_size: int
    counts: list
    eos: int | None = None


class NgramLM(LanguageModel):
    """Laplace-smoothed n-gram model.

    The conditional probability of token ``t`` after context ``c`` is
    ``(count(c, t) + smoothing) / (total(c) + smoothing * V)``. Contexts
    shorter than ``order - 1`` are padded on the left with ``BOS``.
    """

    def __init__(
        self,
        vocabulary: Vocabulary,
        order: int,
        smoothing: float,
        counts: dict[tuple[tuple[int, ...], int], int],
    ) -> None:
        if order < 1:
            raise InvalidInputError("order must be >= 1")
        if not (math.isfinite(smoothing) and smoothing > 0):
            raise InvalidInputError(f"smoothing must be finite and > 0, got {smoothing!r}")
        self._vocabulary = vocabulary
        self.order = order
        self.smoothing = float(smoothing)
        # The observed (token ids, counts) of each context, in first-seen order.
        self._rows: dict[tuple[int, ...], tuple[list[int], list[int]]] = {}
        v, width = vocabulary.size, order - 1
        for (ctx, tok), c in counts.items():
            if type(c) is not int or c < 0:
                raise InvalidInputError(f"n-gram count {c!r} is not a non-negative integer")
            if type(tok) is not int or not 0 <= tok < v:
                raise InvalidInputError(f"n-gram token id {tok!r} is not an integer in [0, {v})")
            row = self._rows.get(ctx)
            if row is None:  # first count of this context: check it once
                if len(ctx) != width or not all(type(t) is int and BOS <= t < v for t in ctx):
                    raise InvalidInputError(
                        f"n-gram context {ctx!r} must hold order - 1 = {width} ids, "
                        f"each in [0, {v}) or BOS ({BOS})"
                    )
                row = self._rows[ctx] = ([], [])
            row[0].append(tok)
            row[1].append(c)

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    @property
    def counts(self) -> dict[tuple[tuple[int, ...], int], int]:
        """Every ``(context, token) -> count`` entry, as a fresh dict."""
        return {(ctx, t): c for ctx, (ids, counts) in self._rows.items() for t, c in zip(ids, counts)}

    def score_range(self, sequence: Sequence[int], start: int) -> list[ProbDist]:
        self._check_range(sequence, start)
        width = self.order - 1
        # Pad only the tail the contexts read: sequence[start - width:] on.
        lo = max(0, start - width)
        padded = (BOS,) * width + tuple(sequence[lo:])
        # The context of prefix sequence[:m] is padded[m - lo : m - lo + width].
        return [self._row(padded[m - lo : m - lo + width]) for m in range(start, len(sequence) + 1)]

    def _row(self, ctx: tuple[int, ...]) -> ProbDist:
        """The smoothed distribution after ``ctx``: unseen tokens share one value."""
        # ids stays a list: an empty tuple index would address the whole array
        ids, counts = self._rows.get(ctx, ([], []))
        s = self.smoothing
        denom = sum(counts) + s * self._vocabulary.size
        probs = np.full(self._vocabulary.size, s / denom)
        probs[ids] = [(c + s) / denom for c in counts]
        return ProbDist(probs)

    def to_json_dict(self) -> dict:
        # (context, token) pairs are unique, so sorting contexts, then each row's
        # (token, count) pairs, gives sorted() of the entries; json writes tuples as arrays.
        rows = self._rows
        counts = [(ctx, tok, c) for ctx in sorted(rows) for tok, c in sorted(zip(*rows[ctx]))]
        return {
            "order": self.order,
            "smoothing": self.smoothing,
            "vocab_size": self._vocabulary.size,
            "counts": counts,
            "eos": self._vocabulary.eos,
        }

    def to_json_text(self) -> str:
        """The n-gram document as one JSON line, the text ``save`` writes."""
        return json.dumps(self.to_json_dict()) + "\n"

    @classmethod
    def from_json_dict(cls, data: dict, vocabulary: Vocabulary | None = None) -> "NgramLM":
        doc = read_dataclass(_NgramDocument, data, "")
        if vocabulary is None:
            if doc.eos is None:
                raise InvalidInputError("eos: required field is missing")
            vocabulary = Vocabulary(size=doc.vocab_size, eos=doc.eos)
        elif vocabulary.size != doc.vocab_size:
            raise InvalidInputError("vocabulary size does not match the n-gram document")
        counts: dict[tuple[tuple[int, ...], int], int] = {}
        for entry in doc.counts:
            try:
                ctx, tok, c = entry
                key = (tuple(ctx), tok)
                repeated = key in counts
            except (TypeError, ValueError):  # an entry that is not three values, or unhashable
                raise InvalidInputError("counts: each entry must be [context ids, token id, count]") from None
            if repeated:
                raise InvalidInputError(
                    f"counts: entry {entry!r} repeats the context and token of an earlier entry"
                )
            counts[key] = c
        return cls(vocabulary, doc.order, doc.smoothing, counts)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json_text(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path, vocabulary: Vocabulary | None = None) -> "NgramLM":
        """The n-gram model saved at ``path``; errors name the file.

        Cyclic GC is paused across the parse and the build, and the caller's
        state is restored on every way out. Parsing makes two lists per count
        entry, which would otherwise set off collections over the whole live
        heap. GC state is process-wide: another thread's collections wait
        until the load ends.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            data = load_json(path)  # its errors already name the file
            try:
                return cls.from_json_dict(data, vocabulary)
            except InvalidInputError as e:
                raise InvalidInputError(f"{path}: {e}") from None
        finally:
            if enabled:
                gc.enable()


def fit_ngram(
    corpus: Sequence[Sequence[int]],
    order: int,
    smoothing: float,
    vocabulary: Vocabulary,
) -> NgramLM:
    """Count every length-``order`` window of every sequence and smooth.

    Sequences are padded on the left with ``order - 1`` BOS symbols so
    every token, including the first, contributes one (context, token)
    observation.
    """
    if len(corpus) == 0:
        raise InvalidInputError("corpus must be non-empty")
    grams: Counter[tuple[int, ...]] = Counter()
    width = order - 1
    for seq in corpus:
        vocabulary.validate_sequence(seq)
        padded = (BOS,) * width + tuple(seq)
        # the windows padded[i : i + order], one per token, zipped from shifted copies
        grams.update(zip(*(padded[j:] for j in range(order))))
    # Every id was checked above, so the counts skip the constructor's per-entry checks.
    model = NgramLM(vocabulary, order, smoothing, {})
    rows = model._rows
    for gram, c in grams.items():
        ctx = gram[:-1]
        row = rows.get(ctx)
        if row is None:
            row = rows[ctx] = ([], [])
        row[0].append(gram[-1])
        row[1].append(c)
    return model


def generate_corpus(
    model: LanguageModel,
    prompts: Sequence[Sequence[int]],
    sampler: Sampler,
    max_len: int,
) -> list[list[int]]:
    """Decode a continuation for each prompt; outputs exclude the prompts.

    Prompts are independent: run ``i`` uses seed ``sampler.seed + i`` so
    generation order never matters.
    """
    if max_len < 1:
        raise InvalidInputError("max_len must be >= 1")
    outputs = []
    for i, prompt in enumerate(prompts):
        per_prompt = Sampler(
            kind=sampler.kind, p=sampler.p, t=sampler.t, seed=sampler.seed + i
        )
        outputs.append(vanilla_decode(model, prompt, per_prompt, max_len).sequence)
    return outputs


def align_small(
    large: LanguageModel,
    prompts: Sequence[Sequence[int]],
    order: int,
    smoothing: float,
    max_len: int,
) -> NgramLM:
    """Refit a small n-gram model on the large model's greedy generations.

    The generations are deterministic; ``generate_corpus(large, prompts,
    Sampler.greedy(), max_len)`` rebuilds them for inspection.
    """
    if len(prompts) == 0:
        raise InvalidInputError("prompt list must be non-empty")
    outputs = generate_corpus(large, prompts, Sampler.greedy(), max_len)
    return fit_ngram(outputs, order, smoothing, large.vocabulary)
