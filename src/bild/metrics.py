"""Quality proxies and counter summaries for comparing decode strategies.

Corpus-overlap scores degenerate on toy vocabularies, so quality is
measured by position-wise agreement against a reference sequence and by
perplexity under a chosen evaluation model. Rates follow the conventions:
fallback percentage counts handovers over decode iterations (drafts plus
handovers); rollback percentage counts discarded tokens over drafted
tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

from .costmodel import TallyReport
from .dist import floored_log
from .errors import InvalidInputError
from .models import LanguageModel
from .trace import DecodeResult, Fallback, SmallStep

CSV_COLUMNS = [
    "run_id",
    "alpha_fb",
    "alpha_rb",
    "window_cap",
    "strategy",
    "agreement",
    "perplexity",
    "fallback_pct",
    "rollback_pct",
    "modeled_speedup",
]


def agreement(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """Fraction of positions where the sequences carry the same token.

    The denominator is the longer length, so a missing tail counts as
    disagreement. Two empty sequences agree fully.
    """
    n = max(len(candidate), len(reference))
    if n == 0:
        return 1.0
    matches = sum(1 for a, b in zip(candidate, reference) if a == b)
    return matches / n


def perplexity(model: LanguageModel, sequences: Sequence[Sequence[int]]) -> float:
    """``exp`` of the mean negative log-likelihood per token.

    Each token is conditioned on its within-sequence prefix; the mean runs
    over every token of every sequence. Probabilities are floored before
    the log, so the value is finite.
    """
    if len(sequences) == 0:
        raise InvalidInputError("perplexity requires at least one sequence")
    total_nll = 0.0
    total_tokens = 0
    for seq in sequences:
        # Element i of the range is the distribution after seq[:i]; the
        # last one, after the whole sequence, pairs with no token.
        for token, dist in zip(seq, model.score_range(seq, 0)):
            total_nll -= floored_log(dist[token])
            total_tokens += 1
    if total_tokens == 0:
        raise InvalidInputError("perplexity requires at least one token")
    return math.exp(total_nll / total_tokens)


@dataclass(frozen=True)
class RunSummary:
    """Per-run quality and rate summary; optional fields stay ``None`` when
    their inputs were not supplied."""

    fallback_pct: float
    rollback_pct: float
    agreement_with_reference: float | None = None
    perplexity_under_model: float | None = None
    modeled_speedup: float | None = None


def mean_summary(summaries: Sequence[RunSummary]) -> RunSummary:
    """The field-wise mean of run summaries, summed in order; an optional field
    averages the runs that have it and stays ``None`` when none has."""

    def mean(name: str) -> float | None:
        values = [v for s in summaries if (v := getattr(s, name)) is not None]
        return sum(values) / len(values) if values else None

    return RunSummary(**{f.name: mean(f.name) for f in fields(RunSummary)})


def summarize(
    result: DecodeResult,
    tally: TallyReport | None = None,
    reference: Sequence[int] | None = None,
    eval_model: LanguageModel | None = None,
) -> RunSummary:
    """Derive rates from a decode result's trace and counters.

    Decode iterations are drafted tokens plus handovers; runs with no
    drafted tokens report a rollback percentage of 0 by convention.
    """
    drafted = sum(1 for e in result.trace if isinstance(e, SmallStep))
    handovers = sum(1 for e in result.trace if isinstance(e, Fallback))
    iterations = drafted + handovers
    fallback_pct = result.counters.fallback_count / iterations if iterations else 0.0
    rollback_pct = result.counters.tokens_discarded / drafted if drafted else 0.0
    return RunSummary(
        fallback_pct=fallback_pct,
        rollback_pct=rollback_pct,
        agreement_with_reference=(
            agreement(result.sequence, reference) if reference is not None else None
        ),
        perplexity_under_model=(
            perplexity(eval_model, [result.sequence])
            if eval_model is not None and result.sequence
            else None
        ),
        modeled_speedup=tally.speedup_estimate if tally is not None else None,
    )


def _fmt(value: float | int | str | None) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_csv_header() -> str:
    return ",".join(CSV_COLUMNS)


def summary_csv_row(
    run_id: str,
    alpha_fb: float | None,
    alpha_rb: float | None,
    window_cap: int | None,
    strategy: str,
    summary: RunSummary,
) -> str:
    """One CSV line in the fixed column order."""
    fields = [
        run_id,
        _fmt(alpha_fb),
        _fmt(alpha_rb),
        _fmt(window_cap),
        strategy,
        _fmt(summary.agreement_with_reference),
        _fmt(summary.perplexity_under_model),
        _fmt(summary.fallback_pct),
        _fmt(summary.rollback_pct),
        _fmt(summary.modeled_speedup),
    ]
    return ",".join(fields)
