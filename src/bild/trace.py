"""Decode trace events, result records, and trace replay.

Every decode strategy emits a flat event list. Replaying the accept and
discard events reconstructs the output sequence exactly, which the test
suite exploits as an invariant. Positions count generated tokens only;
prompt tokens are conditioning context and never appear in traces.

Events serialize to JSON Lines, one object per line with an ``event`` tag:
``small_step``, ``fallback``, ``large_verify``, ``rollback``,
``large_append``, ``rejection`` (speculative runs) and ``eos``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Union

from .errors import InvalidInputError, InvalidTraceError
from .jsondoc import check, read_dataclass, read_text

SMALL = "small"
LARGE = "large"

# Fallback reasons.
LOW_CONFIDENCE = "low_confidence"
WINDOW_CAP = "window_cap"
FORCED = "forced"


@dataclass(frozen=True)
class SmallStep:
    """The small model drafted ``token`` at ``position``."""

    position: int
    token: int
    max_prob: float


@dataclass(frozen=True)
class Fallback:
    """Control passed to the large model before generating ``position``."""

    position: int
    reason: str


@dataclass(frozen=True)
class LargeVerify:
    """One parallel large-model call reviewing the drafted positions.

    ``positions`` are the pending drafted positions, ``distances`` the
    hard-label distances at each; the same call also scores the position
    after the drafts.
    """

    positions: tuple[int, ...]
    distances: tuple[float, ...]


@dataclass(frozen=True)
class Rollback:
    """Drafts from ``position`` on were discarded; ``replacement`` committed."""

    position: int
    tokens_discarded: int
    replacement: int


@dataclass(frozen=True)
class Rejection(Rollback):
    """Speculative-decoding analog of ``Rollback`` (stochastic rejection).

    It carries the same fields and serializes under its own tag; the two
    never compare equal.
    """


@dataclass(frozen=True)
class LargeAppend:
    """The large model appended ``token`` at ``position``."""

    position: int
    token: int


@dataclass(frozen=True)
class Eos:
    """Decoding terminated with end-of-sequence at ``position``."""

    position: int


TraceEvent = Union[SmallStep, Fallback, LargeVerify, Rollback, Rejection, LargeAppend, Eos]

_EVENT_TAGS = {
    SmallStep: "small_step",
    Fallback: "fallback",
    LargeVerify: "large_verify",
    Rollback: "rollback",
    Rejection: "rejection",
    LargeAppend: "large_append",
    Eos: "eos",
}
_TAG_TYPES = {tag: typ for typ, tag in _EVENT_TAGS.items()}


def event_to_json_dict(event: TraceEvent) -> dict:
    out: dict = {"event": _EVENT_TAGS[type(event)]}
    for f in fields(event):
        value = getattr(event, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def event_from_json_dict(data: dict) -> TraceEvent:
    """Parse one event; raises ``InvalidTraceError`` on any malformed document."""
    try:
        fields = dict(check(data, dict, ""))
        tag = check(fields.pop("event", None), str, "event")
        if tag not in _TAG_TYPES:
            raise InvalidInputError(f"unknown trace event tag {tag!r}")
        return read_dataclass(_TAG_TYPES[tag], fields, tag)
    except InvalidInputError as e:
        raise InvalidTraceError(str(e)) from None


def trace_text(trace: Iterable[TraceEvent]) -> str:
    """The trace as JSON Lines, one event per line: the text ``save_trace`` writes."""
    return "\n".join(json.dumps(event_to_json_dict(e)) for e in trace) + "\n"


def save_trace(trace: Iterable[TraceEvent], path: str | Path) -> None:
    Path(path).write_text(trace_text(trace), encoding="utf-8")


def load_trace(path: str | Path) -> list[TraceEvent]:
    """Read a JSONL trace; a malformed line raises ``InvalidTraceError`` naming ``path:line``."""
    events = []
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        if line.strip():
            try:
                events.append(event_from_json_dict(json.loads(line)))
            except (ValueError, RecursionError, InvalidTraceError) as e:
                raise InvalidTraceError(f"{path}:{lineno}: {e}") from None
    return events


def walk_trace(trace: Iterable[TraceEvent]) -> Iterator[tuple[TraceEvent, int]]:
    """Yield each event with the working-sequence length after it.

    Checks every positional event against that length: drafts, fallbacks
    and appends sit at the current end, a verify covers the last k
    positions, a rollback or rejection discards exactly the tail from its
    position, and an end-of-sequence lies inside the sequence. Raises
    ``InvalidTraceError`` at the first inconsistent event.
    """
    length = 0
    for event in trace:
        if isinstance(event, SmallStep):
            if event.position != length:
                raise InvalidTraceError(f"draft at position {event.position}, expected {length}")
            length += 1
        elif isinstance(event, Fallback):
            if event.position != length:
                raise InvalidTraceError(f"fallback at position {event.position}, expected {length}")
        elif isinstance(event, LargeVerify):
            expected = tuple(range(length - len(event.positions), length))
            if tuple(event.positions) != expected:
                raise InvalidTraceError(f"verify positions {event.positions}, expected {expected}")
        elif isinstance(event, Rollback):
            if not 0 <= event.position < length:
                raise InvalidTraceError(f"rollback position {event.position} out of range")
            if event.tokens_discarded != length - event.position:
                raise InvalidTraceError("rollback discard count inconsistent with position")
            length = event.position + 1
        elif isinstance(event, LargeAppend):
            if event.position != length:
                raise InvalidTraceError(f"append at position {event.position}, expected {length}")
            length += 1
        elif isinstance(event, Eos):
            if not 0 <= event.position < length:
                raise InvalidTraceError(f"end-of-sequence position {event.position} out of range")
        yield event, length


def replay_trace(trace: Sequence[TraceEvent], max_len: int | None = None) -> list[int]:
    """Reconstruct the output sequence from a trace.

    Applies drafts, rollbacks/rejections, and appends in order, then
    truncates to ``max_len`` (generation budgets cut overlong commits at
    the very end of a run). Raises ``InvalidTraceError`` on inconsistent
    positions.
    """
    seq: list[int] = []
    for event, _ in walk_trace(trace):
        if isinstance(event, (SmallStep, LargeAppend)):
            seq.append(event.token)
        elif isinstance(event, Rollback):
            del seq[event.position :]
            seq.append(event.replacement)
    if max_len is not None:
        seq = seq[:max_len]
    return seq


@dataclass(frozen=True)
class Counters:
    """Run statistics; percentages in the summary layer derive from these."""

    small_tokens: int = 0
    large_tokens: int = 0
    fallback_count: int = 0
    rollback_count: int = 0
    tokens_discarded: int = 0
    small_calls: int = 0
    large_calls: int = 0


@dataclass(frozen=True)
class DecodeResult:
    """Final sequence, provenance, full event trace, and counters."""

    sequence: list[int]
    provenance: list[str]
    trace: list[TraceEvent]
    counters: Counters
    extras: dict = field(default_factory=dict)

    def summary_text(self) -> str:
        """The summary JSON document (sequence, length, counters, extras): the text
        ``save_summary`` writes."""
        out = {
            "sequence": list(self.sequence),
            "length": len(self.sequence),
            "counters": asdict(self.counters),
        }
        if self.extras:
            out["extras"] = dict(self.extras)
        return json.dumps(out, indent=2) + "\n"

    def save_summary(self, path: str | Path) -> None:
        Path(path).write_text(self.summary_text(), encoding="utf-8")
