"""Analytical FLOPs/MOPs accounting for decode traces.

First-order dense-decoder cost model: a call scoring ``T`` tokens costs
``2 * params * T`` FLOPs, loads the decoder weights once
(``params * bytes_per_param`` bytes) regardless of ``T``, and moves
key/value-cache traffic proportional to the attention reads and the new
entries written. Scoring many tokens per weight load is what makes the
parallel verification calls cheap per token; the tally quantifies that by
comparing any trace against a fully autoregressive run of the large model
over the same output length.

Latency is modeled in roofline form, ``max(flops/peak_flops,
mops/peak_bandwidth)``; with no peaks configured the proxy degrades to
bytes moved, i.e. a fully bandwidth-bound device, and only ratios are
meaningful. Encoder costs are omitted throughout: both systems encode the
same input, so they cancel in every ratio.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .errors import InvalidInputError
from .trace import (
    LOW_CONFIDENCE,
    Fallback,
    LargeAppend,
    LargeVerify,
    Rollback,
    SmallStep,
    TraceEvent,
    walk_trace,
)


@dataclass(frozen=True)
class ModelDescriptor:
    """Decoder shape parameters driving the cost formulas."""

    layers: int
    hidden_dim: int
    ffn_dim: int
    decoder_params: int
    bytes_per_param: int = 2

    def __post_init__(self) -> None:
        if min(self.layers, self.hidden_dim, self.ffn_dim) <= 0:
            raise InvalidInputError("model dimensions must be positive")
        if self.decoder_params <= 0 or self.bytes_per_param <= 0:
            raise InvalidInputError("decoder_params and bytes_per_param must be positive")

    @property
    def kv_bytes_per_token(self) -> int:
        """Bytes of one token's key+value entries across all layers."""
        return 2 * self.layers * self.hidden_dim * self.bytes_per_param

    def to_json_dict(self) -> dict:
        return {
            "layers": self.layers,
            "hidden_dim": self.hidden_dim,
            "ffn_dim": self.ffn_dim,
            "decoder_params": self.decoder_params,
            "bytes_per_param": self.bytes_per_param,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ModelDescriptor":
        return cls(
            layers=int(data["layers"]),
            hidden_dim=int(data["hidden_dim"]),
            ffn_dim=int(data["ffn_dim"]),
            decoder_params=int(data["decoder_params"]),
            bytes_per_param=int(data.get("bytes_per_param", 2)),
        )

    @classmethod
    def load(cls, path: str | Path) -> "ModelDescriptor":
        return cls.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# Published decoder configurations (parameter counts exclude embeddings).
PRESETS: dict[str, ModelDescriptor] = {
    "mt5-large": ModelDescriptor(layers=24, hidden_dim=1024, ffn_dim=2816, decoder_params=409_000_000),
    "mt5-small": ModelDescriptor(layers=8, hidden_dim=512, ffn_dim=1024, decoder_params=25_000_000),
    "t5-large": ModelDescriptor(layers=24, hidden_dim=1024, ffn_dim=4096, decoder_params=402_000_000),
    "t5-small": ModelDescriptor(layers=6, hidden_dim=512, ffn_dim=2048, decoder_params=25_000_000),
}


@dataclass(frozen=True)
class WorkloadTally:
    """Accumulated arithmetic and memory traffic.

    ``mops`` is always ``weight_mops + kv_mops``; the split is kept so the
    weight-amortization effect can be checked in isolation.
    """

    flops: float = 0.0
    mops: float = 0.0
    invocations: int = 0
    weight_mops: float = 0.0
    kv_mops: float = 0.0

    def __add__(self, other: "WorkloadTally") -> "WorkloadTally":
        return WorkloadTally(
            flops=self.flops + other.flops,
            mops=self.mops + other.mops,
            invocations=self.invocations + other.invocations,
            weight_mops=self.weight_mops + other.weight_mops,
            kv_mops=self.kv_mops + other.kv_mops,
        )

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per byte moved; 0 for an empty tally."""
        return self.flops / self.mops if self.mops > 0 else 0.0

    def to_json_dict(self) -> dict:
        return {
            "flops": self.flops,
            "mops": self.mops,
            "invocations": self.invocations,
            "weight_mops": self.weight_mops,
            "kv_mops": self.kv_mops,
            "arithmetic_intensity": self.arithmetic_intensity,
        }


def step_cost(desc: ModelDescriptor, context_len: int, new_tokens: int) -> WorkloadTally:
    """Cost of one call scoring ``new_tokens`` positions after ``context_len``.

    FLOPs are ``2 * params`` per scored token. Weights are read once per
    invocation. KV traffic: the j-th new token attends over
    ``context_len + j`` cached entries (reads) and writes its own entry.
    """
    if context_len < 0 or new_tokens < 0:
        raise InvalidInputError("context_len and new_tokens must be non-negative")
    if new_tokens == 0:
        return WorkloadTally()
    flops = 2.0 * desc.decoder_params * new_tokens
    weight = float(desc.decoder_params * desc.bytes_per_param)
    kv_reads = new_tokens * context_len + new_tokens * (new_tokens + 1) // 2
    kv = float(desc.kv_bytes_per_token * (kv_reads + new_tokens))
    return WorkloadTally(
        flops=flops, mops=weight + kv, invocations=1, weight_mops=weight, kv_mops=kv
    )


@dataclass(frozen=True)
class RooflinePeaks:
    """Device peaks for the latency proxy."""

    peak_flops: float
    peak_bandwidth: float

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or self.peak_bandwidth <= 0:
            raise InvalidInputError("peaks must be positive")


def latency_proxy(tally: WorkloadTally, peaks: RooflinePeaks | None = None) -> float:
    """Roofline latency estimate; bytes moved when no peaks are configured."""
    if peaks is None:
        return tally.mops
    return max(tally.flops / peaks.peak_flops, tally.mops / peaks.peak_bandwidth)


@dataclass(frozen=True)
class TallyReport:
    """Cost comparison of a trace against pure large-model decoding."""

    bild: WorkloadTally
    vanilla_large_equivalent: WorkloadTally
    speedup_estimate: float
    arithmetic_intensity_ratio: float

    def to_json_dict(self) -> dict:
        return {
            "bild": self.bild.to_json_dict(),
            "vanilla_large_equivalent": self.vanilla_large_equivalent.to_json_dict(),
            "speedup_estimate": self.speedup_estimate,
            "arithmetic_intensity_ratio": self.arithmetic_intensity_ratio,
        }


def tally_trace(
    trace: Sequence[TraceEvent],
    small_desc: ModelDescriptor,
    large_desc: ModelDescriptor,
    *,
    prompt_len: int = 0,
    max_len: int | None = None,
    peaks: RooflinePeaks | None = None,
) -> TallyReport:
    """Accumulate model costs over a trace and compare against vanilla.

    ``small_desc`` prices the autoregressive actor's calls (drafts and the
    low-confidence scores that trigger handovers); ``large_desc`` prices
    each parallel verification, which scores the drafted positions plus
    one. The vanilla reference decodes the same final sequence length
    autoregressively with the large model. Raises ``InvalidTraceError`` on
    positionally inconsistent traces.
    """
    seq_len = 0
    tally = WorkloadTally()
    for event, seq_len in walk_trace(trace):
        if isinstance(event, SmallStep):
            tally = tally + step_cost(small_desc, prompt_len + event.position, 1)
        elif isinstance(event, Fallback):
            if event.reason == LOW_CONFIDENCE:
                tally = tally + step_cost(small_desc, prompt_len + event.position, 1)
        elif isinstance(event, LargeVerify):
            k = len(event.positions)
            tally = tally + step_cost(large_desc, prompt_len + seq_len - k, k + 1)

    final_len = seq_len if max_len is None else min(seq_len, max_len)
    vanilla = WorkloadTally()
    for i in range(final_len):
        vanilla = vanilla + step_cost(large_desc, prompt_len + i, 1)

    bild_proxy = latency_proxy(tally, peaks)
    vanilla_proxy = latency_proxy(vanilla, peaks)
    if bild_proxy == 0.0 and vanilla_proxy == 0.0:
        speedup = 1.0
    elif bild_proxy == 0.0:
        speedup = float("inf")
    else:
        speedup = vanilla_proxy / bild_proxy
    if tally.mops > 0 and vanilla.mops > 0 and vanilla.arithmetic_intensity > 0:
        ai_ratio = tally.arithmetic_intensity / vanilla.arithmetic_intensity
    else:
        ai_ratio = 1.0
    return TallyReport(
        bild=tally,
        vanilla_large_equivalent=vanilla,
        speedup_estimate=speedup,
        arithmetic_intensity_ratio=ai_ratio,
    )


def synthesize_rate_trace(
    num_tokens: int,
    fallback_rate: float,
    rollback_rate: float,
    *,
    draft_cap: int = 10,
    token: int = 0,
) -> list[TraceEvent]:
    """Build a structurally valid trace hitting target event rates.

    ``fallback_rate`` is handovers over decode iterations (drafts plus
    handovers); ``rollback_rate`` is discarded tokens over drafted tokens.
    The trace is deterministic: each round picks the draft length and
    rollback size that keep the running rates closest to the targets.
    Useful for reproducing reported operating points without the models
    that produced them.
    """
    if not 0.0 < fallback_rate < 1.0:
        raise InvalidInputError("fallback_rate must lie strictly between 0 and 1")
    if not 0.0 <= rollback_rate < 1.0:
        raise InvalidInputError("rollback_rate must lie in [0, 1)")
    events: list[TraceEvent] = []
    seq_len = 0
    drafts = 0
    fallbacks = 0
    discarded = 0
    while seq_len < num_tokens:
        best_w = 1
        best_err = None
        for w in range(1, draft_cap + 1):
            err = abs((fallbacks + 1) / (drafts + w + fallbacks + 1) - fallback_rate)
            if best_err is None or err < best_err:
                best_err = err
                best_w = w
        w = best_w
        for _ in range(w):
            events.append(SmallStep(seq_len, token, 0.9))
            seq_len += 1
        events.append(Fallback(seq_len, LOW_CONFIDENCE))
        fallbacks += 1
        events.append(
            LargeVerify(
                positions=tuple(range(seq_len - w, seq_len)),
                distances=tuple(0.0 for _ in range(w)),
            )
        )
        drafts += w
        want_discarded = rollback_rate * drafts
        d = min(w, max(0, round(want_discarded - discarded)))
        if d > 0:
            events.append(Rollback(seq_len - d, d, token))
            seq_len -= d - 1
            discarded += d
        else:
            events.append(LargeAppend(seq_len, token))
            seq_len += 1
    return events
