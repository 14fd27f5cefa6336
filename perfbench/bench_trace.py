"""Per-layer measurement from outside the package.

The traced run rebinds public functions where the decode loops and the
CLI import them (``bild.engine.sample``, ``bild.cli.tally_trace``, ...),
wraps both models in a delegating ``LanguageModel`` and records one span
per call: name, start, end, parent span and decode id. Two hot methods,
``Vocabulary.validate_token`` and ``ProbDist.__init__``, are counted but
not spanned. Spans stay in memory and are written once, at the end.
Nothing under ``src/bild`` is edited; every rebinding is undone after the
traced pass.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable

import bild.cli
import bild.engine
import bild.metrics
import bild.speculative
from bild.dist import ProbDist
from bild.models import LanguageModel
from bild.trace import Fallback, LargeVerify, SmallStep
from bild.vocab import Vocabulary

# Span record fields.
NAME, START, END, PARENT, DECODE_ID, POSITIONS = range(6)
ENGINE_DECODES = ("bild_decode", "vanilla_decode", "oracle_blend_decode", "ablation_decode")
# Decodes whose large-model work the trace models as sum(k+1) over verifies.
VERIFY_DECODES = ("decode.bild_decode", "decode.speculative_decode", "decode.ablation_decode")


class Recorder:
    """In-memory spans, call counters and the decode results seen."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.results: list[tuple[str, object]] = []  # (decode span name, DecodeResult)
        self.decode_id: str | None = None  # id given to the next root span

    def wrap(self, name: str, fn: Callable, on_exit=None, decode_id=None) -> Callable:
        """``fn`` recorded as span ``name``; ``on_exit(span, args, result)`` runs after.

        ``decode_id(args)``, when given, names the decode the span belongs
        to; otherwise the span inherits its parent's.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if decode_id is not None:
                did = decode_id(args)
            else:
                did = spans[parent][DECODE_ID] if parent >= 0 else self.decode_id
            span = [name, clock(), 0.0, parent, did, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if on_exit is not None:
                on_exit(span, args, out)
            return out

        return traced

    def keep_result(self, span, args, out) -> None:
        """``on_exit`` hook of decode spans: keep the ``DecodeResult``."""
        self.results.append((span[NAME], out[0] if isinstance(out, tuple) else out))

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return count

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "decode", "positions")
        lines = (json.dumps(dict(zip(keys, s))) for s in self.spans)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def traced_model(rec: Recorder, model: LanguageModel, role: str) -> LanguageModel:
    """A ``LanguageModel`` delegating every ``score*`` method of ``model``.

    Each call is a span ``models.<role>.<method>`` that records how many
    distributions it returned, so a scoring method added later is counted
    without changing this wrapper.
    """

    def positions(span, args, out):
        span[POSITIONS] = 1 if isinstance(out, ProbDist) else len(out)

    def method(attr: str):
        traced = rec.wrap(f"models.{role}.{attr}", getattr(model, attr), positions)
        return lambda self, *args, **kwargs: traced(*args, **kwargs)

    ns = {
        attr: method(attr)
        for attr in dir(type(model))
        if attr.startswith("score") and callable(getattr(model, attr))
    }
    ns["vocabulary"] = property(lambda self: model.vocabulary)
    ns["descriptor"] = property(lambda self: model.descriptor)
    return type(f"Traced{type(model).__name__}", (LanguageModel,), ns)()


class Instrumentation:
    """Rebinds package functions to traced versions; ``restore`` undoes it."""

    def __init__(self, rec: Recorder, label: str) -> None:
        self.rec = rec
        self.label = label  # decode-id prefix: workload and phase
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, new: object) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    def install(self) -> None:
        rec, patch = self.rec, self.patch
        engine, spec, cli, metrics = bild.engine, bild.speculative, bild.cli, bild.metrics

        patch(Vocabulary, "validate_token", rec.counted("vocab.validate_token.calls", Vocabulary.validate_token))
        patch(ProbDist, "__init__", rec.counted("dist.probdist_built", ProbDist.__init__))
        for module in (engine, spec):
            patch(module, "sample", rec.wrap("sampling.sample", module.sample))
            patch(module, "distance", rec.wrap("policies.distance", module.distance))
        patch(spec, "multinomial", rec.wrap("sampling.multinomial", spec.multinomial))
        for attr in ("should_fallback", "find_rollback_position"):
            patch(engine, attr, rec.wrap(f"policies.{attr}", getattr(engine, attr)))
        for attr in ENGINE_DECODES + ("speculative_decode",):
            patch(cli, attr, rec.wrap(f"decode.{attr}", getattr(cli, attr), rec.keep_result))

        def tallied(span, args, out):
            rec.counts["costmodel.events_tallied"] += len(args[0])

        def scored(span, args, out):
            span[POSITIONS] = sum(len(seq) for seq in args[1])

        patch(cli, "tally_trace", rec.wrap("costmodel.tally_trace", cli.tally_trace, tallied))
        patch(cli, "summarize", rec.wrap("metrics.summarize", cli.summarize))
        patch(metrics, "perplexity", rec.wrap("metrics.perplexity", metrics.perplexity, scored))
        patch(cli, "_atomic_write", rec.wrap("cli.write", cli._atomic_write))

        def prompt_index(exp, prompt) -> int:
            return next(i for i, p in enumerate(exp.prompts) if p is prompt)

        def strategy_id(args):
            exp, strategy, prompt = args[:3]
            return f"{self.label}/{strategy}/p{prompt_index(exp, prompt)}"

        def reference_id(args):
            exp, prompt = args[:2]
            return f"{self.label}/reference/p{prompt_index(exp, prompt)}"

        exp_cls = cli.Experiment
        patch(exp_cls, "__init__", rec.wrap("cli.experiment_init", exp_cls.__init__))
        patch(exp_cls, "run_strategy", rec.wrap("cli.run_strategy", exp_cls.run_strategy, decode_id=strategy_id))
        patch(exp_cls, "reference", rec.wrap("cli.reference", exp_cls.reference, decode_id=reference_id))
        load_model = cli.load_model
        patch(cli, "load_model", lambda spec, label: traced_model(rec, load_model(spec, label), label.split("_")[0]))

    def library_decoders(self) -> dict[str, Callable]:
        """Traced versions of the decode functions the decode phase calls."""
        wrap, keep = self.rec.wrap, self.rec.keep_result
        return {
            "bild": wrap("decode.bild_decode", bild.engine.bild_decode, keep),
            "speculative": wrap("decode.speculative_decode", bild.speculative.speculative_decode, keep),
            "vanilla_large": wrap("decode.vanilla_decode", bild.engine.vanilla_decode, keep),
        }


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer counts, busy times and self times from the recorded spans."""
    spans = rec.spans
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]

    def busy(prefix: str) -> float:
        return sum(s[END] - s[START] for s in spans if s[NAME].startswith(prefix))

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    def self_time(names) -> float:
        return sum(s[END] - s[START] - child[i] for i, s in enumerate(spans) if s[NAME] in names)

    def root_decode(i: int) -> str | None:
        while i >= 0 and not spans[i][NAME].startswith("decode."):
            i = spans[i][PARENT]
        return spans[i][NAME] if i >= 0 else None

    scored = sum(
        s[POSITIONS]
        for i, s in enumerate(spans)
        if s[NAME].startswith("models.large.") and root_decode(i) in VERIFY_DECODES
    )
    verify_results = [r for name, r in rec.results if name in VERIFY_DECODES]
    modeled = sum(len(e.positions) + 1 for r in verify_results for e in r.trace if isinstance(e, LargeVerify))
    bild_results = [r for name, r in rec.results if name == "decode.bild_decode"]
    spec_results = [r for name, r in rec.results if name == "decode.speculative_decode"]
    windows = [len(e.positions) for r in bild_results for e in r.trace if isinstance(e, LargeVerify)]

    def accept_ratio(results) -> float:
        drafted = sum(isinstance(e, SmallStep) for r in results for e in r.trace)
        return sum(r.counters.small_tokens for r in results) / drafted if drafted else float("nan")

    return {
        "models.large.score_all.calls": calls("models.large.score_all"),
        "models.large.score_next.calls": calls("models.large.score_next"),
        "models.large.positions_scored": scored,
        "models.large.positions_modeled": modeled,
        "models.large.work_ratio": scored / modeled if modeled else float("nan"),
        "models.large.busy_s": busy("models.large."),
        "models.small.score_next.calls": calls("models.small.score_next"),
        "models.small.busy_s": busy("models.small."),
        "vocab.validate_token.calls": rec.counts["vocab.validate_token.calls"],
        "dist.probdist_built": rec.counts["dist.probdist_built"],
        "sampling.sample.calls": calls("sampling.sample"),
        "sampling.busy_s": busy("sampling."),
        "policies.calls": sum(1 for s in spans if s[NAME].startswith("policies.")),
        "policies.busy_s": busy("policies."),
        "engine.self_s": self_time({f"decode.{a}" for a in ENGINE_DECODES}),
        "speculative.self_s": self_time({"decode.speculative_decode"}),
        "engine.handovers": sum(isinstance(e, Fallback) for r in bild_results for e in r.trace),
        "engine.rollbacks": sum(r.counters.rollback_count for r in bild_results),
        "engine.tokens_discarded": sum(r.counters.tokens_discarded for r in bild_results),
        "engine.verify_window_mean": sum(windows) / len(windows) if windows else float("nan"),
        "engine.draft_accept_ratio": accept_ratio(bild_results),
        "speculative.accept_ratio": accept_ratio(spec_results),
        "trace.events": sum(len(r.trace) for _, r in rec.results),
        "costmodel.tally_trace.calls": calls("costmodel.tally_trace"),
        "costmodel.events_tallied": rec.counts["costmodel.events_tallied"],
        "costmodel.busy_s": busy("costmodel."),
        "metrics.perplexity.busy_s": busy("metrics.perplexity"),
        "metrics.perplexity.positions": sum(s[POSITIONS] for s in spans if s[NAME] == "metrics.perplexity"),
        "metrics.summarize.busy_s": busy("metrics.summarize"),
        "cli.experiment_init_s": busy("cli.experiment_init"),
        "cli.run_strategy.busy_s": busy("cli.run_strategy"),
        "cli.reference.busy_s": busy("cli.reference"),
        "cli.write.busy_s": busy("cli.write"),
    }
