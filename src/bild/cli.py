"""Command-line front end.

Commands: ``decode`` (run one strategy over a prompt file), ``sweep``
(threshold grid with trade-off and Pareto-front CSVs), ``compare``
(strategies side by side on identical prompts and seeds), ``cost`` (tally
a trace or a synthesized operating point), ``fit`` and ``align`` (n-gram
utilities). Experiments are configured by a JSON file plus flag overrides;
outputs are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .costmodel import (
    PRESETS,
    ModelDescriptor,
    RooflinePeaks,
    TallyReport,
    synthesize_rate_trace,
    tally_trace,
)
from .engine import (
    FIXED_WINDOW_VARIANT,
    NO_ROLLBACK,
    ablation_decode,
    bild_decode,
    oracle_blend_decode,
    vanilla_decode,
)
from .errors import BildError, ConfigurationError, VocabularyMismatchError
from .metrics import RunSummary, summarize, summary_csv_header, summary_csv_row
from .models import LanguageModel
from .policies import PolicyConfig
from .sampling import Sampler
from .speculative import SpecConfig, speculative_decode
from .toymodels import NgramLM, align_small, fit_ngram, load_table_lm
from .trace import DecodeResult, load_trace
from .vocab import load_corpus, load_vocabulary

# strategy -> runner(experiment, prompt, sampler, policy). Each runner looks
# its decode function up in this module when called, so rebinding a
# ``cli.*_decode`` name (as instrumentation does) reaches every strategy.
_RUNNERS = {
    "bild": lambda exp, prompt, sampler, policy: bild_decode(
        exp.small, exp.large, policy, sampler, prompt, exp.max_len
    ),
    "vanilla_small": lambda exp, prompt, sampler, policy: vanilla_decode(
        exp.small, prompt, sampler, exp.max_len
    ),
    "vanilla_large": lambda exp, prompt, sampler, policy: vanilla_decode(
        exp.large, prompt, sampler, exp.max_len
    ),
    "speculative": lambda exp, prompt, sampler, policy: speculative_decode(
        exp.small,
        exp.large,
        SpecConfig(window=exp.speculative_window, seed=sampler.seed),
        prompt,
        exp.max_len,
        draft_sampler=sampler if sampler.is_stochastic else Sampler.greedy(),
    ),
    "oracle_blend": lambda exp, prompt, sampler, policy: oracle_blend_decode(
        exp.small, exp.large, exp.blend_threshold, sampler, prompt, exp.max_len
    )[0],
    "ablation_no_rollback": lambda exp, prompt, sampler, policy: ablation_decode(
        NO_ROLLBACK, exp.small, exp.large, policy, sampler, prompt, exp.max_len
    ),
    "ablation_fixed_window": lambda exp, prompt, sampler, policy: ablation_decode(
        FIXED_WINDOW_VARIANT,
        exp.small,
        exp.large,
        policy,
        sampler,
        prompt,
        exp.max_len,
        k=exp.fixed_window_k,
    ),
}
STRATEGIES = tuple(_RUNNERS)

DEFAULT_ALPHA_FB_GRID = [0.5, 0.6, 0.7, 0.8, 0.9]
DEFAULT_ALPHA_RB_GRID = [1.0, 2.0, 5.0, 10.0]


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def derive_seed(base: int, *parts: int) -> int:
    """Deterministic per-run seed from a base seed and run coordinates."""
    h = base & (2**63 - 1)
    for p in parts:
        h = (h * 1_000_003 + p + 1) & (2**63 - 1)
    return h


def load_model(spec: dict, label: str) -> LanguageModel:
    """Load a model from its config entry ``{kind, path, vocab}``."""
    try:
        kind = spec["kind"]
        path = spec["path"]
    except (KeyError, TypeError):
        raise ConfigurationError(f"{label}: model spec needs 'kind' and 'path'") from None
    if not Path(path).exists():
        raise ConfigurationError(f"{label}: model file not found: {path}")
    vocab = None
    if spec.get("vocab"):
        if not Path(spec["vocab"]).exists():
            raise ConfigurationError(f"{label}: vocabulary file not found: {spec['vocab']}")
        vocab = load_vocabulary(spec["vocab"])
    if kind == "table":
        if vocab is None:
            raise ConfigurationError(f"{label}: table models require a 'vocab' file")
        return load_table_lm(path, vocab)
    if kind == "ngram":
        return NgramLM.load(path, vocab)
    raise ConfigurationError(f"{label}: unknown model kind {kind!r}")


class Experiment:
    """A parsed experiment configuration."""

    def __init__(self, config_path: str, args: argparse.Namespace) -> None:
        if not Path(config_path).exists():
            raise ConfigurationError(f"config file not found: {config_path}")
        try:
            data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"config file {config_path} is not valid JSON: {e}")
        self.data = data
        for key in ("small_model", "large_model"):
            if key not in data:
                raise ConfigurationError(f"config file {config_path} lacks {key!r}")
        self.small = load_model(data["small_model"], "small_model")
        self.large = load_model(data["large_model"], "large_model")
        policy = PolicyConfig.from_json_dict(data.get("policy", {"alpha_fb": 0.6, "alpha_rb": 2.0}))
        if getattr(args, "alpha_fb", None) is not None:
            policy = replace(policy, alpha_fb=args.alpha_fb)
        if getattr(args, "alpha_rb", None) is not None:
            policy = replace(policy, alpha_rb=args.alpha_rb)
        if getattr(args, "window_cap", None) is not None:
            policy = replace(policy, window_cap=args.window_cap)
        self.policy = policy
        self.sampler = Sampler.from_json_dict(data.get("sampler", {"kind": "greedy"}))
        prompts_path = data.get("prompts")
        if prompts_path is None:
            raise ConfigurationError("config needs a 'prompts' file")
        if not Path(prompts_path).exists():
            raise ConfigurationError(f"prompts file not found: {prompts_path}")
        self.prompts = load_corpus(prompts_path, self.small.vocabulary)
        self.max_len = int(getattr(args, "max_len", None) or data.get("max_len", 32))
        self.seed = int(
            args.seed if getattr(args, "seed", None) is not None else data.get("seed", 0)
        )
        self.strategy = getattr(args, "strategy", None) or data.get("strategy", "bild")
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {self.strategy!r}")
        self.out_dir = Path(getattr(args, "out", None) or data.get("out_dir", "out"))
        self.speculative_window = int(data.get("speculative_window", 4))
        self.blend_threshold = float(data.get("blend_threshold", 0.5))
        self.fixed_window_k = int(data.get("fixed_window_k", 3))
        cost = data.get("cost", {})
        self.small_desc = _resolve_descriptor(cost.get("small", "t5-small"))
        self.large_desc = _resolve_descriptor(cost.get("large", "t5-large"))
        self.peaks = None
        if cost.get("peak_flops") and cost.get("peak_bandwidth"):
            self.peaks = RooflinePeaks(float(cost["peak_flops"]), float(cost["peak_bandwidth"]))

    def run_strategy(
        self,
        strategy: str,
        prompt: Sequence[int],
        seed: int,
        policy: PolicyConfig | None = None,
    ) -> DecodeResult:
        if strategy not in _RUNNERS:
            raise ConfigurationError(f"unknown strategy {strategy!r}")
        sampler = replace(self.sampler, seed=seed)
        return _RUNNERS[strategy](self, prompt, sampler, policy or self.policy)

    def reference(self, prompt: Sequence[int], seed: int) -> list[int]:
        """Quality-proxy reference: the large model decoding alone."""
        sampler = replace(self.sampler, seed=seed)
        return vanilla_decode(self.large, prompt, sampler, self.max_len).sequence

    def tally(self, result: DecodeResult, prompt: Sequence[int], strategy: str) -> TallyReport:
        # tally_trace prices the autoregressive actor with the first
        # descriptor; in a pure large decode that actor is the large model.
        actor_desc = self.large_desc if strategy == "vanilla_large" else self.small_desc
        return tally_trace(
            result.trace,
            actor_desc,
            self.large_desc,
            prompt_len=len(prompt),
            max_len=self.max_len,
            peaks=self.peaks,
        )


def _resolve_descriptor(spec: str | dict) -> ModelDescriptor:
    if isinstance(spec, dict):
        return ModelDescriptor.from_json_dict(spec)
    if spec in PRESETS:
        return PRESETS[spec]
    if Path(spec).exists():
        return ModelDescriptor.load(spec)
    raise ConfigurationError(f"unknown cost-model descriptor {spec!r}")


def _summaries_for_run(
    exp: Experiment, strategy: str, policy: PolicyConfig, prompt_idx: int, grid_idx: int = 0
) -> tuple[DecodeResult, RunSummary, TallyReport]:
    prompt = exp.prompts[prompt_idx]
    seed = derive_seed(exp.seed, grid_idx, prompt_idx)
    result = exp.run_strategy(strategy, prompt, seed, policy)
    reference = exp.reference(prompt, seed)
    tally = exp.tally(result, prompt, strategy)
    summary = summarize(result, tally=tally, reference=reference, eval_model=exp.large)
    return result, summary, tally


def cmd_decode(args: argparse.Namespace) -> int:
    exp = Experiment(args.config, args)
    rows = [summary_csv_header()]
    outputs: list[tuple[Path, str]] = []
    for i, prompt in enumerate(exp.prompts):
        result, summary, _ = _summaries_for_run(exp, exp.strategy, exp.policy, i)
        trace_path = exp.out_dir / f"prompt_{i:03d}.trace.jsonl"
        summary_path = exp.out_dir / f"prompt_{i:03d}.summary.json"
        outputs.append(
            (trace_path, "\n".join(json.dumps(d) for d in _trace_dicts(result)) + "\n")
        )
        outputs.append((summary_path, json.dumps(result.summary_json_dict(), indent=2) + "\n"))
        rows.append(
            summary_csv_row(
                f"p{i}",
                exp.policy.alpha_fb,
                exp.policy.alpha_rb,
                exp.policy.window_cap,
                exp.strategy,
                summary,
            )
        )
        c = result.counters
        print(
            f"[p{i}] {exp.strategy}: {len(result.sequence)} tokens, "
            f"{c.fallback_count} fallbacks, {c.rollback_count} rollbacks, "
            f"agreement={summary.agreement_with_reference:.3f}"
        )
    for path, text in outputs:
        _atomic_write(path, text)
    _atomic_write(exp.out_dir / "summary.csv", "\n".join(rows) + "\n")
    return 0


def _trace_dicts(result: DecodeResult) -> list[dict]:
    from .trace import event_to_json_dict

    return [event_to_json_dict(e) for e in result.trace]


def cmd_sweep(args: argparse.Namespace) -> int:
    exp = Experiment(args.config, args)
    sweep = exp.data.get("sweep", {})
    fb_grid = [float(x) for x in sweep.get("alpha_fb", DEFAULT_ALPHA_FB_GRID)]
    rb_grid = [float(x) for x in sweep.get("alpha_rb", DEFAULT_ALPHA_RB_GRID)]
    if not fb_grid or not rb_grid:
        raise ConfigurationError("sweep grids must be non-empty")
    rows = [summary_csv_header()]
    aggregates: list[tuple[float, float, float, float, str]] = []
    grid_idx = 0
    for fb in fb_grid:
        for rb in rb_grid:
            policy = replace(exp.policy, alpha_fb=fb, alpha_rb=rb)
            agreements, speedups = [], []
            for i in range(len(exp.prompts)):
                _, summary, _ = _summaries_for_run(exp, "bild", policy, i, grid_idx)
                rows.append(
                    summary_csv_row(
                        f"fb{fb:g}_rb{rb:g}_p{i}", fb, rb, policy.window_cap, "bild", summary
                    )
                )
                agreements.append(summary.agreement_with_reference or 0.0)
                speedups.append(summary.modeled_speedup or 0.0)
            aggregates.append(
                (
                    fb,
                    rb,
                    sum(agreements) / len(agreements),
                    sum(speedups) / len(speedups),
                    f"fb{fb:g}_rb{rb:g}",
                )
            )
            grid_idx += 1
    _atomic_write(exp.out_dir / "sweep.csv", "\n".join(rows) + "\n")

    pareto_rows = ["run_id,alpha_fb,alpha_rb,mean_agreement,mean_speedup"]
    for fb, rb, agr, spd, run_id in aggregates:
        dominated = any(
            (a2 >= agr and s2 >= spd and (a2 > agr or s2 > spd))
            for _, _, a2, s2, _ in aggregates
        )
        if not dominated:
            pareto_rows.append(f"{run_id},{fb!r},{rb!r},{agr!r},{spd!r}")
    _atomic_write(exp.out_dir / "pareto.csv", "\n".join(pareto_rows) + "\n")
    print(f"sweep: {len(fb_grid) * len(rb_grid)} grid points x {len(exp.prompts)} prompts")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    exp = Experiment(args.config, args)
    strategies = (
        [s.strip() for s in args.strategies.split(",")]
        if args.strategies
        else exp.data.get("strategies", ["bild", "vanilla_large"])
    )
    if len(strategies) < 2:
        raise ConfigurationError("compare needs at least 2 strategies")
    for s in strategies:
        if s not in STRATEGIES:
            raise ConfigurationError(f"unknown strategy {s!r}")
    rows = [summary_csv_header() + ",flops,mops,invocations"]
    for strategy in strategies:
        agreements, ppls, fallbacks, rollbacks, speedups = [], [], [], [], []
        flops = mops = 0.0
        invocations = 0
        for i in range(len(exp.prompts)):
            _, summary, tally = _summaries_for_run(exp, strategy, exp.policy, i)
            agreements.append(summary.agreement_with_reference or 0.0)
            if summary.perplexity_under_model is not None:
                ppls.append(summary.perplexity_under_model)
            fallbacks.append(summary.fallback_pct)
            rollbacks.append(summary.rollback_pct)
            speedups.append(summary.modeled_speedup or 1.0)
            flops += tally.bild.flops
            mops += tally.bild.mops
            invocations += tally.bild.invocations
        n = len(exp.prompts)
        mean = RunSummary(
            fallback_pct=sum(fallbacks) / n,
            rollback_pct=sum(rollbacks) / n,
            agreement_with_reference=sum(agreements) / n,
            perplexity_under_model=(sum(ppls) / len(ppls)) if ppls else None,
            modeled_speedup=sum(speedups) / n,
        )
        row = summary_csv_row(
            strategy,
            exp.policy.alpha_fb,
            exp.policy.alpha_rb,
            exp.policy.window_cap,
            strategy,
            mean,
        )
        rows.append(f"{row},{flops!r},{mops!r},{invocations}")
        print(
            f"[{strategy}] agreement={mean.agreement_with_reference:.3f} "
            f"fallback_pct={mean.fallback_pct:.3f} rollback_pct={mean.rollback_pct:.3f}"
        )
    _atomic_write(exp.out_dir / "compare.csv", "\n".join(rows) + "\n")
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    small_desc = _resolve_descriptor(args.small_desc)
    large_desc = _resolve_descriptor(args.large_desc)
    if args.trace:
        if not Path(args.trace).exists():
            raise ConfigurationError(f"trace file not found: {args.trace}")
        trace = load_trace(args.trace)
    else:
        trace = synthesize_rate_trace(
            args.tokens, args.fallback_rate, args.rollback_rate
        )
    peaks = None
    if args.peak_flops and args.peak_bandwidth:
        peaks = RooflinePeaks(args.peak_flops, args.peak_bandwidth)
    report = tally_trace(
        trace, small_desc, large_desc, prompt_len=args.prompt_len, peaks=peaks
    )
    text = json.dumps(report.to_json_dict(), indent=2)
    if args.out:
        _atomic_write(Path(args.out), text + "\n")
    else:
        print(text)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    if not Path(args.vocab).exists():
        raise ConfigurationError(f"vocabulary file not found: {args.vocab}")
    if not Path(args.corpus).exists():
        raise ConfigurationError(f"corpus file not found: {args.corpus}")
    vocab = load_vocabulary(args.vocab)
    corpus = load_corpus(args.corpus, vocab)
    model = fit_ngram(corpus, args.order, args.smoothing, vocab)
    _atomic_write(Path(args.out), json.dumps(model.to_json_dict()) + "\n")
    print(f"fit {args.order}-gram on {len(corpus)} sequences -> {args.out}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    large = load_model(
        {"kind": args.large_kind, "path": args.large, "vocab": args.vocab}, "large_model"
    )
    prompts = load_corpus(args.prompts, large.vocabulary)
    if not prompts:
        raise ConfigurationError(f"prompts file {args.prompts} is empty")
    model = align_small(large, prompts, args.order, args.smoothing, args.max_len)
    _atomic_write(Path(args.out), json.dumps(model.to_json_dict()) + "\n")
    print(f"aligned {args.order}-gram from {len(prompts)} prompts -> {args.out}")
    return 0


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--alpha-fb", dest="alpha_fb", type=float, default=None)
    p.add_argument("--alpha-rb", dest="alpha_rb", type=float, default=None)
    p.add_argument("--window-cap", dest="window_cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory override")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bild", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="run one strategy over the prompt file")
    _add_override_flags(p)
    p.add_argument("--strategy", choices=STRATEGIES, default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("sweep", help="threshold grid sweep with Pareto front")
    _add_override_flags(p)
    p.set_defaults(func=cmd_sweep, strategy=None)

    p = sub.add_parser("compare", help="strategies side by side")
    _add_override_flags(p)
    p.add_argument("--strategies", default=None, help="comma-separated strategy list")
    p.set_defaults(func=cmd_compare, strategy=None)

    p = sub.add_parser("cost", help="tally a trace or synthesized operating point")
    p.add_argument("--trace", default=None, help="trace JSONL file")
    p.add_argument("--tokens", type=int, default=600)
    p.add_argument("--fallback-rate", dest="fallback_rate", type=float, default=0.3233)
    p.add_argument("--rollback-rate", dest="rollback_rate", type=float, default=0.0641)
    p.add_argument("--small-desc", dest="small_desc", default="t5-small")
    p.add_argument("--large-desc", dest="large_desc", default="t5-large")
    p.add_argument("--prompt-len", dest="prompt_len", type=int, default=0)
    p.add_argument("--peak-flops", dest="peak_flops", type=float, default=None)
    p.add_argument("--peak-bandwidth", dest="peak_bandwidth", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("fit", help="fit an n-gram model on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("align", help="refit a small model on large-model outputs")
    p.add_argument("--large", required=True, help="large model file")
    p.add_argument("--large-kind", dest="large_kind", default="ngram", choices=["ngram", "table"])
    p.add_argument("--vocab", default=None)
    p.add_argument("--prompts", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--max-len", dest="max_len", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VocabularyMismatchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (BildError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
