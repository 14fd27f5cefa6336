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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Sequence

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
from .errors import (
    BildError,
    ConfigurationError,
    FieldError,
    InvalidInputError,
    VocabularyMismatchError,
)
from .jsondoc import load_json, read_dataclass
from .metrics import RunSummary, mean_summary, summarize, summary_csv_header, summary_csv_row
from .models import LanguageModel
from .policies import PolicyConfig, check_threshold
from .sampling import Sampler
from .speculative import SpecConfig, speculative_decode
from .toymodels import NgramLM, align_small, fit_ngram, load_table_lm
from .trace import DecodeResult, load_trace, trace_text
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
    ),
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
MODEL_KINDS = ("ngram", "table")


def _peaks(
    flops: float | None, bandwidth: float | None, names: tuple[str, str] = ("peak_flops", "peak_bandwidth")
) -> RooflinePeaks | None:
    """Both roofline peaks or neither; an error is a ``FieldError`` on one of ``names``."""
    if flops is None and bandwidth is None:
        return None
    for value, name, other in ((flops, *names), (bandwidth, *reversed(names))):
        if value is None:
            raise FieldError(name, f"required when {other} is given")
        if not value > 0:
            raise FieldError(name, f"must be positive, got {value!r}")
    return RooflinePeaks(flops, bandwidth)


@dataclass(frozen=True)
class ModelSpec:
    """A config's model entry: an n-gram JSON file, or a table file with its vocabulary."""

    kind: str
    path: str
    vocab: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise FieldError("kind", f"unknown model kind {self.kind!r}")
        if self.kind == "table" and not self.vocab:
            raise FieldError("vocab", "table models require a 'vocab' file")


@dataclass(frozen=True)
class SweepGrid:
    """The thresholds ``bild sweep`` runs: every ``alpha_fb`` with every ``alpha_rb``;
    each value obeys ``PolicyConfig``'s threshold rule."""

    alpha_fb: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9)
    alpha_rb: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0)

    def __post_init__(self) -> None:
        for key in ("alpha_fb", "alpha_rb"):
            if not getattr(self, key):
                raise FieldError(key, "the grid must be non-empty")
            for i, value in enumerate(getattr(self, key)):
                check_threshold(f"{key}[{i}]", value)


@dataclass(frozen=True)
class CostSection:
    """The cost model's descriptors (a preset name, a descriptor file or an inline
    descriptor) and optional roofline peaks, both or neither."""

    small: str | ModelDescriptor = "t5-small"
    large: str | ModelDescriptor = "t5-large"
    peak_flops: float | None = None
    peak_bandwidth: float | None = None

    def __post_init__(self) -> None:
        _peaks(self.peak_flops, self.peak_bandwidth)


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment config file; README's CLI section lists every key."""

    small_model: ModelSpec
    large_model: ModelSpec
    prompts: str
    policy: PolicyConfig = PolicyConfig(alpha_fb=0.6, alpha_rb=2.0)
    sampler: Sampler = Sampler.greedy()
    max_len: int = 32
    seed: int = 0
    strategy: str = "bild"
    strategies: tuple[str, ...] = ("bild", "vanilla_large")
    out_dir: str = "out"
    speculative_window: int = 4
    fixed_window_k: int = 3
    blend_threshold: float = 0.5
    sweep: SweepGrid = SweepGrid()
    cost: CostSection = CostSection()

    def __post_init__(self) -> None:
        for key in ("max_len", "speculative_window", "fixed_window_k"):
            if getattr(self, key) < 1:
                raise FieldError(key, f"must be >= 1, got {getattr(self, key)}")
        if not 0.0 <= self.blend_threshold <= 1.0:
            raise FieldError("blend_threshold", f"must lie in [0, 1], got {self.blend_threshold!r}")
        for key, names in (("strategy", (self.strategy,)), ("strategies", self.strategies)):
            for name in names:
                if name not in STRATEGIES:
                    raise FieldError(key, f"unknown strategy {name!r}")
        if len(self.strategies) < 2:
            raise FieldError("strategies", "compare needs at least 2 strategies")
        if self.sampler.seed != 0:
            raise FieldError(
                "sampler.seed",
                f"must be absent or 0, got {self.sampler.seed}: the top-level seed is the one seed, "
                "and each run's seed derives from it",
            )


# override flag (its argparse dest) -> the config field it replaces, dotted through sections
_OVERRIDES = {
    "alpha_fb": "policy.alpha_fb",
    "alpha_rb": "policy.alpha_rb",
    "window_cap": "policy.window_cap",
    "max_len": "max_len",
    "seed": "seed",
    "strategy": "strategy",
    "out": "out_dir",
    "strategies": "strategies",
}


def _override(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """``config`` with each given flag applied in turn; the config is valid, so an error is the flag's."""
    for dest, key in _OVERRIDES.items():
        value = getattr(args, dest, None)
        if value is not None:
            try:
                config = _replace_at(config, key.split("."), value)
            except InvalidInputError as e:
                detail = e.message if isinstance(e, FieldError) else e
                raise ConfigurationError(f"--{dest.replace('_', '-')}: {detail}") from None
    return config


def _replace_at(doc: Any, keys: list[str], value: Any) -> Any:
    head, *rest = keys
    return replace(doc, **{head: _replace_at(getattr(doc, head), rest, value) if rest else value})


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


def load_model(spec: ModelSpec, label: str) -> LanguageModel:
    """Load the model a config entry names; ``label`` names the entry in errors."""
    if not Path(spec.path).exists():
        raise ConfigurationError(f"{label}: model file not found: {spec.path}")
    if spec.vocab and not Path(spec.vocab).exists():
        raise ConfigurationError(f"{label}: vocabulary file not found: {spec.vocab}")
    vocab = load_vocabulary(spec.vocab) if spec.vocab else None
    if spec.kind == "table":
        return load_table_lm(spec.path, vocab)
    return NgramLM.load(spec.path, vocab)


class Experiment:
    """An experiment config file read as an ``ExperimentConfig``, with the flag
    overrides applied and its models and prompts loaded."""

    def __init__(self, config_path: str, args: argparse.Namespace) -> None:
        if not Path(config_path).exists():
            raise ConfigurationError(f"config file not found: {config_path}")
        config = read_dataclass(ExperimentConfig, load_json(config_path), f"{config_path}:")
        self.config = config = _override(config, args)
        self.small = load_model(config.small_model, "small_model")
        self.large = load_model(config.large_model, "large_model")
        if not Path(config.prompts).exists():
            raise ConfigurationError(f"prompts file not found: {config.prompts}")
        self.prompts = load_corpus(config.prompts, self.small.vocabulary)
        if not self.prompts:
            raise ConfigurationError(f"prompts file {config.prompts} is empty")
        self.policy = config.policy
        self.sampler = config.sampler
        self.max_len = config.max_len
        self.seed = config.seed
        self.strategy = config.strategy
        self.out_dir = Path(config.out_dir)
        self.speculative_window = config.speculative_window
        self.blend_threshold = config.blend_threshold
        self.fixed_window_k = config.fixed_window_k
        self.small_desc = _resolve_descriptor(config.cost.small, f"{config_path}: cost.small")
        self.large_desc = _resolve_descriptor(config.cost.large, f"{config_path}: cost.large")
        self.peaks = _peaks(config.cost.peak_flops, config.cost.peak_bandwidth)

    def run_strategy(
        self,
        strategy: str,
        prompt: Sequence[int],
        seed: int,
        policy: PolicyConfig | None = None,
    ) -> DecodeResult:
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


def _resolve_descriptor(spec: str | ModelDescriptor, where: str) -> ModelDescriptor:
    if isinstance(spec, ModelDescriptor):
        return spec
    if spec in PRESETS:
        return PRESETS[spec]
    if Path(spec).exists():
        return read_dataclass(ModelDescriptor, load_json(spec), f"{spec}:")
    raise ConfigurationError(f"{where}: unknown cost-model descriptor {spec!r}")


def _summaries_for_run(
    exp: Experiment,
    strategy: str,
    policy: PolicyConfig,
    prompt_idx: int,
    grid_idx: int = 0,
    reference: list[int] | None = None,
) -> tuple[DecodeResult, RunSummary, TallyReport]:
    """Decode one prompt and summarize it; ``reference``, when given, is that run's reference."""
    prompt = exp.prompts[prompt_idx]
    seed = derive_seed(exp.seed, grid_idx, prompt_idx)
    result = exp.run_strategy(strategy, prompt, seed, policy)
    if reference is None:
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
        outputs.append((trace_path, trace_text(result.trace)))
        outputs.append((summary_path, result.summary_text()))
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


def cmd_sweep(args: argparse.Namespace) -> int:
    exp = Experiment(args.config, args)
    grid = exp.config.sweep
    rows = [summary_csv_header()]
    aggregates: list[tuple[float, float, float, float, str]] = []
    grid_idx = 0
    for fb in grid.alpha_fb:
        for rb in grid.alpha_rb:
            policy = replace(exp.policy, alpha_fb=fb, alpha_rb=rb)
            summaries = []
            for i in range(len(exp.prompts)):
                _, summary, _ = _summaries_for_run(exp, "bild", policy, i, grid_idx)
                rows.append(
                    summary_csv_row(
                        f"fb{fb:g}_rb{rb:g}_p{i}", fb, rb, policy.window_cap, "bild", summary
                    )
                )
                summaries.append(summary)
            mean = mean_summary(summaries)
            aggregates.append(
                (fb, rb, mean.agreement_with_reference, mean.modeled_speedup, f"fb{fb:g}_rb{rb:g}")
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
    print(f"sweep: {len(grid.alpha_fb) * len(grid.alpha_rb)} grid points x {len(exp.prompts)} prompts")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    exp = Experiment(args.config, args)
    # Every strategy runs prompt i with the seed derive_seed(exp.seed, 0, i),
    # so they share one reference per prompt.
    references = [exp.reference(p, derive_seed(exp.seed, 0, i)) for i, p in enumerate(exp.prompts)]
    rows = [summary_csv_header() + ",flops,mops,invocations"]
    for strategy in exp.config.strategies:
        summaries = []
        flops = mops = 0.0
        invocations = 0
        for i in range(len(exp.prompts)):
            _, summary, tally = _summaries_for_run(exp, strategy, exp.policy, i, reference=references[i])
            summaries.append(summary)
            flops += tally.bild.flops
            mops += tally.bild.mops
            invocations += tally.bild.invocations
        mean = mean_summary(summaries)
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
    small_desc = _resolve_descriptor(args.small_desc, "--small-desc")
    large_desc = _resolve_descriptor(args.large_desc, "--large-desc")
    if args.prompt_len < 0:
        raise ConfigurationError(f"--prompt-len: must be >= 0, got {args.prompt_len}")
    if args.trace:
        if not Path(args.trace).exists():
            raise ConfigurationError(f"trace file not found: {args.trace}")
        trace = load_trace(args.trace)
    else:
        if args.tokens < 1:
            raise ConfigurationError(f"--tokens: must be >= 1, got {args.tokens}")
        trace = synthesize_rate_trace(args.tokens, args.fallback_rate, args.rollback_rate)
    peaks = _peaks(args.peak_flops, args.peak_bandwidth, ("--peak-flops", "--peak-bandwidth"))
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
    _atomic_write(Path(args.out), model.to_json_text())
    print(f"fit {args.order}-gram on {len(corpus)} sequences -> {args.out}")
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    large = load_model(ModelSpec(args.large_kind, args.large, args.vocab), "large_model")
    prompts = load_corpus(args.prompts, large.vocabulary)
    if not prompts:
        raise ConfigurationError(f"prompts file {args.prompts} is empty")
    model = align_small(large, prompts, args.order, args.smoothing, args.max_len)
    _atomic_write(Path(args.out), model.to_json_text())
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
    p.add_argument(
        "--strategies",
        type=lambda text: tuple(name.strip() for name in text.split(",")),
        default=None,
        help="comma-separated strategy list",
    )
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
    p.add_argument("--large-kind", dest="large_kind", default="ngram", choices=MODEL_KINDS)
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
    except (BildError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
