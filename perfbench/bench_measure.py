"""Rounds of timed decodes and CLI passes, the output checks and the digest.

End-to-end metrics come from here, with tracing off. No check runs inside
a timed call.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import time
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from bild import (
    PRESETS,
    BildError,
    Sampler,
    SpecConfig,
    bild_decode,
    replay_trace,
    speculative_decode,
    tally_trace,
    vanilla_decode,
)
from bild import cli
from bild.metrics import CSV_COLUMNS
from bild.trace import Fallback, LargeVerify, Rejection, Rollback, event_to_json_dict

from bench_inputs import CLI_GRID, DECODE_STRATEGIES, Workload

CLI_OUTPUTS = ("sweep.csv", "pareto.csv", "compare.csv", "cost.json")
MIN_ROUNDS = 2  # a timed run; each task's time is its best round, so it needs two


@dataclass
class Decode:
    strategy: str
    index: int  # prompt index; the sampler seed derives from it
    seconds: list[float]  # wall time of each round
    tokens: int
    problems: list[str]
    speedup: float | None  # modeled by tally_trace
    result: object  # of the first round: DecodeResult or the exception


@dataclass
class CliRuns:
    seconds: dict[str, list[float]] = field(default_factory=dict)
    outputs: dict[str, bytes] | None = None  # files of the first pass
    problems: list[str] = field(default_factory=list)
    attempted: int = 0


def library_decoders() -> dict[str, Callable]:
    return {"bild": bild_decode, "speculative": speculative_decode, "vanilla_large": vanilla_decode}


def run_decode(exp: cli.Experiment, decoders: dict[str, Callable], strategy: str, index: int):
    """One decode through the library API, with the CLI's seed derivation."""
    prompt = exp.prompts[index % len(exp.prompts)]
    seed = cli.derive_seed(exp.seed, 0, index % len(exp.prompts))
    sampler = replace(exp.sampler, seed=seed)
    if strategy == "bild":
        return decoders["bild"](exp.small, exp.large, exp.policy, sampler, prompt, exp.max_len)
    if strategy == "speculative":
        return decoders["speculative"](
            exp.small,
            exp.large,
            SpecConfig(window=exp.speculative_window, seed=seed),
            prompt,
            exp.max_len,
            draft_sampler=sampler if sampler.is_stochastic else Sampler.greedy(),
        )
    return decoders["vanilla_large"](exp.large, prompt, sampler, exp.max_len)


def measure(
    workload: Workload,
    exp: cli.Experiment,
    decode: Callable[[str, int], object],
    work: Path,
    seconds: float,
    min_rounds: int = MIN_ROUNDS,
    between_rounds: Callable[[], None] | None = None,
):
    """Rounds over the workload's fixed task set, for about ``seconds`` of work.

    A round runs every task once: the first ``workload.decodes`` prompts of
    each strategy, interleaved, then ``workload.cli_passes`` CLI passes. Every decode of the
    first round is checked; later rounds must repeat its output exactly.
    A new round starts only while it is expected to end within
    ``seconds``, after ``min_rounds`` have run. ``between_rounds`` runs,
    untimed here, before every round after the first. Returns the decodes,
    the CLI runs and the number of rounds.
    """
    tasks = [
        (s, i)
        for i in range(max(workload.decodes))
        for s, n in zip(DECODE_STRATEGIES, workload.decodes)
        if i < n
    ]
    done: dict[tuple[str, int], Decode] = {}
    cli_runs = CliRuns(seconds={name: [] for name in cli_commands(workload, work)})
    busy, rounds = 0.0, 0
    while rounds < min_rounds or busy * (rounds + 1) / rounds <= seconds:
        if rounds and between_rounds is not None:
            between_rounds()
        for strategy, index in tasks:
            t0 = time.perf_counter()
            try:
                result = decode(strategy, index)
            except Exception as exc:  # a failed decode is recorded, not fatal
                traceback.print_exc()
                result = exc
            elapsed = time.perf_counter() - t0
            busy += elapsed
            d = done.get((strategy, index))
            if d is None:
                problems, speedup = check_decode(exp, strategy, index, result)
                tokens = 0 if isinstance(result, Exception) else len(result.sequence)
                done[strategy, index] = Decode(strategy, index, [elapsed], tokens, problems, speedup, result)
                continue
            d.seconds.append(elapsed)
            if not same_output(d.result, result):
                d.problems.append(f"round {rounds + 1} output differs from round 1")
        for _ in range(workload.cli_passes):
            busy += cli_pass(workload, work, cli_runs)
        rounds += 1
    return list(done.values()), cli_runs, rounds


def same_output(first, again) -> bool:
    if isinstance(first, Exception) or isinstance(again, Exception):
        return repr(first) == repr(again)
    return first.sequence == again.sequence and first.trace == again.trace


def cli_commands(workload: Workload, work: Path) -> dict[str, list[str]]:
    config = str(work / "cli.json")
    return {
        "sweep": ["sweep", "--config", config],
        "compare": ["compare", "--config", config, "--strategies", ",".join(cli.STRATEGIES)],
        "cost": ["cost", "--tokens", str(workload.cost_tokens), "--out", str(work / "cli_out" / "cost.json")],
    }


def cli_pass(workload: Workload, work: Path, runs: CliRuns) -> float:
    """One pass of sweep, compare and cost through ``cli.main``; its seconds."""
    out = work / "cli_out"
    for name in CLI_OUTPUTS:
        (out / name).unlink(missing_ok=True)
    total = 0.0
    for name, argv in cli_commands(workload, work).items():
        runs.attempted += 1
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # recorded as a failed command
            traceback.print_exc()
            code = repr(exc)
        elapsed = time.perf_counter() - t0
        runs.seconds[name].append(elapsed)
        total += elapsed
        if code != 0:
            runs.problems.append(f"bild {name} exited with {code}")
    files = {name: (out / name).read_bytes() for name in CLI_OUTPUTS if (out / name).exists()}
    if runs.outputs is None:
        runs.outputs = files
    elif files != runs.outputs:
        runs.problems.append("CLI outputs differ between passes")
    return total


def check_decode(exp: cli.Experiment, strategy: str, index: int, r) -> tuple[list[str], float | None]:
    """Problems found in one decode, and its modeled speedup."""
    if isinstance(r, Exception):
        return [f"raised {r!r}"], None
    problems = []
    if replay_trace(r.trace, exp.max_len) != r.sequence:
        problems.append("trace replay differs from the sequence")
    fallbacks = sum(isinstance(e, Fallback) for e in r.trace)
    verifies = sum(isinstance(e, LargeVerify) for e in r.trace)
    discarded = sum(e.tokens_discarded for e in r.trace if isinstance(e, (Rollback, Rejection)))
    c = r.counters
    if (c.fallback_count, c.large_calls, c.tokens_discarded) != (fallbacks, verifies, discarded):
        problems.append("counters disagree with the trace")
    if not 1 <= len(r.sequence) <= exp.max_len:
        problems.append(f"length {len(r.sequence)} outside [1, {exp.max_len}]")
    if any(not 0 <= t < exp.small.vocabulary.size for t in r.sequence):
        problems.append("token outside the vocabulary")
    actor = PRESETS["t5-large"] if strategy == "vanilla_large" else PRESETS["t5-small"]
    prompt = exp.prompts[index % len(exp.prompts)]
    try:
        report = tally_trace(r.trace, actor, PRESETS["t5-large"], prompt_len=len(prompt), max_len=exp.max_len)
    except BildError as exc:  # a trace the cost model rejects is a wrong output
        return problems + [f"tally_trace rejected the trace: {exc!r}"], None
    return problems, report.speedup_estimate


def check_cli(runs: CliRuns, workload: Workload) -> list[str]:
    problems = list(runs.problems)
    files = runs.outputs or {}
    missing = [name for name in CLI_OUTPUTS if name not in files]
    if missing:
        return problems + [f"CLI outputs missing: {missing}"]
    text = {name: files[name].decode() for name in CLI_OUTPUTS}
    sweep = text["sweep.csv"].splitlines()
    rows = len(CLI_GRID["alpha_fb"]) * len(CLI_GRID["alpha_rb"]) * workload.cli_prompts
    if sweep[0] != ",".join(CSV_COLUMNS) or len(sweep) != rows + 1:
        problems.append("sweep.csv has the wrong header or row count")
    if any(len(line.split(",")) != len(CSV_COLUMNS) for line in sweep):
        problems.append("sweep.csv has a row of the wrong width")
    if len(text["pareto.csv"].splitlines()) < 2:
        problems.append("pareto.csv has no front")
    if len(text["compare.csv"].splitlines()) != len(cli.STRATEGIES) + 1:
        problems.append("compare.csv does not list every strategy")
    cost = json.loads(text["cost.json"])
    if not cost["speedup_estimate"] > 0 or cost["bild"]["invocations"] < 1:
        problems.append("cost report is empty")
    return problems


def digest(decodes: list[Decode], cli_outputs: dict[str, bytes] | None) -> str:
    """SHA-256 over the first round's decodes (sequence and trace JSONL) and CLI files."""
    h = hashlib.sha256()
    for d in sorted(decodes, key=lambda d: (DECODE_STRATEGIES.index(d.strategy), d.index)):
        h.update(f"{d.strategy}/{d.index}\n".encode())
        if d.result is None or isinstance(d.result, Exception):
            h.update(repr(d.result).encode())
            continue
        h.update(json.dumps(d.result.sequence).encode())
        for event in d.result.trace:
            h.update(json.dumps(event_to_json_dict(event)).encode() + b"\n")
    for name, data in sorted((cli_outputs or {}).items()):
        h.update(name.encode() + b"\n" + data)
    return h.hexdigest()


def problems_and_speedup(decodes: list[Decode], cli_runs: CliRuns, workload: Workload):
    """All output problems, and the mean modeled speedup of the bild decodes."""
    problems = [f"{d.strategy}/p{d.index}: {p}" for d in decodes for p in d.problems]
    problems += [f"cli: {p}" for p in check_cli(cli_runs, workload)]
    speedups = [d.speedup for d in decodes if d.strategy == "bild" and d.speedup is not None]
    return problems, (statistics.fmean(speedups) if speedups else float("nan"))


def decode_metrics(decodes: list[Decode]) -> dict[str, float]:
    """Throughput and median over the decodes, each timed by its best round.

    The best of several rounds of the same deterministic decode is its
    time with the least interference from the shared host (see
    BENCHMARK.md, Noise).
    """
    out = {}
    for s in DECODE_STRATEGIES:
        ok = [d for d in decodes if d.strategy == s and not d.problems]
        secs = sorted(min(d.seconds) for d in ok) or [float("nan")]
        out[f"{s}.tok_s"] = sum(d.tokens for d in ok) / sum(secs)
        out[f"{s}.decode_ms_p50"] = 1e3 * statistics.median(secs)
    return out

