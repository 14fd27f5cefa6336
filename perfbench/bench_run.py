"""One benchmark run of one workload: set-up, warm-up, measurement, checks."""

from __future__ import annotations

import copy
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path
from typing import Callable

from bild import cli

from bench_inputs import DECODE_STRATEGIES, SETUP_REPEATS, WORKLOADS, Workload, setup
from bench_measure import (
    decode_metrics,
    digest,
    library_decoders,
    measure,
    problems_and_speedup,
    run_decode,
)

__all__ = ["WORKLOADS", "run"]


def warm_up(exp: cli.Experiment, work: Path) -> None:
    short = copy.copy(exp)
    short.max_len = min(16, exp.max_len)
    for strategy in DECODE_STRATEGIES:
        run_decode(short, library_decoders(), strategy, 0)
    with redirect_stdout(io.StringIO()):
        cli.main(["cost", "--tokens", "100", "--out", str(work / "warm_up_cost.json")])


def timed(workload: Workload, exp: cli.Experiment, seconds: float, work: Path, rebuild: Callable[[], None]):
    decodes, cli_runs, rounds = measure(
        workload, exp, partial(run_decode, exp, library_decoders()), work, seconds, between_rounds=rebuild
    )
    values = decode_metrics(decodes)
    values.update({f"{name}_s": min(t) for name, t in cli_runs.seconds.items()})
    counts = {s: sum(d.strategy == s for d in decodes) for s in DECODE_STRATEGIES}
    report = [f"rounds: {rounds}; decodes per strategy and round: {counts}; CLI passes per round: {workload.cli_passes}"]
    return [(decodes, cli_runs)], values, report


def traced(workload: Workload, exp: cli.Experiment, work: Path, spans_path: Path):
    """One round plainly, then one traced; per-layer metrics from the spans."""
    from bench_trace import Instrumentation, Recorder, layer_metrics, traced_model

    t0 = time.perf_counter()
    plain = measure(workload, exp, partial(run_decode, exp, library_decoders()), work, 0.0, min_rounds=1)[:2]
    plain_s = time.perf_counter() - t0
    rec = Recorder()
    inst = Instrumentation(rec, f"{workload.name}/cli")
    inst.install()
    try:
        texp = copy.copy(exp)
        texp.small = traced_model(rec, exp.small, "small")
        texp.large = traced_model(rec, exp.large, "large")
        decoders = inst.library_decoders()

        def decode(strategy: str, index: int):
            rec.decode_id = f"{workload.name}/decode/{strategy}/p{index}"
            try:
                return run_decode(texp, decoders, strategy, index)
            finally:
                rec.decode_id = None

        t0 = time.perf_counter()
        decodes, cli_runs, _ = measure(workload, exp, decode, work, 0.0, min_rounds=1)
        traced_s = time.perf_counter() - t0
    finally:
        inst.restore()
    values = layer_metrics(rec)
    values["trace.overhead_s"] = traced_s - plain_s
    rec.write(spans_path)
    report = [f"plain {plain_s:.3f} s, traced {traced_s:.3f} s; {len(rec.spans)} spans -> {spans_path}"]
    return [plain, (decodes, cli_runs)], values, report


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, default_seed: int):
    workload = WORKLOADS[name]
    out = root / ".perfbench"
    work = out / f"{name}-{seed}-{'trace' if trace else 'time'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        exp, timed_build = setup(workload, seed, work)
        setup_times = [timed_build() for _ in range(SETUP_REPEATS)]
        warm_up(exp, work)
        gc.collect()
        if trace:
            passes, values, report = traced(workload, exp, work, out / f"spans-{name}-{seed}.jsonl")
        else:
            rebuild = lambda: setup_times.append(timed_build())
            passes, values, report = timed(workload, exp, seconds, work, rebuild)
        problems, attempted, failed, digests = [], 0, 0, []
        for decodes, cli_runs in passes:
            found, speedup = problems_and_speedup(decodes, cli_runs, workload)
            problems += found
            attempted += sum(len(d.seconds) for d in decodes) + cli_runs.attempted
            failed += len({p.split(":")[0] for p in found})  # distinct decodes or "cli"
            digests.append(digest(decodes, cli_runs.outputs))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(set(digests)) != 1:
        problems.append("traced outputs differ from plain outputs")
    recorded = json.loads((Path(__file__).resolve().parent / "digests.json").read_text(encoding="utf-8"))
    if seed == default_seed:
        if recorded.get(name) != digests[0]:
            problems.append(f"output digest {digests[0]} differs from the recorded {recorded.get(name)}")
    values["setup_s"] = statistics.median(setup_times)
    values["bild.modeled_speedup"] = speedup
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.append(f"set-up builds: {len(setup_times)}")
    report.append(f"output digest (seed {seed}): {digests[0]}")
    report.append(f"failed_frac: {failed / attempted if attempted else 1.0} ({failed} of {attempted})")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    failed = max(failed, 1) if problems else 0
    return {"correct": not problems, "attempted": attempted, "failed": failed, "values": values}, report
