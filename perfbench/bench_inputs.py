"""Seeded workload definitions and input generation for the benchmark.

Everything the package receives is generated here from the workload's
name and seed: a corpus sampled from a second-order Markov chain, the
bigram (small) and trigram (large) n-gram models fit on it, prompt files
and CLI experiment configs. The chain never emits end-of-sequence, so
decodes run to their length budget and every decode of a workload
commits the same number of tokens.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from bild import Vocabulary, fit_ngram, save_corpus, save_vocabulary
from bild.cli import Experiment

# Decode policy shared by every workload (ROADMAP re-anchor baseline).
POLICY = {"alpha_fb": 0.3, "alpha_rb": 3.0, "window_cap": 8}
SPEC_WINDOW = 4
SMALL_ORDER, LARGE_ORDER = 2, 3
# The small model's smoothing mass per unseen token stays above the large
# model's, so speculative residuals max(0, p_L - p_S) put no mass outside
# the chain's support and end-of-sequence stays rare.
SMALL_SMOOTHING, LARGE_SMOOTHING = 1e-2, 1e-6
# Probabilities of a chain state's successors, most likely first. The
# small model often falls below alpha_fb=0.3 under this profile.
PROFILE = (0.5, 0.2, 0.1, 0.08, 0.05, 0.04, 0.02, 0.01)
# Share of the chain's contexts that keep their state's profile order; the
# rest permute it, and there the trigram large model disagrees with the
# bigram small model.
KEEP_ORDER = 0.6
WALKS = 4  # corpus walks per workload
PROMPT_LEN = 8
NUCLEUS = {"kind": "nucleus", "p": 0.9}
DECODE_STRATEGIES = ("bild", "speculative", "vanilla_large")
SETUP_REPEATS = 3  # timed builds before the first round; one more follows each round


@dataclass(frozen=True)
class Workload:
    """Inputs and time split of one workload; BENCHMARK.md says why each exists."""

    name: str
    vocab_size: int
    walk_len: int
    max_len: int
    prompt_pool: int
    decodes: tuple[int, int, int]  # decodes per round for each of DECODE_STRATEGIES; all are checked
    cli_passes: int  # CLI passes per round
    cli_max_len: int
    cli_prompts: int
    cost_tokens: int


CLI_GRID = {"alpha_fb": [0.3, 0.6], "alpha_rb": [3.0, 5.0]}  # the sweep's threshold grid
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ngram-long", vocab_size=64, walk_len=12_000,
            max_len=128, prompt_pool=256, decodes=(16, 16, 48), cli_passes=2,
            cli_max_len=32, cli_prompts=2, cost_tokens=20_000,
        ),
        Workload(
            name="ngram-wide", vocab_size=1024, walk_len=40_000,
            max_len=32, prompt_pool=1024, decodes=(20, 20, 32), cli_passes=1,
            cli_max_len=16, cli_prompts=1, cost_tokens=20_000,
        ),
    )
}


def _chain_walk(rng: random.Random, workload: Workload, rows: dict, succ: dict, n: int) -> list[int]:
    """``n`` tokens of the second-order chain; rows are drawn lazily per context."""
    states = range(workload.vocab_size - 1)
    k = len(PROFILE)
    a, b = rng.choice(states), rng.choice(states)
    out = [a, b]
    for _ in range(n - 2):
        cum = rows.get((a, b))
        if cum is None:
            order = range(k) if rng.random() < KEEP_ORDER else rng.sample(range(k), k)
            total, cum = 0.0, []
            for i in order:
                total += PROFILE[i]
                cum.append(total)
            rows[(a, b)] = cum
        u = rng.random() * cum[-1]
        i = 0
        while cum[i] < u:
            i += 1
        a, b = b, succ[b][i]
        out.append(b)
    return out


def generate(workload: Workload, seed: int) -> tuple[list[list[int]], list[list[int]]]:
    """The training corpus and the prompt pool for one workload seed.

    The chain, and so the models, are fixed per workload: a random chain's
    structure moves fallback and rollback rates, and with them throughput,
    by up to 2x from one chain to the next, which would bury any code
    change. The seed picks the prompts and the samplers' seeds.
    """
    rng = random.Random(f"{workload.name}/model")
    states = list(range(workload.vocab_size - 1))
    succ = {b: rng.sample(states, len(PROFILE)) for b in states}
    rows: dict = {}
    corpus = [_chain_walk(rng, workload, rows, succ, workload.walk_len) for _ in range(WALKS)]
    rng = random.Random(f"{workload.name}/prompts/{seed}")
    held_out = _chain_walk(rng, workload, rows, succ, workload.prompt_pool * PROMPT_LEN)
    prompts = [held_out[i * PROMPT_LEN : (i + 1) * PROMPT_LEN] for i in range(workload.prompt_pool)]
    return corpus, prompts


def vocabulary(workload: Workload) -> Vocabulary:
    size = workload.vocab_size
    return Vocabulary(size=size, eos=size - 1, tokens=tuple(f"t{i}" for i in range(size - 1)) + ("<eos>",))


def _config(workload: Workload, work: Path, seed: int, prompts: str, max_len: int, out: str) -> dict:
    model = lambda name: {"kind": "ngram", "path": str(work / name), "vocab": str(work / "vocab.txt")}
    return {
        "small_model": model("small.json"),
        "large_model": model("large.json"),
        "policy": POLICY,
        "sampler": NUCLEUS,
        "prompts": str(work / prompts),
        "max_len": max_len,
        "seed": seed,
        "speculative_window": SPEC_WINDOW,
        "out_dir": str(work / out),
    }


def build(workload: Workload, seed: int, corpus, prompts, work: Path) -> Experiment:
    """Fit and save both models, write prompts and configs, load the experiment.

    This is the timed set-up: everything a user of the package does before
    the first decode.
    """
    vocab = vocabulary(workload)
    save_vocabulary(vocab, work / "vocab.txt")
    fit_ngram(corpus, SMALL_ORDER, SMALL_SMOOTHING, vocab).save(work / "small.json")
    fit_ngram(corpus, LARGE_ORDER, LARGE_SMOOTHING, vocab).save(work / "large.json")
    save_corpus(prompts, vocab, work / "prompts.txt")
    save_corpus(prompts[: workload.cli_prompts], vocab, work / "cli_prompts.txt")
    decode = _config(workload, work, seed, "prompts.txt", workload.max_len, "decode_out")
    cli = _config(workload, work, seed, "cli_prompts.txt", workload.cli_max_len, "cli_out")
    cli["sweep"] = CLI_GRID
    (work / "decode.json").write_text(json.dumps(decode), encoding="utf-8")
    (work / "cli.json").write_text(json.dumps(cli), encoding="utf-8")
    return Experiment(str(work / "decode.json"), argparse.Namespace())


def setup(workload: Workload, seed: int, work: Path) -> tuple[Experiment, Callable[[], float]]:
    """Generate inputs once and build; returns the experiment and a timed rebuild.

    The rebuild writes the same files again and returns its seconds. Each
    starts from a collected heap with no earlier rebuild alive, so the
    repeats do the same work.
    """
    corpus, prompts = generate(workload, seed)

    def timed_build() -> float:
        gc.collect()
        t0 = time.perf_counter()
        build(workload, seed, corpus, prompts, work)
        return time.perf_counter() - t0

    return build(workload, seed, corpus, prompts, work), timed_build
