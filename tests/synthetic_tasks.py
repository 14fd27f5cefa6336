"""Seeded synthetic task families, and a table-model file writer, for the test suite.

The two-phrasing family pits a small model trained on one phrasing of a
template language against a large model that prefers a different wording
for the same slot. The small model is confidently wrong exactly where the
corpora diverge, which is the situation the rollback rule exists for and
the situation prediction alignment removes.

The skill-gap family fits both models on samples from a common gold
generator, giving the large model far more data; it is used to study how
blending large-model predictions into the small model's output moves
quality between the two endpoints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from bild import NgramLM, PolicyConfig, Sampler, TableLM, Vocabulary, fit_ngram, generate_corpus
from bild.toymodels import DEFAULT_ROW_MARK
from bild.vocab import EMPTY_SEQUENCE_MARK

# Token roles within the template language (eos is id 7).
STARTER_A, STARTER_B = 0, 1
CONNECTIVE = 2
PHRASE_A, PHRASE_B = 3, 4
TAIL_A, TAIL_B = 5, 6

VOCAB = Vocabulary(
    size=8,
    eos=7,
    tokens=("w0", "w1", "w2", "w3", "w4", "w5", "w6", "<eos>"),
)

# Thresholds tuned for this family: sentences run ~5 tokens, so a window
# cap of 3 guarantees at least one verification pass per sentence.
SUGGESTED_CONFIG = PolicyConfig(alpha_fb=0.6, alpha_rb=2.0, window_cap=3)


def _template_corpus(
    rng: random.Random, n: int, phrase_b_frac: float, noise: float = 0.1
) -> list[list[int]]:
    """Sentences ``[starter, connective, phrasing, tail, eos]`` plus noise."""
    corpus = []
    for _ in range(n):
        if rng.random() < noise:
            length = rng.randint(2, 4)
            corpus.append([rng.randrange(VOCAB.size - 1) for _ in range(length)] + [VOCAB.eos])
            continue
        starter = STARTER_A if rng.random() < 0.7 else STARTER_B
        phrase = PHRASE_B if rng.random() < phrase_b_frac else PHRASE_A
        tail = TAIL_A if rng.random() < 0.75 else TAIL_B
        corpus.append([starter, CONNECTIVE, phrase, tail, VOCAB.eos])
    return corpus


@dataclass(frozen=True)
class PhrasingTask:
    """Two models that phrase the same template language differently."""

    vocabulary: Vocabulary
    small: NgramLM
    large: NgramLM
    original_corpus: list[list[int]]
    calibration_prompts: list[list[int]]
    heldout_prompts: list[list[int]]
    eval_prompts: list[list[int]]
    config: PolicyConfig
    order: int
    smoothing: float


def two_phrasing_task(seed: int) -> PhrasingTask:
    """Build one seeded instance of the two-phrasing family."""
    rng = random.Random(seed)
    n_original = rng.randint(30, 60)
    n_large = rng.randint(40, 80)
    original = _template_corpus(rng, n_original, phrase_b_frac=rng.uniform(0.02, 0.08))
    large_corpus = _template_corpus(rng, n_large, phrase_b_frac=rng.uniform(0.90, 0.97))
    order, smoothing = 2, 0.05
    return PhrasingTask(
        vocabulary=VOCAB,
        small=fit_ngram(original, order, smoothing, VOCAB),
        large=fit_ngram(large_corpus, order, smoothing, VOCAB),
        original_corpus=original,
        calibration_prompts=[[], [STARTER_A], [STARTER_B]],
        heldout_prompts=[[STARTER_A], [STARTER_B], [STARTER_A, CONNECTIVE]],
        eval_prompts=[[], [STARTER_A], [STARTER_B]],
        config=SUGGESTED_CONFIG,
        order=order,
        smoothing=smoothing,
    )


def _branching_corpus(rng: random.Random, n: int) -> list[list[int]]:
    """Template sentences with stochastic slot choices for the gold model."""
    corpus = []
    for _ in range(n):
        starter = STARTER_A if rng.random() < 0.6 else STARTER_B
        phrase = PHRASE_A if rng.random() < 0.65 else PHRASE_B
        tail = TAIL_A if rng.random() < 0.7 else TAIL_B
        seq = [starter, CONNECTIVE, phrase, tail]
        if rng.random() < 0.3:
            seq.append(TAIL_B if rng.random() < 0.6 else TAIL_A)
        seq.append(VOCAB.eos)
        corpus.append(seq)
    return corpus


@dataclass(frozen=True)
class SkillGapTask:
    """Small and large models fit on unequal samples from one gold model."""

    vocabulary: Vocabulary
    gold: NgramLM
    small: NgramLM
    large: NgramLM
    heldout: list[list[int]]
    eval_prompts: list[list[int]]


def skill_gap_task(seed: int, large_samples: int = 120, small_samples: int = 10) -> SkillGapTask:
    """Build one seeded instance of the skill-gap family."""
    rng = random.Random(seed)
    gold = fit_ngram(_branching_corpus(rng, 300), 2, 0.1, VOCAB)
    base = seed * 10_007
    large_corpus = generate_corpus(
        gold, [[]] * large_samples, Sampler.temperature(1.0, seed=base + 1), 10
    )
    small_corpus = generate_corpus(
        gold, [[]] * small_samples, Sampler.temperature(1.0, seed=base + 5_001), 10
    )
    heldout = generate_corpus(
        gold, [[]] * 30, Sampler.temperature(1.0, seed=base + 9_001), 10
    )
    return SkillGapTask(
        vocabulary=VOCAB,
        gold=gold,
        small=fit_ngram(small_corpus, 2, 0.1, VOCAB),
        large=fit_ngram(large_corpus, 2, 0.1, VOCAB),
        heldout=heldout,
        eval_prompts=[[], [STARTER_A], [STARTER_B]],
    )


def save_table_lm(model: TableLM, path: str | Path) -> None:
    """Write ``model`` in the table-model file format ``load_table_lm`` reads."""
    vocab = model.vocabulary
    lines = []
    for ctx in sorted(model._rows):
        ctx_str = " ".join(vocab.symbol(t) for t in ctx) if ctx else EMPTY_SEQUENCE_MARK
        probs = " ".join(repr(p) for p in model._rows[ctx].to_list())
        lines.append(f"{ctx_str} | {probs}")
    probs = " ".join(repr(p) for p in model.default_row.to_list())
    lines.append(f"{DEFAULT_ROW_MARK} | {probs}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
