import math

import pytest

from bild import (
    InvalidInputError,
    PolicyConfig,
    Sampler,
    Vocabulary,
    agreement,
    bild_decode,
    fit_ngram,
    perplexity,
    summarize,
    vanilla_decode,
)
from bild.metrics import CSV_COLUMNS, summary_csv_header, summary_csv_row
from conftest import make_table

A, B, EOS = 0, 1, 2


@pytest.fixture
def vocab3():
    return Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))


def test_agreement_identical():
    assert agreement([A, B, EOS], [A, B, EOS]) == 1.0


def test_agreement_half():
    assert agreement([A, A], [A, B]) == 0.5


def test_agreement_empty_vs_nonempty():
    assert agreement([], [A]) == 0.0
    assert agreement([], []) == 1.0


def test_agreement_length_mismatch_penalized():
    assert agreement([A, B], [A, B, EOS, EOS]) == 0.5


def test_perplexity_perfect_model(vocab3):
    model = make_table(vocab3, default=[0.0, 0.0, 1.0], rows={(): [1.0, 0.0, 0.0], (A,): [0.0, 1.0, 0.0]})
    assert perplexity(model, [[A, B]]) == pytest.approx(1.0)


def test_perplexity_uniform_model():
    vocab = Vocabulary(size=4, eos=3)
    model = make_table(vocab, default=[0.25, 0.25, 0.25, 0.25])
    assert perplexity(model, [[0, 1, 2], [3, 0]]) == pytest.approx(4.0)


def test_perplexity_bigram_hand_product(vocab3):
    model = fit_ngram([[A, B, A, B]], 2, 1.0, vocab3)
    # conditionals on the training sequence: 0.5 (BOS->a), 0.6 (a->b),
    # 0.5 (b->a), 0.6 (a->b)
    expected = math.exp(-(math.log(0.5) + math.log(0.6) + math.log(0.5) + math.log(0.6)) / 4)
    assert perplexity(model, [[A, B, A, B]]) == pytest.approx(expected)


def test_perplexity_rejects_empty():
    vocab = Vocabulary(size=4, eos=3)
    model = make_table(vocab, default=[0.25, 0.25, 0.25, 0.25])
    with pytest.raises(InvalidInputError):
        perplexity(model, [])


def test_summarize_no_fallbacks(vocab3):
    model = make_table(vocab3, default=[0.05, 0.05, 0.9])
    result = vanilla_decode(model, [], Sampler.greedy(), 4)
    summary = summarize(result)
    assert summary.fallback_pct == 0.0
    assert summary.rollback_pct == 0.0
    assert summary.agreement_with_reference is None
    assert summary.perplexity_under_model is None
    assert summary.modeled_speedup is None


def test_summarize_golden_trace(vocab3):
    small = make_table(vocab3, default=[0.9, 0.05, 0.05])
    large = make_table(vocab3, default=[0.05, 0.9, 0.05])
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    summary = summarize(result)
    # 12 drafted tokens, all discarded; 4 handovers over 16 iterations
    assert summary.rollback_pct == 1.0
    assert summary.fallback_pct == pytest.approx(4 / 16)


def test_summarize_pure_large_run(vocab3):
    small = make_table(vocab3, default=[0.9, 0.05, 0.05])
    large = make_table(vocab3, default=[0.05, 0.9, 0.05])
    config = PolicyConfig(alpha_fb=1.01, alpha_rb=2.0, window_cap=10)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    summary = summarize(result)
    assert summary.rollback_pct == 0.0  # no drafted tokens: 0 by convention
    assert summary.fallback_pct == 1.0


def test_summarize_with_reference_and_model(vocab3):
    model = make_table(vocab3, default=[0.05, 0.05, 0.9])
    result = vanilla_decode(model, [], Sampler.greedy(), 4)
    summary = summarize(result, reference=[EOS], eval_model=model)
    assert summary.agreement_with_reference == 1.0
    assert summary.perplexity_under_model == pytest.approx(1 / 0.9)


def test_summary_fields_stay_in_range():
    from conftest import random_model_pair

    for seed in range(40):
        vocab, small, large = random_model_pair(seed)
        config = PolicyConfig(alpha_fb=0.6, alpha_rb=1.0, window_cap=2)
        result = bild_decode(small, large, config, Sampler.greedy(), [], 12)
        summary = summarize(result, reference=[vocab.eos], eval_model=large)
        assert 0.0 <= summary.fallback_pct <= 1.0
        assert 0.0 <= summary.rollback_pct <= 1.0
        assert 0.0 <= summary.agreement_with_reference <= 1.0
        assert summary.perplexity_under_model >= 1.0


def test_csv_row_shape():
    header = summary_csv_header()
    assert header.split(",") == CSV_COLUMNS
    from bild import RunSummary

    row = summary_csv_row(
        "p0",
        0.5,
        2.0,
        10,
        "bild",
        RunSummary(
            fallback_pct=0.25,
            rollback_pct=1.0,
            agreement_with_reference=0.75,
            perplexity_under_model=None,
            modeled_speedup=1.5,
        ),
    )
    fields = row.split(",")
    assert len(fields) == len(CSV_COLUMNS)
    assert fields[0] == "p0"
    assert fields[4] == "bild"
    assert fields[6] == ""  # absent perplexity stays blank
