import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bild import InvalidInputError, Vocabulary, fit_ngram
from bild.toymodels import BOS
from conftest import make_table, random_corpus


@pytest.fixture
def vocab5():
    return Vocabulary(size=5, eos=4)


def test_score_next_table_lookup(vocab3):
    model = make_table(vocab3, default=[0.7, 0.2, 0.1])
    assert model.score_next([]).to_list() == [0.7, 0.2, 0.1]


def test_score_next_rejects_bad_tokens(vocab3):
    model = make_table(vocab3, default=[0.7, 0.2, 0.1])
    with pytest.raises(InvalidInputError):
        model.score_next([3])
    with pytest.raises(InvalidInputError):
        model.score_next([-1])


def test_score_all_rejects_empty(vocab3):
    model = make_table(vocab3, default=[0.7, 0.2, 0.1])
    with pytest.raises(InvalidInputError):
        model.score_all([])


def test_score_all_single_token_matches_score_next(vocab3):
    model = make_table(vocab3, default=[0.5, 0.3, 0.2], rows={(0,): [0.1, 0.8, 0.1]})
    [only] = model.score_all([0])
    assert only.to_list() == model.score_next([0]).to_list() == [0.1, 0.8, 0.1]


def test_score_all_table_example(vocab3):
    model = make_table(
        vocab3,
        default=[0.5, 0.3, 0.2],
        rows={(): [0.7, 0.2, 0.1], (0,): [0.1, 0.8, 0.1]},
    )
    scores = model.score_all([0, 1])
    assert scores[0].to_list() == [0.1, 0.8, 0.1]
    assert scores[1].to_list() == [0.5, 0.3, 0.2]  # default row for unlisted prefix


def test_score_all_agrees_with_score_next_exactly(vocab5):
    # random sequences up to length 12 over a 5-token vocabulary
    rng = random.Random(0)
    model = fit_ngram(random_corpus(rng, vocab5, 12), 2, 0.5, vocab5)
    for trial in range(50):
        n = rng.randint(1, 12)
        seq = [rng.randrange(5) for _ in range(n)]
        all_scores = model.score_all(seq)
        assert len(all_scores) == n
        for m in range(1, n + 1):
            expected = model.score_next(seq[:m])
            assert np.array_equal(all_scores[m - 1].probs, expected.probs)


def _assert_range_matches_score_next(model, seq, start):
    got = model.score_range(seq, start)
    expected = [model.score_next(seq[:m]) for m in range(start, len(seq) + 1)]
    assert len(got) == len(expected) == len(seq) - start + 1
    for g, e in zip(got, expected):
        assert np.array_equal(g.probs, e.probs)


@st.composite
def ngram_case(draw):
    """A fitted n-gram model (orders 1-3) plus a sequence and a start over its vocabulary."""
    size = draw(st.integers(3, 7))
    vocab = Vocabulary(size=size, eos=size - 1)
    corpus = draw(
        st.lists(st.lists(st.integers(0, size - 1), min_size=1, max_size=8), min_size=1, max_size=6)
    )
    order = draw(st.integers(1, 3))
    smoothing = draw(st.sampled_from([1e-6, 0.1, 0.5, 1.0]))
    model = fit_ngram(corpus, order, smoothing, vocab)
    seq = draw(st.lists(st.integers(0, size - 1), max_size=10))
    start = draw(st.sampled_from([0, len(seq), draw(st.integers(0, len(seq)))]))
    return model, seq, start


@given(ngram_case())
def test_ngram_score_range_equals_score_next(case):
    model, seq, start = case
    _assert_range_matches_score_next(model, seq, start)


@given(ngram_case())
def test_ngram_sparse_rows_equal_dense_formula(case):
    model, seq, _ = case
    v, s = model.vocabulary.size, model.smoothing
    padded = [BOS] * (model.order - 1) + list(seq)
    # scored twice: the second pass reads every row from the memo
    for _ in range(2):
        for m, got in enumerate(model.score_range(seq, 0)):
            ctx = tuple(padded[m : m + model.order - 1])
            denom = sum(c for (cx, _), c in model.counts.items() if cx == ctx) + s * v
            dense = np.array([(model.counts.get((ctx, t), 0) + s) / denom for t in range(v)])
            assert np.array_equal(got.probs, dense)


def test_ngram_memo_keeps_only_contexts_with_counts(vocab5):
    model = fit_ngram([[0, 1, 2]], 3, 0.5, vocab5)
    # every context of [3, 3, 3, 3] but the padded start is absent from the counts
    rows = model.score_range([3, 3, 3, 3], 2)
    assert model._sparse_rows == {}
    for row in rows:
        assert np.array_equal(row.probs, np.full(5, 0.5 / (0.5 * 5)))
    model.score_range([0, 1], 0)
    assert sorted(model._sparse_rows) == [(BOS, BOS), (BOS, 0), (0, 1)]


@given(
    seq=st.lists(st.integers(0, 2), max_size=6),
    start=st.integers(0, 6),
    rows=st.dictionaries(st.lists(st.integers(0, 2), max_size=3).map(tuple), st.integers(0, 2)),
)
def test_table_score_range_equals_score_next(seq, start, rows):
    vocab = Vocabulary(size=3, eos=2)
    one_hot = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])
    model = make_table(vocab, default=[0.5, 0.3, 0.2], rows={c: one_hot[t] for c, t in rows.items()})
    _assert_range_matches_score_next(model, seq, min(start, len(seq)))


def test_score_range_on_empty_sequence(vocab5):
    rng = random.Random(3)
    model = fit_ngram(random_corpus(rng, vocab5, 6), 2, 0.5, vocab5)
    [first] = model.score_range([], 0)
    assert np.array_equal(first.probs, model.score_next([]).probs)


@pytest.mark.parametrize("start", [-1, 4, 1.0, None])
def test_score_range_rejects_bad_start(vocab5, start):
    rng = random.Random(4)
    ngram = fit_ngram(random_corpus(rng, vocab5, 6), 3, 0.5, vocab5)
    table = make_table(vocab5, default=[0.2] * 5)
    for model in (ngram, table):
        with pytest.raises(InvalidInputError):
            model.score_range([0, 1, 2], start)


def test_score_range_rejects_out_of_range_tokens(vocab5):
    rng = random.Random(5)
    ngram = fit_ngram(random_corpus(rng, vocab5, 6), 2, 0.5, vocab5)
    table = make_table(vocab5, default=[0.2] * 5)
    for model in (ngram, table):
        with pytest.raises(InvalidInputError):
            model.score_range([0, 1, 5], 1)
        with pytest.raises(InvalidInputError):
            model.score_range([-1], 0)


def test_model_purity(vocab5):
    rng = random.Random(1)
    model = fit_ngram(random_corpus(rng, vocab5, 8), 3, 1.0, vocab5)
    prefix = [0, 2, 1]
    first = model.score_next(prefix)
    again = model.score_next(prefix)
    assert np.array_equal(first.probs, again.probs)


def test_every_scored_dist_is_normalized(vocab5):
    rng = random.Random(2)
    model = fit_ngram(random_corpus(rng, vocab5, 10), 2, 0.3, vocab5)
    for _ in range(100):
        prefix = [rng.randrange(5) for _ in range(rng.randint(0, 6))]
        probs = model.score_next(prefix).probs
        assert abs(float(probs.sum()) - 1.0) <= 1e-9


def test_validate_token_names_a_wrong_type(vocab5):
    with pytest.raises(InvalidInputError, match=r"numpy\.int64"):
        vocab5.validate_token(np.int64(3))
    with pytest.raises(InvalidInputError, match="out of range"):
        vocab5.validate_token(5)


def test_vocabulary_validation():
    with pytest.raises(InvalidInputError):
        Vocabulary(size=1, eos=0)
    with pytest.raises(InvalidInputError):
        Vocabulary(size=3, eos=3)
    with pytest.raises(InvalidInputError):
        Vocabulary(size=3, eos=0, tokens=("a", "b"))
