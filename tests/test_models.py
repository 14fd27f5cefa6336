import random
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bild import InvalidInputError, Vocabulary, fit_ngram
from bild.toymodels import BOS
from bild.vocab import TokenSequence
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
    # scored twice: a second score of the same contexts must not differ
    for _ in range(2):
        for m, got in enumerate(model.score_range(seq, 0)):
            ctx = tuple(padded[m : m + model.order - 1])
            denom = sum(c for (cx, _), c in model.counts.items() if cx == ctx) + s * v
            dense = np.array([(model.counts.get((ctx, t), 0) + s) / denom for t in range(v)])
            assert np.array_equal(got.probs, dense)


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


def _scorers(vocab5):
    rng = random.Random(6)
    ngram = fit_ngram(random_corpus(rng, vocab5, 6), 3, 0.5, vocab5)
    return ngram, make_table(vocab5, default=[0.2] * 5)


@pytest.mark.parametrize("bad", [-1, 5, 2.0, np.int64(1)])
def test_scoring_rejects_bad_ids_in_a_plain_sequence(vocab5, bad):
    for model in _scorers(vocab5):
        for seq in ([bad], [0, 1, bad], (2, bad, 3)):
            with pytest.raises(InvalidInputError, match="token id"):
                model.score_next(seq)
            with pytest.raises(InvalidInputError, match="token id"):
                model.score_range(seq, len(seq))


def _count_validations(monkeypatch) -> list[int]:
    calls = [0]
    validate = Vocabulary.validate_token

    def counted(self, token):
        calls[0] += 1
        return validate(self, token)

    monkeypatch.setattr(Vocabulary, "validate_token", counted)
    return calls


def test_token_sequence_is_checked_once(vocab5, monkeypatch):
    seq = TokenSequence([0, 1, 2], vocab5)
    models = _scorers(vocab5)
    calls = _count_validations(monkeypatch)
    for model in models:
        model.score_next(seq)
        model.score_range(seq, 0)
    assert calls[0] == 0
    seq.append(3)
    assert calls[0] == 1
    assert list(seq) == [0, 1, 2, 3] and seq[1:] == [1, 2, 3] and len(seq) == 4
    seq.truncate(1)
    assert list(seq) == [0]


def test_token_sequence_from_a_larger_vocabulary_is_walked(vocab5, monkeypatch):
    wide = Vocabulary(size=8, eos=7)
    for model in _scorers(vocab5):
        with pytest.raises(InvalidInputError, match="token id 6 out of range"):
            model.score_next(TokenSequence([0, 6], wide))
        with pytest.raises(InvalidInputError, match="token id 5 out of range"):
            model.score_range(TokenSequence([5, 1], wide), 1)
    ngram = _scorers(vocab5)[0]
    calls = _count_validations(monkeypatch)
    seq = TokenSequence([0, 1, 2], wide)
    assert calls[0] == 0  # a list of in-range ints is checked without validate_token
    ngram.score_range(seq, 3)
    assert calls[0] == 3  # the smaller model walks every id


@pytest.mark.parametrize("bad", [-1, 5, 2.0, np.int64(1), "1", True])
def test_token_sequence_rejects_bad_ids(vocab5, bad):
    with pytest.raises(InvalidInputError, match="token id"):
        TokenSequence([0, bad], vocab5)
    seq = TokenSequence([0], vocab5)
    with pytest.raises(InvalidInputError, match="token id"):
        seq.append(bad)
    assert list(seq) == [0]


def _walk(vocabulary: Vocabulary, tokens) -> None:
    """``validate_sequence``'s reference: refuse a non-sequence, then check each id in turn."""
    if not isinstance(tokens, Sequence):
        raise InvalidInputError(
            f"token sequence has type {type(tokens).__module__}.{type(tokens).__qualname__}, not a Sequence"
        )
    for t in tokens:
        if type(t) is not int:
            raise InvalidInputError(
                f"token id {t!r} has type {type(t).__module__}.{type(t).__qualname__}, not int"
            )
        if not 0 <= t < vocabulary.size:
            raise InvalidInputError(f"token id {t!r} out of range [0, {vocabulary.size})")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as e:  # any type: the two paths must raise the same one
        return type(e), str(e)
    return None


@st.composite
def _id_sequences(draw):
    size = draw(st.integers(2, 40))
    valid = st.integers(0, size - 1)
    odd = st.one_of(
        st.booleans(),
        st.integers(-3, -1),
        st.integers(size, size + 3),
        st.integers(2**63 - 1, 2**70) | st.integers(-(2**70), -(2**63)),
        valid.map(np.int64),
        st.floats(allow_nan=True),
        st.text(max_size=2),
    )
    # most sequences are valid, or hold one odd id among valid ones
    tokens = draw(st.lists(valid, max_size=10))
    if tokens and draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(odd)
    elif draw(st.booleans()):
        tokens = draw(st.lists(valid | odd, max_size=6))
    return Vocabulary(size=size, eos=size - 1), draw(st.sampled_from([list, tuple, iter])), tokens


@given(case=_id_sequences())
def test_validate_sequence_agrees_with_the_walk(case):
    vocabulary, container, tokens = case
    # each side gets its own container, so neither consumes the other's iterator
    fast = _outcome(vocabulary.validate_sequence, container(tokens))
    assert fast == _outcome(_walk, vocabulary, container(tokens))
