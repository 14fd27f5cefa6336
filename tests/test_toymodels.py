import gc
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bild import (
    InvalidInputError,
    NgramLM,
    Sampler,
    Vocabulary,
    align_small,
    fit_ngram,
    generate_corpus,
)
from bild.toymodels import BOS, load_table_lm
from bild.vocab import TokenSequence
from conftest import make_table, random_corpus
from synthetic_tasks import save_table_lm


@pytest.fixture
def vocab3():
    return Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))


A, B, EOS = 0, 1, 2


def test_fit_bigram_hand_counts(vocab3):
    # corpus "a b a b": count(a->b)=2 out of 2, add-1 smoothing over V=3
    model = fit_ngram([[A, B, A, B]], 2, 1.0, vocab3)
    probs = model.score_next([A]).to_list()
    assert probs[B] == pytest.approx(0.6)
    assert probs[A] == pytest.approx(0.2)
    assert probs[EOS] == pytest.approx(0.2)


def test_fit_unigram_hand_counts(vocab3):
    model = fit_ngram([[A]], 1, 1.0, vocab3)
    probs = model.score_next([]).to_list()
    assert probs[A] == pytest.approx(0.5)
    assert probs[B] == pytest.approx(0.25)
    assert probs[EOS] == pytest.approx(0.25)


def test_unseen_context_is_uniform(vocab3):
    model = fit_ngram([[A, B, A, B]], 2, 1.0, vocab3)
    assert model.score_next([EOS]).to_list() == pytest.approx([1 / 3] * 3)


def test_bos_padding_counts_first_token(vocab3):
    model = fit_ngram([[A, B]], 2, 1.0, vocab3)
    assert model.counts[((BOS,), A)] == 1
    assert model.counts[((A,), B)] == 1
    # the empty prefix is scored under the BOS context
    assert model.score_next([]).argmax() == A


def test_fit_rejects_empty_corpus(vocab3):
    with pytest.raises(InvalidInputError):
        fit_ngram([], 2, 1.0, vocab3)
    with pytest.raises(InvalidInputError):
        fit_ngram([[A]], 0, 1.0, vocab3)
    with pytest.raises(InvalidInputError):
        fit_ngram([[A]], 2, 0.0, vocab3)


def test_fit_rejects_a_bool_token(vocab3):
    with pytest.raises(InvalidInputError, match=re.escape("token id True has type builtins.bool, not int")):
        fit_ngram([[True, 0, 1]], 2, 1.0, vocab3)


def test_fit_refuses_an_iterator_sequence(vocab3):
    # counting a consumed iterator would fit a model with no counts
    message = "token sequence has type builtins.list_iterator, not a Sequence"
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        fit_ngram([iter([0, 1])], 2, 1.0, vocab3)


def test_conditionals_sum_to_one(vocab3):
    rng = random.Random(0)
    for order in (1, 2, 3):
        model = fit_ngram(random_corpus(rng, vocab3, 10), order, rng.choice([0.1, 1.0]), vocab3)
        for _ in range(30):
            prefix = [rng.randrange(3) for _ in range(rng.randint(0, 5))]
            assert abs(sum(model.score_next(prefix).to_list()) - 1.0) <= 1e-9


def test_ngram_purity(vocab3):
    model = fit_ngram([[A, B, A, B]], 2, 1.0, vocab3)
    a = model.score_next([A, B])
    b = model.score_next([A, B])
    assert np.array_equal(a.probs, b.probs)


def test_ngram_json_roundtrip(tmp_path, vocab3):
    model = fit_ngram([[A, B, A, EOS]], 2, 0.5, vocab3)
    data = model.to_json_dict()
    assert data["order"] == 2
    assert data["smoothing"] == 0.5
    assert data["vocab_size"] == 3
    assert all(len(entry) == 3 for entry in data["counts"])
    path = tmp_path / "model.json"
    model.save(path)
    loaded = NgramLM.load(path)
    assert loaded.vocabulary.eos == vocab3.eos
    for prefix in ([], [A], [A, B], [EOS]):
        assert np.array_equal(loaded.score_next(prefix).probs, model.score_next(prefix).probs)


@pytest.mark.parametrize(
    "counts, match",
    [
        ([[[A], 5, 1]], "token id 5"),  # token outside the size-3 vocabulary
        ([[[A], BOS, 1]], "token id -1"),  # BOS is never predicted
        ([[[7], A, 1]], "context"),  # context id outside the vocabulary
        ([[[-2], A, 1]], "context"),
        ([[[A, B], A, 1]], "context"),  # bigram contexts hold one id
        ([[[], A, 1]], "context"),
    ],
)
def test_ngram_document_rejects_bad_counts_at_load(counts, match):
    doc = {"order": 2, "smoothing": 0.5, "vocab_size": 3, "eos": EOS, "counts": counts}
    with pytest.raises(InvalidInputError, match=match):
        NgramLM.from_json_dict(doc)


def test_ngram_document_rejects_a_repeated_entry():
    counts = [[[A], B, 5], [[B], A, 1], [[A], B, 2]]
    doc = {"order": 2, "smoothing": 0.5, "vocab_size": 3, "eos": EOS, "counts": counts}
    with pytest.raises(InvalidInputError, match=re.escape("counts: entry [[0], 1, 2] repeats")):
        NgramLM.from_json_dict(doc)


def test_ngram_load_names_file_and_repeated_entry(tmp_path):
    path = tmp_path / "model.json"
    counts = [[[A], B, 5], [[A], B, 5]]
    path.write_text(json.dumps({"order": 2, "smoothing": 0.5, "vocab_size": 3, "eos": EOS, "counts": counts}))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: counts: entry"):
        NgramLM.load(path)


def _ngram_doc(counts):
    return json.dumps({"order": 2, "smoothing": 0.5, "vocab_size": 3, "eos": EOS, "counts": counts})


@pytest.mark.parametrize(
    "text, vocab_size, error",
    [
        (_ngram_doc([[[A], B, 5]]), None, None),
        ('{"order": 2,', None, "not valid JSON"),
        (_ngram_doc([[[A], B, 5], [[A], B, 5]]), None, "repeats"),
        (_ngram_doc([[[A], B, -1]]), None, "count -1"),
        (_ngram_doc([[[A], B, 5]]), 4, "vocabulary size does not match"),
    ],
    ids=["good", "not_json", "repeated_entry", "bad_count", "vocab_size_mismatch"],
)
@pytest.mark.parametrize("gc_on", [True, False], ids=["gc_on", "gc_off"])
def test_ngram_load_restores_the_callers_gc_state(tmp_path, text, vocab_size, error, gc_on):
    path = tmp_path / "model.json"
    path.write_text(text)
    vocabulary = None if vocab_size is None else Vocabulary(size=vocab_size, eos=EOS)
    was_enabled = gc.isenabled()
    (gc.enable if gc_on else gc.disable)()
    try:
        if error is None:
            NgramLM.load(path, vocabulary)
        else:
            with pytest.raises(InvalidInputError, match=error):
                NgramLM.load(path, vocabulary)
        assert gc.isenabled() == gc_on
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), 0.0, -1.0])
def test_ngram_rejects_bad_smoothing_at_construction(vocab3, smoothing):
    with pytest.raises(InvalidInputError, match="smoothing"):
        NgramLM(vocab3, 2, smoothing, {})


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_ngram_load_names_file_and_non_finite_smoothing(tmp_path, literal):
    path = tmp_path / "model.json"
    doc = json.dumps({"order": 1, "smoothing": 0.5, "vocab_size": 3, "eos": EOS, "counts": []})
    path.write_text(doc.replace("0.5", literal))
    with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: smoothing"):
        NgramLM.load(path)


@given(
    corpus=st.lists(st.lists(st.integers(0, 2), max_size=8), min_size=1, max_size=5),
    order=st.integers(1, 3),
)
def test_fit_counts_equal_naive_window_count(corpus, order):
    model = fit_ngram(corpus, order, 1.0, Vocabulary(size=3, eos=2))
    naive = {}
    for seq in corpus:
        padded = [BOS] * (order - 1) + seq
        for i in range(len(seq)):
            key = (tuple(padded[i : i + order - 1]), padded[i + order - 1])
            naive[key] = naive.get(key, 0) + 1
    assert model.counts == naive


def _reference_text(model: NgramLM) -> str:
    """The n-gram document with its ``[context, token, count]`` entries sorted as lists."""
    counts = sorted((list(ctx), tok, c) for (ctx, tok), c in model.counts.items())
    doc = {
        "order": model.order,
        "smoothing": model.smoothing,
        "vocab_size": model.vocabulary.size,
        "counts": counts,
        "eos": model.vocabulary.eos,
    }
    return json.dumps(doc) + "\n"


@st.composite
def _fit_cases(draw):
    size = draw(st.integers(2, 64))
    corpus = draw(st.lists(st.lists(st.integers(0, size - 1), max_size=12), min_size=1, max_size=6))
    probe = draw(st.lists(st.integers(0, size - 1), max_size=8))
    return Vocabulary(size=size, eos=size - 1), corpus, draw(st.integers(1, 4)), probe


@given(case=_fit_cases(), smoothing=st.sampled_from([1e-6, 0.05, 0.5, 1.0]))
def test_fitted_text_and_its_reload_match_the_sorted_writer(case, smoothing):
    vocab, corpus, order, probe = case
    model = fit_ngram(corpus, order, smoothing, vocab)
    text = model.to_json_text()
    assert text == _reference_text(model)
    loaded = NgramLM.from_json_dict(json.loads(text), vocab)
    assert loaded.counts == model.counts
    for got, expected in zip(model.score_range(probe, 0), loaded.score_range(probe, 0), strict=True):
        assert got.probs.tobytes() == expected.probs.tobytes()


@given(
    corpus=st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=8), min_size=1, max_size=5),
    order=st.integers(1, 4),
    seq=st.lists(st.integers(0, 3), max_size=12),
    data=st.data(),
)
def test_score_range_rows_equal_full_padding_formula(corpus, order, seq, data):
    vocab = Vocabulary(size=4, eos=3)
    model = fit_ngram(corpus, order, 0.5, vocab)
    start = data.draw(st.integers(0, len(seq)))
    width = order - 1
    padded = (BOS,) * width + tuple(seq)
    expected = [model._row(padded[m : m + width]) for m in range(start, len(seq) + 1)]
    for sequence in (seq, tuple(seq), TokenSequence(seq, vocab)):
        got = model.score_range(sequence, start)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert np.array_equal(g.probs, e.probs)



@given(
    contexts=st.lists(st.lists(st.integers(0, 2), max_size=4), max_size=6),
    seq=st.lists(st.integers(0, 2), max_size=12),
    data=st.data(),
)
def test_table_score_range_equals_plain_prefix_lookup(contexts, seq, data):
    """Prefixes longer than every stored context, and the rest, give the row a
    plain lookup of the whole prefix gives."""
    vocab = Vocabulary(size=3, eos=2)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    table = make_table(vocab, default=[0.5, 0.3, 0.2], rows={tuple(c): _random_row(rng) for c in contexts})
    start = data.draw(st.integers(0, len(seq)))
    expected = [table._rows.get(tuple(seq[:m]), table.default_row) for m in range(start, len(seq) + 1)]
    for sequence in (seq, TokenSequence(seq, vocab)):
        got = table.score_range(sequence, start)
        assert len(got) == len(expected) and all(g is e for g, e in zip(got, expected))


def _random_row(rng: random.Random) -> list[float]:
    weights = [rng.random() + 0.01 for _ in range(3)]
    return [w / sum(weights) for w in weights]


# corpus generation


def test_generate_corpus_immediate_eos(vocab3):
    model = make_table(vocab3, default=[0.05, 0.05, 0.9])
    outs = generate_corpus(model, [[], [A], [B, B]], Sampler.greedy(), 8)
    assert outs == [[EOS], [EOS], [EOS]]


def test_generate_corpus_two_step_walk(vocab3):
    model = make_table(
        vocab3,
        default=[0.1, 0.1, 0.8],
        rows={(): [0.9, 0.05, 0.05], (A,): [0.05, 0.05, 0.9]},
    )
    assert generate_corpus(model, [[]], Sampler.greedy(), 8) == [[A, EOS]]


def test_generate_corpus_matches_hand_replayed_greedy_walk(vocab3):
    model = fit_ngram([[A, B, A, B]], 2, 1.0, vocab3)
    # hand replay: p(.|BOS) -> a (0.5); p(.|a) -> b (0.6); p(.|b) -> a (0.5,
    # tie over {a, eos} broken... counts: b->a once, so a wins at 0.4); cycle
    expected = []
    ctx: list[int] = []
    for _ in range(6):
        expected.append(model.score_next(ctx).argmax())
        ctx.append(expected[-1])
        if expected[-1] == EOS:
            break
    [out] = generate_corpus(model, [[]], Sampler.greedy(), 6)
    assert out == expected


def test_generate_corpus_outputs_exclude_prompt(vocab3):
    model = make_table(vocab3, default=[0.05, 0.05, 0.9])
    [out] = generate_corpus(model, [[A, B]], Sampler.greedy(), 4)
    assert out == [EOS]


def test_generate_corpus_max_len_truncation(vocab3):
    model = make_table(vocab3, default=[0.9, 0.05, 0.05])  # never eos under greedy
    [out] = generate_corpus(model, [[]], Sampler.greedy(), 5)
    assert out == [A] * 5


# alignment


def test_align_small_dominant_transitions(vocab3):
    # large always emits "a" then eos
    large = make_table(
        vocab3,
        default=[0.1, 0.1, 0.8],
        rows={(): [0.9, 0.05, 0.05]},
    )
    aligned = align_small(large, [[]] * 5, 2, 1.0, 8)
    assert aligned.score_next([]).argmax() == A
    assert aligned.score_next([A]).argmax() == EOS
    # five identical generations: count(BOS->a) = 5
    assert aligned.counts[((BOS,), A)] == 5


def test_align_small_reproduces_self_consistent_generator(vocab3):
    source = fit_ngram([[A, B, EOS], [A, B, EOS], [A, EOS]], 2, 0.1, vocab3)
    prompts = [[], [A], [B]]
    aligned = align_small(source, prompts, 2, 0.1, 10)
    for prompt in prompts:
        expected = generate_corpus(source, [prompt], Sampler.greedy(), 10)
        got = generate_corpus(aligned, [prompt], Sampler.greedy(), 10)
        assert got == expected


def test_align_small_rejects_empty_prompts(vocab3):
    large = make_table(vocab3, default=[0.1, 0.1, 0.8])
    with pytest.raises(InvalidInputError):
        align_small(large, [], 2, 1.0, 8)


# table-model file format


def test_table_file_roundtrip(tmp_path, vocab3):
    model = make_table(
        vocab3,
        default=[0.2, 0.3, 0.5],
        rows={(): [0.7, 0.2, 0.1], (A, B): [0.1, 0.8, 0.1]},
    )
    path = tmp_path / "model.table"
    save_table_lm(model, path)
    loaded = load_table_lm(path, vocab3)
    for prefix in ([], [A], [A, B], [B, B, B]):
        assert loaded.score_next(prefix).to_list() == model.score_next(prefix).to_list()


def test_table_file_requires_default(tmp_path, vocab3):
    path = tmp_path / "bad.table"
    path.write_text("- | 0.7 0.2 0.1\n")
    with pytest.raises(InvalidInputError):
        load_table_lm(path, vocab3)


def test_table_file_wrong_width(tmp_path, vocab3):
    path = tmp_path / "bad.table"
    path.write_text("DEFAULT | 0.5 0.5\n")
    with pytest.raises(InvalidInputError):
        load_table_lm(path, vocab3)
