import re

import pytest

from bild import (
    InvalidInputError,
    InvalidTraceError,
    PolicyConfig,
    Sampler,
    Vocabulary,
    bild_decode,
    load_corpus,
    load_trace,
    load_vocabulary,
    replay_trace,
    save_corpus,
    save_trace,
    save_vocabulary,
)
from bild.cli import main
from bild.vocab import format_sequence
from bild.trace import (
    Fallback,
    LargeVerify,
    Rejection,
    Rollback,
    SmallStep,
    event_from_json_dict,
    event_to_json_dict,
)
from conftest import make_table


def test_vocabulary_file_roundtrip(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\nc\n<eos>\n")
    vocab = load_vocabulary(path)
    assert vocab.size == 4
    assert vocab.eos == 3
    assert vocab.symbol(0) == "a"
    assert vocab.id_of("c") == 2
    out = tmp_path / "out.txt"
    save_vocabulary(vocab, out)
    assert load_vocabulary(out) == vocab


def test_vocabulary_file_requires_eos(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n")
    with pytest.raises(InvalidInputError):
        load_vocabulary(path)


def test_vocabulary_file_rejects_duplicates(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\na\n<eos>\n")
    with pytest.raises(InvalidInputError):
        load_vocabulary(path)


def test_corpus_roundtrip(tmp_path):
    vocab = Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))
    path = tmp_path / "corpus.txt"
    path.write_text("a b <eos>\n-\nb b\n")
    corpus = load_corpus(path, vocab)
    assert corpus == [[0, 1, 2], [], [1, 1]]
    out = tmp_path / "out.txt"
    save_corpus(corpus, vocab, out)
    assert load_corpus(out, vocab) == corpus


@pytest.mark.parametrize(
    "bad, message",
    [(3, "token id 3 out of range [0, 3)"), (-1, "token id -1 out of range [0, 3)"),
     (True, "token id True has type builtins.bool, not int"), (1.0, "token id 1.0 has type builtins.float, not int")],
)
def test_saving_a_bad_id_names_it_and_writes_nothing(tmp_path, bad, message):
    vocab = Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))
    out = tmp_path / "out.txt"
    for seq in ([0, bad, 7], (1, 0, bad)):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            save_corpus([[0, 1], seq], vocab, out)
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            format_sequence(seq, vocab)
    assert not out.exists()


def test_an_iterator_of_ids_is_refused_by_type(tmp_path):
    # a check would consume a one-shot iterator and leave nothing to format
    vocab = Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))
    message = "token sequence has type builtins.list_iterator, not a Sequence"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        format_sequence(iter([0, 1]), vocab)
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        vocab.symbols(iter([0, 1]))
    out = tmp_path / "out.txt"
    with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
        save_corpus([[0, 1], iter([1, 0])], vocab, out)
    assert not out.exists()
    assert format_sequence(range(2), vocab) == "a b"


def test_symbols_without_a_symbol_list_are_ids(tmp_path):
    vocab = Vocabulary(size=3, eos=1)
    assert format_sequence([2, 1, 0], vocab) == "2 <eos> 0"
    out = tmp_path / "vocab.txt"
    save_vocabulary(vocab, out)
    assert out.read_text() == "0\n<eos>\n2\n"


def test_corpus_rejects_unknown_symbol(tmp_path):
    vocab = Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))
    path = tmp_path / "corpus.txt"
    path.write_text("a z\n")
    with pytest.raises(InvalidInputError):
        load_corpus(path, vocab)


def test_trace_jsonl_roundtrip(tmp_path):
    vocab = Vocabulary(size=3, eos=2)
    small = make_table(vocab, default=[0.9, 0.05, 0.05])
    large = make_table(vocab, default=[0.05, 0.9, 0.05])
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    path = tmp_path / "run.trace.jsonl"
    save_trace(result.trace, path)
    loaded = load_trace(path)
    assert loaded == result.trace
    assert replay_trace(loaded, 4) == result.sequence


def test_result_summary_json(tmp_path):
    import json

    vocab = Vocabulary(size=3, eos=2)
    small = make_table(vocab, default=[0.9, 0.05, 0.05])
    large = make_table(vocab, default=[0.05, 0.9, 0.05])
    config = PolicyConfig(alpha_fb=0.5, alpha_rb=2.0, window_cap=3)
    result = bild_decode(small, large, config, Sampler.greedy(), [], 4)
    path = tmp_path / "summary.json"
    result.save_summary(path)
    data = json.loads(path.read_text())
    assert data["sequence"] == [1, 1, 1, 1]
    assert data["length"] == 4
    assert data["counters"]["fallback_count"] == 4
    assert data["counters"]["tokens_discarded"] == 12


def test_event_json_tags():
    event = SmallStep(3, 1, 0.75)
    data = event_to_json_dict(event)
    assert data == {"event": "small_step", "position": 3, "token": 1, "max_prob": 0.75}
    assert event_from_json_dict(data) == event
    rb = Rollback(2, 3, 0)
    assert event_from_json_dict(event_to_json_dict(rb)) == rb


def test_unknown_event_tag_rejected():
    with pytest.raises(InvalidTraceError):
        event_from_json_dict({"event": "warp"})


def test_replay_rejects_inconsistent_positions():
    with pytest.raises(InvalidTraceError):
        replay_trace([SmallStep(1, 0, 0.9)])
    with pytest.raises(InvalidTraceError):
        replay_trace([SmallStep(0, 0, 0.9), Rollback(0, 2, 1)])
    with pytest.raises(InvalidTraceError):
        replay_trace([SmallStep(0, 0, 0.9), Fallback(0, "low_confidence")])
    with pytest.raises(InvalidTraceError):
        replay_trace([SmallStep(0, 0, 0.9), Fallback(1, "window_cap"), LargeVerify((1,), (0.0,))])


def test_rejection_is_a_rollback_with_its_own_tag():
    rejection, rollback = Rejection(1, 2, 3), Rollback(1, 2, 3)
    assert isinstance(rejection, Rollback) and rejection != rollback
    assert event_to_json_dict(rejection)["event"] == "rejection"
    assert event_from_json_dict(event_to_json_dict(rejection)) == rejection
    assert event_from_json_dict(event_to_json_dict(rollback)) == rollback


BAD_TRACE_LINES = {
    "missing_field": '{"event": "rollback"}',
    "non_integer_position": '{"event": "rollback", "position": "x", "tokens_discarded": 1, "replacement": 0}',
    "not_json": "small_step 0 1",
    "not_an_object": "[1, 2]",
    "unhashable_tag": '{"event": [1]}',
    "fractional_position": '{"event": "small_step", "position": 1.7, "token": 1, "max_prob": 0.9}',
    "boolean_token": '{"event": "small_step", "position": 1, "token": true, "max_prob": 0.9}',
    "string_positions": '{"event": "large_verify", "positions": "12", "distances": [0.0, 0.0]}',
    "unknown_key": '{"event": "small_step", "position": 1, "token": 1, "max_prob": 0.9, "prob": 0.9}',
}


@pytest.mark.parametrize("line", list(BAD_TRACE_LINES.values()), ids=list(BAD_TRACE_LINES))
def test_load_trace_names_the_bad_line(tmp_path, capsys, line):
    path = tmp_path / "bad.trace.jsonl"
    good = '{"event": "small_step", "position": 0, "token": 1, "max_prob": 0.9}'
    path.write_text(good + "\n" + line + "\n")
    with pytest.raises(InvalidTraceError, match="^" + re.escape(f"{path}:2: ")):
        load_trace(path)
    assert main(["cost", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ")
    assert "Traceback" not in err
