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
