"""Typed reading of JSON documents and text files.

Fuzzed documents and file contents may only raise the package's own
errors, and valid instances round-trip through their JSON form.
"""

import argparse
import json
import random
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bild import (
    PRESETS,
    BildError,
    InvalidInputError,
    ModelDescriptor,
    NgramLM,
    PolicyConfig,
    Sampler,
    Vocabulary,
    fit_ngram,
    load_corpus,
    load_trace,
    load_vocabulary,
    save_corpus,
)
from bild.cli import Experiment
from bild.jsondoc import check, read_dataclass
from synthetic_tasks import VOCAB, two_phrasing_task
from bild.toymodels import BOS, load_table_lm
from bild.trace import (
    Eos,
    Fallback,
    LargeAppend,
    LargeVerify,
    Rejection,
    Rollback,
    SmallStep,
    event_from_json_dict,
    event_to_json_dict,
)
from conftest import random_corpus

FUZZ = settings(max_examples=100, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def near(valid: dict):
    """Any JSON value, or ``valid`` with one key replaced by one or removed."""
    keys = sorted(valid)
    return st.one_of(
        json_values,
        st.builds(lambda k, v: {**valid, k: v}, st.sampled_from(keys), json_values),
        st.builds(lambda k: {x: v for x, v in valid.items() if x != k}, st.sampled_from(keys)),
    )


VOCAB3 = Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))
NGRAM = fit_ngram([[0, 1, 0, 2], [1, 1, 2]], 2, 0.5, VOCAB3).to_json_dict()
EVENTS = [
    SmallStep(0, 1, 0.5),
    Fallback(1, "low_confidence"),
    LargeVerify((0, 1), (0.0, 1.5)),
    Rollback(1, 1, 0),
    Rejection(1, 1, 0),
    LargeAppend(2, 1),
    Eos(2),
]
READERS = {
    "policy": (
        lambda d: read_dataclass(PolicyConfig, d, ""),
        near(asdict(PolicyConfig(0.6, 2.0, verify_eos=True).with_fixed_window(3))),
    ),
    "sampler": (lambda d: read_dataclass(Sampler, d, ""), near(asdict(Sampler.nucleus(0.9, seed=3)))),
    "descriptor": (lambda d: read_dataclass(ModelDescriptor, d, ""), near(asdict(PRESETS["t5-small"]))),
    "event": (
        event_from_json_dict,
        st.sampled_from([event_to_json_dict(e) for e in EVENTS]).flatmap(near),
    ),
    "ngram": (
        NgramLM.from_json_dict,
        near(NGRAM)
        | st.builds(
            lambda entry: {**NGRAM, "counts": NGRAM["counts"] + [entry]},
            json_values | st.lists(json_values, min_size=3, max_size=3),
        ),
    ),
}


@pytest.mark.parametrize("name", list(READERS))
@FUZZ
@given(data=st.data())
def test_readers_raise_only_package_errors(name, data):
    read, documents = READERS[name]
    try:
        read(data.draw(documents))
    except BildError:
        pass


seeds = st.integers(0, 2**63 - 1)
policies = st.builds(
    PolicyConfig,
    alpha_fb=st.floats(0, 2),
    alpha_rb=st.floats(0, 50),
    window_cap=st.integers(1, 64),
    verify_eos=st.booleans(),
)
events = st.one_of(
    st.builds(SmallStep, st.integers(0), st.integers(0), st.floats(0, 1)),
    st.builds(Fallback, st.integers(0), st.text()),
    st.builds(
        LargeVerify,
        st.lists(st.integers(0)).map(tuple),
        st.lists(st.floats(0, 30)).map(tuple),
    ),
    st.builds(Rollback, st.integers(0), st.integers(0), st.integers(0)),
    st.builds(Rejection, st.integers(0), st.integers(0), st.integers(0)),
    st.builds(LargeAppend, st.integers(0), st.integers(0)),
    st.builds(Eos, st.integers(0)),
)


def _through_json(data: dict) -> dict:
    return json.loads(json.dumps(data))


@FUZZ
@given(
    policy=policies
    | policies.map(PolicyConfig.without_rollback)
    | st.builds(lambda p, k: p.with_fixed_window(k), policies, st.integers(1, 8)),
    sampler=st.just(Sampler.greedy())
    | st.builds(Sampler.nucleus, st.floats(0.001, 1.0), seeds)
    | st.builds(Sampler.temperature, st.floats(0.001, 100.0), seeds),
    descriptor=st.builds(
        ModelDescriptor,
        layers=st.integers(1, 200),
        hidden_dim=st.integers(1, 2**16),
        ffn_dim=st.integers(1, 2**16),
        decoder_params=st.integers(1, 2**40),
        bytes_per_param=st.integers(1, 8),
    ),
    event=events,
)
def test_valid_instances_round_trip(policy, sampler, descriptor, event):
    assert read_dataclass(PolicyConfig, _through_json(asdict(policy)), "") == policy
    assert read_dataclass(Sampler, _through_json(asdict(sampler)), "") == sampler
    assert read_dataclass(ModelDescriptor, _through_json(asdict(descriptor)), "") == descriptor
    assert event_from_json_dict(_through_json(event_to_json_dict(event))) == event


DATACLASS_DOCUMENTS = {
    "policy": (lambda d: read_dataclass(PolicyConfig, d, ""), asdict(PolicyConfig(0.6, 2.0))),
    "sampler": (lambda d: read_dataclass(Sampler, d, ""), asdict(Sampler.nucleus(0.9, seed=3))),
    "descriptor": (lambda d: read_dataclass(ModelDescriptor, d, ""), asdict(PRESETS["t5-small"])),
    **{doc["event"]: (event_from_json_dict, doc) for doc in map(event_to_json_dict, EVENTS)},
    "ngram": (NgramLM.from_json_dict, NGRAM),
}


@pytest.mark.parametrize("name", list(DATACLASS_DOCUMENTS))
@settings(max_examples=20, deadline=None)
@given(key=st.text(min_size=1, max_size=12), value=json_values)
def test_dataclass_documents_reject_unknown_fields(name, key, value):
    read, valid = DATACLASS_DOCUMENTS[name]
    assume(key not in valid)
    with pytest.raises(BildError, match=f"(^|[ .]){re.escape(key)}: unknown field$"):
        read({**valid, key: value})


@FUZZ
@given(seed=seeds, order=st.integers(1, 3), smoothing=st.floats(0.01, 10.0))
def test_ngram_documents_round_trip(seed, order, smoothing):
    vocab = Vocabulary(size=5, eos=4)
    model = fit_ngram(random_corpus(random.Random(seed), vocab, 4), order, smoothing, vocab)
    data = model.to_json_dict()
    assert NgramLM.from_json_dict(_through_json(data)).to_json_dict() == data


@pytest.mark.parametrize(
    "value, kind, expected",
    [
        (2, float, 2.0),
        ([1, 2.5], list[float], [1.0, 2.5]),
        ([3, 4], tuple[int, ...], (3, 4)),
        (None, int | None, None),
        (False, bool, False),
    ],
)
def test_check_widens_only_integers_to_floats(value, kind, expected):
    got = check(value, kind, "x")
    assert got == expected and type(got) is type(expected)
    if kind is float:
        assert repr(got) == repr(float(value))  # CSV cells use repr


@pytest.mark.parametrize(
    "value, kind, where",
    [
        (True, int, "x"),
        (1.0, int, "x"),
        ("1", float, "x"),
        ("false", bool, "x"),
        (0, bool, "x"),
        ("12", list[int], "x"),
        ([1, "2"], tuple[int, ...], "x[1]"),
        ({}, list[int], "x"),
    ],
)
def test_check_coerces_nothing_else(value, kind, where):
    with pytest.raises(InvalidInputError, match=r"^" + re.escape(where) + ": expected"):
        check(value, kind, "x")


def test_check_reads_a_union_as_the_arm_the_value_selects():
    descriptor = PRESETS["t5-small"]
    assert check(3, str | int, "w") == 3
    assert check("3", str | int, "w") == "3"
    assert check(asdict(descriptor), str | ModelDescriptor, "w") == descriptor
    assert check("t5-small", str | ModelDescriptor, "w") == "t5-small"
    got = check(2, str | float, "w")
    assert got == 2.0 and type(got) is float
    for value in (True, None, [3]):
        with pytest.raises(InvalidInputError, match=r"^w: expected string or integer, got "):
            check(value, str | int, "w")
    with pytest.raises(InvalidInputError, match=r"^w\.layer: unknown field$"):
        check({**asdict(descriptor), "layer": 6}, str | ModelDescriptor, "w")


# Files: arbitrary bytes, and text over the characters the formats use.
file_contents = st.binary(max_size=64) | st.text(
    alphabet='ab<eos>-|DEFAULT 0.5\n#{}[]":,1e', max_size=64
).map(str.encode)

FILE_LOADERS = {
    "vocabulary": load_vocabulary,
    "corpus": lambda path: load_corpus(path, VOCAB3),
    "table": lambda path: load_table_lm(path, VOCAB3),
    "trace": load_trace,
    "config": lambda path: Experiment(str(path), argparse.Namespace()),
}


@pytest.mark.parametrize("name", list(FILE_LOADERS))
@FUZZ
@given(content=file_contents)
def test_file_loaders_raise_only_package_errors(name, content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        try:
            FILE_LOADERS[name](path)
        except BildError:
            pass


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """A valid experiment config over files in a temporary directory."""
    tmp = tmp_path_factory.mktemp("config")
    task = two_phrasing_task(0)
    (tmp / "vocab.txt").write_text("\n".join(VOCAB.tokens) + "\n")
    task.small.save(tmp / "small.json")
    task.large.save(tmp / "large.json")
    save_corpus(task.eval_prompts, VOCAB, tmp / "prompts.txt")
    model = lambda name: {"kind": "ngram", "path": str(tmp / name), "vocab": str(tmp / "vocab.txt")}
    data = {
        "small_model": model("small.json"),
        "large_model": model("large.json"),
        "policy": {"alpha_fb": 0.6, "alpha_rb": 2.0},
        "sampler": {"kind": "nucleus", "p": 0.9},
        "prompts": str(tmp / "prompts.txt"),
        "max_len": 8,
        "seed": 0,
        "cost": {"small": "t5-small", "large": asdict(PRESETS["t5-large"])},
    }
    Experiment(_write(tmp / "valid.json", data), argparse.Namespace())  # the base is valid
    return tmp, data


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data))
    return str(path)


@FUZZ
@given(data=st.data())
def test_experiment_raises_only_package_or_file_errors(config, data):
    """A config one edit away from a valid one fails with a ``BildError``,
    or with an ``OSError`` when a path names something unreadable (the CLI
    reports both)."""
    tmp, valid = config
    edited = data.draw(
        near(valid)
        | st.sampled_from(["policy", "sampler", "cost"]).flatmap(
            lambda key: st.builds(lambda sub: {**valid, key: sub}, near(valid[key]))
        )
    )
    try:
        Experiment(_write(tmp / "edited.json", edited), argparse.Namespace())
    except (BildError, OSError):
        pass


def test_vocabulary_rejects_duplicate_symbols():
    with pytest.raises(InvalidInputError, match="distinct"):
        Vocabulary(size=3, eos=2, tokens=("a", "a", "<eos>"))
    assert [VOCAB3.id_of(s) for s in ("a", "b", "<eos>")] == [0, 1, 2]


def test_table_file_names_the_line_of_a_bad_probability(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("- | 0.5 0.5 0\nDEFAULT | 0.5 half 0\n")
    with pytest.raises(InvalidInputError, match="^" + re.escape(f"{path}:2: ")):
        load_table_lm(path, VOCAB3)


def test_ngram_load_names_the_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**NGRAM, "counts": [[[BOS], 1, 1.5]]}))
    with pytest.raises(InvalidInputError, match="^" + re.escape(f"{path}: ")):
        NgramLM.load(path)
