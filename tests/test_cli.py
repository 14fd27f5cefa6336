import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from bild import PolicyConfig, Sampler, fit_ngram, save_corpus, vanilla_decode
from bild.cli import STRATEGIES, Experiment, derive_seed, main
from synthetic_tasks import VOCAB, two_phrasing_task


@pytest.fixture
def workspace(tmp_path):
    """A ready-to-run experiment directory built from the synthetic family."""
    task = two_phrasing_task(0)
    vocab_path = tmp_path / "vocab.txt"
    vocab_path.write_text("\n".join(VOCAB.tokens) + "\n")
    small_path = tmp_path / "small.json"
    large_path = tmp_path / "large.json"
    task.small.save(small_path)
    task.large.save(large_path)
    prompts_path = tmp_path / "prompts.txt"
    save_corpus(task.eval_prompts, VOCAB, prompts_path)
    corpus_path = tmp_path / "corpus.txt"
    save_corpus(task.original_corpus, VOCAB, corpus_path)
    config = {
        "small_model": {"kind": "ngram", "path": str(small_path), "vocab": str(vocab_path)},
        "large_model": {"kind": "ngram", "path": str(large_path), "vocab": str(vocab_path)},
        "policy": {"alpha_fb": 0.6, "alpha_rb": 2.0, "window_cap": 10},
        "sampler": {"kind": "greedy"},
        "prompts": str(prompts_path),
        "max_len": 12,
        "seed": 0,
        "strategy": "bild",
        "out_dir": str(tmp_path / "out"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    return tmp_path, config_path, config, task


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_config_example_loads(workspace):
    """The README's experiment config is valid under the strict readers."""
    tmp_path, _, _, _ = workspace
    [block] = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    example = json.loads(block)
    config = json.loads(block)
    for role in ("small_model", "large_model"):
        for key in ("path", "vocab"):
            config[role][key] = str(tmp_path / config[role][key])
    config["prompts"] = str(tmp_path / config["prompts"])
    config["out_dir"] = str(tmp_path / config["out_dir"])
    path = tmp_path / "readme.json"
    path.write_text(json.dumps(config))
    exp = Experiment(str(path), argparse.Namespace())
    assert exp.policy == PolicyConfig(**example["policy"])
    assert exp.sampler == Sampler(**example["sampler"])
    assert (exp.max_len, exp.seed, exp.strategy) == (example["max_len"], example["seed"], example["strategy"])
    assert (exp.speculative_window, exp.fixed_window_k, exp.blend_threshold) == (
        example["speculative_window"],
        example["fixed_window_k"],
        example["blend_threshold"],
    )


def test_decode_writes_trace_and_summaries(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    assert main(["decode", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    traces = sorted(out.glob("prompt_*.trace.jsonl"))
    summaries = sorted(out.glob("prompt_*.summary.json"))
    assert len(traces) == len(summaries) == 3
    csv_lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(csv_lines) == 4  # header + 3 prompts
    assert csv_lines[0].startswith("run_id,alpha_fb,alpha_rb")
    printed = capsys.readouterr().out.strip().splitlines()
    assert len(printed) == 3  # one human-readable line per prompt


def test_decode_missing_model_exits_1(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    config["small_model"]["path"] = str(tmp_path / "missing.json")
    config_path.write_text(json.dumps(config))
    assert main(["decode", "--config", str(config_path)]) == 1
    assert "missing.json" in capsys.readouterr().err


def test_decode_vocab_mismatch_exits_2(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    # refit the small model over a smaller vocabulary
    from bild import Vocabulary

    small_vocab = Vocabulary(size=3, eos=2, tokens=("a", "b", "<eos>"))
    other = fit_ngram([[0, 1, 2]], 2, 1.0, small_vocab)
    other_path = tmp_path / "small3.json"
    other.save(other_path)
    config["small_model"] = {"kind": "ngram", "path": str(other_path)}
    config["prompts"] = str(tmp_path / "empty_prompts.txt")
    (tmp_path / "empty_prompts.txt").write_text("-\n")
    config_path.write_text(json.dumps(config))
    assert main(["decode", "--config", str(config_path)]) == 2


def test_decode_bad_config_json_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decode", "--config", str(bad)]) == 1


def test_sweep_grid_rows_and_reproducibility(workspace):
    tmp_path, config_path, config, task = workspace
    # one prompt, 2x2 grid -> 4 summary rows
    one_prompt = tmp_path / "one_prompt.txt"
    one_prompt.write_text("-\n")
    config["prompts"] = str(one_prompt)
    config["sweep"] = {"alpha_fb": [0.0, 0.6], "alpha_rb": [2.0, 30.0]}
    config_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    first = (out / "sweep.csv").read_bytes()
    first_pareto = (out / "pareto.csv").read_bytes()
    lines = first.decode().strip().splitlines()
    assert len(lines) == 5  # header + 4 grid rows
    assert main(["sweep", "--config", str(config_path)]) == 0
    assert (out / "sweep.csv").read_bytes() == first  # byte-identical rerun
    assert (out / "pareto.csv").read_bytes() == first_pareto


def test_sweep_alpha_zero_row_is_pure_small(workspace):
    tmp_path, config_path, config, task = workspace
    one_prompt = tmp_path / "one_prompt.txt"
    one_prompt.write_text("-\n")
    config["prompts"] = str(one_prompt)
    config["sweep"] = {"alpha_fb": [0.0], "alpha_rb": [2.0]}
    config_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    record = dict(zip(header, row))
    assert float(record["fallback_pct"]) == 0.0
    # output equals the vanilla small decode: agreement vs large reference
    ref = vanilla_decode(task.large, [], Sampler.greedy(), 12).sequence
    small_out = vanilla_decode(task.small, [], Sampler.greedy(), 12).sequence
    from bild import agreement

    assert float(record["agreement"]) == pytest.approx(agreement(small_out, ref))


def test_sweep_more_rollback_does_not_hurt_agreement(workspace):
    tmp_path, config_path, config, task = workspace
    config["sweep"] = {"alpha_fb": [0.6], "alpha_rb": [2.0, 1e9]}
    config["policy"]["window_cap"] = 3
    config_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    strict = [r for r in rows if float(r["alpha_rb"]) == 2.0]
    loose = [r for r in rows if float(r["alpha_rb"]) > 1e8]
    mean = lambda rs: sum(float(r["agreement"]) for r in rs) / len(rs)
    assert mean(strict) >= mean(loose)


def test_compare_strategies(workspace):
    tmp_path, config_path, config, task = workspace
    config["strategies"] = ["bild", "speculative", "vanilla_large"]
    config["policy"]["window_cap"] = 3
    config_path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert lines[0].endswith(",flops,mops,invocations")
    strategies = [line.split(",")[0] for line in lines[1:]]
    assert strategies == ["bild", "speculative", "vanilla_large"]


def test_compare_vanilla_large_speedup_is_identity(workspace):
    tmp_path, config_path, config, task = workspace
    config["strategies"] = ["bild", "vanilla_large", "vanilla_small"]
    config_path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = {line.split(",")[0]: dict(zip(header, line.split(","))) for line in lines[1:]}
    assert float(rows["vanilla_large"]["modeled_speedup"]) == pytest.approx(1.0)
    # the small model alone really is ~402/25 cheaper on memory traffic
    assert float(rows["vanilla_small"]["modeled_speedup"]) == pytest.approx(16.07, rel=0.05)


def test_compare_degenerate_threshold_matches_vanilla_large(workspace):
    tmp_path, config_path, config, task = workspace
    config["strategies"] = ["bild", "vanilla_large"]
    config["policy"]["alpha_fb"] = 1.01
    config_path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert rows[0]["agreement"] == rows[1]["agreement"] == repr(1.0)


def test_compare_bild_cheaper_than_fixed_window_at_matched_agreement(workspace):
    tmp_path, config_path, config, task = workspace
    config["strategies"] = ["bild", "ablation_fixed_window"]
    config["policy"]["window_cap"] = 3
    config["fixed_window_k"] = 1
    config_path.write_text(json.dumps(config))
    assert main(["compare", "--config", str(config_path)]) == 0
    lines = (tmp_path / "out" / "compare.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = {line.split(",")[0]: dict(zip(header, line.split(","))) for line in lines[1:]}
    bild, fixed = rows["bild"], rows["ablation_fixed_window"]
    assert float(bild["agreement"]) >= float(fixed["agreement"])
    assert float(bild["mops"]) < float(fixed["mops"])


def test_compare_decodes_one_reference_per_prompt(workspace, monkeypatch):
    tmp_path, config_path, config, task = workspace
    config["sampler"] = {"kind": "nucleus", "p": 0.9}
    config_path.write_text(json.dumps(config))
    calls = []
    reference = Experiment.reference

    def counted(exp, prompt, seed):
        calls.append((next(i for i, p in enumerate(exp.prompts) if p is prompt), seed))
        return reference(exp, prompt, seed)

    monkeypatch.setattr(Experiment, "reference", counted)
    assert main(["compare", "--config", str(config_path), "--strategies", ",".join(STRATEGIES)]) == 0
    n = len(task.eval_prompts)
    assert calls == [(i, derive_seed(0, 0, i)) for i in range(n)]


def test_compare_needs_two_strategies(workspace):
    tmp_path, config_path, config, task = workspace
    assert main(["compare", "--config", str(config_path), "--strategies", "bild"]) == 1


def test_cost_command_synthesized(tmp_path, capsys):
    out = tmp_path / "cost.json"
    code = main(
        [
            "cost",
            "--tokens",
            "400",
            "--fallback-rate",
            "0.3233",
            "--rollback-rate",
            "0.0641",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    ratio = report["vanilla_large_equivalent"]["mops"] / report["bild"]["mops"]
    assert ratio > 2.0


def test_cost_command_from_trace(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    assert main(["decode", "--config", str(config_path)]) == 0
    capsys.readouterr()  # drop the decode command's report lines
    trace = next((tmp_path / "out").glob("prompt_*.trace.jsonl"))
    assert main(["cost", "--trace", str(trace)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bild"]["mops"] > 0


# sha256 of the workspace corpus file and of `bild fit` on it, per (order, smoothing)
CORPUS_SHA256 = "36432f1c9469ad60bc206b61c5754c000b486f91417bb829e8eb7cae8126056c"
FIT_SHA256 = {
    (1, "0.5"): "8adc7f7c3ea72ab64568365b5db8bcaffce0f18dd4bd52df41171cdf2c3cf0dc",
    (2, "0.05"): "eef5da54b27455ee9ea5809eb8bd658de159ee46f90af852de70cec36293a6b6",
    (3, "1e-06"): "ced943ab39a9ae579affed7bef7f97984be92b3e0dcf2ad3c2b9641d40c673fa",
}


@pytest.mark.parametrize("order, smoothing", list(FIT_SHA256))
def test_fit_output_bytes_are_pinned(workspace, capsys, order, smoothing):
    tmp_path, _, _, _ = workspace
    corpus, fitted = tmp_path / "corpus.txt", tmp_path / "fitted.json"
    assert hashlib.sha256(corpus.read_bytes()).hexdigest() == CORPUS_SHA256
    args = ["fit", "--corpus", str(corpus), "--vocab", str(tmp_path / "vocab.txt"),
            "--order", str(order), "--smoothing", smoothing, "--out", str(fitted)]
    assert main(args) == 0
    assert hashlib.sha256(fitted.read_bytes()).hexdigest() == FIT_SHA256[order, smoothing]


def test_fit_and_align_commands(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    fitted = tmp_path / "fitted.json"
    code = main(
        [
            "fit",
            "--corpus",
            str(tmp_path / "corpus.txt"),
            "--vocab",
            str(tmp_path / "vocab.txt"),
            "--order",
            "2",
            "--smoothing",
            "0.05",
            "--out",
            str(fitted),
        ]
    )
    assert code == 0
    assert json.loads(fitted.read_text())["order"] == 2

    aligned = tmp_path / "aligned.json"
    code = main(
        [
            "align",
            "--large",
            str(tmp_path / "large.json"),
            "--vocab",
            str(tmp_path / "vocab.txt"),
            "--prompts",
            str(tmp_path / "prompts.txt"),
            "--order",
            "2",
            "--smoothing",
            "0.05",
            "--max-len",
            "12",
            "--out",
            str(aligned),
        ]
    )
    assert code == 0
    assert json.loads(aligned.read_text())["vocab_size"] == 8


def test_flag_overrides(workspace):
    tmp_path, config_path, config, task = workspace
    out2 = tmp_path / "out2"
    code = main(
        [
            "decode",
            "--config",
            str(config_path),
            "--alpha-fb",
            "1.01",
            "--out",
            str(out2),
            "--strategy",
            "bild",
        ]
    )
    assert code == 0
    lines = (out2 / "summary.csv").read_text().strip().splitlines()
    record = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert float(record["alpha_fb"]) == 1.01
    assert float(record["agreement"]) == 1.0  # pure-large output matches reference


BAD_CONFIGS = {
    "verify_eos_string": (("policy", "verify_eos"), "false", "policy.verify_eos"),
    "max_len_fraction": (("max_len",), 7.9, "max_len"),
    "max_len_string": (("max_len",), "abc", "max_len"),
    "seed_string": (("seed",), "12", "seed"),
    "window_cap_fraction": (("policy", "window_cap"), 2.5, "policy.window_cap"),
    "nucleus_p_string": (("sampler",), {"kind": "nucleus", "p": "0.9"}, "sampler.p"),
    "policy_array": (("policy",), [], "policy"),
    "sweep_grid_number": (("sweep",), {"alpha_fb": 3}, "sweep.alpha_fb"),
    "cost_descriptor_number": (("cost",), {"small": 5}, "cost.small"),
    "prompts_number": (("prompts",), 5, "prompts"),
    "policy_rollback_enabled": (("policy", "rollback_enabled"), False, "policy.rollback_enabled"),
    "policy_fallback_mode": (("policy", "fallback_mode"), "fixed_window", "policy.fallback_mode"),
    "policy_windowcap": (("policy", "windowcap"), 1, "policy.windowcap"),
    "sampler_temp": (("sampler", "temp"), 1.3, "sampler.temp"),
    "cost_small_layer": (
        ("cost",),
        {"small": {"layer": 6, "hidden_dim": 512, "ffn_dim": 2048, "decoder_params": 25_000_000}},
        "cost.small.layer",
    ),
    "max_len_zero": (("max_len",), 0, "max_len"),
    "speculative_window_zero": (("speculative_window",), 0, "speculative_window"),
    "blend_threshold_above_one": (("blend_threshold",), 2.0, "blend_threshold"),
    "blend_threshold_negative": (("blend_threshold",), -0.5, "blend_threshold"),
    "fixed_window_k_zero": (("fixed_window_k",), 0, "fixed_window_k"),
    "cost_peak_flops_alone": (("cost",), {"peak_flops": 1e12}, "cost.peak_bandwidth"),
    "cost_peak_flops_zero": (("cost",), {"peak_flops": 0.0, "peak_bandwidth": 1e11}, "cost.peak_flops"),
    "sampler_seed_nonzero": (("sampler", "seed"), 3, "sampler.seed"),
}


BAD_OVERRIDE_FLAGS = {
    "max_len_zero": ("--max-len", "0"),
    "window_cap_zero": ("--window-cap", "0"),
    "alpha_fb_nan": ("--alpha-fb", "nan"),
}


@pytest.mark.parametrize("flag, value", list(BAD_OVERRIDE_FLAGS.values()), ids=list(BAD_OVERRIDE_FLAGS))
def test_bad_override_flag_exits_1_naming_it(workspace, capsys, flag, value):
    tmp_path, config_path, config, task = workspace
    assert main(["decode", "--config", str(config_path), flag, value]) == 1
    _assert_one_error_line(capsys, flag)
    assert not (tmp_path / "out").exists()


BAD_COST_FLAGS = {
    "tokens_zero": (["--tokens", "0"], "--tokens"),
    "tokens_negative": (["--tokens", "-3"], "--tokens"),
    "peak_flops_alone": (["--peak-flops", "1e12"], "--peak-bandwidth"),
    "peak_bandwidth_alone": (["--peak-bandwidth", "1e11"], "--peak-flops"),
    "peak_flops_zero": (["--peak-flops", "0", "--peak-bandwidth", "1e11"], "--peak-flops"),
    "prompt_len_negative": (["--prompt-len", "-1"], "--prompt-len"),
}


@pytest.mark.parametrize("flags, name", list(BAD_COST_FLAGS.values()), ids=list(BAD_COST_FLAGS))
def test_bad_cost_flag_exits_1_naming_it(tmp_path, capsys, flags, name):
    out = tmp_path / "cost.json"
    assert main(["cost", *flags, "--out", str(out)]) == 1
    _assert_one_error_line(capsys, name)
    assert not out.exists()


def test_bad_prompt_symbol_exits_1_naming_file_and_line(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    prompts = tmp_path / "prompts.txt"
    prompts.write_text(prompts.read_text().splitlines()[0] + "\nz\n")
    assert main(["decode", "--config", str(config_path)]) == 1
    _assert_one_error_line(capsys, f"{prompts}:2")


def test_fit_non_finite_smoothing_exits_1(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    fitted = tmp_path / "fitted.json"
    args = ["fit", "--corpus", str(tmp_path / "corpus.txt"), "--vocab", str(tmp_path / "vocab.txt")]
    assert main(args + ["--order", "2", "--smoothing", "nan", "--out", str(fitted)]) == 1
    assert capsys.readouterr().err == "error: smoothing must be finite and > 0, got nan\n"
    assert not fitted.exists()


def _assert_one_error_line(capsys, prefix):
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prefix}: "), err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "keys, value, name", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS)
)
def test_bad_config_field_exits_1_naming_it(workspace, capsys, keys, value, name):
    tmp_path, config_path, config, task = workspace
    target = config
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    config_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(config_path)]) == 1
    _assert_one_error_line(capsys, f"{config_path}: {name}")


BAD_NGRAM_DOCS = {
    "order_string": (lambda doc: json.dumps({**doc, "order": "2"}), "order"),
    "counts_string": (lambda doc: json.dumps({**doc, "counts": "x"}), "counts"),
    "two_element_entry": (
        lambda doc: json.dumps({**doc, "counts": doc["counts"] + [[[0], 1]]}),
        "counts",
    ),
    "not_json": (lambda doc: json.dumps(doc)[:-1], "not valid JSON"),
}


@pytest.mark.parametrize("edit, name", list(BAD_NGRAM_DOCS.values()), ids=list(BAD_NGRAM_DOCS))
def test_bad_ngram_document_exits_1_naming_file_and_field(workspace, capsys, edit, name):
    tmp_path, config_path, config, task = workspace
    large_path = tmp_path / "large.json"
    large_path.write_text(edit(json.loads(large_path.read_text())))
    assert main(["sweep", "--config", str(config_path)]) == 1
    _assert_one_error_line(capsys, f"{large_path}: {name}")


BAD_SWEEP_VALUES = {"nan": float("nan"), "inf": float("inf"), "negative": -0.5}


@pytest.mark.parametrize("key", ["alpha_fb", "alpha_rb"])
@pytest.mark.parametrize("value", list(BAD_SWEEP_VALUES.values()), ids=list(BAD_SWEEP_VALUES))
def test_bad_sweep_value_exits_1_naming_its_index(workspace, capsys, monkeypatch, key, value):
    tmp_path, config_path, config, task = workspace
    config["sweep"] = {key: [0.5, value]}
    config_path.write_text(json.dumps(config))
    decodes = []
    monkeypatch.setattr(Experiment, "run_strategy", lambda *a: decodes.append(a))
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config_path}: sweep.{key}[1]: must be finite and >= 0, got {value!r}\n"
    )
    assert decodes == [] and not (tmp_path / "out").exists()


def test_sampler_seed_error_names_the_one_seed(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    config["sampler"] = {"kind": "nucleus", "p": 0.9, "seed": 17}
    config_path.write_text(json.dumps(config))
    assert main(["decode", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config_path}: sampler.seed: ") and "top-level seed is the one seed" in err
    assert not (tmp_path / "out").exists()


MISSPELT_CONFIG_KEYS = {
    "top_level": ((), "max_lenn"),
    "model_entry": (("small_model",), "vocabb"),
    "cost": (("cost",), "smal"),
    "sweep": (("sweep",), "alpha_fbb"),
}


@pytest.mark.parametrize("section, key", list(MISSPELT_CONFIG_KEYS.values()), ids=list(MISSPELT_CONFIG_KEYS))
def test_misspelt_config_key_exits_1_naming_it(workspace, capsys, section, key):
    tmp_path, config_path, config, task = workspace
    target = config
    for name in section:
        target = target.setdefault(name, {})
    target[key] = 1
    config_path.write_text(json.dumps(config))
    assert main(["decode", "--config", str(config_path)]) == 1
    dotted = ".".join((*section, key))
    assert capsys.readouterr().err == f"error: {config_path}: {dotted}: unknown field\n"
    assert not (tmp_path / "out").exists()


def test_misspelt_ngram_key_exits_1_naming_it(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    large_path = tmp_path / "large.json"
    large_path.write_text(json.dumps({**json.loads(large_path.read_text()), "ordr": 2}))
    assert main(["decode", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {large_path}: ordr: unknown field\n"


def test_model_entry_without_path_names_the_config(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"small_model": {"kind": "ngram"}}))
    assert main(["decode", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {config_path}: small_model.path: required field is missing\n"


def test_unknown_model_kind_names_the_config_field(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    config["small_model"] = {"kind": "neural", "path": str(tmp_path / "missing.json")}
    config_path.write_text(json.dumps(config))
    assert main(["decode", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {config_path}: small_model.kind: unknown model kind 'neural'\n"


def test_every_command_checks_the_strategies_list(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    config["strategies"] = ["bild", "bogus"]
    config_path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {config_path}: strategies: unknown strategy 'bogus'\n"
    assert not (tmp_path / "out").exists()


def test_bad_strategies_flag_exits_1_naming_it(workspace, capsys):
    tmp_path, config_path, config, task = workspace
    assert main(["compare", "--config", str(config_path), "--strategies", "bild, bogus"]) == 1
    assert capsys.readouterr().err == "error: --strategies: unknown strategy 'bogus'\n"


@pytest.mark.parametrize("command", ["decode", "sweep", "compare"])
def test_empty_prompts_file_exits_1_naming_it(workspace, capsys, command):
    tmp_path, config_path, config, task = workspace
    (tmp_path / "prompts.txt").write_text("\n")
    assert main([command, "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: prompts file {tmp_path / 'prompts.txt'} is empty\n"
