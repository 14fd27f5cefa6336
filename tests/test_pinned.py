"""Pinned outputs of every decoder: vanilla, the oracle blend, and every
draft-and-verify loop, and the cost reports priced from their traces.

Each case hashes, over ~30 random model pairs and two prompts each, the
sequence, provenance, counters, extras and the JSON lines of the trace.
The digests were recorded from the reference implementation; a refactor of
the decode loops must reproduce them exactly. The cost digests hash the
``tally_trace`` reports of the same traces and the stdout of ``bild
cost``; a refactor of the cost model must reproduce those too. A change that alters outputs
on purpose takes the new digests from the failure messages and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, replace

import pytest

from bild import (
    MAX_DISTANCE,
    PRESETS,
    PolicyConfig,
    RooflinePeaks,
    Sampler,
    SpecConfig,
    bild_decode,
    oracle_blend_decode,
    speculative_decode,
    tally_trace,
    vanilla_decode,
)
from bild.cli import main
from bild.engine import FIXED_WINDOW_VARIANT, NO_ROLLBACK, ablation_decode
from bild.trace import event_to_json_dict
from conftest import random_model_pair

SEEDS = range(30)


def _samplers(seed: int) -> dict:
    return {
        "greedy": Sampler.greedy(),
        "nucleus": Sampler.nucleus(0.9, seed=seed),
        "temperature": Sampler.temperature(1.3, seed=seed),
    }


def _policy(rng: random.Random) -> PolicyConfig:
    return PolicyConfig(
        alpha_fb=rng.choice([0.3, 0.5, 0.7]),
        alpha_rb=rng.choice([0.5, 1.0, 2.0]),
        window_cap=rng.choice([1, 3, 5]),
    )


def _bild(sampler_kind: str, **changes):
    def run(small, large, policy, prompt, seed, max_len):
        config = replace(policy, **changes)
        return bild_decode(small, large, config, _samplers(seed)[sampler_kind], prompt, max_len)

    return run


def _ablation(variant: str, **kwargs):
    def run(small, large, policy, prompt, seed, max_len):
        sampler = _samplers(seed)["nucleus"]
        return ablation_decode(variant, small, large, policy, sampler, prompt, max_len, **kwargs)

    return run


def _speculative(window: int, sampler_kind: str):
    def run(small, large, policy, prompt, seed, max_len):
        draft = _samplers(seed)[sampler_kind]
        config = SpecConfig(window=window, seed=seed)
        return speculative_decode(small, large, config, prompt, max_len, draft_sampler=draft)

    return run


def _vanilla(sampler_kind: str):
    def run(small, large, policy, prompt, seed, max_len):
        return vanilla_decode(small, prompt, _samplers(seed)[sampler_kind], max_len)

    return run


def _blend(threshold: float, sampler_kind: str):
    def run(small, large, policy, prompt, seed, max_len):
        sampler = _samplers(seed)[sampler_kind]
        return oracle_blend_decode(small, large, threshold, sampler, prompt, max_len)

    return run


CASES = {
    "bild_greedy": _bild("greedy"),
    "bild_nucleus": _bild("nucleus"),
    "bild_temperature": _bild("temperature"),
    "bild_verify_eos": _bild("nucleus", verify_eos=True),
    "bild_rollback_off": _bild("greedy", alpha_rb=MAX_DISTANCE),
    "ablation_no_rollback": _ablation(NO_ROLLBACK),
    "ablation_fixed_window": _ablation(FIXED_WINDOW_VARIANT, k=2),
    "vanilla_greedy": _vanilla("greedy"),
    "vanilla_nucleus": _vanilla("nucleus"),
    **{
        f"blend_t{t}_{kind}": _blend(t, kind)
        for t in (0.2, 0.8)
        for kind in ("greedy", "nucleus")
    },
    **{
        f"speculative_w{w}_{kind}": _speculative(w, kind)
        for w in (1, 2, 4)
        for kind in ("temperature", "nucleus", "greedy")
    },
}

DIGESTS = {
    "ablation_fixed_window": "0f5a613d026f6afd56b92789b13932d47aaa9c379af2efa09a933a5d9241bb6a",
    "ablation_no_rollback": "9c71e09f6edb834d99c943fa45d0c35eb10cd9c1f11d41fdafa9634356024ce6",
    "blend_t0.2_greedy": "3149ebfac99dbd155473ae5b72bc1353f11714cab65b5a1be0ad2a2d79aae1a6",
    "blend_t0.2_nucleus": "6cfe357973f6ecc46b0cd72fa9031fb6272f033f42cf2862e978527623753e4c",
    "blend_t0.8_greedy": "0388bcbfc1230edb2dc68fa20fda330acaeac58fb386f7d17d87a32e5154dfcc",
    "blend_t0.8_nucleus": "1887953ef8d7fccef79323f81f76919ef1358d4bfd93c082fa6f2443edabbc54",
    "bild_greedy": "c2613ca811970de74fc13c6aa45040d97be20afadc3b64a85972751ac56e8c7a",
    "bild_nucleus": "93936c1103150d6f3636c729c26b18375e8be120b676d5c57c98e65fe13a4059",
    "bild_rollback_off": "25defa7534693da611d54ca25bdd43507afb90073128ed2dc938cfe3c96b4041",
    "bild_temperature": "69ce1a95cb2c2cb6b8f36463b1cc5bd1be92e20cbcf469b9ecaec83f24cc6277",
    "bild_verify_eos": "903bd5a050c6c287bc895f586adc04b4147f94fe53daaca1aef13a9e5cbc5bd9",
    "speculative_w1_greedy": "d6b5543a63af3bca59077e9a74b1774b73b2077be5925238de1654c8a8f1510f",
    "speculative_w1_nucleus": "abe87407e3bb95543e31e20c8c826b26fa6c56b8aead312c07b692c5ee549bfd",
    "speculative_w1_temperature": "f7cf279afa7e34a3a4ee79f33fdf176c7a68195f2f4bb56a73fb773f40c3b95d",
    "speculative_w2_greedy": "3d22d0616ac3b66d3607999b820c45d60c9629256ddf82bf364ffc652b71a1f6",
    "speculative_w2_nucleus": "62ce2b899fcc997a489017dce0440c30db105b9741a7f2f77706ae792c82a702",
    "speculative_w2_temperature": "c03370d7e565766ca5a0aa57bebad1607bc06ad0dca4b30927b61d701125c5ee",
    "speculative_w4_greedy": "f88d24586cde7b96f68c485e9173968ab06b2654abd60fcbd55959c645c87456",
    "speculative_w4_nucleus": "7c5c629412f825e2f68a3e3729733affaa8cbff0d02dae21c69d60a7242f77a9",
    "speculative_w4_temperature": "788c0089a79a4812a656d32b0b61d374c79b03f5ec87fbe5369398eddb1e4008",
    "vanilla_greedy": "c54f491cf38643cc5e85c5dca188dc7b70b6d434ae62de5323c32089440d3e1b",
    "vanilla_nucleus": "4ea51b316afe8ecf926cca5993fedce7e15ffccf71babc7ae08e69d2de61b298",
}


def digest(case: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        vocab, small, large = random_model_pair(seed)
        rng = random.Random(seed)
        policy = _policy(rng)
        max_len = rng.randint(4, 24)
        body = [rng.randrange(vocab.size - 1) for _ in range(rng.randint(1, 4))]
        for prompt in ([], body):
            result = CASES[case](small, large, policy, prompt, seed, max_len)
            record = {
                "sequence": result.sequence,
                "provenance": result.provenance,
                "counters": asdict(result.counters),
                "extras": result.extras,
            }
            h.update(json.dumps(record, sort_keys=True).encode())
            for event in result.trace:
                h.update(json.dumps(event_to_json_dict(event)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digest(case):
    assert digest(case) == DIGESTS[case]


# Cost reports of the pinned decoders' traces. Each trace is priced with its
# own and with a longer prompt, under the decoder's budget and a shorter cut,
# and with and without device peaks. The digests were recorded from the
# per-event tally that summed one ``step_cost`` per model call.
COST_PEAKS = (None, RooflinePeaks(peak_flops=1.2e14, peak_bandwidth=9.0e11))
COST_DESCS = (("t5-small", "t5-large"), ("mt5-small", "mt5-large"))

COST_DIGESTS = {
    "ablation_fixed_window": "5d2ffb018e8f2b7d4403b8b6a730b455cbf62abdbddae4223e62f46e9ad0336f",
    "ablation_no_rollback": "7ac69afd786750bffb431a87b6ca1a37042b8bd813545fee8052c3b29be1f04d",
    "bild_greedy": "1ba5e3d907e35599fba8e3f19ff8f87247e6f8e83602e64663a49e1f3d9f4e09",
    "bild_nucleus": "f6ca547f2a8910d9265b6a39475865cf3ef5afae7af3713ee0273b13f85cb42f",
    "bild_rollback_off": "302079d0e6928af57b2aef7db2faee9aec9a671f255b9215b315b54efbdff323",
    "bild_temperature": "4bcd0ae58fd67d6ea8876f371ceae1b48c12c6127637e410dbc4b9fc541c8685",
    "bild_verify_eos": "ddca9618bc6bb9d44a0ed2bb7a569683c2aaf3d4711f1c2af662e50585156cca",
    "blend_t0.2_greedy": "7863c15d58042886084ec476c27d49fa26589d3d04df7cc6e0cf24686de4c022",
    "blend_t0.2_nucleus": "acf496b1d1015da62f0675311995021746b814e1c3c4526fba251d353697a9c2",
    "blend_t0.8_greedy": "d7680b290f94de18588ec962a36ba0827ac75c11a31e0d2d0594053724ff1ddc",
    "blend_t0.8_nucleus": "d040fdb2a83349d21ad796fd0e72661b1713c4eda789df74800f838eeb1dcf17",
    "speculative_w1_greedy": "cb257e5eaec12f6855f5dfcad42ca59eebfa99c878b77873439dcd50c770944d",
    "speculative_w1_nucleus": "36c60e0798ef9882858e87c6849ba4837a3a63be3434630429c08ae83b6a35a5",
    "speculative_w1_temperature": "bdd4f580beec78cae3078765a150f98f9134e2baf8dc2da7fc47f2a6013978a6",
    "speculative_w2_greedy": "407300f7fc939ed86671d30cfef61012013d63ff41013d58bb954cccfdadfe29",
    "speculative_w2_nucleus": "f528cdeddafa4e1fcd9cd72f409d54c3d9e026d2c334c2041cce9fac9d2e8841",
    "speculative_w2_temperature": "84520e7f120979d38ccb473f8828bb78802b538f6400870d35663c4e9450a565",
    "speculative_w4_greedy": "d4e2ba1b798da911e747a8a7773bd1d017d41c4a57aa5afd2fddfa04364233b3",
    "speculative_w4_nucleus": "2be4330ecc5c9fa93fe0cec4c9e8126fda2da483aa6c196a3658ce002bcf274f",
    "speculative_w4_temperature": "f7d0830a2bbe9726a7159378ef022f4ee9b9fc9613f10fe49b7a597be3ade31c",
    "vanilla_greedy": "830cf3b3b0a5ef1092f2004696b606d12db06cac50c35e6fd8335095a4539aab",
    "vanilla_nucleus": "c4b26e13b82aa3698e8a57228f99bfdb8aa195da5cca4a41f340765bb94c8a8d",
}


def cost_digest(case: str) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        vocab, small, large = random_model_pair(seed)
        rng = random.Random(seed)
        policy = _policy(rng)
        max_len = rng.randint(4, 24)
        body = [rng.randrange(vocab.size - 1) for _ in range(rng.randint(1, 4))]
        small_desc, large_desc = (PRESETS[name] for name in COST_DESCS[seed % 2])
        for prompt in ([], body):
            result = CASES[case](small, large, policy, prompt, seed, max_len)
            for prompt_len in (len(prompt), len(prompt) + 17 * seed + 3):
                for cut in (None, max_len, max_len // 2):
                    for peaks in COST_PEAKS:
                        report = tally_trace(
                            result.trace,
                            small_desc,
                            large_desc,
                            prompt_len=prompt_len,
                            max_len=cut,
                            peaks=peaks,
                        )
                        h.update(json.dumps(report.to_json_dict()).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(COST_DIGESTS))
def test_cost_reports_match_pinned_digest(case):
    assert cost_digest(case) == COST_DIGESTS[case]


CLI_COST_DIGESTS = {
    (): "4fa5696a1396e2d4040e8a13e77a1fe72de97756331a7e3dea83bc561b9472d4",
    ("--tokens", "20000"): "e848900b681e6ed2a0e6fbc8d412db7b2a95d86832e701c9c50b4f4bf3306fd4",
    ("--tokens", "20000", "--prompt-len", "300", "--peak-flops", "1.2e14", "--peak-bandwidth", "9e11"): (
        "56e918434338c92fb922c33a5544aa796c682bd836f76fcc1f584b24b7b7f895"
    ),
}


@pytest.mark.parametrize("flags", sorted(CLI_COST_DIGESTS), ids=" ".join)
def test_cost_command_output_matches_pinned_digest(flags, capsys):
    assert main(["cost", *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_COST_DIGESTS[flags]
