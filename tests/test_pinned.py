"""Pinned outputs of every draft-and-verify decoder.

Each case hashes, over ~30 random model pairs and two prompts each, the
sequence, provenance, counters, extras and the JSON lines of the trace.
The digests were recorded from the reference implementation; a refactor of
the decode loops must reproduce them exactly. A change that alters outputs
on purpose takes the new digests from the failure messages and says why.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace

import pytest

from bild import PolicyConfig, Sampler, SpecConfig, bild_decode, speculative_decode
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


CASES = {
    "bild_greedy": _bild("greedy"),
    "bild_nucleus": _bild("nucleus"),
    "bild_temperature": _bild("temperature"),
    "bild_verify_eos": _bild("nucleus", verify_eos=True),
    "bild_rollback_off": _bild("greedy", rollback_enabled=False),
    "ablation_no_rollback": _ablation(NO_ROLLBACK),
    "ablation_fixed_window": _ablation(FIXED_WINDOW_VARIANT, k=2),
    **{
        f"speculative_w{w}_{kind}": _speculative(w, kind)
        for w in (1, 2, 4)
        for kind in ("temperature", "nucleus", "greedy")
    },
}

DIGESTS = {
    "ablation_fixed_window": "0f5a613d026f6afd56b92789b13932d47aaa9c379af2efa09a933a5d9241bb6a",
    "ablation_no_rollback": "9c71e09f6edb834d99c943fa45d0c35eb10cd9c1f11d41fdafa9634356024ce6",
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
                "counters": result.counters.to_json_dict(),
                "extras": result.extras,
            }
            h.update(json.dumps(record, sort_keys=True).encode())
            for event in result.trace:
                h.update(json.dumps(event_to_json_dict(event)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_pinned_digest(case):
    assert digest(case) == DIGESTS[case]
