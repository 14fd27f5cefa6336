"""Collaborative decoding between a small drafting model and a large
verifying model, with fallback/rollback policies, a speculative-sampling
baseline, deterministic toy models, and an analytical cost model."""

from .dist import PROB_FLOOR, ProbDist
from .engine import ablation_decode, bild_decode, oracle_blend_decode, vanilla_decode
from .errors import (
    BildError,
    ConfigurationError,
    InvalidInputError,
    InvalidTraceError,
    VocabularyMismatchError,
)
from .costmodel import (
    PRESETS,
    ModelDescriptor,
    RooflinePeaks,
    TallyReport,
    WorkloadTally,
    step_cost,
    synthesize_rate_trace,
    tally_trace,
)
from .metrics import RunSummary, agreement, perplexity, summarize
from .models import LanguageModel
from .policies import (
    MAX_DISTANCE,
    PolicyConfig,
    distance,
    find_rollback_position,
    should_fallback,
)
from .sampling import Sampler, sample
from .speculative import SpecConfig, residual_dist, speculative_decode
from .toymodels import NgramLM, TableLM, align_small, fit_ngram, generate_corpus
from .trace import Counters, DecodeResult, load_trace, replay_trace, save_trace
from .vocab import Vocabulary, load_corpus, load_vocabulary, save_corpus, save_vocabulary

__version__ = "0.1.0"

__all__ = [
    "PROB_FLOOR",
    "MAX_DISTANCE",
    "PRESETS",
    "BildError",
    "ConfigurationError",
    "Counters",
    "DecodeResult",
    "InvalidInputError",
    "InvalidTraceError",
    "LanguageModel",
    "ModelDescriptor",
    "NgramLM",
    "PolicyConfig",
    "ProbDist",
    "RooflinePeaks",
    "RunSummary",
    "Sampler",
    "SpecConfig",
    "TableLM",
    "TallyReport",
    "Vocabulary",
    "VocabularyMismatchError",
    "WorkloadTally",
    "ablation_decode",
    "agreement",
    "align_small",
    "bild_decode",
    "distance",
    "find_rollback_position",
    "fit_ngram",
    "generate_corpus",
    "load_corpus",
    "load_trace",
    "load_vocabulary",
    "oracle_blend_decode",
    "perplexity",
    "replay_trace",
    "residual_dist",
    "sample",
    "save_corpus",
    "save_trace",
    "save_vocabulary",
    "should_fallback",
    "speculative_decode",
    "step_cost",
    "summarize",
    "synthesize_rate_trace",
    "tally_trace",
    "vanilla_decode",
]
