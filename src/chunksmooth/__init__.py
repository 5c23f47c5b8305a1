"""Chunk-based smoothing for byte-level malware detection.

Vote-over-ablations classification with certified robustness to
contiguous in-place edits, plus the black-box attacks to stress it.
All sample files are synthetic and inert; nothing here executes them.
"""

from .ablation import ABLATE_TOKEN, VOCAB_SIZE, AblationConfig, chunk_length, make_views
from .attacks import (
    AttackResult,
    CavesConfig,
    DetectorOracle,
    GaConfig,
    GammaConfig,
    PaddingConfig,
    ShiftConfig,
    attack_caves,
    attack_gamma,
    attack_padding,
    attack_shift,
    ga_optimize,
    make_oracle,
)
from .corpus import (
    LABEL_BENIGN,
    LABEL_MALICIOUS,
    CorpusManifest,
    ManifestEntry,
    SynthConfig,
    load_capped,
    read_manifest,
    synth_corpus,
    temporal_split,
    write_manifest,
)
from .errors import ChunkSmoothError, ConfigError, DataError, NumericError
from .harness import (
    CampaignConfig,
    EvalReport,
    evaluate,
    prediction_record,
    robustness_table,
    run_attack_campaign,
)
from .neural import MalConvParams, ModelProfile, init_params, load_checkpoint, save_checkpoint
from .pe import PeLayout, SectionSpec, build_pe, parse_pe
from .smoothing import (
    CertificationResult,
    DetectorSpec,
    SmoothedPrediction,
    TrainConfig,
    certify_inplace,
    predict,
    predict_plain,
    predict_smoothed,
    train_smoothed,
)

__version__ = "0.1.0"

__all__ = [
    "ABLATE_TOKEN",
    "VOCAB_SIZE",
    "AblationConfig",
    "AttackResult",
    "CampaignConfig",
    "CavesConfig",
    "CertificationResult",
    "ChunkSmoothError",
    "ConfigError",
    "CorpusManifest",
    "DataError",
    "DetectorOracle",
    "DetectorSpec",
    "EvalReport",
    "GaConfig",
    "GammaConfig",
    "LABEL_BENIGN",
    "LABEL_MALICIOUS",
    "MalConvParams",
    "ManifestEntry",
    "ModelProfile",
    "NumericError",
    "PaddingConfig",
    "PeLayout",
    "SectionSpec",
    "ShiftConfig",
    "SmoothedPrediction",
    "SynthConfig",
    "TrainConfig",
    "attack_caves",
    "attack_gamma",
    "attack_padding",
    "attack_shift",
    "build_pe",
    "certify_inplace",
    "chunk_length",
    "evaluate",
    "ga_optimize",
    "init_params",
    "load_capped",
    "load_checkpoint",
    "make_oracle",
    "make_views",
    "parse_pe",
    "predict",
    "predict_plain",
    "predict_smoothed",
    "prediction_record",
    "read_manifest",
    "robustness_table",
    "run_attack_campaign",
    "save_checkpoint",
    "synth_corpus",
    "temporal_split",
    "train_smoothed",
    "write_manifest",
]
