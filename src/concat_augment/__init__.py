"""Deterministic concatenation-based augmentation for speech-to-text data.

The pipeline ingests TSV manifests, extracts 80-dim log-Mel features,
builds per-epoch concatenation plans (self / same-speaker / random),
merges them with the originals under a length filter, applies
SpecAugment, and packs frame-budget batches, all seed-reproducible.
"""

from .archive import FeatureArchive
from .augment import Strategy, length_filter, plan_epoch
from .batching import compose_batches, padding_waste
from .batchio import Record, decode_batch, read_batch_file
from .errors import (
    ArchiveError,
    BatchingError,
    ConfigurationError,
    FeatureError,
    ManifestError,
    PipelineError,
)
from .features import FeatureConfig, compute_logmel, frame_count
from .manifest import (
    Corpus,
    Utterance,
    build_speaker_index,
    ingestion_report,
    normalize_target,
    parse_manifest,
)
from .pipeline import AuditReport, PipelineConfig, audit, iter_epoch_batches, run
from .rng import keyed_rng
from .specaugment import MaskPolicy, mask_in_place

__version__ = "0.1.0"

__all__ = [
    "ArchiveError",
    "AuditReport",
    "BatchingError",
    "ConfigurationError",
    "Corpus",
    "FeatureArchive",
    "FeatureConfig",
    "FeatureError",
    "ManifestError",
    "MaskPolicy",
    "PipelineConfig",
    "PipelineError",
    "Record",
    "Strategy",
    "Utterance",
    "audit",
    "build_speaker_index",
    "compose_batches",
    "compute_logmel",
    "decode_batch",
    "frame_count",
    "ingestion_report",
    "iter_epoch_batches",
    "keyed_rng",
    "length_filter",
    "mask_in_place",
    "normalize_target",
    "padding_waste",
    "parse_manifest",
    "plan_epoch",
    "read_batch_file",
    "run",
]
