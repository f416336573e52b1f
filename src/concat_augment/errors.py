"""Exception hierarchy for the pipeline.

Fatal errors abort a run with a nonzero exit code; row- or entry-level
problems are reported as diagnostics and never raise.
"""


class PipelineError(Exception):
    """Base class for all fatal pipeline errors."""


class ManifestError(PipelineError):
    """Malformed manifest: missing header columns or duplicate ids."""


class FeatureError(PipelineError):
    """Invalid audio input or feature configuration."""


class ArchiveError(PipelineError):
    """Feature archive corruption, lookup failure or OS error."""


class ConfigurationError(PipelineError):
    """Invalid strategy or pipeline configuration."""


class BatchingError(PipelineError):
    """Batch assembly violated the frame budget or shape contract."""
