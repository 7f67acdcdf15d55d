"""Exception types raised across the pipeline."""


class RepotailorError(Exception):
    """Base class for all pipeline errors."""


class ConfigError(RepotailorError):
    """Run configuration is missing, malformed, or inconsistent."""


class ConfigHashMismatch(ConfigError):
    """A stage output was produced under a different configuration."""


class DataError(RepotailorError):
    """Input data violates a stage precondition."""


class RepoUnreadable(DataError):
    """Repository path is not a readable clone."""


class BranchMissing(DataError):
    """Requested branch does not exist in the repository."""


class EmptyInput(DataError):
    """An operation requiring a non-empty sequence received none."""


class TooFewInstances(DataError):
    """Developer history is too short to carve out the fixed test set."""


class TargetTooLarge(DataError):
    """Requested sample size exceeds the available pool."""


class DatasetMismatch(DataError):
    """A prediction references an instance id not in the dataset."""


class InstanceSetMismatch(DataError):
    """Two score-row sets cover different instance ids."""


class EmptyTestSet(DataError):
    """Coverage requested against an empty test set."""


class EmptyTrainSet(DataError):
    """Coverage requested against an empty training set."""


class NonPositiveDelta(DataError):
    """Per-inference cost delta must be positive for a breakeven."""


class MissingStage(DataError):
    """A pipeline stage requires outputs of an earlier stage."""
