"""Exception types shared across the package.

Grouped by the stage that raises them so the CLI can map them onto
exit codes (config = 1, input/output = 2, numeric = 3).
"""


class PeriocastError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PeriocastError):
    """Bad or unknown configuration key/value."""


# --- input / output ---------------------------------------------------------

class TraceIOError(PeriocastError):
    """Base class for trace loading problems."""


class EmptyFile(TraceIOError):
    pass


class MalformedRow(TraceIOError):
    pass


class NonMonotonicTimestamps(TraceIOError):
    pass


class CheckpointError(TraceIOError):
    """Corrupt, truncated or version-mismatched checkpoint file."""


# --- numeric / statistical --------------------------------------------------

class NumericError(PeriocastError):
    """Base class for numeric failures."""


class ZeroVariance(NumericError):
    pass


class LagTooLarge(NumericError):
    pass


class EmptySelection(NumericError):
    pass


class SeriesTooShort(NumericError):
    pass


class BandTooNarrow(NumericError):
    pass


class DegenerateComponent(NumericError):
    pass


class ShapeMismatch(NumericError):
    pass


class BadLength(NumericError):
    pass


class NonFinite(NumericError):
    pass


class NonFiniteLoss(NumericError):
    pass


class EmptyTrainSet(NumericError):
    """No windows to train or serve; the CLI exits 1, as for a config error,
    because a longer trace or another split or window size fixes it."""


class TapeConsumed(PeriocastError):
    """A gradient tape was asked to run backward twice."""
