"""Exception hierarchy shared across the package.

Everything raised on purpose derives from HyptasError so the CLI can map
user-facing validation failures to exit code 1 and keep genuine bugs
(anything else) at exit code 2.
"""


class HyptasError(Exception):
    """Base class for all deliberate errors raised by this package."""


class GeometryError(HyptasError):
    """Bad manifold input: non-finite or out-of-ball prototype coordinates."""


class AutodiffError(HyptasError):
    """Misuse of the differentiation tape (wrong tape, non-scalar output)."""


class ScheduleError(HyptasError):
    """Invalid noise-schedule construction or timestep ordering."""


class ShapeError(HyptasError):
    """Array shape disagreement between cooperating operations."""


class ContractViolation(HyptasError):
    """A caller broke an explicit lifecycle contract (e.g. frozen prototypes)."""


class FormatError(HyptasError):
    """On-disk artifact is malformed; message names the path."""


class OutputError(HyptasError):
    """An output file could not be written; message names the path and the reason."""


class ConfigError(HyptasError):
    """Config file failed to parse or holds an out-of-range value."""


class NonFiniteLossError(HyptasError):
    """Training produced a non-finite loss; message names the component."""
