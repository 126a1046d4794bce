"""Exception types shared across the package."""


class LocalGDError(Exception):
    """Base class for all errors raised by this package."""


class DivergenceError(LocalGDError, RuntimeError):
    """A run broke optim's divergence rule: a non-finite ||w||^2 or trace field,
    or flow margins beyond the representable range of the surrogate losses.

    Carries the round index at which divergence was detected and the traces
    collected up to (and excluding) that round, so partial results survive.
    """

    def __init__(self, round_index, traces):
        self.round_index = round_index
        self.traces = traces
        super().__init__(f"run diverged at round {round_index}")


class ConvergenceError(LocalGDError, RuntimeError):
    """An iterative solver hit its iteration cap without certifying its result.

    ``estimate`` holds the last (uncertified) estimate.
    """

    def __init__(self, message, estimate=None):
        self.estimate = estimate
        super().__init__(message)


class SeparabilityError(LocalGDError, ValueError):
    """The folded dataset admits no strictly separating direction."""


class IdxFormatError(LocalGDError, ValueError):
    """An input file is malformed: an IDX file (the message names the offending
    byte offset), a dataset snapshot or a run summary."""


class DomainError(LocalGDError, ValueError):
    """An argument is outside the representable domain of a special function."""


class DegenerateGeometryError(LocalGDError, ValueError):
    """Client directions are antipodal (c <= -1); rate constants are undefined."""


class MissingTraceDataError(LocalGDError, ValueError):
    """A requested check needs trace fields the run did not record."""
