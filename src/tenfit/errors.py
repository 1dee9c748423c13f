"""Exception types shared across the package."""


class TenfitError(Exception):
    """Base class for all tenfit-specific errors."""


class SchemaError(TenfitError):
    """A record or value does not fit the design-space schema."""


class ContractError(TenfitError):
    """An argument violates a documented precondition."""


class DegenerateDataError(TenfitError):
    """The data admits no meaningful answer (zero range, zero variance,
    zero-norm column, empty observation set)."""


class CapacityError(TenfitError):
    """A dense materialization would exceed the configured cell cap."""


class SplitError(TenfitError):
    """A requested split would leave one side empty."""


class StratumExhaustedError(TenfitError):
    """A sampling stratum holds fewer observations than requested."""


class DivergenceError(TenfitError):
    """Training produced a non-finite loss."""


class WorkerError(TenfitError):
    """A worker process training a batch of fits ended without returning
    its results."""
