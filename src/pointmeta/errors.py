"""Exception types shared across the library.

The CLI maps these onto its exit codes, so raising the right class matters
more than the message text.
"""


class PointMetaError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(PointMetaError):
    """Array shapes incompatible with an operation's contract."""


class ContractError(PointMetaError):
    """An API precondition was violated (non-scalar loss, missing keys, ...)."""


class ValidationError(PointMetaError):
    """Malformed input data: bad labels, colors, or file contents."""


class ConfigError(PointMetaError):
    """Invalid or inconsistent configuration."""


class CapacityError(PointMetaError):
    """The dataset cannot support the requested episode structure."""


class DivergenceError(PointMetaError):
    """Training loss or its gradient became non-finite, or the loss blew up."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step
