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
    """Training loss or its gradient, or an episode's adapted parameters, became non-finite, or the loss blew up.

    ``step`` counts the ``unit`` that diverged: a meta-step, or an evaluation episode.
    """

    def __init__(self, step: int, message: str, unit: str = "step"):
        super().__init__(f"{unit} {step}: {message}")
        self.step = step
