"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A function argument is outside its documented domain."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class EstimationError(RuntimeError):
    """A fit produced parameters outside the physically allowed range."""
