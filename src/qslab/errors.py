"""Exception types shared across the package, and the kind check of config fields."""

import numbers
import os


class ParameterError(ValueError):
    """A function argument is outside its documented domain."""


class NumericError(RuntimeError):
    """A numerical routine failed to meet its accuracy contract."""


class EstimationError(RuntimeError):
    """A fit produced parameters outside the physically allowed range."""


# an annotation, as text under `from __future__ import annotations`, -> its values and
# their name: numpy scalars register as numbers, a bool is no number, a float no integer
_KINDS = {"int": (numbers.Integral, "an integer"), "float": (numbers.Real, "a number"),
          "bool": (bool, "true or false"), "str": (str, "a string"),
          "str | os.PathLike": ((str, os.PathLike), "a string or a path")}


def check_kind(where: str, value, annotation: str) -> None:
    """Refuse a value not of the annotated kind with a ParameterError naming where."""
    kind, name = _KINDS[annotation]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ParameterError(f"{where} must be {name}, got {value!r}")
    if annotation == "float":
        try:
            float(value)
        except OverflowError:   # an integer past 1.8e308, whose repr may be too long to print
            raise ParameterError(f"{where} must be {name}, got one too large for a float") from None


def check_fields(config, section: str, **least) -> None:
    """check_kind of each config dataclass field with a kind, then the minimums in least."""
    for name, annotation in type(config).__annotations__.items():
        value = getattr(config, name)
        if annotation in _KINDS:
            check_kind(f"{section}.{name}", value, annotation)
        if name in least and value < least[name]:
            raise ParameterError(f"{section}.{name} must be at least {least[name]}, got {value!r}")
