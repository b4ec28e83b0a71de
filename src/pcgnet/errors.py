"""Exception types shared across the package, and the type check of the
config dataclasses.

The CLI maps these onto exit codes: argparse's usage errors and every
ValueError exit 2, DataError exits 3, NumericalAbort exits 4.
"""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real


class DataError(Exception):
    """Unusable input data: bad files, degenerate label sets, empty stores."""


class SegmentationError(DataError):
    """A recording could not be segmented into cardiac cycles."""

    def __init__(self, recording_id: str, reason: str):
        self.recording_id = recording_id
        self.reason = reason
        super().__init__(f"{recording_id}: {reason}")


class NumericalAbort(Exception):
    """Training produced a non-finite loss and was aborted."""


class CheckpointError(DataError):
    """A checkpoint file is missing, truncated or malformed."""


def is_number(value) -> bool:
    """A finite real number that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


# by the annotation a field is declared with (a string under postponed annotations)
_FIELD_TYPES = {
    "int": (lambda v: isinstance(v, Integral) and not isinstance(v, bool), "an integer"),
    "float": (is_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


def check_field_types(obj) -> None:
    """Raise ValueError naming the first field of the dataclass instance
    `obj` whose value does not have the type the field is declared with:
    an int field takes a non-bool integer, a float field a finite non-bool
    number, a bool field a bool, a str field a str. Fields of any other
    declared type are left to the caller."""
    for f in fields(obj):
        check = _FIELD_TYPES.get(f.type)
        if check is not None and not check[0](getattr(obj, f.name)):
            raise ValueError(f"{f.name} must be {check[1]}, got {getattr(obj, f.name)!r}")
