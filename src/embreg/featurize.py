"""Hand-engineered feature vectors and canonical string forms of task inputs.

Continuous params are min-max scaled to [0, 1]; categorical params become
one-hot blocks in declared choice order. String serialization renders inputs
either as a key:value dictionary or as a bare value list, with floats at a
fixed number of significant digits, so equal inputs always produce identical
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .tasks import CATEGORICAL, CONTINUOUS, RegressionTask, check_integers, validate_assignment

FULL_DICT = "full_dict"
VALUES_ONLY = "values_only"

# Scientific notation is expanded to positional digits within this exponent
# range; beyond it the compact form is kept.
_POSITIONAL_EXP_RANGE = 16


def d_trad(task: RegressionTask) -> int:
    """Width of the traditional feature vector: one slot per continuous param,
    one block per categorical param."""
    return sum(1 if p.kind == CONTINUOUS else len(p.choices) for p in task.params)


def featurize_traditional(task: RegressionTask, x: dict) -> np.ndarray:
    validate_assignment(task, x)
    out = np.zeros(d_trad(task), dtype=np.float64)
    pos = 0
    for p in task.params:
        v = x[p.name]
        if p.kind == CONTINUOUS:
            out[pos] = (v - p.lo) / (p.hi - p.lo)
            pos += 1
        else:
            out[pos + p.choices.index(v)] = 1.0
            pos += len(p.choices)
    return out


@dataclass(frozen=True)
class StringFormat:
    """Serialization variant plus float precision (significant digits)."""

    variant: str = FULL_DICT
    float_precision: int = 4
    space_after_comma: bool = False

    def __post_init__(self) -> None:
        if self.variant not in (FULL_DICT, VALUES_ONLY):
            raise ValueError(f"unknown variant {self.variant!r}")
        check_integers(vars(self), float_precision=1)
        if type(self.space_after_comma) is not bool:
            raise ValueError(f"space_after_comma must be true or false, got {self.space_after_comma!r}")


def format_float(v: float, sig_digits: int) -> str:
    """Render a float at the given significant digits, preferring positional
    notation so small-magnitude values keep their plain decimal form."""
    s = f"{float(v):.{sig_digits}g}"
    if "e" in s or "E" in s:
        d = Decimal(s)
        if -_POSITIONAL_EXP_RANGE <= d.adjusted() <= _POSITIONAL_EXP_RANGE:
            s = format(d, "f")
            if "." in s:
                s = s.rstrip("0").rstrip(".")
    if s in ("-0", "-0.0"):
        s = "0"
    return s


def serialize(task: RegressionTask, x: dict, fmt: StringFormat | None = None) -> str:
    """Deterministic string form of an assignment, params in declared order.

    full_dict:   {name1:val1,name2:val2,...}
    values_only: [val1,val2,...]

    Categorical values are single-quoted; floats use fmt.float_precision
    significant digits.
    """
    fmt = fmt or StringFormat()
    validate_assignment(task, x)
    sep = ", " if fmt.space_after_comma else ","
    parts = []
    for p in task.params:
        v = x[p.name]
        rendered = f"'{v}'" if p.kind == CATEGORICAL else format_float(v, fmt.float_precision)
        parts.append(rendered if fmt.variant == VALUES_ONLY else f"{p.name}:{rendered}")
    body = sep.join(parts)
    return f"[{body}]" if fmt.variant == VALUES_ONLY else f"{{{body}}}"
