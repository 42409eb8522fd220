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

from .tasks import CATEGORICAL, CONTINUOUS, RegressionTask, validate_assignment

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
        if type(self.float_precision) is not int or self.float_precision < 1:
            raise ValueError(f"float_precision must be a positive integer, got {self.float_precision!r}")
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


def parse_full_dict(task: RegressionTask, s: str) -> dict:
    """Invert :func:`serialize` for the full_dict variant.

    Recovers values up to the precision they were rendered at.
    """
    s = s.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"not a full_dict string: {s!r}")
    body = s[1:-1]
    specs = {p.name: p for p in task.params}
    x: dict = {}
    for item in _split_top_level(body):
        item = item.strip()
        if not item:
            continue
        name, _, raw = item.partition(":")
        name = name.strip()
        if name not in specs:
            raise ValueError(f"unknown param {name!r} in {s!r}")
        raw = raw.strip()
        if specs[name].kind == CATEGORICAL:
            if not (raw.startswith("'") and raw.endswith("'")):
                raise ValueError(f"categorical value must be quoted: {raw!r}")
            x[name] = raw[1:-1]
        else:
            x[name] = float(raw)
    validate_assignment(task, x)
    return x


def _split_top_level(body: str) -> list[str]:
    # Split on commas that are not inside single quotes.
    items, buf, quoted = [], [], False
    for ch in body:
        if ch == "'":
            quoted = not quoted
            buf.append(ch)
        elif ch == "," and not quoted:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        items.append("".join(buf))
    return items
