"""Closed-form benchmark objectives on [-5, 5]^d.

All functions are the unshifted, unrotated canonical forms, so minima sit at
the origin (Rosenbrock: at the all-ones vector) and values are analytically
checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

LOWER_BOUND = -5.0
UPPER_BOUND = 5.0


class OutOfDomainError(ValueError):
    """A coordinate falls outside [-5, 5]."""


class UnknownFunctionError(ValueError):
    """Requested function id is not in the catalog."""


def _index_exponents(d: int, scale: float) -> np.ndarray:
    # (i-1)/(d-1) for i = 1..d; defined as 0 when d == 1.
    if d == 1:
        return np.zeros(1)
    return scale * np.arange(d) / (d - 1)


def sphere(x: np.ndarray) -> float:
    return float(np.sum(x * x))


def ellipsoidal(x: np.ndarray) -> float:
    exponents = _index_exponents(x.size, 6.0)
    return float(np.sum(np.power(10.0, exponents) * x * x))


def rastrigin(x: np.ndarray) -> float:
    d = x.size
    return float(10.0 * (d - np.sum(np.cos(2.0 * np.pi * x))) + np.sum(x * x))


def rosenbrock(x: np.ndarray) -> float:
    head, tail = x[:-1], x[1:]
    return float(np.sum(100.0 * (head * head - tail) ** 2 + (head - 1.0) ** 2))


def discus(x: np.ndarray) -> float:
    return float(1e6 * x[0] * x[0] + np.sum(x[1:] * x[1:]))


def bent_cigar(x: np.ndarray) -> float:
    return float(x[0] * x[0] + 1e6 * np.sum(x[1:] * x[1:]))


def different_powers(x: np.ndarray) -> float:
    exponents = 2.0 + _index_exponents(x.size, 4.0)
    return float(np.sum(np.abs(x) ** exponents))


def sharp_ridge(x: np.ndarray) -> float:
    return float(x[0] * x[0] + 100.0 * math.sqrt(float(np.sum(x[1:] * x[1:]))))


_REGISTRY: dict[str, Callable[[np.ndarray], float]] = {
    "sphere": sphere,
    "ellipsoidal": ellipsoidal,
    "rastrigin": rastrigin,
    "rosenbrock": rosenbrock,
    "discus": discus,
    "bent_cigar": bent_cigar,
    "different_powers": different_powers,
    "sharp_ridge": sharp_ridge,
}

#: Built-in function ids, in a stable order.
CATALOG: tuple[str, ...] = tuple(_REGISTRY)


def get(function_id: str) -> Callable[[np.ndarray], float]:
    try:
        return _REGISTRY[function_id]
    except (KeyError, TypeError):  # TypeError: an unhashable id, such as a list
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownFunctionError(f"unknown function {function_id!r} (known: {known})") from None


@dataclass(frozen=True)
class BbobFunction:
    """A catalog objective bound to a fixed input dimension."""

    id: str
    dof: int

    def __post_init__(self) -> None:
        if self.dof < 1:
            raise ValueError("dof must be a positive integer")
        get(self.id)  # fail fast on unknown ids
        if self.id == "rosenbrock" and self.dof < 2:
            raise ValueError(f"rosenbrock is 0 everywhere at dof {self.dof}; it needs dof >= 2")

    def evaluate(self, x) -> float:
        v = np.asarray(x, dtype=np.float64)
        if v.ndim != 1 or v.size != self.dof:
            raise ValueError(f"expected a vector of length {self.dof}, got shape {v.shape}")
        return self.evaluate_rows(v[None, :])[0]

    def evaluate_rows(self, points) -> list[float]:
        """``evaluate`` of each row of an (n, dof) matrix, checking the
        domain once for the whole matrix."""
        v = np.asarray(points, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != self.dof:
            raise ValueError(f"expected an (n, {self.dof}) matrix, got shape {v.shape}")
        if np.any(v < LOWER_BOUND) or np.any(v > UPPER_BOUND):
            raise OutOfDomainError(f"coordinates must lie in [{LOWER_BOUND}, {UPPER_BOUND}]")
        fn = get(self.id)
        return [fn(row) for row in v]


def make(function_id: str, dof: int) -> BbobFunction:
    return BbobFunction(id=function_id, dof=dof)
