"""Named closed-form surfaces and boundary expressions, and the datum kinds.

:data:`DATUM_KINDS` is the one table of the config's datum kinds: the named
closed forms and ``samples``, values listed in a CSV file.  Two of the closed
forms are known exact minimizers used as references by the checks:

* ``es1``: boundary expression x(y - x^2 + 1); over the parabolic domain its
  minimizer is the half-plane-kinked saddle 2xy for y > 0, 0 for y <= 0.
* ``es2``: the surface -2xy + y|y|, a minimizer under its own trace on any
  bounded domain; its horizontal vector is (-4y, 2|y|).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .geometry import DomainError, _row_blocks

__all__ = [
    "Affine",
    "zero",
    "es1_datum",
    "es1_surface",
    "es2_surface",
    "Samples",
    "DATUM_KINDS",
    "DATUM_NAMES",
]


def zero(x, y):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Affine:
    """The affine surface <a, z> + b."""

    a: tuple[float, float]
    b: float = 0.0

    def __call__(self, x, y):
        return self.a[0] * np.asarray(x, float) + self.a[1] * np.asarray(y, float) + self.b


def es1_datum(x, y):
    """Boundary expression x(y - x^2 + 1) for the parabolic-domain example."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return x * (y - x * x + 1.0)


def es1_surface(x, y):
    """The kinked saddle: 2xy above the x-axis, 0 on and below it."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return np.where(y > 0.0, 2.0 * x * y, 0.0)


def es2_surface(x, y):
    """The antisymmetric saddle -2xy + y|y| (its own boundary expression)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return -2.0 * x * y + y * np.abs(y)


@dataclass(eq=False)
class Samples:
    """Boundary samples, values listed at points; as an expression, a point
    takes the value of its nearest listed point, the first on ties.  Both
    are stored as floats; other shapes than points (n, 2) and values (n,)
    with n >= 1 raise DomainError."""

    points: np.ndarray  # (n, 2)
    values: np.ndarray  # (n,)

    def __post_init__(self):
        points, values = np.asarray(self.points, dtype=float), np.asarray(self.values, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2 or values.shape != (len(points),) or not len(points):
            raise DomainError(f"samples need points (n, 2) and values (n,), n >= 1: {points.shape}, {values.shape}")
        self.points, self.values = points, values

    def __call__(self, x, y):
        """Values at 1-d coordinate arrays, found by row blocks of points."""
        px, py = self.points.T
        nearest = np.empty(len(x), dtype=np.intp)
        for b in _row_blocks(len(x), len(px)):
            nearest[b] = np.argmin((x[b, None] - px) ** 2 + (y[b, None] - py) ** 2, axis=1)
        return self.values[nearest]


def _listed(path: str) -> Samples:
    from .fileio import read_samples

    return Samples(*read_samples(path))


class DatumKind(NamedTuple):
    """One kind of the config's ``datum`` block.  The callables take the
    block's other keys, converted, as keyword arguments."""

    keys: dict  # key besides "kind" -> its type, as the run config names it
    required: tuple  # the keys a block of this kind must give
    expression: Callable[..., Callable]  # the boundary expression
    minimizer: Callable[..., Callable] | None  # closed-form isotropic minimizer
    error_norm: str | None  # refine's error norm; None: no closed form, refine refuses


DATUM_KINDS = {
    "zero": DatumKind({}, (), lambda: zero, None, "sup"),
    "affine": DatumKind({"a": "[x, y]", "b": "a number"}, ("a",), Affine, Affine, "sup"),
    "es1": DatumKind({}, (), lambda: es1_datum, lambda: es1_surface, "l1"),
    "es2": DatumKind({}, (), lambda: es2_surface, lambda: es2_surface, "l1"),
    "samples": DatumKind({"path": "a string"}, ("path",), _listed, None, None),
}

# the kinds given in closed form
DATUM_NAMES = tuple(k for k, kind in DATUM_KINDS.items() if kind.error_norm is not None)
