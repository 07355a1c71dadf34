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

from .geometry import _row_blocks

__all__ = [
    "Affine",
    "zero",
    "es1_datum",
    "es1_surface",
    "es2_surface",
    "Samples",
    "DATUM_KINDS",
    "DATUM_NAMES",
    "DatumError",
]


class DatumError(ValueError):
    """Raised for a datum block whose values have the wrong type."""


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
    """Values listed at boundary points, as an expression: a point takes the
    value of its nearest listed point, the first on ties."""

    points: np.ndarray  # (n, 2)
    values: np.ndarray  # (n,)

    def __call__(self, x, y):
        """Values at 1-d coordinate arrays, found by row blocks of points."""
        px, py = self.points.T
        nearest = np.empty(len(x), dtype=np.intp)
        for b in _row_blocks(len(x), len(px)):
            nearest[b] = np.argmin((x[b, None] - px) ** 2 + (y[b, None] - py) ** 2, axis=1)
        return self.values[nearest]


def _affine(block) -> Affine:
    a, b = block.get("a"), block.get("b", 0.0)
    try:
        ax, ay = a
        return Affine((float(ax), float(ay)), float(b))
    except (TypeError, ValueError):
        msg = f"affine datum needs slope 'a': [ax, ay] and a number 'b', got a={a!r}, b={b!r}"
        raise DatumError(msg) from None


def _listed(block) -> Samples:
    from .fileio import read_samples

    path = block["path"]
    if not isinstance(path, str):
        raise DatumError(f"samples datum needs a file name 'path', got {path!r}")
    return Samples(*read_samples(path))


class DatumKind(NamedTuple):
    """One kind of the config's ``datum`` block; the callables take the block."""

    keys: dict  # key besides "kind" -> how its absence is reported; None if optional
    expression: Callable[[dict], Callable]  # the boundary expression
    minimizer: Callable[[dict], Callable] | None  # closed-form isotropic minimizer
    error_norm: str | None  # refine's error norm; None: no closed form, refine refuses


DATUM_KINDS = {
    "zero": DatumKind({}, lambda block: zero, None, "sup"),
    "affine": DatumKind({"a": "slope 'a': [ax, ay]", "b": None}, _affine, _affine, "sup"),
    "es1": DatumKind({}, lambda block: es1_datum, lambda block: es1_surface, "l1"),
    "es2": DatumKind({}, lambda block: es2_surface, lambda block: es2_surface, "l1"),
    "samples": DatumKind({"path": "'path'"}, _listed, None, None),
}

# the kinds given in closed form
DATUM_NAMES = tuple(k for k, kind in DATUM_KINDS.items() if kind.error_norm is not None)
