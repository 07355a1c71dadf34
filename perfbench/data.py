"""Seeded boundary data for the disk-pair workload.

The family matches the one the ``comparison`` check draws from: a Fourier
datum (affine part plus three separable sine-cosine products) and a strictly
positive smooth offset, so that every pair ``(phi, phi + delta)`` is ordered.
It is written out here so the benchmark owns its inputs and depends on no
private helper of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FourierDatum:
    """c + a.(x, y) + sum_j b_j sin(f_j x + p_j) cos(g_j y + q_j)."""

    c: float
    a: tuple
    b: tuple
    f: tuple
    g: tuple
    p: tuple
    q: tuple

    def __call__(self, x, y):
        out = self.c + self.a[0] * x + self.a[1] * y
        for j in range(len(self.b)):
            out = out + self.b[j] * np.sin(self.f[j] * x + self.p[j]) * np.cos(self.g[j] * y + self.q[j])
        return out


@dataclass(frozen=True)
class PositiveOffset:
    """d0 + d1 (1.05 + sin(f x + p) cos(f y - p)), bounded below by d0 > 0."""

    d0: float
    d1: float
    f: float
    p: float

    def __call__(self, x, y):
        return self.d0 + self.d1 * (1.05 + np.sin(self.f * x + self.p) * np.cos(self.f * y - self.p))


@dataclass(frozen=True)
class Shifted:
    """The upper member of a pair: phi + delta."""

    phi: FourierDatum
    delta: PositiveOffset

    def __call__(self, x, y):
        return self.phi(x, y) + self.delta(x, y)


def _floats(rng, lo, hi, n):
    return tuple(float(v) for v in rng.uniform(lo, hi, n))


def fourier_datum(rng: np.random.Generator) -> FourierDatum:
    a = _floats(rng, -1.5, 1.5, 2)
    c = float(rng.uniform(-0.5, 0.5))
    b = _floats(rng, 0.1, 0.4, 3)
    f = _floats(rng, 0.5, 2.5, 3)
    g = _floats(rng, 0.5, 2.5, 3)
    p = _floats(rng, 0.0, 2 * np.pi, 3)
    q = _floats(rng, 0.0, 2 * np.pi, 3)
    return FourierDatum(c, a, b, f, g, p, q)


def positive_offset(rng: np.random.Generator) -> PositiveOffset:
    return PositiveOffset(
        d0=float(rng.uniform(0.1, 0.5)),
        d1=float(rng.uniform(0.05, 0.2)),
        f=float(rng.uniform(0.5, 2.0)),
        p=float(rng.uniform(0.0, 2 * np.pi)),
    )


def datum_pairs(seed: int, count: int) -> list[tuple[FourierDatum, Shifted]]:
    """``count`` ordered pairs (phi, psi = phi + delta), a pure function of ``seed``."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        phi = fourier_datum(rng)
        pairs.append((phi, Shifted(phi, positive_offset(rng))))
    return pairs


# The comparison check draws its twenty pairs with this seed; the disk-pair
# workload starts from the same twenty pairs.
BASE_SEED = 777


@dataclass(frozen=True)
class Raised:
    """``datum`` plus a constant."""

    datum: object
    shift: float

    def __call__(self, x, y):
        return self.datum(x, y) + self.shift


def disk_pairs(seed: int, count: int = 20) -> list[tuple[Raised, Raised]]:
    """The first ``count`` comparison-family pairs in an order drawn from
    ``seed``, each pair raised by a constant drawn from ``seed``.

    The solver is shift equivariant, so every seed gives distinct inputs with
    the same work per solve; the order matters to anything carried from one
    solve to the next.  Fresh pairs per seed, or the base pairs rotated by a
    seeded angle, changed the work itself (rotated pairs moved the median
    solve time between 0.62 s and 1.09 s across seeds), because each solve's
    iteration count is sensitive to small changes in its data.
    """
    rng = np.random.default_rng(seed)
    base = datum_pairs(BASE_SEED, count)
    out = []
    for k in rng.permutation(count):
        phi, psi = base[k]
        shift = float(rng.uniform(-0.5, 0.5))
        out.append((Raised(phi, shift), Raised(psi, shift)))
    return out
