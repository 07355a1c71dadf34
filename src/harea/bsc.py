"""Bounded-slope certificates, minimal slope constant, and barrier fields.

A boundary datum sampled at points ``z_k`` satisfies the bounded slope
condition with constant Q when every sample point admits affine supports of
slope at most Q pinching the datum from below and above while matching it at
that point.  At one sample and one side, the slopes whose support defect is
at most the feasibility tolerance form a convex polygon, so Q certifies the
datum exactly when every such polygon comes within Q of the origin.  The
minimal constant Q_min is therefore the largest distance from the origin to
these polygons, computed exactly per sample and side from the polygon's
edges in O(n^2) work.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .geometry import DomainSpec, Grid

__all__ = [
    "BscError",
    "BscViolation",
    "BscCertificate",
    "BscReport",
    "boundary_samples",
    "support_feasibility",
    "minimal_Q",
    "barriers",
]

_Q_CAP = 1e6
# nearest slopes are taken at this fraction of the feasibility tolerance, so
# their recomputed defects stay below it despite rounding
_RELAX = 1.0 - 1e-6


class BscError(ValueError):
    """Invalid input to a slope-certificate computation."""


class BscViolation(RuntimeError):
    """No slope constant below the cap certifies the datum."""

    def __init__(self, message: str, witness: tuple[float, float], slack: float):
        super().__init__(message)
        self.witness = witness
        self.slack = slack


@dataclass(frozen=True)
class BscCertificate:
    """Affine supports at one boundary sample.

    ``slack`` is the largest remaining constraint violation across samples and
    requested sides; ``feasible`` means it is below the feasibility tolerance.
    """

    point: tuple[float, float]
    lower_slope: tuple[float, float]
    upper_slope: tuple[float, float]
    feasible: bool
    slack: float


@dataclass(frozen=True)
class BscReport:
    Q_min: float
    per_point: list
    K: float

    def to_json(self) -> dict:
        return {"Q_min": self.Q_min, "K": self.K, "points": len(self.per_point)}


def _samples_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    """Points (n, 2) and values (n,) of a sequence of ((x, y), value) pairs."""
    pts = np.array([[s[0][0], s[0][1]] for s in samples], dtype=float)
    vals = np.array([s[1] for s in samples], dtype=float)
    return pts, vals


def boundary_samples(domain: DomainSpec, expr, n: int = 200) -> list:
    """Sample a closed-form datum at n points of the true boundary curve.

    Slope certificates need sample points in convex position; the rasterized
    face midpoints are not (the staircase cuts corners, leaving midpoints
    inside the hull of their neighbours), and on them even smooth data admit
    no supports.  Certification therefore anchors on the analytic boundary
    while the solver keeps its face-sampled datum of the same expression.
    """
    pts = domain.boundary_points(n)
    return [
        ((float(x), float(y)), float(np.asarray(expr(x, y), dtype=float)))
        for x, y in pts
    ]


def feasibility_tolerance(values: np.ndarray) -> float:
    rng = float(np.max(values) - np.min(values)) if len(values) else 0.0
    return 1e-6 * (1.0 + rng)


def _nearest_slope(G: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, float]:
    """Smallest-norm slope of the polygon ``{a : G a <= b}`` and its norm;
    ``(None, inf)`` when the polygon is empty.

    The origin is the answer when it is admissible.  Otherwise the answer lies
    on an edge: on line k the polygon is the segment ``p_k + s t_k``, with p_k
    the foot of the origin on the line, t_k a unit direction and s in the
    interval the other constraints cut out, and the nearest point of that edge
    sits at ``s = clip(0, lo_k, hi_k)``.  Only lines the origin violates
    (b_k < 0) are searched: the answer is ``a = -sum_k l_k G_k`` over its
    active lines with multipliers l_k >= 0, so ``|a|^2 = -sum_k l_k b_k > 0``
    needs one active line with b_k < 0, and that line's edge holds the answer.
    Line k's own constraint is left out of its interval: rounding in
    ``b_k - <G_k, p_k>`` would otherwise empty valid edges.
    """
    n2 = np.einsum("ij,ij->i", G, G)
    if np.any(b[n2 == 0.0] < 0.0):  # a zero row demands 0 <= b_k of every slope
        return None, np.inf
    cand = np.flatnonzero(b < 0.0)  # no zero row left among them
    if not len(cand):
        return np.zeros(2), 0.0
    Gc, own = G[cand], np.arange(len(cand))
    p = Gc * (b[cand] / n2[cand])[:, None]
    t = np.stack((-Gc[:, 1], Gc[:, 0]), axis=1) / np.sqrt(n2[cand])[:, None]
    # constraint j along line k: rate C[j, k] in s, slack R[j, k] at the foot
    C = G @ t.T
    R = b[:, None] - G @ p.T
    C[cand, own] = 0.0
    R[cand, own] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = R / C
    hi = np.min(np.where(C > 0.0, ratio, np.inf), axis=0)
    lo = np.max(np.where(C < 0.0, ratio, -np.inf), axis=0)
    empty = (lo > hi) | np.any((C == 0.0) & (R < 0.0), axis=0)
    s = np.clip(0.0, lo, hi)
    d2 = np.where(empty, np.inf, np.einsum("ij,ij->i", p, p) + s * s)
    k = int(np.argmin(d2))
    if not np.isfinite(d2[k]):
        return None, np.inf
    return p[k] + s[k] * t[k], float(np.sqrt(d2[k]))


def _support(Z: np.ndarray, phi: np.ndarray, i: int, sign: float, radius: float, eps: float):
    """One side's support at sample i (sign +1 lower, -1 upper): its slope,
    the smallest norm admissible at relaxation ``relax = _RELAX * eps`` and the
    slope's worst defect ``max_k sign * (phi_i + <a, z_k - z_i> - phi_k)``,
    never negative.

    The slope is the smallest-norm admissible one when that norm is at most
    ``radius``.  Otherwise it is a slope of the radius ball whose defect is
    within 1e-6 relative of the least defect there, found by bisection on the
    relaxation: at the origin's own defect the origin is admissible.
    """
    G, c, relax = sign * (Z - Z[i]), sign * (phi - phi[i]), _RELAX * eps
    a, norm = _nearest_slope(G, c + relax)
    if norm > radius:
        lo, hi = relax, max(relax, float(np.max(-c)))
        a = np.zeros(2)
        while hi - lo > 1e-6 * hi:
            mid = 0.5 * (lo + hi)
            trial, trial_norm = _nearest_slope(G, c + mid)
            if trial_norm <= radius:
                hi, a = mid, trial
            else:
                lo = mid
    return a, norm, float(np.max(G @ a - c))


def _certificate(z, lower, upper, slack: float, eps: float) -> BscCertificate:
    point, lower, upper = (tuple(float(x) for x in v) for v in (z, lower, upper))
    return BscCertificate(point, lower, upper, feasible=bool(slack <= eps), slack=float(slack))


def support_feasibility(samples, z0_index: int, Q: float, side: str = "both") -> BscCertificate:
    """Affine supports of slope at most Q at one boundary sample.

    Each side's slope is the smallest-norm one whose defect stays within the
    feasibility tolerance when that norm is at most Q; otherwise it is the
    slope of the Q-ball with (nearly) the least defect, and the certificate is
    infeasible.  ``side`` restricts the search to the lower or upper support;
    by default both are computed and the certificate is feasible only if both
    close to within the feasibility tolerance.
    """
    Z, phi = _samples_arrays(samples)
    if len(Z) < 3:
        raise BscError("underdetermined boundary: need at least 3 samples")
    if Q < 0:
        raise BscError("Q must be nonnegative")
    if not (0 <= z0_index < len(Z)):
        raise BscError(f"sample index {z0_index} out of range")
    if side not in ("both", "lower", "upper"):
        raise BscError(f"unknown side {side!r}")
    eps = feasibility_tolerance(phi)
    slopes = [np.zeros(2), np.zeros(2)]
    slack = 0.0
    for j, name in enumerate(("lower", "upper")):
        if side in ("both", name):
            slopes[j], _, defect = _support(Z, phi, z0_index, 1.0 - 2.0 * j, Q, eps)
            slack = max(slack, defect)
    return _certificate(Z[z0_index], *slopes, slack, eps)


def minimal_Q(samples, grid: Grid | None = None) -> BscReport:
    """Smallest slope constant that certifies the datum, with the certificates.

    Q_min is the largest, over samples and sides, of the distance from the
    origin to the polygon of admissible slopes; each certificate carries the
    smallest-norm lower and upper slopes, and its slack is their worst defect
    recomputed from the samples.  A sample whose polygon is empty or lies
    beyond the cap 1e6 raises BscViolation; the witness is the such sample
    whose least defect inside the cap ball is largest, and that defect is the
    violation's slack.  K adds 4 sup |z| to Q_min, over interior cell centers
    when a grid is given, else over the samples.
    """
    Z, phi = _samples_arrays(samples)
    if len(Z) < 3:
        raise BscError("underdetermined boundary: need at least 3 samples")
    eps = feasibility_tolerance(phi)
    sides = [
        [_support(Z, phi, i, sign, _Q_CAP, eps) for i in range(len(Z))]
        for sign in (1.0, -1.0)
    ]
    norms = np.array([[norm for _, norm, _ in side] for side in sides]).max(axis=0)
    slack = np.array([[defect for _, _, defect in side] for side in sides]).max(axis=0)
    Q = float(norms.max())
    if Q > _Q_CAP:
        bad = int(np.argmax(np.where(norms > _Q_CAP, slack, -np.inf)))
        raise BscViolation(
            "BSC violated: no affine support at sample "
            f"({Z[bad, 0]:.6g}, {Z[bad, 1]:.6g}) (defect {slack[bad]:.3e})",
            witness=(float(Z[bad, 0]), float(Z[bad, 1])),
            slack=float(slack[bad]),
        )
    per_point = [
        _certificate(Z[i], lower[0], upper[0], slack[i], eps)
        for i, (lower, upper) in enumerate(zip(*sides))
    ]
    pts = Z if grid is None else grid.interior_centers()
    sup_z = float(np.max(np.hypot(pts[:, 0], pts[:, 1]), initial=0.0))
    return BscReport(Q_min=Q, per_point=per_point, K=float(Q + 4.0 * sup_z))


def barriers(samples, report: BscReport, grid: Grid) -> tuple[ScalarField, ScalarField]:
    """Envelope fields at the cell centers: f the max of lower supports, g the
    min of upper supports.

    Each support is lowered (resp. raised) by its certificate's residual slack
    so the envelopes sandwich the datum at every sample by construction; the
    correction is below the feasibility tolerance for feasible certificates.
    """
    Z, phi = _samples_arrays(samples)
    X, Y = grid.cell_centers()
    n = len(Z)
    Al = np.array([c.lower_slope for c in report.per_point])
    Au = np.array([c.upper_slope for c in report.per_point])
    slack = np.array([c.slack for c in report.per_point])
    if len(report.per_point) != n:
        raise BscError("report does not match the sample set")
    f = np.full(X.shape, -np.inf)
    g = np.full(X.shape, np.inf)
    for i in range(n):
        lowi = phi[i] + Al[i, 0] * (X - Z[i, 0]) + Al[i, 1] * (Y - Z[i, 1]) - slack[i]
        upi = phi[i] + Au[i, 0] * (X - Z[i, 0]) + Au[i, 1] * (Y - Z[i, 1]) + slack[i]
        np.maximum(f, lowi, out=f)
        np.minimum(g, upi, out=g)
    f[~grid.interior_mask] = 0.0
    g[~grid.interior_mask] = 0.0
    return ScalarField(grid, f), ScalarField(grid, g)
