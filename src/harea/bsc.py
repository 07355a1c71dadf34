"""Bounded-slope certificates, minimal slope constant, and barrier fields.

Boundary samples are one :class:`~harea.surfaces.Samples`, points ``z_k``
(n, 2) and values (n,), from :func:`boundary_samples` or a samples file.
A boundary datum sampled at points ``z_k`` satisfies the bounded slope
condition with constant Q when every sample point admits affine supports of
slope at most Q pinching the datum from below and above while matching it at
that point.  At one sample and one side, the slopes whose support defect is
at most the feasibility tolerance form a convex polygon, so Q certifies the
datum exactly when every such polygon comes within Q of the origin.  The
minimal constant Q_min is therefore the largest distance from the origin to
these polygons.

Each distance is found by constraint generation (Wolfe's nearest point of a
polytope by an active set): the nearest point of the polygon cut out by a
few of the n lines, by the exact edge formula, then one O(n) check of its
edge against every line, adding the lines that cut it until none does.
The problems of ``_BLOCK`` samples run at once, and each starts from the
lines that were active at the previous sample along the curve, so on the
package's data about one problem in ten needs a second round.  A whole
certificate therefore costs O(n^2) time and O(_BLOCK n) memory, where the
edge formula on all n lines took O(n^2) memory for each sample and side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ScalarField
from .geometry import DomainSpec, Grid, _evaluate
from .surfaces import Samples

__all__ = ["BscError", "BscViolation", "BscReport", "boundary_samples", "minimal_Q", "barriers"]

_Q_CAP = 1e6
# constraint generation runs _BLOCK samples at once; each problem's line set
# starts from the _SEED_LINES lines that cut the origin off deepest (and the
# lines its neighbours suggest) and grows by up to _ADD_LINES a round
_BLOCK = 32
_SEED_LINES = 4
_ADD_LINES = 4
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


@dataclass(frozen=True, eq=False)
class BscReport:
    """The minimal slope constant, the gradient bound K, and each sample's
    certificate as read-only arrays in sample order: ``lower`` and ``upper``
    (n, 2) the smallest-norm support slopes, ``slack`` (n,) their worst defect
    recomputed from the samples."""

    Q_min: float
    K: float
    lower: np.ndarray
    upper: np.ndarray
    slack: np.ndarray

    def to_json(self) -> dict:
        return {"Q_min": self.Q_min, "K": self.K, "points": len(self.slack)}


def _distinct(Z: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct samples in the order first seen, and each sample's index
    among them.  A repeated sample repeats its line at every anchor, and two
    equal lines cut each other's edges by rounding alone."""
    _, first, inverse = np.unique(
        np.column_stack((Z, phi)), axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], rank[inverse.ravel()]


def boundary_samples(domain: DomainSpec, expr, n: int = 200) -> Samples:
    """Sample a datum at n points of the true boundary curve.

    ``expr`` is called once on the points' coordinate arrays, so it must be
    vectorized, as for :func:`~harea.geometry.sample_datum`; a scalar return
    is broadcast to every point.  A :class:`Samples` is itself such an
    expression: each curve point takes its nearest listed value.

    Slope certificates need sample points in convex position; the rasterized
    face midpoints are not (the staircase cuts corners, leaving midpoints
    inside the hull of their neighbours), and on them even smooth data admit
    no supports.  Certification therefore anchors on the analytic boundary
    while the solver keeps its face-sampled datum of the same expression.
    """
    pts = domain.boundary_points(n)
    return Samples(pts, _evaluate(expr, *pts.T))


def feasibility_tolerance(values: np.ndarray) -> float:
    rng = float(np.max(values) - np.min(values)) if len(values) else 0.0
    return 1e-6 * (1.0 + rng)


def _edges(gx: np.ndarray, gy: np.ndarray, b: np.ndarray):
    """The dense edge formula on line sets ``{a : gx a_0 + gy a_1 <= b}``,
    one problem per row of the (P, m) arrays.

    On line k the polygon is the segment ``p_k + s t_k``, with p_k the foot of
    the origin on the line, t_k a unit direction and s in the interval
    ``[lo_k, hi_k]`` that the other lines cut out; the nearest point of that
    edge sits at ``s_k = clip(0, lo_k, hi_k)``.  Line k's own constraint is
    left out of its interval: rounding in ``b_k - <G_k, p_k>`` would otherwise
    empty valid edges.  Returns p and t (pairs of (P, m) arrays), s, the
    squared distance ``d2`` (inf where the line does not cut the origin off or
    its edge is empty) and, per edge, the line that bounds s (the line itself
    when s = 0).
    """
    m = gx.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        n2 = gx * gx + gy * gy
        f = b / n2
        px, py = gx * f, gy * f
        r = np.sqrt(n2)
        tx, ty = -gy / r, gx / r
        # constraint j along edge k: rate C[:, j, k] in s, slack R[:, j, k] at the foot
        C = gx[:, :, None] * tx[:, None, :] + gy[:, :, None] * ty[:, None, :]
        R = b[:, :, None] - (gx[:, :, None] * px[:, None, :] + gy[:, :, None] * py[:, None, :])
        own = np.arange(m)
        C[:, own, own] = 0.0
        R[:, own, own] = 0.0
        ratio = R / C
        upper = np.where(C > 0.0, ratio, np.inf)
        lower = np.where(C < 0.0, ratio, -np.inf)
        hi, lo = upper.min(axis=1), lower.max(axis=1)
        empty = (lo > hi) | np.any((C == 0.0) & (R < 0.0), axis=1)
        s = np.clip(0.0, lo, hi)
        d2 = np.where(empty | ~(b < 0.0), np.inf, px * px + py * py + s * s)
    bound = np.where(s > 0.0, lower.argmax(axis=1), np.where(s < 0.0, upper.argmin(axis=1), own))
    return (px, py), (tx, ty), s, d2, bound


def _nearest_slopes(Z: np.ndarray, phi: np.ndarray, sign: float, rows: np.ndarray,
                    shift: float, warm: np.ndarray | None = None):
    """Smallest-norm slopes of the polygons ``{a : G a <= c + shift}``, one
    per anchor i in ``rows``, with ``G = sign (Z - Z_i)`` and
    ``c = sign (phi - phi_i)``, by constraint generation.

    The origin is the answer when it is admissible.  Otherwise the answer is
    ``a = -sum_k l_k G_k`` over its active lines with multipliers l_k >= 0, so
    ``|a|^2 = -sum_k l_k b_k > 0`` needs an active line with b_k < 0, and that
    line's edge holds the answer.  Each problem keeps a few lines: first the
    ``_SEED_LINES`` that cut the origin off deepest (by signed distance
    ``b_k / |G_k|``), the anchor's neighbours in sample order, and the active
    lines ``warm`` of the previous sample's problem with their neighbours: on
    a curve the active lines nearly always move by at most one sample from
    one anchor to the next.  A round takes the nearest point of the polygon
    of those lines by the edge formula, then checks its edge against all n
    lines with the same ratio arithmetic.  If no line cuts the edge at that
    point, the point is the answer: the polygon of a subset of the lines
    contains the full one.  Otherwise the ``_ADD_LINES`` lines that cut it
    deepest join, and the problem goes on to the next round.  An empty
    subset polygon means an empty polygon.

    Returns the slopes (P, 2), their norms (P,), inf where the polygon is
    empty (the slope is then 0), their defects ``max_k <G_k, a> - c_k`` (P,)
    and each problem's active lines (P, 2), its edge's line and the line
    that bounds the point on it.
    """
    n, count = len(Z), len(rows)
    Gx = sign * (Z[:, 0] - Z[rows, 0, None])
    Gy = sign * (Z[:, 1] - Z[rows, 1, None])
    b = sign * (phi - phi[rows, None]) + shift
    with np.errstate(divide="ignore"):
        inv = 1.0 / np.sqrt(Gx * Gx + Gy * Gy)
    slopes, norms = np.zeros((count, 2)), np.zeros(count)
    active = np.repeat(rows[:, None], 2, axis=1)
    cuts = b < 0.0
    norms[np.any(cuts & np.isinf(inv), axis=1)] = np.inf  # a zero row demands 0 <= b_k
    live = np.flatnonzero((norms == 0.0) & np.any(cuts, axis=1))
    gx, gy, bl = Gx, Gy, b
    if len(live) < count:
        gx, gy, bl, inv = gx[live], gy[live], bl[live], inv[live]
    k = min(_SEED_LINES, n - 1)
    with np.errstate(invalid="ignore"):  # 0 * inf on a zero row with b_k = 0
        deepest = np.argpartition(bl * inv, k, axis=1)[:, :k].copy()  # frees the (P, n) order
    anchor = rows[live, None]
    lines = [deepest, (anchor + [-1, 1]) % n]
    if warm is not None:
        near = warm[live, :, None] + [-1, 0, 1]
        lines.append(near.reshape(-1, 3 * warm.shape[1]) % n)
    # a line listed twice would cut its own edge; repeats become the anchor's
    # zero row, which constrains nothing (its b is shift > 0)
    S = np.sort(np.concatenate(lines, axis=1), axis=1)
    S[:, 1:][S[:, 1:] == S[:, :-1]] = -1
    S = np.where(S < 0, anchor, S)
    while len(live):
        row = np.arange(len(live))[:, None]
        (px, py), (tx, ty), s, d2, bound = _edges(gx[row, S], gy[row, S], bl[row, S])
        k = np.argmin(d2, axis=1)
        pick = (row[:, 0], k)
        px, py, tx, ty, s, d2 = (v[pick] for v in (px, py, tx, ty, s, d2))
        edge = S[pick]
        # every line along each winning edge, by the arithmetic of _edges
        C = gx * tx[:, None]
        C += gy * ty[:, None]
        R = gx * px[:, None]
        R += gy * py[:, None]
        np.subtract(bl, R, out=R)
        C[pick[0], edge] = 0.0
        R[pick[0], edge] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            past = np.divide(R, C)
            np.subtract(s[:, None], past, out=past)
            past *= np.sign(C)
        cut = past > 0.0  # ratio below s with C > 0, or above it with C < 0
        cut |= (C == 0.0) & (R < 0.0)
        more = np.any(cut, axis=1) & np.isfinite(d2)
        norms[live[~more]] = np.sqrt(d2[~more])
        found = ~more & np.isfinite(d2)
        out = live[found]
        slopes[out, 0] = px[found] + s[found] * tx[found]
        slopes[out, 1] = py[found] + s[found] * ty[found]
        active[out, 0] = edge[found]
        active[out, 1] = S[pick[0], bound[pick]][found]
        if not more.any():
            break
        with np.errstate(invalid="ignore"):
            depth = np.where(cut[more], (s[more, None] * C[more] - R[more]) * inv[more], -np.inf)
        add = np.argpartition(depth, -min(_ADD_LINES, n), axis=1)[:, -_ADD_LINES:]
        add = np.where(np.take_along_axis(cut[more], add, axis=1), add, anchor[more])
        live, anchor, S = live[more], anchor[more], np.concatenate((S[more], add), axis=1)
        gx, gy, bl, inv = gx[more], gy[more], bl[more], inv[more]
    defects = Gx * slopes[:, :1]
    defects += Gy * slopes[:, 1:]
    defects -= sign * (phi - phi[rows, None])
    defects = defects.max(axis=1)
    return slopes, norms, defects, active


def _least_defect(Z: np.ndarray, phi: np.ndarray, i: int, sign: float, eps: float):
    """A slope of the cap ball at sample i whose defect is within 1e-6
    relative of the least defect there, and that defect, by bisection on the
    relaxation: at the origin's own defect the origin is admissible."""
    rows = np.array([i])
    a, defect = np.zeros(2), float(np.max(-sign * (phi - phi[i])))
    lo, hi = _RELAX * eps, max(_RELAX * eps, defect)
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        trial, norm, trial_defect, _ = _nearest_slopes(Z, phi, sign, rows, mid)
        if norm[0] <= _Q_CAP:
            hi, a, defect = mid, trial[0], float(trial_defect[0])
        else:
            lo = mid
    return a, defect


def minimal_Q(samples: Samples, grid: Grid | None = None) -> BscReport:
    """Smallest slope constant that certifies the datum, with the certificates.

    Q_min is the largest, over samples and sides, of the distance from the
    origin to the polygon of admissible slopes; each certificate carries the
    smallest-norm lower and upper slopes, and its slack is their worst defect
    recomputed from the samples.  A sample whose polygon is empty or lies
    beyond the cap 1e6 raises BscViolation; the witness is the such sample
    whose least defect inside the cap ball is largest, and that defect is the
    violation's slack.  A sample repeated with its value is certified once.
    K adds 4 sup |z| to Q_min, over interior cell centers when a grid is
    given, else over the samples.  A non-finite point or value, or fewer than
    3 distinct samples, raises BscError.
    """
    Z, phi = samples.points, samples.values
    if not (np.isfinite(Z).all() and np.isfinite(phi).all()):
        raise BscError("non-finite boundary sample")
    eps = feasibility_tolerance(phi)
    keep, where = _distinct(Z, phi)
    Zd, phid, n = Z[keep], phi[keep], len(keep)
    if n < 3:
        raise BscError("underdetermined boundary: need at least 3 distinct samples")
    blocks = -(-n // _BLOCK)
    slopes, norms, defects = np.zeros((2, n, 2)), np.zeros((2, n)), np.zeros((2, n))
    for j, sign in enumerate((1.0, -1.0)):
        # block q holds samples q, q + blocks, ...; the sample before each
        # one sits at the same place in block q - 1 and seeds it
        warm = None
        for q in range(blocks):
            rows = np.arange(q, n, blocks)
            warm = None if warm is None else warm[: len(rows)]
            out = _nearest_slopes(Zd, phid, sign, rows, _RELAX * eps, warm)
            slopes[j, rows], norms[j, rows], defects[j, rows], warm = out
        for i in np.flatnonzero(norms[j] > _Q_CAP):
            slopes[j, i], defects[j, i] = _least_defect(Zd, phid, i, sign, eps)
    slopes, norms, slack = slopes[:, where], norms.max(axis=0)[where], defects.max(axis=0)[where]
    Q = float(norms.max())
    if Q > _Q_CAP:
        bad = int(np.argmax(np.where(norms > _Q_CAP, slack, -np.inf)))
        raise BscViolation(
            "BSC violated: no affine support at sample "
            f"({Z[bad, 0]:.6g}, {Z[bad, 1]:.6g}) (defect {slack[bad]:.3e})",
            witness=(float(Z[bad, 0]), float(Z[bad, 1])),
            slack=float(slack[bad]),
        )
    slopes.setflags(write=False)
    slack.setflags(write=False)
    pts = Z if grid is None else grid.interior_centers()
    sup_z = float(np.max(np.hypot(pts[:, 0], pts[:, 1]), initial=0.0))
    return BscReport(Q, float(Q + 4.0 * sup_z), slopes[0], slopes[1], slack)


def barriers(samples: Samples, report: BscReport, grid: Grid) -> tuple[ScalarField, ScalarField]:
    """Envelope fields at the cell centers: f the max of lower supports, g the
    min of upper supports.

    Each support is lowered (resp. raised) by its certificate's residual slack
    so the envelopes sandwich the datum at every sample by construction; the
    correction is below the feasibility tolerance for feasible certificates.
    The supports go in one sample at a time, in O(cells) memory: blocks of 64
    samples at once measured slower on barrier_sandwich's 200 samples and
    h = 1/32 lens (8.0 ms against 6.8).
    """
    Z, phi = samples.points, samples.values
    if len(report.slack) != len(Z):
        raise BscError("report does not match the sample set")
    Al, Au, slack = report.lower, report.upper, report.slack
    X, Y = grid.cell_centers()
    f = np.full(X.shape, -np.inf)
    g = np.full(X.shape, np.inf)
    for i in range(len(Z)):
        lowi = phi[i] + Al[i, 0] * (X - Z[i, 0]) + Al[i, 1] * (Y - Z[i, 1]) - slack[i]
        upi = phi[i] + Au[i, 0] * (X - Z[i, 0]) + Au[i, 1] * (Y - Z[i, 1]) + slack[i]
        np.maximum(f, lowi, out=f)
        np.minimum(g, upi, out=g)
    f[~grid.interior_mask] = 0.0
    g[~grid.interior_mask] = 0.0
    return ScalarField(grid, f), ScalarField(grid, g)
