"""Bounded-slope certificates, minimal slope constant, and barrier fields.

A boundary datum sampled at points ``z_k`` satisfies the bounded slope
condition with constant Q when every sample point admits affine supports of
slope at most Q pinching the datum from below and above while matching it at
that point.  Feasibility of one side at one anchor is a small convex minimax
problem over the slope ball; it is solved for all anchors simultaneously by a
projected subgradient iteration with Polyak steps from a least-squares warm
start.  The target value of a feasible problem is exactly zero (the anchor
itself contributes a zero term), which is what makes the Polyak step usable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .fields import ScalarField
from .geometry import BoundaryDatum, DomainSpec, Grid

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

_SUBGRAD_ITERS = 500
_Q_CAP = 1e6
_BALL_NGON = 128


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
    """Accept a BoundaryDatum or a sequence of ((x, y), value) pairs."""
    if isinstance(samples, BoundaryDatum):
        return samples.faces.midpoint.copy(), samples.values.copy()
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


def _ls_slopes(Z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Per-anchor least-squares affine fit through (z_i, phi_i); shared warm
    start for both sides."""
    n = len(Z)
    # M_i = sum_k d d^T, b_i = sum_k d (phi_k - phi_i), d = z_k - z_i
    sz = Z.sum(axis=0)
    szz = Z.T @ Z                      # sum z z^T
    sphi = phi.sum()
    szphi = Z.T @ phi
    M = np.empty((n, 2, 2))
    b = np.empty((n, 2))
    for a in range(2):
        for c in range(2):
            M[:, a, c] = szz[a, c] - sz[a] * Z[:, c] - Z[:, a] * sz[c] + n * Z[:, a] * Z[:, c]
        b[:, a] = szphi[a] - Z[:, a] * sphi - phi * (sz[a] - n * Z[:, a])
    det = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] * M[:, 1, 0]
    det = np.where(np.abs(det) < 1e-30, 1.0, det)
    out = np.empty((n, 2))
    out[:, 0] = (M[:, 1, 1] * b[:, 0] - M[:, 0, 1] * b[:, 1]) / det
    out[:, 1] = (M[:, 0, 0] * b[:, 1] - M[:, 1, 0] * b[:, 0]) / det
    return out


def _project_ball(A: np.ndarray, Q: float) -> np.ndarray:
    r = np.hypot(A[:, 0], A[:, 1])
    f = Q / np.maximum(r, Q) if Q > 0 else np.zeros_like(r)
    return A * f[:, None]


def _minimize_side(
    Z: np.ndarray,
    phi: np.ndarray,
    Q: float,
    sign: float,
    eps: float,
    iters: int = _SUBGRAD_ITERS,
    rows=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimize, for every anchor i in ``rows`` (default: all) at once, the
    worst signed support defect

        g_i(a) = max_k  sign * (phi_i + <a, z_k - z_i> - phi_k)   over |a| <= Q.

    Feasible anchors have optimum exactly 0, so Polyak steps aimed at level 0
    converge sharply and exit early.  Infeasible anchors never reach level 0;
    a second phase re-aims each step slightly below the best value seen, which
    shrinks the steps and polishes the positive minimum instead of bouncing.
    Anchors are independent, and the best value never increases, so an anchor
    whose best value reaches eps is frozen and leaves the batch for good: each
    step costs only the anchors still open.  Returns the best slopes and
    values of ``rows``, in its order.
    """
    idx = np.arange(len(Z)) if rows is None else np.asarray(rows, dtype=np.intp)
    best_A = _project_ball(_ls_slopes(Z, phi)[idx], Q)
    best_g, _ = _side_defects(best_A, Z, phi, idx, sign)
    live = np.flatnonzero(best_g > eps)
    # compacted state of the live anchors, gathered again only when it shrinks
    rows_l, A, bg, bA = idx[live], best_A[live], best_g[live], best_A[live]
    phase1 = (7 * iters) // 10
    for it in range(iters):
        if not len(live):
            break
        g, kstar = _side_defects(A, Z, phi, rows_l, sign)
        improved = g < bg
        bg[improved] = g[improved]
        bA[improved] = A[improved]
        keep = bg > eps
        level = 0.0 if it < phase1 else 0.9 * bg
        d = sign * (Z[kstar] - Z[rows_l])
        dn2 = np.maximum(np.einsum("ij,ij->i", d, d), 1e-30)
        step = np.where(keep, np.maximum(g - level, 0.0) / dn2, 0.0)
        A = _project_ball(A - step[:, None] * d, Q)
        if not keep.all():
            best_g[live], best_A[live] = bg, bA
            live, rows_l, A, bg = live[keep], rows_l[keep], A[keep], bg[keep]
            bA = bA[keep]
    best_g[live], best_A[live] = bg, bA
    return best_A, best_g


def _side_defects(A, Z, phi, rows, sign):
    """g_j = max_k sign * (phi_i + <a_j, z_k - z_i> - phi_k) for anchors
    i = rows[j] with slopes A[j], and its argmax k."""
    m = len(rows)
    # a one-row product goes through BLAS gemv, which rounds differently from
    # gemm; two rows keep an anchor's arithmetic independent of how many
    # anchors are still open
    az = ((np.repeat(A, 2, axis=0) if m == 1 else A) @ Z.T)[:m]
    W = sign * (phi[rows, None] + az - az[np.arange(m), rows][:, None] - phi[None, :])
    kstar = np.argmax(W, axis=1)
    return W[np.arange(m), kstar], kstar


def _lp_polish(Z: np.ndarray, phi: np.ndarray, i: int, sign: float, Q: float):
    """Exact minimum of the side defect at one anchor via linear programming.

    The subgradient batch can stall when the feasible slopes form a thin wedge
    (data close to affine degeneracy along an arc), so anchors it leaves above
    tolerance are re-solved exactly.  The slope ball is replaced by an
    inscribed regular polygon, which only shrinks the feasible set, so a
    certificate found here is valid for the true ball.
    """
    D = Z - Z[i]
    dphi = phi - phi[i]
    n = len(Z)
    th = (np.arange(_BALL_NGON) + 0.5) * (2.0 * np.pi / _BALL_NGON)
    A_ub = np.zeros((n + _BALL_NGON, 3))
    A_ub[:n, :2] = sign * D
    A_ub[:n, 2] = -1.0
    A_ub[n:, 0] = np.cos(th)
    A_ub[n:, 1] = np.sin(th)
    b_ub = np.concatenate(
        [sign * dphi, np.full(_BALL_NGON, Q * np.cos(np.pi / _BALL_NGON))]
    )
    res = linprog(
        c=[0.0, 0.0, 1.0],
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=[(None, None), (None, None), (None, None)],
        method="highs",
    )
    if not res.success:
        return None
    return res.x[:2], max(float(res.fun), 0.0)


def support_feasibility(samples, z0_index: int, Q: float, side: str = "both") -> BscCertificate:
    """Search for affine supports of slope at most Q at one boundary sample.

    ``side`` restricts the search to the lower or upper support; by default
    both are computed and the certificate is feasible only if both close to
    within the feasibility tolerance.
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
    lower = np.zeros(2)
    upper = np.zeros(2)
    slack = 0.0

    def one_side(sign):
        A, g = _minimize_side(Z, phi, Q, sign, eps, rows=[z0_index])
        a, v = A[0], float(g[0])
        if v > eps:
            polished = _lp_polish(Z, phi, z0_index, sign, Q)
            if polished is not None and polished[1] < v:
                a, v = polished
        return a, v

    if side in ("both", "lower"):
        lower, v = one_side(+1.0)
        slack = max(slack, v)
    if side in ("both", "upper"):
        upper, v = one_side(-1.0)
        slack = max(slack, v)
    return BscCertificate(
        point=(float(Z[z0_index, 0]), float(Z[z0_index, 1])),
        lower_slope=(float(lower[0]), float(lower[1])),
        upper_slope=(float(upper[0]), float(upper[1])),
        feasible=bool(slack <= eps),
        slack=float(slack),
    )


def _certify_all(Z, phi, Q, eps, early_exit=False):
    """Defects for all anchors and sides, one side at a time; LP-polish
    everything the batch leaves above tolerance.  With early_exit a single
    exactly-confirmed violation settles the (infeasible) verdict without
    polishing the rest or running the upper side after a lower violation; the
    slopes of a side not run are None and ``worst`` covers the sides run."""
    slopes = [None, None]
    worst = np.full(len(Z), -np.inf)
    for j, sign in enumerate((+1.0, -1.0)):
        A, g = _minimize_side(Z, phi, Q, sign, eps)
        for i in np.argsort(g)[::-1]:
            if g[i] <= eps:
                break
            polished = _lp_polish(Z, phi, int(i), sign, Q)
            if polished is not None and polished[1] < g[i]:
                A[i], g[i] = polished
            if early_exit and g[i] > eps:
                break
        slopes[j] = A
        worst = np.maximum(worst, g)
        if early_exit and np.max(g) > eps:
            break
    return slopes[0], slopes[1], worst


def minimal_Q(samples, grid: Grid | None = None) -> BscReport:
    """Smallest certified slope constant by bisection.

    The upper bracket doubles from 1 until feasible, raising BscViolation with
    the worst sample point when the cap 1e6 is passed; bisection then narrows
    to relative width 1e-3 and the feasible end is reported.  K adds
    4 sup |z| to Q_min, over interior cell centers when a grid is given, else
    over the samples.
    """
    Z, phi = _samples_arrays(samples)
    if len(Z) < 3:
        raise BscError("underdetermined boundary: need at least 3 samples")
    eps = feasibility_tolerance(phi)

    hi = 1.0
    lo = 0.0
    while True:
        certified = _certify_all(Z, phi, hi, eps, early_exit=True)
        worst = certified[2]
        if np.max(worst) <= eps:
            break
        if hi > _Q_CAP:
            bad = int(np.argmax(worst))
            raise BscViolation(
                "BSC violated: no affine support at sample "
                f"({Z[bad, 0]:.6g}, {Z[bad, 1]:.6g}) (defect {worst[bad]:.3e})",
                witness=(float(Z[bad, 0]), float(Z[bad, 1])),
                slack=float(worst[bad]),
            )
        lo = hi
        hi *= 2.0
    # relative width on the feasible end; the absolute floor keeps the loop
    # finite when the infeasible bracket stays at zero (constant-like data)
    while hi - lo > 1e-3 * max(hi, 1e-3):
        mid = 0.5 * (hi + lo)
        trial = _certify_all(Z, phi, mid, eps, early_exit=True)
        if np.max(trial[2]) <= eps:
            hi, certified = mid, trial
        else:
            lo = mid
    # early_exit never fires on a feasible Q, so the kept certification of hi
    # is the full one
    Al, Au, worst = certified
    per_point = [
        BscCertificate(
            point=(float(Z[i, 0]), float(Z[i, 1])),
            lower_slope=(float(Al[i, 0]), float(Al[i, 1])),
            upper_slope=(float(Au[i, 0]), float(Au[i, 1])),
            feasible=bool(worst[i] <= eps),
            slack=float(worst[i]),
        )
        for i in range(len(Z))
    ]
    if grid is not None:
        centers = grid.interior_centers()
        sup_z = float(np.max(np.hypot(centers[:, 0], centers[:, 1]))) if len(centers) else 0.0
    else:
        sup_z = float(np.max(np.hypot(Z[:, 0], Z[:, 1])))
    return BscReport(Q_min=float(hi), per_point=per_point, K=float(hi + 4.0 * sup_z))


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
