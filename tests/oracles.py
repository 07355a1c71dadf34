"""Independent referees used by the test suite.

These deliberately avoid the library's own optimization code paths.  The
support defect at a boundary sample is a pointwise max of affine functions of
the slope, hence convex; that structure gives three solver-free referees:

* ``grid_search_defect`` — a dense zoomed scan over the slope plane.  Convexity
  means the scan has a single basin, so it locates the unconstrained minimum.
* ``certificate_defects`` — direct arithmetic on claimed per-anchor support
  slopes.  A support certificate is its own proof: recomputing the defect from
  the raw samples and checking the slope norm requires no search at all.
* ``prove_infeasible_below`` — an interval branch-and-bound on the slope disk.
  Each box gets a rigorous lower bound (per-affine minimum over the box, then
  max over affines); boxes whose bound clears the tolerance are discarded, and
  an emptied queue is a proof that no admissible slope exists.  This is the
  only sound way to confirm infeasibility: scans give upper bounds only, and
  near-degenerate data produces slope valleys so flat that a scan's stall is
  indistinguishable from a genuinely positive minimum.

``_nearest_slope`` is the slope certificates' former dense form: the edge
formula on all n lines at once, with ``n x |cand|`` arrays per sample and
side.  ``dense_certificates`` runs it over every sample and side as
``minimal_Q`` did before constraint generation; the library must match its
``Q_min``, slopes and slack to rounding.  It costs O(n^2) a problem, so it
runs on up to 200 samples; ``kkt_defects`` checks the slopes of any size in
O(n) a problem by the optimality conditions of the nearest-point problem.

``loop_gradient`` referees the difference operator the same way: a per-cell
Python loop that reads nothing but the interior mask.  ``index_operator``,
``take_hgrad`` and ``bincount_hdiv`` are the operator's original form, two
(2, n) index arrays with a gather and a scatter over all 2n entries; the
library's slice-and-rim kernels must match them bit for bit.

``hypot_lipschitz``, ``hypot_char_set`` and ``hypot_certificate_gap`` are
the diagnostics' former full-grid formulas: the horizontal vector as
``gradient(u).values + xstar_field(grid).values`` on the whole (nx, ny, 2)
array, its length by ``np.hypot``.  The library computes them on interior
(2, n) vectors with the solver's ``sqrt(x*x + y*y)``.

``allocating_operator_norm_sq`` is ``operator_norm_sq``'s power iteration
as it was written before its buffers: from the unit ``checkerboard``, ``w =
-K.div(K.grad(v))`` into fresh arrays each step, and no cache.  The library
must match it bit for bit.

``dense_normal_matrix`` is K^T K in full, from ``index_operator`` with
entries +-1/h, and ``checkerboard`` the cells' signs (-1)^(i + j) read off
the mask; ``np.linalg.eigvalsh`` of the first gives the largest eigenvalue
that the step rule's estimate and its Collatz-Wielandt bound must reach.
``index_cw_bound`` is that bound's loop, ``fields._cw_bound``, on the
index form (``take_hgrad`` and ``bincount_hdiv``) and ``checkerboard``,
with no library kernel; the library must match it bit for bit.

``dense_lipschitz_bound`` recomputes the ``lipschitz_bound`` check's metrics
from the whole cell-by-face matrix and the loop gradient.

``reference_solve`` is the over-relaxed primal-dual loop in its unscaled
form, for the isotropic area the solver minimizes: the dual ``P`` itself,
stepped by ``sigma_h`` times the horizontal vector of the extrapolated primal
and projected onto the Euclidean ball of radius h^2 (written out here as
``x r / max(sqrt(x^2 + y^2), r)``, not the solver's projection kernel),
the primal step scaled by ``tau_h``, every update into a fresh array, and
the boundary prox by ``np.median`` over the median formula's candidates
(``median_prox``), or the face mean in constrained mode.  The library
carries ``P / sigma_h``, updates in place and takes the prox in closed form
for owners of up to two faces; both must follow the same trajectory to
rounding.
"""

import math
import time

import numpy as np

from harea import EnergyMode, feasibility_tolerance, gradient, penalized_energy, xstar_field
from harea.bsc import _RELAX as _BSC_RELAX
from harea.energy import EnergyBreakdown, _cell_norms
from harea.fields import (
    _GUARD_STEPS,
    _POWER_STEPS,
    ScalarField,
    VectorField,
    difference_operator,
    interior_xstar,
)
from harea.solver import (
    _CHECK_EVERY,
    _RELAX,
    _STAGNATION_WINDOW,
    SolveReport,
    SolverConfig,
    SolverError,
)


def grid_search_defect(samples, i, side, box=10.0, stages=14, pts=41, shrink=0.35):
    """Smallest support defect at anchor ``i`` over slopes in [-box, box]^2."""
    Z, phi = samples.points, samples.values
    dP = Z - Z[i]
    dphi = phi - phi[i]
    sign = 1.0 if side == "lower" else -1.0
    center = np.zeros(2)
    half = box
    best = np.inf
    for _ in range(stages):
        ax = np.linspace(center[0] - half, center[0] + half, pts)
        ay = np.linspace(center[1] - half, center[1] + half, pts)
        A = np.stack(np.meshgrid(ax, ay, indexing="ij"), -1).reshape(-1, 2)
        vals = np.max(sign * (A @ dP.T) - sign * dphi[None, :], axis=1)
        k = int(np.argmin(vals))
        best = min(best, float(vals[k]))
        center = A[k]
        half *= shrink
    return best


def certificate_defects(samples, report):
    """Recompute the defects of claimed support certificates by direct arithmetic.

    ``report`` carries ``lower`` and ``upper`` slope arrays (n, 2), one row
    per sample (anchor).  Returns ``(worst_defect, worst_norm)``
    where ``worst_defect`` is the largest violation of the support inequalities
    over all anchors, sides, and samples, and ``worst_norm`` the largest
    Euclidean slope norm.  ``worst_defect <= eps`` and ``worst_norm <= Q``
    together verify that Q admits a full family of eps-slack supports.
    """
    Z, phi = samples.points, samples.values
    worst_defect = -np.inf
    worst_norm = 0.0
    for i in range(len(Z)):
        dP = Z - Z[i]
        dphi = phi - phi[i]
        for slope, sign in ((report.lower[i], 1.0), (report.upper[i], -1.0)):
            a = np.asarray(slope, dtype=float)
            defect = float(np.max(sign * (dP @ a) - sign * dphi))
            worst_defect = max(worst_defect, defect)
            worst_norm = max(worst_norm, float(np.hypot(a[0], a[1])))
    return worst_defect, worst_norm


def _prove_side_infeasible(dP, dphi, sign, Q, eps, max_levels=48, max_boxes=4_000_000):
    """Branch-and-bound proof that min over |a| <= Q of the one-sided defect
    exceeds eps.  Returns (proved, best_value_found)."""
    C = sign * dP
    d = sign * dphi
    l1 = np.abs(C).sum(axis=1)
    centers = np.zeros((1, 2))
    half = Q
    best = np.inf
    for _ in range(max_levels):
        inside = (centers**2).sum(axis=1) <= Q * Q
        if inside.any():
            vals = np.max(centers[inside] @ C.T - d[None, :], axis=1)
            best = min(best, float(vals.min()))
            if best <= eps:
                return False, best
        # Per-affine minimum over the box [c - half, c + half]^2 is the value
        # at the center minus half * |slope|_1; the max of those minima lower
        # bounds the max-of-affines over the box.
        lower = np.max(centers @ C.T - d[None, :] - half * l1[None, :], axis=1)
        near_disk = np.sqrt((centers**2).sum(axis=1)) - half * np.sqrt(2.0) <= Q
        centers = centers[(lower <= eps) & near_disk]
        if len(centers) == 0:
            return True, best
        if len(centers) * 4 > max_boxes:
            return False, best
        half *= 0.5
        off = np.array([[-half, -half], [-half, half], [half, -half], [half, half]])
        centers = (centers[:, None, :] + off[None, :, :]).reshape(-1, 2)
    return False, best


def prove_infeasible_below(samples, Q, eps):
    """Prove that no eps-slack support family with slope norms <= Q exists.

    Scans anchors in order and stops at the first one whose lower- or
    upper-support system is branch-and-bound infeasible on the slope disk of
    radius Q.  Returns ``(proved, detail)`` with the witnessing anchor index,
    side, and the best defect value encountered during the proof.
    """
    Z, phi = samples.points, samples.values
    for i in range(len(Z)):
        dP = Z - Z[i]
        dphi = phi - phi[i]
        for side, sign in (("lower", 1.0), ("upper", -1.0)):
            proved, best = _prove_side_infeasible(dP, dphi, sign, Q, eps)
            if proved:
                return True, {"anchor": i, "side": side, "best_defect": best}
    return False, {}


def _nearest_slope(G, b):
    """Smallest-norm slope of the polygon ``{a : G a <= b}`` and its norm;
    ``(None, inf)`` when the polygon is empty.

    The origin is the answer when it is admissible.  Otherwise the answer lies
    on an edge: on line k the polygon is the segment ``p_k + s t_k``, with p_k
    the foot of the origin on the line, t_k a unit direction and s in the
    interval the other constraints cut out, and the nearest point of that edge
    sits at ``s = clip(0, lo_k, hi_k)``.  Only lines the origin violates
    (b_k < 0) are searched.  Line k's own constraint is left out of its
    interval: rounding in ``b_k - <G_k, p_k>`` would otherwise empty valid
    edges.
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


def dense_certificates(samples):
    """``(Q_min, slopes, slack)`` of a certifiable datum by ``_nearest_slope``
    at every sample and side: slopes (n, 2, 2) lower then upper, slack (n,)
    the worst defect of the two, ``max_k <G_k, a> - c_k``."""
    Z, phi = samples.points, samples.values
    relax = _BSC_RELAX * feasibility_tolerance(phi)
    slopes, norms, slack = np.zeros((len(Z), 2, 2)), np.zeros(len(Z)), np.zeros(len(Z))
    for i in range(len(Z)):
        for j, sign in enumerate((1.0, -1.0)):
            G, c = sign * (Z - Z[i]), sign * (phi - phi[i])
            a, norm = _nearest_slope(G, c + relax)
            assert a is not None, f"no support at sample {i}"
            slopes[i, j] = a
            norms[i] = max(norms[i], norm)
            slack[i] = max(slack[i], float(np.max(G @ a - c)))
    return float(norms.max()), slopes, slack


# The KKT referee's tolerances, relative to each line's scale |G_k| |a| + |b_k|
# (infeasibility, activity) or to |a| (stationarity).  On every case of
# tests/test_bsc.py, up to 2,000 es1 samples, minimal_Q's slopes read at most
# 2.4e-16 infeasible and 4.3e-16 from the cone; a slope nudged off its edge by
# 1e-9 relative reads 3.8e-10 or more infeasible, or 0.99 from the cone.
KKT_FEASIBLE = 1e-12  # G_k a - b_k above this is infeasible
KKT_ACTIVE = 1e-11  # a slack b_k - G_k a at most this makes line k active
KKT_STATIONARY = 1e-11  # -a at most this far from the active normals' cone


def _cone_distance(v, N):
    """Distance from ``v`` (2,) to the cone of nonnegative combinations of
    the rows of ``N`` (m, 2): zero when a pair of rows spans ``v`` with
    nonnegative weights, else the distance to the nearest ray, where the
    nearest point of a planar cone that misses ``v`` lies."""
    if not len(N):
        return float(np.hypot(*v))
    t = np.maximum(0.0, (N @ v) / np.einsum("ij,ij->i", N, N))
    j, k = np.triu_indices(len(N), 1)
    det = N[j, 0] * N[k, 1] - N[j, 1] * N[k, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        wj = (v[0] * N[k, 1] - v[1] * N[k, 0]) / det
        wk = (N[j, 0] * v[1] - N[j, 1] * v[0]) / det
    if np.any((det != 0.0) & (wj >= 0.0) & (wk >= 0.0)):
        return 0.0
    return float(np.min(np.hypot(*(v - t[:, None] * N).T)))


def kkt_defects(samples, report):
    """``(infeasibility, stationarity, active)``: the worst relative
    infeasibility and stationarity defect of ``report``'s slopes, and the
    most lines active at one slope.

    The slope a of sample i and a side is meant to be the least-norm point of
    the polygon ``{a : G a <= b}``, with ``G = sign (Z - Z_i)`` and
    ``b = sign (phi - phi_i)`` plus ``minimal_Q``'s relaxation.  The problem
    is convex, so a is optimal exactly when it is feasible and either a = 0
    or -a is a nonnegative combination of the normals G_k of the lines active
    at a (in the plane, at most two of them).  Infeasibility is
    ``max_k (G_k a - b_k) / (|G_k| |a| + |b_k|)``; line k is active when its
    slack over that scale is at most ``KKT_ACTIVE``; the stationarity defect
    is the distance from -a to the active normals' cone over |a|.  O(n) per
    problem, and nothing shared with the edge formula.
    """
    Z, phi = samples.points, samples.values
    shift = _BSC_RELAX * feasibility_tolerance(phi)
    infeasible, stationary, active = -np.inf, 0.0, 0
    for i in range(len(Z)):
        for sign, a in ((1.0, report.lower[i]), (-1.0, report.upper[i])):
            if not np.all(np.isfinite(a)):
                return np.inf, np.inf, active
            G, b = sign * (Z - Z[i]), sign * (phi - phi[i]) + shift
            norm = float(np.hypot(*a))
            excess = (G @ a - b) / (np.hypot(G[:, 0], G[:, 1]) * norm + np.abs(b))
            infeasible = max(infeasible, float(excess.max()))
            if norm == 0.0:
                continue
            on = excess >= -KKT_ACTIVE
            active = max(active, int(on.sum()))
            stationary = max(stationary, _cone_distance(-a, G[on]) / norm)
    return infeasible, stationary, active


def assert_kkt(samples, report):
    """``report``'s slopes pass the KKT referee within its tolerances."""
    infeasible, stationary, _ = kkt_defects(samples, report)
    assert infeasible <= KKT_FEASIBLE, infeasible
    assert stationary <= KKT_STATIONARY, stationary


def loop_gradient(mask, h, values):
    """Per-cell gradient of ``values`` (shape (nx, ny)) on the interior cells
    of ``mask``: along each axis the forward difference when the next cell is
    interior, else the backward difference when the previous one is, else 0.
    Exterior cells get (0, 0)."""
    mask = np.asarray(mask, dtype=bool)
    nx, ny = mask.shape
    out = np.zeros((nx, ny, 2))
    for i in range(nx):
        for j in range(ny):
            if not mask[i, j]:
                continue
            for a, (di, dj) in enumerate(((1, 0), (0, 1))):
                fi, fj, bi, bj = i + di, j + dj, i - di, j - dj
                if fi < nx and fj < ny and mask[fi, fj]:
                    out[i, j, a] = (values[fi, fj] - values[i, j]) / h
                elif bi >= 0 and bj >= 0 and mask[bi, bj]:
                    out[i, j, a] = (values[i, j] - values[bi, bj]) / h
    return out


def index_operator(grid):
    """``plus`` and ``minus`` (2, n): the interior indices whose values
    difference to each gradient component, (next, c) for a forward difference,
    (c, previous) for the backward fallback, (c, c) for an isolated cell.
    The neighbors are looked up cell by cell, as in ``loop_gradient``."""
    m = grid.interior_mask
    nx, ny = m.shape
    cell = np.arange(int(m.sum()))
    local = np.full(m.shape, -1, dtype=np.intp)
    local[m] = cell
    plus = np.stack((cell, cell))
    minus = plus.copy()
    for c, (i, j) in enumerate(np.argwhere(m)):  # row-major, the interior order
        for a, (di, dj) in enumerate(((1, 0), (0, 1))):
            fi, fj, bi, bj = i + di, j + dj, i - di, j - dj
            if fi < nx and fj < ny and m[fi, fj]:
                plus[a, c] = local[fi, fj]
            elif bi >= 0 and bj >= 0 and m[bi, bj]:
                minus[a, c] = local[bi, bj]
    return plus, minus


def take_hgrad(plus, minus, u):
    """h K u = u[plus] - u[minus], shape (2, n)."""
    out = np.take(u, plus, mode="clip")
    out -= np.take(u, minus, mode="clip")
    return out


def bincount_hdiv(plus, minus, p):
    """h times the divergence, bincount(minus, p) - bincount(plus, p)."""
    n, w = plus.shape[1], p.ravel()
    out = np.bincount(minus.ravel(), w, n)
    out -= np.bincount(plus.ravel(), w, n)
    return out


def allocating_operator_norm_sq(grid):
    """The power estimate of ||K||^2 with a fresh array for every operation,
    from the unit checkerboard."""
    K = difference_operator(grid)
    v = checkerboard(grid)
    v /= np.sqrt(np.sum(v * v))
    lam = 0.0
    for _ in range(_POWER_STEPS):
        w = -K.div(K.grad(v))
        lam = float(np.sqrt(np.sum(w * w)))
        if lam == 0:
            break
        v = w / lam
    return max(lam * 1.02, 8.0 / grid.h**2)


def dense_normal_matrix(grid):
    """K^T K (n, n), K the (2n, n) matrix with +1/h at ``plus`` and -1/h at
    ``minus`` of ``index_operator`` on each row (a zero row where the two
    are one cell)."""
    plus, minus = index_operator(grid)
    rows = np.arange(plus.size)
    K = np.zeros((plus.size, plus.shape[1]))
    np.add.at(K, (rows, plus.ravel()), 1.0 / grid.h)
    np.add.at(K, (rows, minus.ravel()), -1.0 / grid.h)
    return K.T @ K


def checkerboard(grid):
    """(-1)^(i + j) for the interior cells (i, j), in row-major order."""
    return np.array([(-1.0) ** (i + j) for i, j in np.argwhere(grid.interior_mask)])


def index_cw_bound(grid, est):
    """The Collatz-Wielandt bound on the largest eigenvalue of K^T K, from
    all ones, stepped by M w = -S K^T K S w until it is at or below ``est``
    or for ``_GUARD_STEPS`` steps, with K applied by the index form."""
    plus, minus = index_operator(grid)
    sign, h = checkerboard(grid), grid.h
    w, bound = np.ones(plus.shape[1]), 0.0
    for _ in range(_GUARD_STEPS):
        Mw = sign * -(bincount_hdiv(plus, minus, take_hgrad(plus, minus, sign * w) / h) / h)
        rows = Mw > 0
        bound = float(np.max(Mw[rows] / w[rows], initial=0.0))
        if bound <= est:
            break
        w = Mw / Mw.max()
    return bound


def dense_lipschitz_bound(grid, u, datum, Q_min, K, tol):
    """``(boundary_excess, lipschitz_excess)`` of the ``lipschitz_bound`` check
    for interior values ``u`` (shape (nx, ny)): the max over every cell c and
    face f of ``|u_c - phi_f| - Q_min |z_c - m_f|`` in one matrix, and the
    largest loop-gradient length minus ``K + tol``."""
    m = grid.interior_mask
    X, Y = grid.cell_centers()
    mid = datum.faces.midpoint
    dist = np.hypot(X[m][:, None] - mid[None, :, 0], Y[m][:, None] - mid[None, :, 1])
    excess = np.abs(u[m][:, None] - datum.values[None, :]) - Q_min * dist
    g = loop_gradient(m, grid.h, u)
    lip = np.max(np.hypot(g[..., 0], g[..., 1])[m])
    return float(np.max(excess)), float(lip - K - tol)


def full_grid_horizontal(u):
    """``(grad u)_c + X*(z_c)`` on the whole grid, shape (nx, ny, 2)."""
    return gradient(u).values + xstar_field(u.grid).values


def hypot_norms(values):
    """Euclidean length per cell of a (nx, ny, 2) array, by ``np.hypot``."""
    return np.hypot(values[..., 0], values[..., 1])


def hypot_lipschitz(u):
    """Largest gradient length over the interior cells."""
    return float(np.max(hypot_norms(gradient(u).values)[u.grid.interior_mask]))


def hypot_char_set(u):
    """Interior cells whose horizontal vector is at most ``10 h max(1,
    max|X*| / 2)`` long."""
    g = u.grid
    eps = 10.0 * g.h * max(1.0, 0.5 * float(np.max(hypot_norms(xstar_field(g).values))))
    return (hypot_norms(full_grid_horizontal(u)) <= eps) & g.interior_mask


def hypot_certificate_gap(u, V, datum):
    """Penalized isotropic energy minus ``sum_c h^2 <H_c, V_c>``."""
    g = u.grid
    total = penalized_energy(u, datum, EnergyMode.ISOTROPIC).total
    pair = np.sum(full_grid_horizontal(u) * V.values, axis=-1)[g.interior_mask]
    return total - float(g.h**2 * np.sum(pair))


def owner_groups(datum):
    """The owner cells grouped by their face count m, cell by cell: a list of
    (cells (k,), face values (k, m), face measure (k,))."""
    faces = datum.faces
    by_count = {}
    for c in np.unique(faces.owner_cell):
        on = faces.owner_cell == c
        by_count.setdefault(int(on.sum()), []).append((c, datum.values[on], faces.measure[on][0]))
    return [tuple(np.array(col) for col in zip(*group)) for group in by_count.values()]


def median_prox(v, tau, groups):
    """The penalized primal prox applied to interior values ``v`` in place,
    written out from Li & Osher's median formula: an owner cell with faces
    phi_1..phi_m of measure w goes to
    median{phi_1..phi_m, v + tau w (m - 2j), j = 0..m}, by ``np.median``
    over all 2m + 1 candidates.  ``groups`` is from ``owner_groups``."""
    for cells, phi, measure in groups:
        m = phi.shape[1]
        moved = v[cells, None] + (tau * measure)[:, None] * (m - 2.0 * np.arange(m + 1))
        v[cells] = np.median(np.concatenate((phi, moved), axis=1), axis=1)
    return v


def ball_projection(P, r):
    """Each cell of ``P`` (2, n) projected onto the Euclidean ball of radius
    ``r``, as a fresh array."""
    return P * r / np.maximum(np.sqrt(P[0] ** 2 + P[1] ** 2), r)


def reference_solve(grid, datum, cfg=None):
    """The over-relaxed primal-dual loop with the unscaled dual, fresh arrays
    for every update and ``median_prox``; the energy is evaluated at every
    ``_CHECK_EVERY``-th iterate and at ``max_iters``, and a solve stopped by
    the stagnation test converges only if its best energy fell below its
    start's."""
    started = time.perf_counter()
    cfg = cfg or SolverConfig()
    sigma, tau = cfg.resolved_steps(grid)
    h = grid.h
    K = difference_operator(grid)
    hXS = h * interior_xstar(grid)
    # K = hgrad / h and div = hdiv / h: the 1/h goes into the steps
    sigma_h, tau_h = sigma / h, tau / h
    owner = datum.faces.owner_cell
    measures = datum.faces.measure
    phi = datum.values

    def energy_of(u):
        # h^2 |K u + X*| = h |H| per cell
        interior = h * float(_cell_norms(K.hgrad(u) + hXS, EnergyMode.ISOTROPIC).sum())
        penalty = float((measures * np.abs(u[owner] - phi)).sum())
        return interior, penalty

    groups = owner_groups(datum)
    cells = np.unique(owner)
    pinned = np.bincount(owner, measures * phi)[cells] / np.bincount(owner, measures)[cells]

    def prox(v):
        if cfg.mode == "constrained":
            v[cells] = pinned
            return v
        return median_prox(v, tau, groups)

    # constant start at the measure-weighted mean of the boundary values
    u0 = float(np.sum(measures * phi) / np.sum(measures)) if len(phi) else 0.0
    u = prox(np.full(grid.interior_count, u0))
    P = np.zeros((2, grid.interior_count))
    best_interior, best_penalty = energy_of(u)
    best_total = start_total = best_interior + best_penalty
    best_u, best_P = u.copy(), P.copy()
    trace = [best_total]  # the best energy at every _CHECK_EVERY-th iterate

    converged = False
    stagnation = math.inf
    iterations = 0
    looped = time.perf_counter()  # the set-up ends here; the loop counts as the block
    for k in range(1, cfg.max_iters + 1):
        u_new = prox(u + tau_h * K.hdiv(P))
        P_new = ball_projection(P + sigma_h * (K.hgrad(2.0 * u_new - u) + hXS), h * h)
        u = u + _RELAX * (u_new - u)
        P = P + _RELAX * (P_new - P)
        iterations = k
        if k % _CHECK_EVERY and k < cfg.max_iters:
            continue
        ei, ep = energy_of(u)
        if not math.isfinite(ei + ep):
            raise SolverError(f"divergence: non-finite energy at iteration {k}")
        if ei + ep < best_total:
            best_interior, best_penalty, best_total = ei, ep, ei + ep
            best_u, best_P = u.copy(), P.copy()
        if k % _CHECK_EVERY:
            continue
        trace.append(best_total)
        if k >= _STAGNATION_WINDOW:
            prev = trace[-1 - _STAGNATION_WINDOW // _CHECK_EVERY]  # at iteration k - window
            stagnation = (prev - best_total) / max(abs(best_total), 1.0)
            if stagnation <= cfg.tol:
                converged = best_total < start_total  # a solve that never improved has not converged
                break

    energy = EnergyBreakdown(
        interior=best_interior,
        penalty=best_penalty,
        total=best_total,
        mode=EnergyMode.ISOTROPIC,
    )
    return SolveReport(
        u=ScalarField.from_interior(grid, best_u),
        dual=VectorField.from_interior(grid, best_P.T),
        iterations=iterations,
        converged=converged,
        stagnation=float(stagnation),
        energy=energy,
        seconds={"setup": looped - started, "block": time.perf_counter() - looped},
    )
