"""Primal-dual minimization of the boundary-penalized area functional.

The scheme is the standard splitting for ``min_u F(K u) + G(u)`` with ``K``
the grid's difference operator (:func:`harea.fields.difference_operator`),
``F(p) = sum_c h^2 |p_c + X*_c|`` and ``G`` the boundary penalty (or the
pinning constraint), run as the over-relaxed primal-dual iteration of
Chambolle & Pock (Math. Program. 2016), primal step first: the exact prox of
the boundary term at ``u + tau div P`` gives ``u~``; the dual, stepped by
sigma times the horizontal vector of ``2 u~ - u``, projected onto the
per-cell Euclidean ball of radius h^2 gives ``P~``; then ``u`` and ``P`` move
1.9 times the way to ``u~`` and ``P~``.  The area term is the isotropic one
only: the l1 cell norm's discrete minimizers are not unique, so that energy
is kept for evaluation (:func:`harea.energy.penalized_energy`) and is not
minimized here.

The iteration state lives on the n interior cells only: the primal ``u`` is
an ``(n,)`` vector, and the dual and the horizontal vector
``H = h (K u + X*)`` are contiguous component-major ``(2, n)`` arrays;
boundary faces name their owners by interior index (``owner_cell``).  Every
update writes into buffers owned by the loop's block.  The factor 1/h of
``K`` goes into the steps sigma_h = sigma/h and tau_h = tau/h, and the loop
carries the dual divided by sigma_h: its step is ``hgrad(2 u~ - u) + h X*``,
its ball has radius h^2/sigma_h, and the primal step is sigma_h tau_h times
its divergence.  The dual relaxation rides in the projection, which returns
1.9 ``P~``: the ball scales each cell by 1.9 r / max(|.|, r) instead of
r / max(|.|, r).  The dual update is then ``P = (1 - 1.9) P + 1.9 P~``.
Full-grid fields are built only for the returned :class:`SolveReport`.

The iterations between two energy checkpoints run as one block, which
returns the checkpoint's energies; ``block(0)`` returns the start's.  The
block is :mod:`harea.pdloop`'s compiled kernel where it can be built and
loaded (that module says how it is built and cached; its buffers are 64-byte
aligned), and the NumPy block of :func:`_numpy_block` elsewhere.  Both
allocate the iterate and every buffer of the loop, and the two give the same
iterates and energies bit for bit.  A checkpoint is the energy's one
evaluation (``energy._energy_terms``), so a report's energy is
``penalized_energy`` of its ``u``, by bytes.  The NumPy block calls the
kernels directly on its buffers, about 38 NumPy calls an iteration.  The
start, the best-iterate copies and the stop test stay in Python.

The iteration is not energy-monotone.  The energy is evaluated at every 10th
iterate and at the last one, and the solver returns the best iterate so
evaluated; the best energy never exceeds that of the constant initial guess,
and a solve whose best energy never fell below it has not converged.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import pdloop
from .energy import EnergyBreakdown, EnergyMode, _energy_terms
from .fields import (
    ScalarField,
    VectorField,
    _cell_norms,
    _check_same_grid,
    _hxstar,
    difference_operator,
    interior_xstar,
    operator_norm_sq,
)
from .geometry import BoundaryDatum, DomainSpec, Grid, boundary_faces, rasterize, sample_datum

__all__ = [
    "SolverError",
    "SolverConfig",
    "SolveReport",
    "RefineRow",
    "prox_dual",
    "prox_primal",
    "solve",
    "refine_study",
    "solver_tolerance",
    "balanced_steps",
]

_STAGNATION_WINDOW = 50
_CHECK_EVERY = 10  # the energy is evaluated at every 10th iterate
_RELAX = 1.9  # the relaxation of the primal-dual step, in (0, 2)


class SolverError(RuntimeError):
    """Raised on invalid solver configuration or a diverging iteration."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``step_sigma``/``step_tau`` are set together or not at all; left out, they
    come from :func:`balanced_steps`.  ``mode`` selects the penalized boundary
    term or hard pinning of boundary-owner cells; the cell norm is always the
    isotropic one.  ``tol`` is the stagnation threshold of :func:`solve`'s
    stop, which no positive ``tol`` switches off, 1e-300 included.
    """

    mode: str = "penalized"
    max_iters: int = 20000
    tol: float = 1e-7
    step_sigma: float | None = None
    step_tau: float | None = None

    def __post_init__(self):
        if self.mode not in ("penalized", "constrained"):
            raise SolverError(f"unknown mode {self.mode!r}")
        n = self.max_iters
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise SolverError(f"max_iters must be a positive integer, got {n!r}")
        if (self.step_sigma is None) != (self.step_tau is None):
            raise SolverError("step_sigma and step_tau must be set together")
        for name in ("tol", "step_sigma", "step_tau"):
            v = getattr(self, name)
            if v is None and name != "tol":
                continue
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not v > 0:
                raise SolverError(f"{name} must be a positive number, got {v!r}")

    def resolved_steps(self, grid: Grid) -> tuple[float, float]:
        if self.step_sigma is None:
            return balanced_steps(grid)
        sigma, tau = self.step_sigma, self.step_tau
        L2 = operator_norm_sq(grid)
        if sigma * tau * L2 > 1.0 + 1e-9:
            raise SolverError(
                f"step product {sigma * tau:.3e} violates the bound 1/L2 = {1.0 / L2:.3e}"
            )
        _folded_steps(sigma, tau, grid.h)
        return sigma, tau

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "max_iters": self.max_iters,
            "tol": self.tol,
            "step_sigma": self.step_sigma,
            "step_tau": self.step_tau,
        }


def balanced_steps(grid: Grid, gamma: float | None = None) -> tuple[float, float]:
    """Asymmetric steps sigma = 0.99 g / sqrt(L2), tau = 0.99 / (g sqrt(L2)).

    The dual ball has radius h^2 while the primal travels O(1), so shrinking
    sigma by g = h/2 (the default) and growing tau accordingly speeds the
    primal up without leaving the convergent regime sigma tau L2 < 1.
    """
    if gamma is None:
        gamma = grid.h / 2.0
    elif not 0 < gamma < math.inf:
        raise SolverError(f"gamma must be a positive finite number, got {gamma!r}")
    L2 = operator_norm_sq(grid)
    base = 0.99 / math.sqrt(L2)
    return base * gamma, base / gamma


def _folded_steps(sigma: float, tau: float, h: float) -> tuple[float, float, float]:
    """sigma_h = sigma/h, and for the dual carried as P/sigma_h the projection
    radius h^2/sigma_h and the primal step factor sigma_h tau_h; both must be
    finite and positive."""
    sigma_h = sigma / h
    radius = h * h / sigma_h if sigma_h else math.inf
    factor = sigma_h * (tau / h)
    if not (0 < radius < math.inf and 0 < factor < math.inf):
        raise SolverError(
            f"step_sigma {sigma:.3e} with step_tau {tau:.3e} gives a dual radius "
            f"{radius:.3e} and a step factor {factor:.3e}; both must be finite and positive"
        )
    return sigma_h, radius, factor


def solver_tolerance(grid: Grid, datum: BoundaryDatum) -> float:
    """Default absolute accuracy budget for solver-mediated comparisons:
    10 h (1 + sup |datum|)."""
    return 10.0 * grid.h * (1.0 + datum.sup)


@dataclass(frozen=True)
class SolveReport:
    """Returned by :func:`solve`.

    ``u`` is the best-energy iterate among those evaluated (every 10th and
    the last) and ``dual`` the dual iterate paired with it.  ``seconds``
    holds the solve's wall time by ``time.perf_counter``: ``setup``, from
    the call to the first call of the block (the operator and step rule
    where the grid has none yet, the penalty, the start and binding the
    block), and ``block``, inside the block's calls.  It takes no part in
    comparing reports.
    """

    u: ScalarField
    dual: VectorField
    iterations: int
    converged: bool
    stagnation: float
    energy: EnergyBreakdown
    seconds: dict = field(compare=False)

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            # a solve stopped before the window fills has no stagnation yet
            "stagnation": self.stagnation if math.isfinite(self.stagnation) else None,
            "energy": self.energy.to_json(),
            "seconds": self.seconds,
        }


# ---------------------------------------------------------------------------
# proximal maps


def _project_dual(p: np.ndarray, radius: float, scale: float = 1.0, scratch: np.ndarray | None = None) -> np.ndarray:
    """Project each cell of ``p`` (2, n) in place onto the Euclidean ball of
    ``radius`` and multiply it by ``scale``, which the divide's numerator
    takes at no cost; ``scratch`` (2, n) is overwritten."""
    factor = _cell_norms(p, EnergyMode.ISOTROPIC, scratch)
    np.maximum(factor, radius, out=factor)
    np.divide(scale * radius, factor, out=factor)
    return np.multiply(p, factor, out=p)


def prox_dual(q: VectorField, sigma: float) -> VectorField:
    """Resolvent of the conjugate area term: shift by sigma X*, then project
    each cell onto the Euclidean ball of radius h^2."""
    g = q.grid
    shifted = q.interior() + sigma * interior_xstar(g).T
    return VectorField.from_interior(g, _project_dual(shifted.T, g.h**2).T)


class _Penalty:
    """The boundary faces grouped by owner cell, with the primal prox's data
    for the step ``tau`` in ``mode``: ``idx`` holds the owner cells as
    interior indices, ``weight`` their summed face measure, ``t`` = tau *
    ``weight`` their thresholds, ``mean`` their face-measure-weighted mean
    value (the constrained mode's pin), and ``lo``/``hi`` their smallest and
    largest face value.  ``multi`` lists, per face count m > 2, the positions
    in ``idx`` of the owners with m faces, their face values (k, m) and the
    moves (t/m)(m - 2j), j = 0..m, of the median formula (k, m + 1).
    """

    def __init__(self, datum: BoundaryDatum, tau, mode: str):
        if mode not in ("penalized", "constrained"):
            raise SolverError(f"unknown mode {mode!r}")
        self.mode = mode
        faces = datum.faces
        order = np.argsort(faces.owner_cell, kind="stable")
        phi = datum.values[order]
        measure = faces.measure[order]
        idx, start, count = np.unique(faces.owner_cell[order], return_index=True, return_counts=True)
        self.idx = idx
        self.weight = np.add.reduceat(measure, start)
        self.t = tau * self.weight
        self.mean = np.add.reduceat(measure * phi, start) / self.weight
        self.lo = np.minimum.reduceat(phi, start)
        self.hi = np.maximum.reduceat(phi, start)
        self.multi = []
        for m in range(3, count.max(initial=0) + 1):
            pos = np.nonzero(count == m)[0]
            if not pos.size:
                continue
            values = phi[start[pos, None] + np.arange(m)]
            moves = (self.t[pos, None] / m) * (float(m) - 2.0 * np.arange(m + 1))
            self.multi.append((pos, values, moves))


def _prox(v: np.ndarray, pen: _Penalty) -> np.ndarray:
    """The primal prox of ``pen`` applied to the interior values ``v`` in
    place; returns ``v``.

    For an owner cell with faces phi_1..phi_m of equal measure it is
    median{phi_1..phi_m, v + (t/m)(m - 2j), j = 0..m} (Li & Osher's median
    formula).  Up to two faces that median is
    max(v - t, min(v + t, clip(v, phi_min, phi_max))); a far value moves by
    exactly t, so data of size 1e200 do not round against their threshold.
    """
    if pen.mode == "constrained":
        v[pen.idx] = pen.mean
        return v
    vi = v[pen.idx]
    x = np.maximum(vi, pen.lo)
    np.minimum(x, pen.hi, out=x)
    np.minimum(x, vi + pen.t, out=x)
    np.maximum(x, vi - pen.t, out=x)
    for pos, faces, moves in pen.multi:
        m = faces.shape[1]
        x[pos] = np.partition(np.concatenate((faces, vi[pos, None] + moves), axis=1), m, axis=1)[:, m]
    v[pen.idx] = x
    return v


def prox_primal(
    v: ScalarField,
    tau: float,
    datum: BoundaryDatum,
    mode: str = "penalized",
) -> ScalarField:
    """Resolvent of the boundary term.

    Interior cells pass through unchanged.  A boundary-owner cell with faces
    phi_1..phi_m, each of measure h, goes to the minimizer x of
    (x - v)^2 / 2 + tau h sum_j |x - phi_j|, the median of the m face values
    and v + tau h (m - 2j), j = 0..m; with one face that is a soft threshold
    of size tau h toward it.  In constrained mode it is pinned to the
    face-measure-weighted mean of its face values.
    """
    _check_same_grid(v.grid, datum.faces.grid, SolverError, "datum faces belong to a different grid")
    return ScalarField.from_interior(v.grid, _prox(v.interior(), _Penalty(datum, tau, mode)))


# ---------------------------------------------------------------------------
# main iteration


def solve(grid: Grid, datum: BoundaryDatum, cfg: SolverConfig | None = None) -> SolveReport:
    """Minimize the penalized (or constrained) isotropic area functional on a
    grid.

    Runs the over-relaxed primal-dual iteration (relaxation 1.9) with the
    exact boundary prox and evaluates the energy at every 10th iterate and at
    ``max_iters``.  The iterations between two evaluations run in the
    compiled block of :mod:`harea.pdloop` (built on the first estimate or
    solve and cached), or in the NumPy block where it cannot be built; both
    give the same iterates bit for bit, and every energy the report carries
    comes from the block that ran and equals ``penalized_energy(rep.u,
    datum)`` by bytes.  Returns the best evaluated iterate with a
    convergence flag; stagnation is the relative decrease of the best energy
    over the last 50 iterations, i.e. over the last five checkpoints, and
    the solve stops once it is at or below ``tol``, the stagnation
    threshold.  A best energy that does not move for 50 iterations reads
    exactly 0, so ``tol=1e-300`` does not switch the stop off.  A solve
    stopped by that test converges only if its best energy fell below that
    of its start.  A non-finite energy aborts with SolverError; plain
    non-convergence does not raise, it is reported through
    ``converged=False``.
    """
    started = time.perf_counter()
    cfg = cfg or SolverConfig()
    _check_same_grid(grid, datum.faces.grid, SolverError, "datum faces belong to a different grid")
    every, window, max_iters, tol = _CHECK_EVERY, _STAGNATION_WINDOW, cfg.max_iters, cfg.tol
    sigma, tau = cfg.resolved_steps(grid)
    # K = hgrad / h and div = hdiv / h: the 1/h goes into the steps
    sigma_h, radius, factor = _folded_steps(sigma, tau, grid.h)
    pen = _Penalty(datum, tau, cfg.mode)
    measures, phi = datum.faces.measure, datum.values
    # constant start at the measure-weighted mean of the boundary values, moved by the prox
    u0 = float(np.sum(measures * phi) / np.sum(measures)) if len(phi) else 0.0
    start = _prox(np.full(grid.interior_count, u0), pen)
    loop = dict(K=difference_operator(grid), datum=datum, pen=pen, start=start,
                hxs=_hxstar(grid), factor=factor, radius=radius, relax=_RELAX)
    block, u, Q = pdloop.bind(**loop) or _numpy_block(**loop)  # Q is the dual P / sigma_h
    mark = time.perf_counter()
    setup = mark - started
    best_interior, best_penalty = block(0)  # the start's energies
    in_block = time.perf_counter() - mark
    best_total = start_total = best_interior + best_penalty
    best_u, best_Q = u.copy(), Q.copy()
    # the best energies at the last window / every + 1 checkpoints, oldest first
    trace = deque([best_total], maxlen=window // every + 1)

    converged = False
    stagnation = math.inf
    k = 0
    while k < max_iters:
        # up to the next checkpoint: the next multiple of every, or max_iters
        steps = min(every - k % every, max_iters - k)
        mark = time.perf_counter()
        ei, ep = block(steps)
        in_block += time.perf_counter() - mark
        k += steps
        total = ei + ep
        if not math.isfinite(total):
            raise SolverError(f"divergence: non-finite energy at iteration {k}")
        if total < best_total:
            best_total = total
            best_interior, best_penalty = ei, ep
            best_u[...] = u
            best_Q[...] = Q
        if k % every:
            continue
        trace.append(best_total)
        if k >= window:
            prev = trace[0]  # the best energy at iteration k - window
            stagnation = (prev - best_total) / max(abs(best_total), 1.0)
            if stagnation <= tol:
                converged = best_total < start_total  # a solve that never improved has not converged
                break
    # release the buffers and the block bound to them before the report's
    # full-grid fields are built, which would otherwise raise the peak memory
    del block, loop, start, u, Q
    best_Q *= sigma_h
    return SolveReport(
        u=ScalarField.from_interior(grid, best_u),
        dual=VectorField.from_interior(grid, best_Q.T),
        iterations=k,
        converged=converged,
        stagnation=float(stagnation),
        energy=EnergyBreakdown(best_interior, best_penalty, best_total, EnergyMode.ISOTROPIC),
        seconds={"setup": setup, "block": in_block},
    )


def _numpy_block(
    *, K, datum, pen: _Penalty, start, hxs, factor: float, radius: float, relax: float
) -> tuple[Callable[[int], tuple[float, float]], np.ndarray, np.ndarray]:
    """The block of :func:`harea.pdloop.bind` run as NumPy calls, on its
    keywords (``hxs``, the grid's h X*, read in place) and with its return
    ``(block, u, Q)``: each ``block(steps)`` runs ``steps`` iterations on
    ``u`` and ``Q`` in place and returns the two energies of the last one."""
    keep, n = 1.0 - relax, K.n
    u, Q = start.copy(), np.zeros((2, n))
    G, scratch = np.empty((2, n)), np.empty((2, n))  # G: the dual step, and H at checkpoints
    u_step, du = np.empty(n), np.empty(n)
    add, subtract, multiply = np.add, np.subtract, np.multiply

    def block(steps: int) -> tuple[float, float]:
        for _ in range(steps):
            # u~ = prox(u + f hdiv(Q)), kept as du = u~ - u and u_step = 2 u~ - u
            K.hdiv(Q, u_step, du)
            multiply(u_step, factor, out=u_step)
            add(u_step, u, out=u_step)
            _prox(u_step, pen)
            subtract(u_step, u, out=du)
            add(u_step, du, out=u_step)
            # G = relax proj(Q + hgrad(2 u~ - u) + hX*) = relax Q~
            K.hgrad(u_step, G)
            add(G, hxs, out=G)
            add(G, Q, out=G)
            _project_dual(G, radius, relax, scratch)
            # relax both toward the step's end point: Q += relax (Q~ - Q), u += relax (u~ - u)
            multiply(Q, keep, out=Q)
            add(Q, G, out=Q)
            multiply(du, relax, out=du)
            add(u, du, out=u)
        return tuple(map(float, _energy_terms(u, K, hxs, datum.faces, datum.values, EnergyMode.ISOTROPIC, G, scratch)))

    return block, u, Q


# ---------------------------------------------------------------------------
# refinement study


@dataclass(frozen=True)
class RefineRow:
    h: float
    error: float | None
    report: SolveReport = field(repr=False, compare=False)


def refine_study(
    domain: DomainSpec,
    datum_expr,
    h_list,
    cfg: SolverConfig | None = None,
    exact=None,
    error_norm: str = "sup",
) -> tuple[list[RefineRow], bool | None]:
    """Solve the same problem across grid resolutions.

    With a closed-form reference the per-level error (sup or relative l1 against
    the sampled reference) is recorded; the returned flag is True when those
    errors strictly decrease along the list, and None without a reference,
    when every error is None.  Every level runs with ``cfg``
    (default :class:`SolverConfig`), whose steps resolve per grid, and its
    row carries the level's :class:`SolveReport`.
    """
    if error_norm not in ("sup", "l1"):
        raise SolverError(f"unknown error norm {error_norm!r}")
    rows = []
    errors = []
    for h in h_list:
        grid = rasterize(domain, h)
        datum = sample_datum(boundary_faces(grid), datum_expr)
        rep = solve(grid, datum, cfg)
        err = None
        if exact is not None:
            ref = ScalarField.from_function(grid, exact)
            diff = np.abs(rep.u.values - ref.values)[grid.interior_mask]
            if error_norm == "sup":
                err = float(np.max(diff))
            else:
                ref_l1 = float(np.sum(np.abs(ref.values[grid.interior_mask])))
                err = float(np.sum(diff) / max(ref_l1, 1e-30))
            errors.append(err)
        rows.append(RefineRow(h=float(h), error=err, report=rep))
    monotone = None if exact is None else all(b < a for a, b in zip(errors, errors[1:]))
    return rows, monotone
