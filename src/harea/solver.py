"""Primal-dual minimization of the boundary-penalized area functional.

The scheme is the standard splitting for ``min_u F(K u) + G(u)`` with ``K``
the grid's difference operator (:func:`harea.fields.difference_operator`),
``F(p) = sum_c h^2 |p_c + X*_c|`` and ``G`` the boundary penalty (or the
pinning constraint): dual ascent with projection onto the per-cell ball of
radius h^2, primal descent with a soft threshold toward the face-averaged
boundary value, and overrelaxation of the primal iterate.

The iteration state lives on the n interior cells only: the primal ``u`` is
an ``(n,)`` vector, and the dual and the horizontal vector
``H = h (K u + X*)`` are contiguous component-major ``(2, n)`` arrays;
boundary faces name their owners by interior index (``owner_cell``).  Every
update writes into buffers allocated once per solve.  The factor 1/h of
``K`` goes into the steps sigma_h = sigma/h and tau_h = tau/h, and the loop
carries the dual divided by sigma_h: its step is ``+= H_bar``, its ball has
radius h^2/sigma_h, and the primal step is sigma_h tau_h times its
divergence.  Full-grid fields are built only for the returned
:class:`SolveReport`.

The iteration is not energy-monotone, so the solver tracks the best-energy
iterate seen and returns that; the recorded energy trace is therefore
non-increasing and never exceeds the energy of the constant initial guess.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyBreakdown, EnergyMode, _cell_norms
from .fields import ScalarField, VectorField, difference_operator, interior_xstar, operator_norm_sq
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


class SolverError(RuntimeError):
    """Raised on invalid solver configuration or a diverging iteration."""


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.

    ``step_sigma``/``step_tau`` are set together or not at all; left out, they
    come from :func:`balanced_steps`.  ``mode`` selects the penalized boundary
    term or hard pinning of boundary-owner cells; ``energy_mode`` selects the
    cell norm.
    """

    mode: str = "penalized"
    energy_mode: EnergyMode = EnergyMode.ISOTROPIC
    max_iters: int = 20000
    tol: float = 1e-7
    step_sigma: float | None = None
    step_tau: float | None = None

    def __post_init__(self):
        if self.mode not in ("penalized", "constrained"):
            raise SolverError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "energy_mode", EnergyMode.parse(self.energy_mode))
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
            "energy_mode": self.energy_mode.value,
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

    ``u`` is the best-energy iterate and ``dual`` the dual iterate it was
    computed from.
    """

    u: ScalarField
    dual: VectorField
    iterations: int
    converged: bool
    stagnation: float
    energy: EnergyBreakdown

    def to_json(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            # a solve stopped before the window fills has no stagnation yet
            "stagnation": self.stagnation if math.isfinite(self.stagnation) else None,
            "energy": self.energy.to_json(),
        }


# ---------------------------------------------------------------------------
# proximal maps


def _project_dual(p: np.ndarray, radius: float, mode: EnergyMode, scratch=None) -> np.ndarray:
    """Project each cell of ``p`` (2, n) in place onto the ball of ``radius``
    (the box for the l1 norm); ``scratch`` (2, n) spares the allocation."""
    if mode is EnergyMode.ISOTROPIC:
        factor = _cell_norms(p, mode, scratch)
        np.maximum(factor, radius, out=factor)
        np.divide(radius, factor, out=factor)
        p *= factor
        return p
    np.maximum(p, -radius, out=p)  # np.clip's wrapper costs more than two ufuncs
    return np.minimum(p, radius, out=p)


def prox_dual(q: VectorField, sigma: float, mode: EnergyMode = EnergyMode.ISOTROPIC) -> VectorField:
    """Resolvent of the conjugate area term: shift by sigma X*, then project
    each cell onto the ball of radius h^2 (componentwise box for the l1 norm)."""
    mode = EnergyMode.parse(mode)
    g = q.grid
    shifted = q.interior() + sigma * interior_xstar(g).T
    return VectorField.from_interior(g, _project_dual(shifted.T, g.h**2, mode).T)


class _Penalty:
    """Per-cell aggregation of the boundary faces for the primal prox;
    ``idx`` holds the owner cells as interior indices."""

    def __init__(self, grid: Grid, datum: BoundaryDatum):
        faces = datum.faces
        n = grid.interior_count
        wsum = np.zeros(n)
        vsum = np.zeros(n)
        np.add.at(wsum, faces.owner_cell, faces.measure)
        np.add.at(vsum, faces.owner_cell, faces.measure * datum.values)
        idx = np.nonzero(wsum > 0)[0]
        self.idx = idx
        self.weight = wsum[idx]
        self.mean = vsum[idx] / wsum[idx]


def _prox_primal_raw(v: np.ndarray, t: np.ndarray, pen: _Penalty, mode: str) -> np.ndarray:
    """The primal prox applied to interior values ``v`` in place, with the
    owner cells' thresholds ``t`` = tau * ``pen.weight``: the median of
    v - t, the face mean and v + t."""
    if mode == "constrained":
        v[pen.idx] = pen.mean
        return v
    # a far value moves by exactly t: mean + sign(d) (|d| - t) rounds at the
    # scale of |d|, which on data of size 1e200 is a jump of about 1e184
    vi = v[pen.idx]
    x = np.subtract(vi, t)
    np.maximum(x, pen.mean, out=x)
    vi += t
    np.minimum(x, vi, out=x)
    v[pen.idx] = x
    return v


def prox_primal(
    v: ScalarField,
    tau: float,
    datum: BoundaryDatum,
    mode: str = "penalized",
) -> ScalarField:
    """Resolvent of the boundary term.

    Interior cells pass through unchanged.  A boundary-owner cell with
    accumulated face weight w = h * (face count) moves toward the
    face-measure-weighted mean m of its face values by a soft threshold of
    size t = tau * w, computed as the median of v - t, m and v + t; in
    constrained mode it is pinned to that mean.
    """
    if mode not in ("penalized", "constrained"):
        raise SolverError(f"unknown mode {mode!r}")
    pen = _Penalty(v.grid, datum)
    t = tau * pen.weight
    return ScalarField.from_interior(v.grid, _prox_primal_raw(v.interior(), t, pen, mode))


# ---------------------------------------------------------------------------
# main iteration


def solve(grid: Grid, datum: BoundaryDatum, cfg: SolverConfig | None = None) -> SolveReport:
    """Minimize the penalized (or constrained) area functional on a grid.

    Returns the best-energy iterate with a convergence flag; stagnation is the
    relative decrease of the best energy over the last 50 iterations.  A
    non-finite energy aborts with SolverError; plain non-convergence does not
    raise, it is reported through ``converged=False``.
    """
    cfg = cfg or SolverConfig()
    sigma, tau = cfg.resolved_steps(grid)
    mode = cfg.energy_mode
    h = grid.h
    K = difference_operator(grid)
    hXS = h * interior_xstar(grid)
    # K = hgrad / h and div = hdiv / h: the 1/h goes into the steps
    sigma_h, radius, factor = _folded_steps(sigma, tau, h)
    pen = _Penalty(grid, datum)
    t = tau * pen.weight
    owner = datum.faces.owner_cell
    measures = datum.faces.measure
    phi = datum.values
    n = grid.interior_count
    Q = np.zeros((2, n))  # the dual P / sigma_h
    H = np.empty((2, n))
    scratch = np.empty((2, n))
    step = scratch[1]  # the primal step borrows a row of scratch

    def horizontal(u: np.ndarray, out: np.ndarray) -> np.ndarray:
        K.hgrad(u, out)
        out += hXS
        return out

    def energy_of(u: np.ndarray, H: np.ndarray) -> tuple[float, float]:
        # h^2 |K u + X*| = h |H| per cell
        interior = h * float(np.add.reduce(_cell_norms(H, mode, scratch)))
        d = u[owner]
        d -= phi
        np.abs(d, out=d)
        d *= measures
        return interior, float(np.add.reduce(d))

    # constant start at the measure-weighted mean of the boundary values
    u0 = float(np.sum(measures * phi) / np.sum(measures)) if len(phi) else 0.0
    u = _prox_primal_raw(np.full(n, u0), t, pen, cfg.mode)
    horizontal(u, H)
    H_bar = H.copy()

    ei, ep = energy_of(u, H)
    best_interior, best_penalty = ei, ep
    best_total = ei + ep
    # each iterate goes into the one of two buffers that does not hold the
    # best, so the best is kept without copies
    us, Qs = [u, np.empty(n)], [Q, np.empty((2, n))]
    best = 0
    # the best energies of the last window + 1 iterations, oldest first
    trace = deque([best_total], maxlen=_STAGNATION_WINDOW + 1)

    converged = False
    stagnation = math.inf
    iterations = 0
    for k in range(1, cfg.max_iters + 1):
        Q = np.add(Q, H_bar, out=Qs[1 - best])
        _project_dual(Q, radius, mode, scratch)
        K.hdiv(Q, step, scratch[0])
        step *= factor
        u = np.add(u, step, out=us[1 - best])
        _prox_primal_raw(u, t, pen, cfg.mode)
        horizontal(u, H_bar)  # the extrapolation is spent; H_bar holds the new H
        ei, ep = energy_of(u, H_bar)
        total = ei + ep
        if not math.isfinite(total):
            raise SolverError(f"divergence: non-finite energy at iteration {k}")
        if total < best_total:
            best_total = total
            best_interior, best_penalty = ei, ep
            best = 1 - best
        trace.append(best_total)
        # extrapolate 2 H_new - H_old into the old buffer, then swap roles
        np.multiply(H_bar, 2.0, out=scratch)
        np.subtract(scratch, H, out=H)
        H, H_bar = H_bar, H
        iterations = k
        if k >= _STAGNATION_WINDOW:
            prev = trace[0]  # the best energy at iteration k - window
            stagnation = (prev - best_total) / max(abs(best_total), 1.0)
            if stagnation <= cfg.tol:
                converged = True
                break

    # release the loop state before the full-grid report fields are built
    best_u, best_Q = us[best], Qs[best]
    del u, us, Q, Qs, H, H_bar, scratch, step, hXS
    best_Q *= sigma_h
    energy = EnergyBreakdown(
        interior=best_interior,
        penalty=best_penalty,
        total=best_total,
        mode=mode,
    )
    return SolveReport(
        u=ScalarField.from_interior(grid, best_u),
        dual=VectorField.from_interior(grid, best_Q.T),
        iterations=iterations,
        converged=converged,
        stagnation=float(stagnation),
        energy=energy,
    )


# ---------------------------------------------------------------------------
# refinement study


@dataclass(frozen=True)
class RefineRow:
    h: float
    cells: int
    iterations: int
    converged: bool
    energy_total: float
    error: float | None
    report: SolveReport = field(repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "h": self.h,
            "cells": self.cells,
            "iterations": self.iterations,
            "converged": self.converged,
            "energy_total": self.energy_total,
            "error": self.error,
        }


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
        rows.append(
            RefineRow(
                h=float(h),
                cells=grid.interior_count,
                iterations=rep.iterations,
                converged=rep.converged,
                energy_total=rep.energy.total,
                error=err,
                report=rep,
            )
        )
    monotone = None if exact is None else all(b < a for a, b in zip(errors, errors[1:]))
    return rows, monotone
