"""Named property checks bundling the library's guarantees into TestReports.

Each check runs a fixed, seeded scenario and reduces it to named metrics,
each stated with its threshold; a report passes iff every metric is at or
below its threshold.  Checks are independent and deterministic: identical
configuration reproduces identical metrics on the same machine.  ``_CHECKS``
gives each check its default solver budget (none for the checks that solve
nothing); :func:`run_check` runs every solve of a check with the user's
configuration or that budget, and echoes the one that ran.  Shared work is
memoized so a full-suite run does not repeat it: the es1 solves by domain,
h and config (the h = 1/32 disk of translation_covariance and restriction,
the h = 1/32 lens of barrier_sandwich and lipschitz_bound), es1's slope
certificate and envelopes once, and the certified datum-pair family by
config.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import pdloop
from .bsc import BscViolation, barriers, boundary_samples, minimal_Q
from .energy import (
    EnergyMode,
    _energy_terms,
    certificate_gap,
    char_set,
    euler_residual,
    penalized_energy,
    translate_problem,
    unit_rotation_certificate,
)
# Not called here: perfbench's verify workload wraps gradient, divergence and balanced_steps by name.
from .fields import ScalarField, _hxstar, difference_operator, gradient, divergence, lipschitz_estimate
from .geometry import BoundaryDatum, DomainSpec, Grid, boundary_faces, rasterize, sample_datum
from .geometry import _neighbor, _row_blocks
from .solver import SolverConfig, SolverError, balanced_steps, refine_study, solve, solver_tolerance
from .surfaces import Affine, es1_datum, es1_surface, es2_surface

__all__ = ["CheckId", "TestReport", "run_check", "run_suite"]


class CheckId(str, Enum):
    AFFINE_UNIQUE = "affine_unique"
    COMPARISON = "comparison"
    CONTRACTION = "contraction"
    SHIFT_EQUIVARIANCE = "shift_equivariance"
    TRANSLATION_COVARIANCE = "translation_covariance"
    SUBMODULARITY_ANISO = "submodularity_aniso"
    VEE_WEDGE_ISO = "vee_wedge_iso"
    LAVRENTIEV = "lavrentiev"
    BARRIER_SANDWICH = "barrier_sandwich"
    LIPSCHITZ_BOUND = "lipschitz_bound"
    EULER_RESIDUAL_ES1 = "euler_residual_es1"
    EXAMPLE_ES1 = "example_es1"
    EXAMPLE_ES2 = "example_es2"
    RESTRICTION = "restriction"
    CALIBRATION_DISK = "calibration_disk"


@dataclass(frozen=True)
class TestReport:
    check_id: CheckId
    passed: bool
    metrics: dict
    thresholds: dict
    config: dict
    runtime: float

    def to_json(self) -> dict:
        return {
            "id": self.check_id.value,
            "passed": self.passed,
            "metrics": self.metrics,
            "thresholds": self.thresholds,
            "config": self.config,
            "runtime": self.runtime,
        }


_DISK = DomainSpec.disk((0.0, 0.0), 1.0)
_SQUARE = DomainSpec.polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])
_PARABOLIC = DomainSpec.parabolic()

_PAIR_SEED = 777
_SUBMOD_SEED = 2024
_VEEWEDGE_SEED = 7
_CALIBRATION_SEED = 99
_PAIR_Q = 20.0
_CURVE_SAMPLES = 200
_PAIR_SAMPLES = 160  # curve samples of each comparison datum's slope certificate
_ES1_H = 1.0 / 32.0  # the es1 scenarios' shared solves and certificate


def _erode(mask: np.ndarray, layers: int) -> np.ndarray:
    """The cells of ``mask`` at least ``layers`` steps inside it."""
    for _ in range(layers):
        mask = mask & np.logical_and.reduce(
            [_neighbor(mask, a, s) for a in (0, 1) for s in (1, -1)]
        )
    return mask


# ---------------------------------------------------------------------------
# shared artifact builders


def _fourier_datum(rng):
    a = rng.uniform(-1.5, 1.5, 2)
    c = rng.uniform(-0.5, 0.5)
    b = rng.uniform(0.1, 0.4, 3)
    f = rng.uniform(0.5, 2.5, 3)
    g = rng.uniform(0.5, 2.5, 3)
    p = rng.uniform(0, 2 * np.pi, 3)
    q = rng.uniform(0, 2 * np.pi, 3)

    def phi(x, y):
        out = c + a[0] * x + a[1] * y
        for j in range(3):
            out = out + b[j] * np.sin(f[j] * x + p[j]) * np.cos(g[j] * y + q[j])
        return out

    return phi


def _positive_offset(rng):
    d0 = rng.uniform(0.1, 0.5)
    d1 = rng.uniform(0.05, 0.2)
    f0 = rng.uniform(0.5, 2.0)
    p0 = rng.uniform(0, 2 * np.pi)

    def delta(x, y):
        return d0 + d1 * (1.05 + np.sin(f0 * x + p0) * np.cos(f0 * y - p0))

    return delta


def _is_certified(domain, expr, Q: float) -> bool:
    try:
        return minimal_Q(boundary_samples(domain, expr, _PAIR_SAMPLES)).Q_min <= Q
    except BscViolation:
        return False


@lru_cache(maxsize=1)
def _pair_artifacts(cfg: SolverConfig):
    """Twenty certified ordered datum pairs on the disk, solved both ways,
    plus shifted re-solves of the first datum for the equivariance check."""
    h = 1.0 / 24.0
    grid = rasterize(_DISK, h)
    faces = boundary_faces(grid)
    rng = np.random.default_rng(_PAIR_SEED)
    pairs = []
    first = None
    for _ in range(20):
        phi = _fourier_datum(rng)
        delta = _positive_offset(rng)

        def psi(x, y, phi=phi, delta=delta):
            return phi(x, y) + delta(x, y)

        certified = _is_certified(_DISK, phi, _PAIR_Q) and _is_certified(_DISK, psi, _PAIR_Q)
        d_phi = sample_datum(faces, phi)
        d_psi = sample_datum(faces, psi)
        r_phi = solve(grid, d_phi, cfg)
        r_psi = solve(grid, d_psi, cfg)
        m = grid.interior_mask
        diff = (r_phi.u.values - r_psi.u.values)[m]
        pairs.append(
            {
                "certified": certified,
                "tol": max(solver_tolerance(grid, d_phi), solver_tolerance(grid, d_psi)),
                "comp": float(np.max(diff)),
                "contr": float(np.max(np.abs(diff))),
                "datum_gap": float(np.max(np.abs(d_phi.values - d_psi.values))),
            }
        )
        if first is None:
            first = (d_phi, r_phi)
    d0, r0 = first
    shift = []
    for alpha in (-1.0, 0.3):
        r_a = solve(grid, BoundaryDatum(d0.faces, d0.values + alpha), cfg)
        shift.append(
            float(np.max(np.abs(r_a.u.values - (r0.u.values + alpha))[grid.interior_mask]))
        )
    return {
        "h": h,
        "pairs": pairs,
        "uncertified_pairs": float(sum(1 for p in pairs if not p["certified"])),
        "shift_sup": shift,
        "shift_tol": solver_tolerance(grid, d0),
    }


@lru_cache(maxsize=2)
def _es1_solve(domain: DomainSpec, h: float, cfg: SolverConfig):
    """es1 sampled on ``domain`` at ``h`` and solved under ``cfg``, as
    ``(grid, datum, report)``: the h = 1/32 disk of translation_covariance
    and restriction, and the h = 1/32 lens of the sandwich and slope-bound
    checks."""
    grid = rasterize(domain, h)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    return grid, datum, solve(grid, datum, cfg)


@lru_cache(maxsize=1)
def _es1_certificate():
    """es1's slope certificate on the lens boundary and its two envelopes on
    the h = 1/32 lens, as ``(bsc, f, g)``; no solver config enters them."""
    grid = rasterize(_PARABOLIC, _ES1_H)
    samples = boundary_samples(_PARABOLIC, es1_datum, _CURVE_SAMPLES)
    bsc = minimal_Q(samples, grid=grid)
    return (bsc, *barriers(samples, bsc, grid))


# ---------------------------------------------------------------------------
# individual checks: each takes the resolved solver config (None for a check
# that solves nothing) and returns ``(gated, config)``, ``gated`` mapping each
# metric name to ``(value, threshold)``


def _check_affine_unique(cfg):
    slope = (1.0, -2.0)
    offset = 0.5
    L = Affine(slope, offset)
    hs = (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0)
    rows, _ = refine_study(_DISK, L, hs, cfg, exact=L)
    errs = [r.error for r in rows]
    bound = 0.05 * (1.0 + math.hypot(*slope) + abs(offset))
    gated = {
        "sup_err_h32": (errs[1], bound),
        "sup_err_h64": (errs[2], bound),
        "decrease_violation": (max(errs[1] - errs[0], errs[2] - errs[1]), 0.0),
    }
    return gated, {"domain": "disk", "slope": slope, "offset": offset, "h": hs}


def _check_comparison(cfg):
    art = _pair_artifacts(cfg)
    excess = max(p["comp"] - p["tol"] for p in art["pairs"])
    gated = {"uncertified_pairs": (art["uncertified_pairs"], 0.0), "order_excess": (excess, 0.0)}
    return gated, {"h": art["h"], "pairs": 20, "Q": _PAIR_Q, "seed": _PAIR_SEED}


def _check_contraction(cfg):
    art = _pair_artifacts(cfg)
    excess = max(p["contr"] - p["datum_gap"] - 2.0 * p["tol"] for p in art["pairs"])
    gated = {
        "uncertified_pairs": (art["uncertified_pairs"], 0.0),
        "contraction_excess": (excess, 0.0),
    }
    return gated, {"h": art["h"], "pairs": 20, "Q": _PAIR_Q, "seed": _PAIR_SEED}


def _check_shift_equivariance(cfg):
    art = _pair_artifacts(cfg)
    gated = {"shift_sup": (max(art["shift_sup"]), art["shift_tol"])}
    return gated, {"h": art["h"], "alphas": (-1.0, 0.3), "seed": _PAIR_SEED}


def _check_translation_covariance(cfg):
    h = _ES1_H
    grid, datum, rep = _es1_solve(_DISK, h, cfg)
    tau = (4 * h, -7 * h)
    xi = 0.37
    grid_t, u_t, datum_t = translate_problem(rep.u, datum, tau, xi)
    E0 = rep.energy.total  # penalized_energy(rep.u, datum), by bytes
    E_t = penalized_energy(u_t, datum_t).total
    rep_t = solve(grid_t, datum_t, cfg)
    tol = solver_tolerance(grid_t, datum_t)
    field_sup = float(np.max(np.abs(rep_t.u.values - u_t.values)[grid_t.interior_mask]))
    gated = {
        "field_sup": (field_sup, 2.0 * tol),
        "energy_rel": (abs(E_t - E0) / max(abs(E0), 1e-30), 1e-8),
    }
    return gated, {"domain": "disk", "h": h, "tau": tau, "xi": xi}


def _vee_wedge_excess(grid, faces, z1, z2, mode) -> float:
    """E(z1 v z2) + E(z1 ^ z2) - E(z1) - E(z2) for fields given as their
    interior values then their face values, v and ^ the pointwise maximum and
    minimum; the four fields are evaluated as one (n + F, 4) stack."""
    K = difference_operator(grid)
    S = np.stack((np.maximum(z1, z2), np.minimum(z1, z2), z1, z2), axis=-1)
    vee, wedge, e1, e2 = np.add(*_energy_terms(S[: K.n], K, _hxstar(grid), faces, S[K.n :], mode))
    return float((vee + wedge) - (e1 + e2))


def _check_submodularity_aniso(cfg):
    h = 1.0 / 16.0
    grid = rasterize(_DISK, h)
    faces = boundary_faces(grid)
    rng = np.random.default_rng(_SUBMOD_SEED)
    worst = -np.inf
    for _ in range(200):
        # the field, its datum, the second field, its datum
        Z = rng.standard_normal((2, grid.interior_count + len(faces)))
        worst = max(worst, _vee_wedge_excess(grid, faces, *Z, EnergyMode.ANISOTROPIC))
    gated = {"max_violation": (float(worst), 1e-10)}
    return gated, {"domain": "disk", "h": h, "pairs": 200, "seed": _SUBMOD_SEED}


def _rand_smooth(rng, grid: Grid, faces):
    """A random smooth field ``f = sum_k a_k sin(b_k x + c_k) cos(b_k y - c_k)``
    with five terms, and its row: its values at the interior cell centers,
    by broadcasting on the grid's 1D ``xs`` and ``ys`` (bit for bit ``f`` on
    the full grid, with sin and cos on nx + ny points, not nx ny), then at
    the face midpoints."""
    a = rng.standard_normal(5)
    b = rng.uniform(0.5, 3.0, 5)
    c = rng.uniform(0, 2 * np.pi, 5)

    def f(x, y):
        return sum(a[k] * np.sin(b[k] * x + c[k]) * np.cos(b[k] * y - c[k]) for k in range(5))

    return f, np.concatenate((f(grid.xs[:, None], grid.ys)[grid.interior_mask], f(*faces.midpoint.T)))


def _check_vee_wedge_iso(cfg):
    rng = np.random.default_rng(_VEEWEDGE_SEED)
    worst_per_h = 0.0
    hs = (1.0 / 16.0, 1.0 / 32.0)
    for h in hs:
        grid = rasterize(_DISK, h)
        faces = boundary_faces(grid)
        for _ in range(60):
            (_, z1), (_, z2) = _rand_smooth(rng, grid, faces), _rand_smooth(rng, grid, faces)
            excess = _vee_wedge_excess(grid, faces, z1, z2, EnergyMode.ISOTROPIC)
            worst_per_h = max(worst_per_h, max(excess, 0.0) / h)
    gated = {"violation_per_h": (float(worst_per_h), 0.5)}
    return gated, {"domain": "disk", "h": hs, "pairs_per_level": 60, "seed": _VEEWEDGE_SEED}


def _check_lavrentiev(cfg):
    h = 1.0 / 64.0
    grid = rasterize(_PARABOLIC, h)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    rp = solve(grid, datum, replace(cfg, mode="penalized"))
    rc = solve(grid, datum, replace(cfg, mode="constrained"))
    rel = abs(rp.energy.total - rc.energy.total) / max(abs(rp.energy.total), 1e-30)
    return {"mode_gap_rel": (float(rel), 0.02)}, {"domain": "parabolic", "datum": "es1", "h": h}


def _check_barrier_sandwich(cfg):
    grid, datum, rep = _es1_solve(_PARABOLIC, _ES1_H, cfg)
    bsc, f, g = _es1_certificate()
    tol = solver_tolerance(grid, datum)
    m = grid.interior_mask
    u = rep.u.values
    below = int(np.sum(u[m] < f.values[m] - tol))
    above = int(np.sum(u[m] > g.values[m] + tol))
    envelope_excess = float(np.max((f.values - g.values)[m]))
    gated = {
        "violating_cells": (float(below + above), 0.0),
        "envelope_excess": (envelope_excess, 1e-9),
    }
    return gated, {"domain": "parabolic", "datum": "es1", "h": grid.h, "Q_min": bsc.Q_min}


def _check_lipschitz_bound(cfg):
    grid, datum, rep = _es1_solve(_PARABOLIC, _ES1_H, cfg)
    bsc = _es1_certificate()[0]
    tol = solver_tolerance(grid, datum)
    m = grid.interior_mask
    X, Y = grid.cell_centers()
    cx, cy, uvals = X[m], Y[m], rep.u.values[m]
    fx, fy = datum.faces.midpoint.T
    # max over cells c and faces f of |u_c - phi_f| - Q_min |z_c - m_f|, by row blocks
    boundary_excess = -np.inf
    for b in _row_blocks(uvals.size, fx.size):
        dist = np.hypot(cx[b, None] - fx, cy[b, None] - fy)
        excess = np.abs(uvals[b, None] - datum.values) - bsc.Q_min * dist
        boundary_excess = max(boundary_excess, float(np.max(excess)))
    lip = lipschitz_estimate(rep.u)
    gated = {
        "boundary_excess": (boundary_excess, tol),
        "lipschitz_excess": (float(lip - bsc.K - tol), 0.0),
    }
    return gated, {"domain": "parabolic", "datum": "es1", "h": grid.h, "Q_min": bsc.Q_min, "K": bsc.K}


def _char_band_metrics(u: ScalarField, in_band: np.ndarray, band: np.ndarray):
    """Characteristic cells (away from the rim) outside ``in_band``, and the
    fraction of the ``band`` cells the characteristic set misses."""
    cs = char_set(u) & _erode(u.grid.interior_mask, 4)
    off_band = int(np.sum(cs & ~in_band))
    missing = 1.0 - float(np.sum(cs & band)) / max(int(np.sum(band)), 1)
    return float(off_band), float(missing)


def _char_band_metrics_es1(u: ScalarField):
    grid = u.grid
    h = grid.h
    X, Y = grid.cell_centers()
    in_band = ((np.abs(X) <= 5 * h) & (Y > 0)) | (np.hypot(X, Y) <= 12 * h)
    spine = grid.interior_mask & (np.abs(X) <= 2 * h) & (Y >= 2 * h) & (Y <= 1 - 6 * h)
    return _char_band_metrics(u, in_band, spine)


def _check_euler_residual_es1(cfg):
    h = 1.0 / 64.0
    grid = rasterize(_PARABOLIC, h)
    u = ScalarField.from_function(grid, es1_surface)
    res = euler_residual(u)
    X, Y = grid.cell_centers()
    region = _erode(grid.interior_mask, 2) & (Y > 2 * h) & (np.abs(X) > 2 * h)
    off_band, missing = _char_band_metrics_es1(u)
    gated = {
        "residual_max": (float(np.max(np.abs(res.values[region]))), 1e-6),
        "char_off_band_cells": (off_band, 0.0),
        "char_spine_missing_frac": (missing, 0.0),
    }
    return gated, {"domain": "parabolic", "surface": "es1", "h": h, "band": "2h", "margin_cells": 2}


_LADDER_HS = (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)


def _example_ladder(domain, datum, exact, cfg):
    """The solves of ``datum`` at h = 1/32, 1/64 and 1/128 against the closed
    form ``exact``: the gated relative L1 errors and their decrease, and the
    h = 1/64 solution."""
    rows, _ = refine_study(domain, datum, _LADDER_HS, cfg, exact=exact, error_norm="l1")
    errs = [r.error for r in rows]
    gated = {
        "rel_l1_h64": (errs[1], 0.05),
        "rel_l1_finest": (errs[2], 0.05),
        "decrease_violation": (max(errs[1] - errs[0], errs[2] - errs[1]), 0.0),
    }
    return gated, rows[1].report.u


def _check_example_es1(cfg):
    gated, u = _example_ladder(_PARABOLIC, es1_datum, es1_surface, cfg)
    off_band, missing = _char_band_metrics_es1(u)
    gated["char_off_band_cells"] = (off_band, 0.0)
    gated["char_spine_missing_frac"] = (missing, 0.1)
    return gated, {"domain": "parabolic", "datum": "es1", "h": _LADDER_HS}


def _check_example_es2(cfg):
    gated, mid_solve = _example_ladder(_SQUARE, es2_surface, es2_surface, cfg)
    grid_m = mid_solve.grid
    h_m = grid_m.h
    X, Y = grid_m.cell_centers()
    # interior equation residual of the closed form itself
    res = euler_residual(ScalarField.from_function(grid_m, es2_surface))
    region = _erode(grid_m.interior_mask, 2) & (np.abs(Y) > 2 * h_m)
    gated["residual_max"] = (float(np.max(np.abs(res.values[region]))), 1e-6)
    # characteristic band of the solved field
    band = grid_m.interior_mask & (np.abs(Y) <= 2 * h_m) & (np.abs(X) <= 1 - 6 * h_m)
    off_band, missing = _char_band_metrics(mid_solve, np.abs(Y) <= 5 * h_m, band)
    gated["char_off_band_cells"] = (off_band, 0.0)
    gated["char_band_missing_frac"] = (missing, 0.1)
    return gated, {"domain": "square", "datum": "es2", "h": _LADDER_HS}


def _check_restriction(cfg):
    h = _ES1_H
    grid, _, rep = _es1_solve(_DISK, h, cfg)
    sub = DomainSpec.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    grid_s = rasterize(sub, h)
    faces_s = boundary_faces(grid_s)
    di = round((grid_s.origin[0] - grid.origin[0]) / h)
    dj = round((grid_s.origin[1] - grid.origin[1]) / h)
    U = rep.u.values
    # datum on the sub-boundary: average of the parent solution across each face
    own = faces_s.owner + (di, dj)
    across = own + faces_s.normal.astype(int)  # the exterior cell across each face
    datum_s = BoundaryDatum(faces_s, 0.5 * (U[own[:, 0], own[:, 1]] + U[across[:, 0], across[:, 1]]))
    rep_s = solve(grid_s, datum_s, cfg)
    parent_patch = U[di : di + grid_s.nx, dj : dj + grid_s.ny]
    sup = float(np.max(np.abs(rep_s.u.values - parent_patch)[grid_s.interior_mask]))
    gated = {"agreement_sup": (sup, 2.0 * solver_tolerance(grid_s, datum_s))}
    return gated, {"domain": "disk", "sub_rectangle": [-0.5, 0.5], "datum": "es1", "h": h}


def _check_calibration_disk(cfg):
    h = 1.0 / 64.0
    grid = rasterize(_DISK, h)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.zeros(len(faces)))
    rep = solve(grid, datum, cfg)
    target = 4.0 * np.pi / 3.0
    V = unit_rotation_certificate(grid)
    gaps = [certificate_gap(rep.u, V, datum)]
    rng = np.random.default_rng(_CALIBRATION_SEED)
    for _ in range(20):
        w = np.zeros((grid.nx, grid.ny))
        w[grid.interior_mask] = rng.standard_normal(grid.interior_count)
        gaps.append(certificate_gap(ScalarField(grid, w), V, datum))
    gated = {
        "energy_rel_err": (float(abs(rep.energy.total - target) / target), 0.02),
        "gap_negativity": (float(-min(gaps)), 1e-9),
    }
    config = {"domain": "disk", "datum": "zero", "h": h, "random_fields": 20, "seed": _CALIBRATION_SEED}
    return gated, config


# Each check with its default solver budget, None for a check that solves
# nothing.  The es1 solves are memoized by domain, h and config, the es1
# certificate once, and the pair family by config, so the checks that share
# a budget share one solve.
_PAIRS_CFG = SolverConfig(max_iters=20000, tol=1e-9)
_ES1_CFG = SolverConfig(max_iters=30000, tol=1e-10)
_CHECKS = {
    CheckId.AFFINE_UNIQUE: (_check_affine_unique, SolverConfig(max_iters=30000, tol=1e-9)),
    CheckId.COMPARISON: (_check_comparison, _PAIRS_CFG),
    CheckId.CONTRACTION: (_check_contraction, _PAIRS_CFG),
    CheckId.SHIFT_EQUIVARIANCE: (_check_shift_equivariance, _PAIRS_CFG),
    CheckId.TRANSLATION_COVARIANCE: (_check_translation_covariance, _ES1_CFG),
    CheckId.SUBMODULARITY_ANISO: (_check_submodularity_aniso, None),
    CheckId.VEE_WEDGE_ISO: (_check_vee_wedge_iso, None),
    CheckId.LAVRENTIEV: (_check_lavrentiev, _ES1_CFG),
    CheckId.BARRIER_SANDWICH: (_check_barrier_sandwich, _ES1_CFG),
    CheckId.LIPSCHITZ_BOUND: (_check_lipschitz_bound, _ES1_CFG),
    CheckId.EULER_RESIDUAL_ES1: (_check_euler_residual_es1, None),
    CheckId.EXAMPLE_ES1: (_check_example_es1, _ES1_CFG),
    CheckId.EXAMPLE_ES2: (_check_example_es2, SolverConfig(max_iters=25000, tol=1e-9)),
    CheckId.RESTRICTION: (_check_restriction, _ES1_CFG),
    CheckId.CALIBRATION_DISK: (_check_calibration_disk, SolverConfig(max_iters=20000, tol=1e-9)),
}


def run_check(check_id, solver_cfg: SolverConfig | None = None) -> TestReport:
    """Execute one named check and summarize it as a TestReport.

    Every solve of the check runs ``solver_cfg`` or, without one, the check's
    own budget; a check that solves echoes the config that ran as
    ``config["solver"]``.  Every metric is gated by its threshold.  Solver
    divergence or a failed certification is reported as a failed check
    (metric ``aborted`` = 1 against a threshold of 0, with the reason echoed
    in the config), not as an exception.
    """
    cid = CheckId(check_id)
    check, budget = _CHECKS[cid]
    cfg = solver_cfg or budget
    start = time.perf_counter()
    try:
        gated, config = check(cfg)
    except (SolverError, BscViolation) as exc:
        gated, config = {"aborted": (1.0, 0.0)}, {"reason": str(exc)}
    runtime = time.perf_counter() - start
    if budget is not None:
        config["solver"] = cfg.to_json()
    return TestReport(
        check_id=cid,
        passed=all(value <= bound for value, bound in gated.values()),
        metrics={k: value for k, (value, _) in gated.items()},
        thresholds={k: bound for k, (_, bound) in gated.items()},
        config=config,
        runtime=runtime,
    )


def run_suite(filter_ids=None, solver_cfg: SolverConfig | None = None):
    """Run checks in declared order; returns (reports, summary).

    ``filter_ids=None`` runs all fifteen; an empty list runs none.  The
    summary names the block that ran the solver's loop, ``"c"`` or
    ``"numpy"``, with the flags that built the C block (:func:`pdloop.loop_info`).
    """
    if filter_ids is None:
        ids = list(CheckId)
    else:
        wanted = {CheckId(c) for c in filter_ids}
        ids = [c for c in CheckId if c in wanted]
    reports = [run_check(c, solver_cfg) for c in ids]
    summary = {
        "total": len(reports),
        "passed": sum(1 for r in reports if r.passed),
        "failed": sum(1 for r in reports if not r.passed),
        "runtime": float(sum(r.runtime for r in reports)),
        **pdloop.loop_info(),
    }
    return reports, summary
