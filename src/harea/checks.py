"""Named property checks bundling the library's guarantees into TestReports.

Each check runs a fixed, seeded scenario and reduces it to named metrics with
recorded thresholds; a report passes iff every metric is at or below its
threshold.  Checks are independent and deterministic: identical configuration
reproduces identical metrics on the same machine.  Expensive shared artifacts
(the certified datum-pair family, the reference solve used by the barrier and
slope-bound checks) are memoized per solver configuration, so a full-suite
run does not repeat work and every check solves with the configuration it is
given.  Without one, each solve runs its check's own budget with the default
step rule.
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


def _is_certified(domain, expr, Q: float, n: int = 160) -> bool:
    try:
        return minimal_Q(boundary_samples(domain, expr, n)).Q_min <= Q
    except BscViolation:
        return False


@lru_cache(maxsize=1)
def _pair_artifacts(user_cfg: SolverConfig | None):
    """Twenty certified ordered datum pairs on the disk, solved both ways,
    plus shifted re-solves of the first datum for the equivariance check."""
    h = 1.0 / 24.0
    grid = rasterize(_DISK, h)
    faces = boundary_faces(grid)
    cfg = user_cfg or SolverConfig(max_iters=20000, tol=1e-9)
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
        "shift_sup": shift,
        "shift_tol": solver_tolerance(grid, d0),
        "solver": cfg.to_json(),
    }


@lru_cache(maxsize=1)
def _es1_reference_solve(user_cfg: SolverConfig | None):
    """The es1 solve at h=1/32 with its slope certificate and envelopes,
    shared by the sandwich and slope-bound checks."""
    h = 1.0 / 32.0
    grid = rasterize(_PARABOLIC, h)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    cfg = user_cfg or SolverConfig(max_iters=30000, tol=1e-10)
    rep = solve(grid, datum, cfg)
    samples = boundary_samples(_PARABOLIC, es1_datum, _CURVE_SAMPLES)
    bsc_rep = minimal_Q(samples, grid=grid)
    f, g = barriers(samples, bsc_rep, grid)
    return {
        "grid": grid,
        "datum": datum,
        "report": rep,
        "bsc": bsc_rep,
        "f": f,
        "g": g,
        "tol": solver_tolerance(grid, datum),
        "solver": cfg.to_json(),
    }


# ---------------------------------------------------------------------------
# individual checks


def _check_affine_unique(user_cfg):
    slope = (1.0, -2.0)
    offset = 0.5
    L = Affine(slope, offset)
    hs = (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0)
    cfg = user_cfg or SolverConfig(max_iters=30000, tol=1e-9)
    rows, _ = refine_study(_DISK, L, hs, cfg, exact=L)
    errs = [r.error for r in rows]
    bound = 0.05 * (1.0 + math.hypot(*slope) + abs(offset))
    metrics = {
        "sup_err_h32": errs[1],
        "sup_err_h64": errs[2],
        "decrease_violation": max(errs[1] - errs[0], errs[2] - errs[1]),
    }
    thresholds = {"sup_err_h32": bound, "sup_err_h64": bound, "decrease_violation": 0.0}
    config = {"domain": "disk", "slope": slope, "offset": offset, "h": hs}
    return metrics, thresholds, config


def _check_comparison(user_cfg):
    art = _pair_artifacts(user_cfg)
    uncert = sum(1 for p in art["pairs"] if not p["certified"])
    excess = max(p["comp"] - p["tol"] for p in art["pairs"])
    metrics = {"uncertified_pairs": float(uncert), "order_excess": excess}
    thresholds = {"uncertified_pairs": 0.0, "order_excess": 0.0}
    config = {"h": art["h"], "pairs": 20, "Q": _PAIR_Q, "seed": _PAIR_SEED, "solver": art["solver"]}
    return metrics, thresholds, config


def _check_contraction(user_cfg):
    art = _pair_artifacts(user_cfg)
    uncert = sum(1 for p in art["pairs"] if not p["certified"])
    excess = max(p["contr"] - p["datum_gap"] - 2.0 * p["tol"] for p in art["pairs"])
    metrics = {"uncertified_pairs": float(uncert), "contraction_excess": excess}
    thresholds = {"uncertified_pairs": 0.0, "contraction_excess": 0.0}
    config = {"h": art["h"], "pairs": 20, "Q": _PAIR_Q, "seed": _PAIR_SEED, "solver": art["solver"]}
    return metrics, thresholds, config


def _check_shift_equivariance(user_cfg):
    art = _pair_artifacts(user_cfg)
    metrics = {"shift_sup": max(art["shift_sup"])}
    thresholds = {"shift_sup": art["shift_tol"]}
    config = {"h": art["h"], "alphas": (-1.0, 0.3), "seed": _PAIR_SEED, "solver": art["solver"]}
    return metrics, thresholds, config


def _check_translation_covariance(user_cfg):
    h = 1.0 / 32.0
    grid = rasterize(_DISK, h)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    cfg = user_cfg or SolverConfig(max_iters=20000, tol=1e-9)
    rep = solve(grid, datum, cfg)
    tau = (4 * h, -7 * h)
    xi = 0.37
    grid_t, u_t, datum_t = translate_problem(rep.u, datum, tau, xi)
    E0 = rep.energy.total  # penalized_energy(rep.u, datum), by bytes
    E_t = penalized_energy(u_t, datum_t).total
    rep_t = solve(grid_t, datum_t, cfg)
    tol = solver_tolerance(grid_t, datum_t)
    field_sup = float(np.max(np.abs(rep_t.u.values - u_t.values)[grid_t.interior_mask]))
    metrics = {
        "field_sup": field_sup,
        "energy_rel": abs(E_t - E0) / max(abs(E0), 1e-30),
    }
    thresholds = {"field_sup": 2.0 * tol, "energy_rel": 1e-8}
    config = {"domain": "disk", "h": h, "tau": tau, "xi": xi, "solver": cfg.to_json()}
    return metrics, thresholds, config


def _vee_wedge_excess(grid, faces, z1, z2, mode) -> float:
    """E(z1 v z2) + E(z1 ^ z2) - E(z1) - E(z2) for fields given as their
    interior values then their face values, v and ^ the pointwise maximum and
    minimum; the four fields are evaluated as one (n + F, 4) stack."""
    K = difference_operator(grid)
    S = np.stack((np.maximum(z1, z2), np.minimum(z1, z2), z1, z2), axis=-1)
    vee, wedge, e1, e2 = np.add(*_energy_terms(S[: K.n], K, _hxstar(grid), faces, S[K.n :], mode))
    return float((vee + wedge) - (e1 + e2))


def _check_submodularity_aniso(user_cfg):
    h = 1.0 / 16.0
    grid = rasterize(_DISK, h)
    faces = boundary_faces(grid)
    rng = np.random.default_rng(_SUBMOD_SEED)
    worst = -np.inf
    for _ in range(200):
        # the field, its datum, the second field, its datum
        Z = rng.standard_normal((2, grid.interior_count + len(faces)))
        worst = max(worst, _vee_wedge_excess(grid, faces, *Z, EnergyMode.ANISOTROPIC))
    metrics = {"max_violation": float(worst)}
    thresholds = {"max_violation": 1e-10}
    config = {"domain": "disk", "h": h, "pairs": 200, "seed": _SUBMOD_SEED}
    return metrics, thresholds, config


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


def _check_vee_wedge_iso(user_cfg):
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
    metrics = {"violation_per_h": float(worst_per_h)}
    thresholds = {"violation_per_h": 0.5}
    config = {"domain": "disk", "h": hs, "pairs_per_level": 60, "seed": _VEEWEDGE_SEED}
    return metrics, thresholds, config


def _check_lavrentiev(user_cfg):
    h = 1.0 / 64.0
    grid = rasterize(_PARABOLIC, h)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    base = user_cfg or SolverConfig(max_iters=30000, tol=1e-10)
    rp = solve(grid, datum, replace(base, mode="penalized"))
    rc = solve(grid, datum, replace(base, mode="constrained"))
    rel = abs(rp.energy.total - rc.energy.total) / max(abs(rp.energy.total), 1e-30)
    metrics = {"mode_gap_rel": float(rel)}
    thresholds = {"mode_gap_rel": 0.02}
    config = {"domain": "parabolic", "datum": "es1", "h": h, "solver": base.to_json()}
    return metrics, thresholds, config


def _check_barrier_sandwich(user_cfg):
    art = _es1_reference_solve(user_cfg)
    grid, rep = art["grid"], art["report"]
    m = grid.interior_mask
    u = rep.u.values
    below = int(np.sum(u[m] < art["f"].values[m] - art["tol"]))
    above = int(np.sum(u[m] > art["g"].values[m] + art["tol"]))
    envelope_excess = float(np.max((art["f"].values - art["g"].values)[m]))
    metrics = {
        "violating_cells": float(below + above),
        "envelope_excess": envelope_excess,
    }
    thresholds = {"violating_cells": 0.0, "envelope_excess": 1e-9}
    config = {
        "domain": "parabolic",
        "datum": "es1",
        "h": grid.h,
        "Q_min": art["bsc"].Q_min,
        "solver": art["solver"],
    }
    return metrics, thresholds, config


def _check_lipschitz_bound(user_cfg):
    art = _es1_reference_solve(user_cfg)
    grid, rep, datum = art["grid"], art["report"], art["datum"]
    m = grid.interior_mask
    X, Y = grid.cell_centers()
    cx, cy, uvals = X[m], Y[m], rep.u.values[m]
    fx, fy = datum.faces.midpoint.T
    # max over cells c and faces f of |u_c - phi_f| - Q_min |z_c - m_f|, by row blocks
    boundary_excess = -np.inf
    for b in _row_blocks(uvals.size, fx.size):
        dist = np.hypot(cx[b, None] - fx, cy[b, None] - fy)
        excess = np.abs(uvals[b, None] - datum.values) - art["bsc"].Q_min * dist
        boundary_excess = max(boundary_excess, float(np.max(excess)))
    lip = lipschitz_estimate(rep.u)
    metrics = {
        "boundary_excess": boundary_excess,
        "lipschitz_excess": float(lip - art["bsc"].K - art["tol"]),
    }
    thresholds = {"boundary_excess": art["tol"], "lipschitz_excess": 0.0}
    config = {
        "domain": "parabolic",
        "datum": "es1",
        "h": grid.h,
        "Q_min": art["bsc"].Q_min,
        "K": art["bsc"].K,
        "solver": art["solver"],
    }
    return metrics, thresholds, config


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


def _check_euler_residual_es1(user_cfg):
    h = 1.0 / 64.0
    grid = rasterize(_PARABOLIC, h)
    u = ScalarField.from_function(grid, es1_surface)
    res = euler_residual(u)
    X, Y = grid.cell_centers()
    region = _erode(grid.interior_mask, 2) & (Y > 2 * h) & (np.abs(X) > 2 * h)
    residual_max = float(np.max(np.abs(res.values[region])))
    off_band, missing = _char_band_metrics_es1(u)
    metrics = {
        "residual_max": residual_max,
        "char_off_band_cells": off_band,
        "char_spine_missing_frac": missing,
    }
    thresholds = {
        "residual_max": 1e-6,
        "char_off_band_cells": 0.0,
        "char_spine_missing_frac": 0.0,
    }
    config = {"domain": "parabolic", "surface": "es1", "h": h, "band": "2h", "margin_cells": 2}
    return metrics, thresholds, config


def _check_example_es1(user_cfg):
    hs = (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)
    cfg = user_cfg or SolverConfig(max_iters=30000, tol=1e-10)
    rows, _ = refine_study(_PARABOLIC, es1_datum, hs, cfg, exact=es1_surface, error_norm="l1")
    errs = [r.error for r in rows]
    off_band, missing = _char_band_metrics_es1(rows[1].report.u)
    metrics = {
        "rel_l1_h64": errs[1],
        "rel_l1_finest": errs[2],
        "decrease_violation": max(errs[1] - errs[0], errs[2] - errs[1]),
        "char_off_band_cells": off_band,
        "char_spine_missing_frac": missing,
    }
    thresholds = {
        "rel_l1_h64": 0.05,
        "rel_l1_finest": 0.05,
        "decrease_violation": 0.0,
        "char_off_band_cells": 0.0,
        "char_spine_missing_frac": 0.1,
    }
    config = {"domain": "parabolic", "datum": "es1", "h": hs}
    return metrics, thresholds, config


def _check_example_es2(user_cfg):
    hs = (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)
    cfg = user_cfg or SolverConfig(max_iters=25000, tol=1e-9)
    rows, _ = refine_study(_SQUARE, es2_surface, hs, cfg, exact=es2_surface, error_norm="l1")
    errs = [r.error for r in rows]
    # characteristic band of the solved field
    mid_solve = rows[1].report.u
    grid_m = mid_solve.grid
    h_m = grid_m.h
    X, Y = grid_m.cell_centers()
    band = grid_m.interior_mask & (np.abs(Y) <= 2 * h_m) & (np.abs(X) <= 1 - 6 * h_m)
    off_band, missing = _char_band_metrics(mid_solve, np.abs(Y) <= 5 * h_m, band)
    # interior equation residual of the closed form itself
    u_exact = ScalarField.from_function(grid_m, es2_surface)
    res = euler_residual(u_exact)
    region = _erode(grid_m.interior_mask, 2) & (np.abs(Y) > 2 * h_m)
    residual_max = float(np.max(np.abs(res.values[region])))
    metrics = {
        "rel_l1_h64": errs[1],
        "rel_l1_finest": errs[2],
        "decrease_violation": max(errs[1] - errs[0], errs[2] - errs[1]),
        "residual_max": residual_max,
        "char_off_band_cells": off_band,
        "char_band_missing_frac": missing,
    }
    thresholds = {
        "rel_l1_h64": 0.05,
        "rel_l1_finest": 0.05,
        "decrease_violation": 0.0,
        "residual_max": 1e-6,
        "char_off_band_cells": 0.0,
        "char_band_missing_frac": 0.1,
    }
    config = {"domain": "square", "datum": "es2", "h": hs}
    return metrics, thresholds, config


def _check_restriction(user_cfg):
    h = 1.0 / 32.0
    grid = rasterize(_DISK, h)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    cfg = user_cfg or SolverConfig(max_iters=30000, tol=1e-10)
    rep = solve(grid, datum, cfg)

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
    tol = solver_tolerance(grid_s, datum_s)
    metrics = {"agreement_sup": sup}
    thresholds = {"agreement_sup": 2.0 * tol}
    config = {
        "domain": "disk",
        "sub_rectangle": [-0.5, 0.5],
        "datum": "es1",
        "h": h,
        "solver": cfg.to_json(),
    }
    return metrics, thresholds, config


def _check_calibration_disk(user_cfg):
    h = 1.0 / 64.0
    grid = rasterize(_DISK, h)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.zeros(len(faces)))
    cfg = user_cfg or SolverConfig(max_iters=20000, tol=1e-9)
    rep = solve(grid, datum, cfg)
    target = 4.0 * np.pi / 3.0
    V = unit_rotation_certificate(grid)
    gaps = [certificate_gap(rep.u, V, datum)]
    rng = np.random.default_rng(_CALIBRATION_SEED)
    for _ in range(20):
        w = np.zeros((grid.nx, grid.ny))
        w[grid.interior_mask] = rng.standard_normal(grid.interior_count)
        gaps.append(certificate_gap(ScalarField(grid, w), V, datum))
    metrics = {
        "energy_rel_err": float(abs(rep.energy.total - target) / target),
        "gap_negativity": float(-min(gaps)),
    }
    thresholds = {"energy_rel_err": 0.02, "gap_negativity": 1e-9}
    config = {
        "domain": "disk",
        "datum": "zero",
        "h": h,
        "random_fields": 20,
        "seed": _CALIBRATION_SEED,
        "solver": cfg.to_json(),
    }
    return metrics, thresholds, config


_CHECKS = {
    CheckId.AFFINE_UNIQUE: _check_affine_unique,
    CheckId.COMPARISON: _check_comparison,
    CheckId.CONTRACTION: _check_contraction,
    CheckId.SHIFT_EQUIVARIANCE: _check_shift_equivariance,
    CheckId.TRANSLATION_COVARIANCE: _check_translation_covariance,
    CheckId.SUBMODULARITY_ANISO: _check_submodularity_aniso,
    CheckId.VEE_WEDGE_ISO: _check_vee_wedge_iso,
    CheckId.LAVRENTIEV: _check_lavrentiev,
    CheckId.BARRIER_SANDWICH: _check_barrier_sandwich,
    CheckId.LIPSCHITZ_BOUND: _check_lipschitz_bound,
    CheckId.EULER_RESIDUAL_ES1: _check_euler_residual_es1,
    CheckId.EXAMPLE_ES1: _check_example_es1,
    CheckId.EXAMPLE_ES2: _check_example_es2,
    CheckId.RESTRICTION: _check_restriction,
    CheckId.CALIBRATION_DISK: _check_calibration_disk,
}


def run_check(check_id, solver_cfg: SolverConfig | None = None) -> TestReport:
    """Execute one named check and summarize it as a TestReport.

    Solver divergence or a failed certification is reported as a failed check
    (metric ``aborted`` = 1 against a threshold of 0, with the reason echoed
    in the config), not as an exception.
    """
    cid = CheckId(check_id)
    start = time.perf_counter()
    try:
        metrics, thresholds, config = _CHECKS[cid](solver_cfg)
    except (SolverError, BscViolation) as exc:
        runtime = time.perf_counter() - start
        return TestReport(
            check_id=cid,
            passed=False,
            metrics={"aborted": 1.0},
            thresholds={"aborted": 0.0},
            config={"reason": str(exc)},
            runtime=runtime,
        )
    runtime = time.perf_counter() - start
    passed = all(metrics[k] <= thresholds[k] for k in thresholds)
    return TestReport(
        check_id=cid,
        passed=passed,
        metrics=metrics,
        thresholds=thresholds,
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
