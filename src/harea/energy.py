"""The discrete area functional, its boundary-penalized form, and diagnostics.

Per interior cell the functional measures ``h^2 * |(grad u)_c + X*(z_c)|``
with ``X*(x, y) = 2(-y, x)``; the boundary term adds ``h * |u_owner - value|``
per boundary face.  Two cell norms are supported: the Euclidean norm
(isotropic, the model's own and the only one the solver minimizes) and the
l1 norm (anisotropic, which makes the functional exactly submodular under
pointwise max/min; evaluated only, as its discrete minimizers are not unique).

Every evaluation, of one field or a stack, is :func:`_energy_terms`:
``h * sum_c |hgrad(u)_c + h X*_c|`` (h X* cached on the grid) plus the face
terms, each summed pairwise.  The solver's checkpoints (its NumPy block and
``pdloop.c``) round alike, so a solve's ``rep.energy ==
penalized_energy(rep.u, datum)`` by bytes.  The diagnostics measure interior
``(2, n)`` vectors with the solver's cell norm (:mod:`harea.fields`); the
characteristic set reads ``K u + X*`` against :func:`default_char_threshold`,
and the Euler residual takes centered differences on the package's one
neighbor rule (``geometry._neighbor``).  The residual and the unit rotation
certificate normalize by lengths floored at one constant, 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    EnergyError,
    EnergyMode,
    ScalarField,
    VectorField,
    _cell_norms,
    _check_same_grid,
    _hxstar,
    _share_operator,
    difference_operator,
    interior_xstar,
    star,
)
from .geometry import BoundaryDatum, Grid, _neighbor, boundary_faces

__all__ = [
    "EnergyMode",
    "EnergyBreakdown",
    "EnergyError",
    "area_energy",
    "penalized_energy",
    "char_set",
    "default_char_threshold",
    "euler_residual",
    "certificate_gap",
    "unit_rotation_certificate",
    "translate_problem",
]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Area term, boundary penalty, and their sum, plus the norm used."""

    interior: float
    penalty: float
    total: float
    mode: EnergyMode

    def to_json(self) -> dict:
        return {
            "interior": self.interior,
            "penalty": self.penalty,
            "total": self.total,
            "mode": self.mode.value,
        }


def _energy_terms(U, K, hxs, faces, phi, mode, out=None, scratch=None):
    """The interior term ``h sum_c |hgrad(U)_c + hxs_c|`` (``hxs`` the grid's
    cached h X*) and the penalty ``sum_f measure_f |U_owner(f) - phi_f|`` (0
    if ``faces`` is None) of a field U (n,), as floats, or of a stack (n, B)
    with ``phi`` (F,) or (F, B), as (B,) arrays, each column summed pairwise
    as one row, so to the bytes of its own (n,) call.  ``out`` (C-contiguous,
    shape (2, *U.shape)) receives ``hgrad(U) + hxs``, and without it the
    norms are taken in place; ``scratch`` is overwritten."""
    H = K.hgrad(U, out)
    np.add(H, hxs.reshape(hxs.shape + (1,) * (U.ndim - 1)), out=H)
    interior = K.h * np.add.reduce(np.ascontiguousarray(_cell_norms(H, mode, H if out is None else scratch).T), axis=-1)
    if faces is None:
        return interior, 0.0
    return interior, np.add.reduce(np.abs(U.T.take(faces.owner_cell, axis=-1) - phi.T) * faces.measure, axis=-1)


def _field_terms(u: ScalarField, datum: BoundaryDatum | None, mode, out=None) -> tuple[float, float]:
    """:func:`_energy_terms` of a full-grid field, with ``datum``'s faces."""
    g, (faces, phi) = u.grid, (datum.faces, datum.values) if datum else (None, None)
    if faces is not None:
        _check_same_grid(g, faces.grid, EnergyError, "datum faces belong to a different grid")
    return tuple(map(float, _energy_terms(u.interior(), difference_operator(g), _hxstar(g), faces, phi, mode, out)))


def area_energy(u: ScalarField, mode: EnergyMode = EnergyMode.ISOTROPIC) -> float:
    """Interior area term: sum of h * norm(h (K u + X*)) over cells."""
    return _field_terms(u, None, EnergyMode.parse(mode))[0]


def penalized_energy(u: ScalarField, datum: BoundaryDatum, mode: EnergyMode = EnergyMode.ISOTROPIC) -> EnergyBreakdown:
    """Area term plus the boundary penalty sum_f h * |u_owner(f) - value_f|;
    a solve's report ``rep`` of ``datum`` has ``rep.energy ==
    penalized_energy(rep.u, datum)``, by bytes."""
    mode = EnergyMode.parse(mode)
    interior, penalty = _field_terms(u, datum, mode)
    return EnergyBreakdown(interior, penalty, interior + penalty, mode)


# ---------------------------------------------------------------------------
# characteristic set and Euler residual


def default_char_threshold(grid: Grid) -> float:
    """Heuristic threshold for the small-horizontal-vector set: grows with h
    and with the magnitude of the drift field over the grid."""
    mx = float(np.max(_cell_norms(interior_xstar(grid), EnergyMode.ISOTROPIC)))
    return 10.0 * grid.h * max(1.0, 0.5 * mx)


def char_set(u: ScalarField) -> np.ndarray:
    """Boolean mask of cells whose horizontal vector has norm at most
    :func:`default_char_threshold`.

    On such cells the minimal-surface operator degenerates, so residual
    diagnostics are only meaningful away from them.
    """
    g = u.grid
    n = _cell_norms(difference_operator(g).grad(u.interior()) + interior_xstar(g), EnergyMode.ISOTROPIC)
    return (ScalarField.from_interior(g, n).values <= default_char_threshold(g)) & g.interior_mask


# the least length the Euler residual and the unit rotation divide by
_FLOOR = 1e-12


def _sym_diff(grid: Grid, v: np.ndarray, axis: int) -> np.ndarray:
    """Centered difference of ``v`` (nx, ny) along ``axis``, with the one-sided
    difference where only one neighbor is interior; zero outside.

    Exact on fields whose restriction to the three-cell stencil is affine,
    which makes the residual vanish identically wherever the normalized
    horizontal field is locally constant.
    """
    m = grid.interior_mask
    plus, minus = m & _neighbor(m, axis, 1), m & _neighbor(m, axis, -1)
    dplus, dminus = _neighbor(v, axis, 1) - v, v - _neighbor(v, axis, -1)
    d = np.where(plus & minus, 0.5 * (dplus + dminus), 0.0)
    d += np.where(plus ^ minus, np.where(plus, dplus, dminus), 0.0)
    return d / grid.h


def euler_residual(u: ScalarField) -> ScalarField:
    """Divergence of the normalized horizontal field, a minimality diagnostic.

    The field N = H / max(|H|, 1e-12) and its divergence are both taken
    with a symmetric (centered) stencil so that the residual is exactly zero
    wherever N is constant on the local stencil; near the mask rim the stencil
    degrades to one-sided differences.  Values on or near the degenerate set
    (see :func:`char_set`) are not meaningful.
    """
    g = u.grid
    H = np.stack([_sym_diff(g, u.values, a)[g.interior_mask] for a in (0, 1)]) + interior_xstar(g)
    N = H / np.maximum(_cell_norms(H, EnergyMode.ISOTROPIC), _FLOOR)
    dNx, dNy = (_sym_diff(g, ScalarField.from_interior(g, N[a]).values, a) for a in (0, 1))
    return ScalarField(g, dNx + dNy)


# ---------------------------------------------------------------------------
# duality certificate


def unit_rotation_certificate(grid: Grid) -> VectorField:
    """The normalized drift field X*/max(|X*|, 1e-12), an admissible
    certificate that is asymptotically divergence-free; on a disk centered at
    the origin it calibrates the zero-datum problem."""
    xs = interior_xstar(grid)
    return VectorField.from_interior(grid, (xs / np.maximum(_cell_norms(xs, EnergyMode.ISOTROPIC), _FLOOR)).T)


def certificate_gap(u: ScalarField, V: VectorField, datum: BoundaryDatum) -> float:
    """Weak-duality gap of an admissible certificate field.

    gap = penalized total - h sum_c <h H_c, V_c>, with ``h H = hgrad(u) +
    h X*`` from the energy's own evaluation; Cauchy-Schwarz per cell gives
    gap >= 0 up to rounding whenever |V_c| <= 1.  A certificate with
    |V_c| > 1 + 1e-12 on some cell, or on another grid than ``u``, is rejected.
    """
    g = u.grid
    _check_same_grid(g, V.grid, EnergyError, "certificate lives on a different grid")
    v = V.interior().T
    vn = float(np.max(_cell_norms(v, EnergyMode.ISOTROPIC), initial=0.0))
    if vn > 1.0 + 1e-12:
        raise EnergyError(f"inadmissible certificate: cell norm {vn:.6g} exceeds 1")
    H = np.empty(v.shape)  # v is a transposed view: empty_like would not be C-contiguous
    interior, penalty = _field_terms(u, datum, EnergyMode.ISOTROPIC, H)
    return (interior + penalty) - float(g.h * np.sum(H[0] * v[0] + H[1] * v[1]))


# ---------------------------------------------------------------------------
# lattice translation transport


def translate_problem(
    u: ScalarField,
    datum: BoundaryDatum,
    tau: tuple[float, float],
    xi: float = 0.0,
) -> tuple[Grid, ScalarField, BoundaryDatum]:
    """Transport a field and its boundary datum to the grid shifted by -tau.

    For a lattice translation (tau a multiple of h on both axes) the
    transported pair has exactly the same penalized energy: the cell values
    gain the tilt ``2 <tau*, z> + xi`` evaluated at the new cell centers, and
    each face value gains the tilt evaluated at its owner's center, which is
    the point the penalty compares against.  The shifted grid shares the
    source grid's difference operator, and with it the step-rule estimate the
    operator caches; both depend only on the mask and h.
    """
    g = u.grid
    tau = np.asarray(tau, dtype=float)
    k = tau / g.h
    if np.any(np.abs(k - np.round(k)) > 1e-9 * np.maximum(1.0, np.abs(k))):
        raise EnergyError(
            f"translation {tau.tolist()} is not a multiple of h={g.h}"
        )
    taustar = star(tau)
    grid_t = Grid(
        h=g.h,
        origin=g.origin - tau,
        nx=g.nx,
        ny=g.ny,
        interior_mask=g.interior_mask,
    )
    _share_operator(grid_t, g)
    Xt, Yt = grid_t.cell_centers()
    tilt = 2.0 * (taustar[0] * Xt + taustar[1] * Yt) + xi
    u_t = ScalarField(grid_t, u.values + tilt)
    faces_t = boundary_faces(grid_t)
    datum_t = BoundaryDatum(faces=faces_t, values=datum.values + tilt[grid_t.interior_mask][faces_t.owner_cell])
    return grid_t, u_t, datum_t
