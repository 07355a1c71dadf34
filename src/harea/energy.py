"""The discrete area functional, its boundary-penalized form, and diagnostics.

Per interior cell the functional measures ``h^2 * |(grad u)_c + X*(z_c)|``
with ``X*(x, y) = 2(-y, x)``; the boundary term adds ``h * |u_owner - value|``
per boundary face.  Two cell norms are supported: the Euclidean norm
(isotropic, the model's own) and the l1 norm (anisotropic, which makes the
functional exactly submodular under pointwise max/min).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .fields import (
    ScalarField,
    VectorField,
    _check_same_grid,
    difference_operator,
    gradient,
    interior_xstar,
    star,
    xstar_field,
)
from .geometry import BoundaryDatum, BoundaryFaces, Grid, boundary_faces

__all__ = [
    "EnergyMode",
    "EnergyBreakdown",
    "EnergyError",
    "horizontal_field",
    "area_energy",
    "penalized_energy",
    "char_set",
    "default_char_threshold",
    "euler_residual",
    "certificate_gap",
    "unit_rotation_certificate",
    "translate_problem",
]


class EnergyError(ValueError):
    """Raised for inadmissible certificates or malformed energy inputs."""


class EnergyMode(enum.Enum):
    """Cell norm used by the area term: Euclidean or l1."""

    ISOTROPIC = "iso"
    ANISOTROPIC = "aniso"

    @staticmethod
    def parse(s) -> "EnergyMode":
        if isinstance(s, EnergyMode):
            return s
        key = str(s).lower()
        if key in ("iso", "isotropic"):
            return EnergyMode.ISOTROPIC
        if key in ("aniso", "anisotropic", "l1"):
            return EnergyMode.ANISOTROPIC
        raise EnergyError(f"unknown energy mode {s!r} (expected 'iso' or 'aniso')")


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


def _cell_norms(v: np.ndarray, mode: EnergyMode, scratch=None) -> np.ndarray:
    """Per-cell norms (n,) of component-major vectors ``v`` (2, n):
    ``sqrt(x*x + y*y)`` or ``|x| + |y|``.  The result is ``scratch[0]`` when
    a (2, n) scratch buffer is given, so nothing is allocated."""
    s = np.square(v, out=scratch) if mode is EnergyMode.ISOTROPIC else np.abs(v, out=scratch)
    np.add(s[0], s[1], out=s[0])
    if mode is EnergyMode.ISOTROPIC:
        np.sqrt(s[0], out=s[0])
    return s[0]


def horizontal_field(u: ScalarField) -> VectorField:
    """The per-cell horizontal vector (grad u)_c + X*(z_c)."""
    return VectorField(u.grid, gradient(u).values + xstar_field(u.grid).values)


def area_energy(u: ScalarField, mode: EnergyMode = EnergyMode.ISOTROPIC) -> float:
    """Interior area term: sum of h^2 * norm(horizontal vector) over cells."""
    mode = EnergyMode.parse(mode)
    g = u.grid
    H = difference_operator(g).grad(u.interior()) + interior_xstar(g)
    return float(g.h**2 * np.sum(_cell_norms(H, mode)))


def penalized_energy(
    u: ScalarField,
    datum: BoundaryDatum,
    mode: EnergyMode = EnergyMode.ISOTROPIC,
) -> EnergyBreakdown:
    """Area term plus the boundary penalty sum_f h * |u_owner(f) - value_f|."""
    mode = EnergyMode.parse(mode)
    faces = datum.faces
    _check_same_grid(u.grid, faces.grid, EnergyError, "datum faces belong to a different grid")
    interior = area_energy(u, mode)
    owner_vals = u.values.reshape(-1)[faces.owner_flat]
    penalty = float(np.sum(faces.measure * np.abs(owner_vals - datum.values)))
    return EnergyBreakdown(
        interior=interior, penalty=penalty, total=interior + penalty, mode=mode
    )


# ---------------------------------------------------------------------------
# characteristic set and Euler residual


def default_char_threshold(grid: Grid) -> float:
    """Heuristic threshold for the small-horizontal-vector set: grows with h
    and with the magnitude of the drift field over the grid."""
    xs = xstar_field(grid)
    mx = float(np.max(xs.norms()[grid.interior_mask]))
    return 10.0 * grid.h * max(1.0, 0.5 * mx)


def char_set(u: ScalarField, eps: float | None = None) -> np.ndarray:
    """Boolean mask of cells whose horizontal vector has norm <= eps.

    On such cells the minimal-surface operator degenerates, so residual
    diagnostics are only meaningful away from them.
    """
    if eps is None:
        eps = default_char_threshold(u.grid)
    if not (eps >= 0):
        raise EnergyError(f"char threshold must be nonnegative, got {eps}")
    n = horizontal_field(u).norms()
    return (n <= eps) & u.grid.interior_mask


def _sym_diff(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Centered difference per axis with one-sided fallback at mask edges.

    Exact on fields whose restriction to the three-cell stencil is affine,
    which makes the residual vanish identically wherever the normalized
    horizontal field is locally constant.
    """
    h = grid.h
    m = grid.interior_mask
    out = np.zeros((grid.nx, grid.ny, 2))
    for axis in (0, 1):
        plus = np.zeros_like(m)
        minus = np.zeros_like(m)
        dplus = np.zeros_like(v)
        dminus = np.zeros_like(v)
        if axis == 0:
            plus[:-1, :] = m[:-1, :] & m[1:, :]
            minus[1:, :] = m[1:, :] & m[:-1, :]
            dplus[:-1, :] = v[1:, :] - v[:-1, :]
            dminus[1:, :] = v[1:, :] - v[:-1, :]
        else:
            plus[:, :-1] = m[:, :-1] & m[:, 1:]
            minus[:, 1:] = m[:, 1:] & m[:, :-1]
            dplus[:, :-1] = v[:, 1:] - v[:, :-1]
            dminus[:, 1:] = v[:, 1:] - v[:, :-1]
        both = plus & minus
        one_sided = (plus | minus) & ~both
        d = np.where(both, 0.5 * (dplus + dminus), 0.0)
        d += np.where(one_sided, np.where(plus, dplus, dminus), 0.0)
        out[..., axis] = d / h
    out[~m] = 0.0
    return out


def euler_residual(u: ScalarField, eps_reg: float = 1e-12) -> ScalarField:
    """Divergence of the normalized horizontal field, a minimality diagnostic.

    The field N = H / max(|H|, eps_reg) and its divergence are both taken
    with a symmetric (centered) stencil so that the residual is exactly zero
    wherever N is constant on the local stencil; near the mask rim the stencil
    degrades to one-sided differences.  Values on or near the degenerate set
    (see :func:`char_set`) are not meaningful.
    """
    if not (eps_reg > 0):
        raise EnergyError(f"eps_reg must be positive, got {eps_reg}")
    g = u.grid
    H = _sym_diff(g, u.values) + xstar_field(g).values
    H[~g.interior_mask] = 0.0
    n = np.hypot(H[..., 0], H[..., 1])
    N = H / np.maximum(n, eps_reg)[..., None]
    N[~g.interior_mask] = 0.0
    dNx = _sym_diff(g, N[..., 0])[..., 0]
    dNy = _sym_diff(g, N[..., 1])[..., 1]
    res = dNx + dNy
    res[~g.interior_mask] = 0.0
    return ScalarField(g, res)


# ---------------------------------------------------------------------------
# duality certificate


def unit_rotation_certificate(grid: Grid, eps: float = 1e-12) -> VectorField:
    """The normalized drift field X*/max(|X*|, eps), an admissible certificate
    that is asymptotically divergence-free; on a disk centered at the origin it
    calibrates the zero-datum problem."""
    xs = xstar_field(grid)
    n = np.maximum(xs.norms(), eps)
    return VectorField(grid, xs.values / n[..., None])


def certificate_gap(
    u: ScalarField, V: VectorField, datum: BoundaryDatum
) -> float:
    """Weak-duality gap of an admissible certificate field.

    gap = penalized total - sum_c h^2 <H_c, V_c>; Cauchy-Schwarz per cell
    gives gap >= 0 up to rounding whenever |V_c| <= 1.  A certificate with
    |V_c| > 1 + 1e-12 on some cell, or on another grid than ``u``, is rejected.
    """
    g = u.grid
    _check_same_grid(g, V.grid, EnergyError, "certificate lives on a different grid")
    vn = V.norms()[g.interior_mask]
    if vn.size and float(np.max(vn)) > 1.0 + 1e-12:
        raise EnergyError(
            f"inadmissible certificate: cell norm {float(np.max(vn)):.6g} exceeds 1"
        )
    total = penalized_energy(u, datum, EnergyMode.ISOTROPIC).total
    H = horizontal_field(u).values
    pair = float(
        g.h**2
        * np.sum(np.sum(H * V.values, axis=-1)[g.interior_mask])
    )
    return total - pair


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
    the point the penalty compares against.
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
    Xt, Yt = grid_t.cell_centers()
    tilt = 2.0 * (taustar[0] * Xt + taustar[1] * Yt) + xi
    u_t = ScalarField(grid_t, u.values + tilt)
    faces_t = boundary_faces(grid_t)
    own = faces_t.owner
    tilt_owner = tilt[own[:, 0], own[:, 1]]
    datum_t = BoundaryDatum(faces=faces_t, values=datum.values + tilt_owner)
    return grid_t, u_t, datum_t
