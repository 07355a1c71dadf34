"""Planar domains, their rasterization to uniform cell grids, and boundary data.

Conventions used throughout the package:

* Cells are axis-aligned squares of side ``h``.  Cell ``(i, j)`` has center
  ``origin + ((i + 0.5) h, (j + 0.5) h)``.
* The grid origin is snapped to the ``h``-lattice, so any two grids built with
  the same spacing share one global lattice of cell centers.  Sub-domains and
  lattice translations therefore align cell-for-cell.
* A cell is *interior* exactly when its center satisfies the domain predicate.
* A *boundary face* is the edge between an interior cell (its owner) and an
  exterior 4-neighbor.  Faces carry the unit outward normal, the face midpoint
  and the one-dimensional measure ``h``.
* Boundary values are sampled at face midpoints, which is where the boundary
  penalty of the area functional is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "DomainError",
    "DomainSpec",
    "Grid",
    "BoundaryFaces",
    "BoundaryDatum",
    "rasterize",
    "boundary_faces",
    "sample_datum",
]


class DomainError(ValueError):
    """Raised for invalid domain specifications or unresolvable grids."""


# ---------------------------------------------------------------------------
# domains


def _polygon_even_odd(vertices: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Even-odd membership test; points on an edge count as exterior."""
    inside = np.zeros(x.shape, dtype=bool)
    on_edge = np.zeros(x.shape, dtype=bool)
    n = len(vertices)
    scale = float(np.max(np.abs(vertices))) + 1.0
    tol = 1e-12 * scale
    for k in range(n):
        x0, y0 = vertices[k]
        x1, y1 = vertices[(k + 1) % n]
        # edge crossing for a ray to the right of the point
        crosses = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (x < xi)
        # distance from point to the segment
        ex, ey = x1 - x0, y1 - y0
        L2 = ex * ex + ey * ey
        tt = ((x - x0) * ex + (y - y0) * ey) / L2
        tt = np.clip(tt, 0.0, 1.0)
        dx, dy = x - (x0 + tt * ex), y - (y0 + tt * ey)
        on_edge |= dx * dx + dy * dy <= tol * tol
    return inside & ~on_edge


def _polygon_is_simple(v: np.ndarray) -> bool:
    """Check that no two non-adjacent edges intersect (small n, O(n^2))."""

    def seg_intersect(p, q, r, s):
        def orient(a, b, c):
            return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

        d1, d2 = orient(p, q, r), orient(p, q, s)
        d3, d4 = orient(r, s, p), orient(r, s, q)
        return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))

    n = len(v)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(a - b) in (0, 1) or (a == 0 and b == n - 1):
                continue
            if seg_intersect(v[a], v[(a + 1) % n], v[b], v[(b + 1) % n]):
                return False
    return True


@dataclass(frozen=True)
class DomainSpec:
    """A planar domain: a disk, a simple polygon, or the parabolic lens."""

    kind: str
    center: tuple[float, float] | None = None
    radius: float | None = None
    vertices: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        if self.kind == "disk":
            if self.radius is None or not 0 < self.radius < math.inf:
                raise DomainError(f"disk radius must be positive and finite, got {self.radius}")
            if self.center is None or len(self.center) != 2:
                raise DomainError("disk needs a 2d center")
            if not np.all(np.isfinite(self.center)):
                raise DomainError(f"disk center must be finite, got {self.center}")
        elif self.kind == "polygon":
            v = np.asarray(self.vertices, dtype=float)
            if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
                raise DomainError("polygon needs at least 3 planar vertices")
            if not np.all(np.isfinite(v)):
                raise DomainError("polygon vertices must be finite")
            area2 = float(
                np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
            )
            if area2 <= 0:
                raise DomainError("polygon vertices must wind counterclockwise")
            if not _polygon_is_simple(v):
                raise DomainError("polygon must be simple (no self-intersections)")
        elif self.kind != "parabolic":
            raise DomainError(f"unknown domain kind {self.kind!r}")

    # constructors ---------------------------------------------------------

    @staticmethod
    def disk(center=(0.0, 0.0), radius=1.0) -> "DomainSpec":
        return DomainSpec(kind="disk", center=(float(center[0]), float(center[1])), radius=float(radius))

    @staticmethod
    def polygon(vertices) -> "DomainSpec":
        vs = tuple((float(p[0]), float(p[1])) for p in vertices)
        return DomainSpec(kind="polygon", vertices=vs)

    @staticmethod
    def parabolic() -> "DomainSpec":
        """The region between the parabolas y = x^2 - 1 and y = 1 - x^2."""
        return DomainSpec(kind="parabolic")

    # geometry -------------------------------------------------------------

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Strict-interior membership of points, vectorized."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "disk":
            cx, cy = self.center
            return (x - cx) ** 2 + (y - cy) ** 2 < self.radius**2
        if self.kind == "polygon":
            return _polygon_even_odd(np.asarray(self.vertices, float), x, y)
        return (x * x - 1.0 < y) & (y < 1.0 - x * x)

    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, xmax, ymin, ymax) bounding box."""
        if self.kind == "disk":
            cx, cy = self.center
            r = self.radius
            return (cx - r, cx + r, cy - r, cy + r)
        if self.kind == "polygon":
            v = np.asarray(self.vertices, float)
            return (v[:, 0].min(), v[:, 0].max(), v[:, 1].min(), v[:, 1].max())
        return (-1.0, 1.0, -1.0, 1.0)

    def boundary_points(self, n: int) -> np.ndarray:
        """n points tracing the boundary (used by tests and demos)."""
        t = np.arange(n) / float(n)
        if self.kind == "disk":
            cx, cy = self.center
            ang = 2.0 * math.pi * t
            return np.stack(
                (cx + self.radius * np.cos(ang), cy + self.radius * np.sin(ang)), axis=-1
            )
        if self.kind == "polygon":
            v = np.asarray(self.vertices, float)
            seg = np.roll(v, -1, axis=0) - v
            lens = np.hypot(seg[:, 0], seg[:, 1])
            cum = np.concatenate(([0.0], np.cumsum(lens)))
            s = t * cum[-1]
            k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(v) - 1)
            local = (s - cum[k]) / lens[k]
            return v[k] + local[:, None] * seg[k]
        # the upper arc left to right, then the lower arc right to left
        upper = t < 0.5
        x = np.where(upper, -1.0 + 4.0 * t, 1.0 - 4.0 * (t - 0.5))
        y = np.where(upper, 1.0 - x * x, x * x - 1.0)
        return np.stack((x, y), axis=-1)


# ---------------------------------------------------------------------------
# grids


def _lock(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _neighbor(a: np.ndarray, axis: int, step: int) -> np.ndarray:
    """Each cell's neighbor at ``step`` (+1 or -1) along ``axis``, zero (False)
    past the grid edge; on a mask, the cells whose neighbor there is set.  The
    package's one neighbor rule: faces, stencils and erosion all read it."""
    out = np.zeros_like(a)
    # step +1 copies a[i + 1] into out[i]; step -1 copies a[i - 1]
    src, dst = (slice(1, None), slice(None, -1))[::step]
    np.moveaxis(out, axis, 0)[dst] = np.moveaxis(a, axis, 0)[src]
    return out


@dataclass(eq=False)
class Grid:
    """A uniform cell grid with an interior mask.

    Attributes
    ----------
    h : float
        Cell side length.
    origin : ndarray, shape (2,)
        Lower-left corner of cell (0, 0); a multiple of h on each axis.
    nx, ny : int
        Grid extent in cells along x and y.
    interior_mask : ndarray of bool, shape (nx, ny)
        True where the cell center lies inside the domain.
    """

    h: float
    origin: np.ndarray
    nx: int
    ny: int
    interior_mask: np.ndarray

    def __post_init__(self):
        self.origin = _lock(np.asarray(self.origin, dtype=float).copy())
        m = np.asarray(self.interior_mask, dtype=bool)
        if m.shape != (self.nx, self.ny):
            raise DomainError(
                f"mask shape {m.shape} does not match grid ({self.nx}, {self.ny})"
            )
        self.interior_mask = _lock(m.copy())
        self.xs = _lock(self.origin[0] + (np.arange(self.nx) + 0.5) * self.h)
        self.ys = _lock(self.origin[1] + (np.arange(self.ny) + 0.5) * self.h)

    @property
    def interior_count(self) -> int:
        return int(self.interior_mask.sum())

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrids X, Y of cell centers, shape (nx, ny)."""
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    def interior_centers(self) -> np.ndarray:
        """Centers of interior cells, shape (n_interior, 2), row-major order."""
        X, Y = self.cell_centers()
        m = self.interior_mask
        return np.stack((X[m], Y[m]), axis=-1)


def rasterize(domain: DomainSpec, h: float) -> Grid:
    """Rasterize a domain over its bounding box padded by one cell.

    Cell centers sit on the global lattice h·(k + 1/2); the origin is the
    largest lattice point at least one cell below/left of the bounding box.

    Raises
    ------
    DomainError
        If ``h`` is not positive, or no cell center falls inside the domain
        ("domain unresolved at this resolution").
    """
    if not (h > 0) or not math.isfinite(h):
        raise DomainError(f"cell size must be positive and finite, got {h}")
    xmin, xmax, ymin, ymax = domain.bbox()
    ox = h * (math.floor(xmin / h) - 1)
    oy = h * (math.floor(ymin / h) - 1)
    nx = int(math.ceil((xmax - ox) / h)) + 1
    ny = int(math.ceil((ymax - oy) / h)) + 1
    xs = ox + (np.arange(nx) + 0.5) * h
    ys = oy + (np.arange(ny) + 0.5) * h
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    mask = domain.contains(X, Y)
    if not mask.any():
        raise DomainError(
            f"domain unresolved at h={h}: no cell center lies inside; refine h"
        )
    return Grid(h=h, origin=np.array([ox, oy]), nx=nx, ny=ny, interior_mask=mask)


# ---------------------------------------------------------------------------
# boundary faces


@dataclass(eq=False)
class BoundaryFaces:
    """All boundary faces of a grid, stored as parallel arrays.

    Faces are enumerated deterministically: the four outward directions
    (+x, -x, +y, -y) in order, row-major in the owner cell within each block.
    """

    grid: Grid
    owner: np.ndarray  # (F, 2) int cell indices
    normal: np.ndarray  # (F, 2)
    midpoint: np.ndarray  # (F, 2)
    measure: np.ndarray  # (F,)

    def __post_init__(self):
        for name in ("owner", "normal", "midpoint", "measure"):
            _lock(getattr(self, name))
        flat = np.ravel_multi_index((self.owner[:, 0], self.owner[:, 1]), (self.grid.nx, self.grid.ny))
        # owner's position among the interior cells in row-major order
        self.owner_cell = _lock(np.cumsum(self.grid.interior_mask.ravel())[flat] - 1)

    def __len__(self) -> int:
        return len(self.measure)


# Largest temporary, in doubles, of a points-by-faces computation.  Streaming
# row blocks of this size keeps its peak memory independent of the row count.
_BLOCK_DOUBLES = 1 << 15


def _row_blocks(rows: int, cols: int):
    """Slices covering ``range(rows)`` whose ``(block, cols)`` temporaries hold
    at most ``_BLOCK_DOUBLES`` doubles, or one row when a row alone is larger."""
    step = max(1, _BLOCK_DOUBLES // cols)
    return (slice(i, i + step) for i in range(0, rows, step))


def boundary_faces(grid: Grid) -> BoundaryFaces:
    """Enumerate the faces separating interior cells from exterior neighbors."""
    m = grid.interior_mask
    X, Y = grid.cell_centers()
    owners, normals = [], []
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ii, jj = np.nonzero(m & ~_neighbor(m, 0 if dx else 1, dx + dy))
        owners.append(np.stack((ii, jj), axis=-1))
        normals.append(np.tile(np.array([float(dx), float(dy)]), (len(ii), 1)))
    owner = np.concatenate(owners, axis=0)
    normal = np.concatenate(normals, axis=0)
    centers = np.stack((X[owner[:, 0], owner[:, 1]], Y[owner[:, 0], owner[:, 1]]), axis=-1)
    midpoint = centers + 0.5 * grid.h * normal
    measure = np.full(len(owner), grid.h)
    return BoundaryFaces(grid=grid, owner=owner, normal=normal, midpoint=midpoint, measure=measure)


# ---------------------------------------------------------------------------
# boundary data


@dataclass(eq=False)
class BoundaryDatum:
    """Boundary values attached to the faces of a grid, one per face."""

    faces: BoundaryFaces
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (len(self.faces),):
            raise DomainError(
                f"datum has {v.shape} values for {len(self.faces)} faces"
            )
        if not np.all(np.isfinite(v)):
            k = int(np.nonzero(~np.isfinite(v))[0][0])
            mx, my = self.faces.midpoint[k]
            raise DomainError(
                f"non-finite boundary value at face {k} (midpoint ({mx:g}, {my:g}))"
            )
        self.values = _lock(v.copy())

    @property
    def sup(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


def sample_datum(
    faces: BoundaryFaces, expr: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> BoundaryDatum:
    """Sample a boundary expression at the face midpoints.

    ``expr`` must accept vectorized coordinates and return finite values; a
    non-finite sample raises DomainError naming the offending face.
    """
    return BoundaryDatum(faces=faces, values=_evaluate(expr, *faces.midpoint.T))


def _evaluate(expr, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``expr`` called once on the coordinate arrays ``x`` and ``y``, of any
    one shape, as floats; a scalar return is broadcast to that shape."""
    vals = np.asarray(expr(x, y), dtype=float)
    return np.full(np.shape(x), float(vals)) if vals.shape == () else vals
