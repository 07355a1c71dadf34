"""Scalar and vector fields on cell grids, and the discrete differential ops.

All difference arithmetic goes through one operator ``K`` per grid
(:func:`difference_operator`), built once over the n interior cells in
row-major order and cached on the grid.  Along each axis a cell differences
its forward neighbor against itself, falls back to itself against its
backward neighbor where the forward one is exterior, and gives a zero
component where it is isolated along that axis.  The divergence scatters
each component back to the same two cells with opposite signs, so it is
``-K^T`` by construction and ``<grad u, p> = -<u, div p>`` holds to rounding
for every pair.  The operator also carries the compiled kernels' tables of
:mod:`harea.pdloop` (the rim cells' entries in CSR form, the cells with a
rewritten gradient entry, the stencil's reach), so they too are built once
per grid, and it caches the grid's step-rule estimate; a grid with another's
mask and h, such as a lattice translate, shares the other's operator, and the
estimate with it (:func:`_share_operator`).

The kernels read a regular stencil plus an exact rim.  In row-major order
the axis-1 neighbors of a cell are ``c - 1`` and ``c + 1``, so axis 1 is a
slice difference and only the axis-0 neighbors need an index array; the
compiled kernels read those at the constant step of a run of cells
instead (``DiffOperator.next0_runs`` and ``prev0_runs``).  A cell
is *regular* when it differences forward on both axes, both its predecessors
are interior, and no backward fallback lands on it; its divergence is then
``(p0[c] + p1[c]) - (p0[prev0[c]] + p1[c - 1])``.  The gradient entries that
are not forward differences, and the divergence at the remaining *rim* cells,
are rewritten from index arrays, the rim by a bincount over exactly the
entries that target it in ascending order.  Every value is therefore the
same sum of the same operands, in the same order, as the gather
``u[plus] - u[minus]`` and scatter ``bincount(minus, p) - bincount(plus, p)``
over all 2n entries would give.  Boundary attachment is never encoded in the
operator; it enters the model only through the boundary penalty.

Each kernel is one function: :meth:`DiffOperator.hgrad` and
:meth:`DiffOperator.hdiv` write into output and scratch arrays when they are
given and allocate them otherwise, so the solver's NumPy block runs every
iteration on its own buffers.  ``hgrad``, which also takes a stack (n, B),
is the gradient of the energy's one evaluation ``h sum_c |hgrad(u)_c + h
X*_c|`` (:mod:`harea.energy`), shared by the solver's checkpoints, so a solve
reports ``penalized_energy`` of its answer by bytes.  The public
:func:`gradient` and :func:`divergence` apply ``K`` to full-grid fields.

The operator's forward and fallback masks come from the package's one
neighbor rule, ``geometry._neighbor``.  The one cell norm, ``sqrt(x*x + y*y)``
or ``|x| + |y|`` as :class:`EnergyMode` selects, is :func:`_cell_norms` on
``(2, n)`` vectors; the solver and every diagnostic measure lengths with it.
The step rule :func:`operator_norm_sq` is one power loop whose iterate
proves its own estimate (:func:`_step_rule`); it applies K^T K in the
compiled kernel where the solver's block runs and in NumPy elsewhere, bit
for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import pdloop
from .geometry import Grid, _evaluate, _neighbor

__all__ = [
    "FieldError",
    "EnergyError",
    "EnergyMode",
    "ScalarField",
    "VectorField",
    "star",
    "xstar_field",
    "DiffOperator",
    "difference_operator",
    "interior_xstar",
    "gradient",
    "divergence",
    "lipschitz_estimate",
    "operator_norm_sq",
]


class FieldError(ValueError):
    """Raised for malformed fields and buffers."""


def _check_same_grid(ga, gb, error, message):
    """Raise ``error(message)`` unless the grids have the same h, origin and mask."""
    if ga is gb:
        return
    if ga.nx != gb.nx or ga.ny != gb.ny or ga.h != gb.h or not np.array_equal(
        ga.interior_mask, gb.interior_mask
    ) or not np.array_equal(ga.origin, gb.origin):
        raise error(message)


@dataclass(eq=False)
class ScalarField:
    """A real value per interior cell, stored as a full (nx, ny) array.

    Exterior entries are kept at zero; every operation reads and writes
    interior cells only.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nx, self.grid.ny):
            raise FieldError(f"values shape {v.shape} != grid shape")
        out = np.where(self.grid.interior_mask, v, 0.0)
        if not np.all(np.isfinite(out)):
            raise FieldError("non-finite value on an interior cell")
        self.values = out

    # constructors ---------------------------------------------------------

    @staticmethod
    def from_function(grid: Grid, f: Callable) -> "ScalarField":
        return ScalarField(grid, _evaluate(f, *grid.cell_centers()))

    @staticmethod
    def from_interior(grid: Grid, v: np.ndarray) -> "ScalarField":
        """Scatter interior values (row-major cell order) onto the grid."""
        out = np.zeros((grid.nx, grid.ny))
        out[grid.interior_mask] = v
        return ScalarField(grid, out)

    # helpers --------------------------------------------------------------

    def interior(self) -> np.ndarray:
        """Interior values as a 1d array in row-major cell order."""
        return self.values[self.grid.interior_mask]


@dataclass(eq=False)
class VectorField:
    """A 2-vector per interior cell, stored as a full (nx, ny, 2) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.nx, self.grid.ny, 2):
            raise FieldError(f"values shape {v.shape} != grid vector shape")
        out = np.where(self.grid.interior_mask[..., None], v, 0.0)
        if not np.all(np.isfinite(out)):
            raise FieldError("non-finite vector on an interior cell")
        self.values = out

    @staticmethod
    def from_interior(grid: Grid, v: np.ndarray) -> "VectorField":
        """Scatter interior vectors (row-major cell order) onto the grid."""
        out = np.zeros((grid.nx, grid.ny, 2))
        for a in (0, 1):
            out[..., a][grid.interior_mask] = v[:, a]
        return VectorField(grid, out)

    def interior(self) -> np.ndarray:
        """Interior vectors, shape (n, 2), in row-major cell order."""
        # per component: masking the (nx, ny, 2) array by the (nx, ny) mask
        # takes NumPy's slow path, several times slower than two 2d masks
        m = self.grid.interior_mask
        return np.stack((self.values[..., 0][m], self.values[..., 1][m]), axis=-1)


# ---------------------------------------------------------------------------
# pointwise algebra


def star(z: np.ndarray) -> np.ndarray:
    """Quarter-turn rotation (x, y) -> (-y, x), acting on the last axis.

    Identities (used throughout the tests): star(star(z)) = -z;
    <z, star(z)> = 0; <star(a), star(b)> = <a, b>.
    """
    z = np.asarray(z, dtype=float)
    return np.stack((-z[..., 1], z[..., 0]), axis=-1)


def xstar_field(grid: Grid) -> VectorField:
    """The drift field X*(x, y) = 2(-y, x) sampled at interior cell centers."""
    return VectorField.from_interior(grid, interior_xstar(grid).T)


# ---------------------------------------------------------------------------
# difference operators


@dataclass(frozen=True, eq=False)
class DiffOperator:
    """The difference operator K on the n interior cells, row-major order.

    A regular cell (see the module docstring) is computed from slices and one
    gather; every other entry is rewritten exactly from index arrays:

    * ``next0`` (n,): the forward neighbor along axis 0, the cell itself where
      there is none (the entry is then rewritten).
    * ``prev0`` (n,): the backward neighbor along axis 0 of a regular cell,
      the cell itself elsewhere.
    * ``edge`` with ``edge_cells`` (2, m): the flat indices into a (2, n)
      gradient of the entries that are not forward differences, and the
      cells they difference, row 0 minus row 1: (c, previous) for the
      backward fallback, (c, c) for a cell isolated along that axis.  The
      compiled kernels write these entries at the same indices.
    * ``rim`` (the cells that are not regular) with ``rim_ptr``,
      ``rim_src`` and ``rim_bins``: rim cell ``r`` adds the entries of a
      (2, n) vector field at the flat indices
      ``rim_src[rim_ptr[2r]:rim_ptr[2r + 1]]`` and subtracts those at
      ``rim_src[rim_ptr[2r + 1]:rim_ptr[2r + 2]]``, each side in ascending
      order; ``rim_bins`` is each entry's bin, ``2r`` or ``2r + 1``, for a
      bincount that sums every side in that order.
    * ``fix``: the cells with a rewritten gradient entry, ascending.
    * ``reach``: the stencil's reach, the largest step from a cell to a cell
      its gradient or divergence reads, at least 1.
    * ``next0_runs`` and ``prev0_runs`` (2, k): the cells split into runs
      of one axis-0 step, ``next0[c] - c`` and ``c - prev0[c]``; row 0 holds
      each run's end (exclusive, the last is n) and row 1 its step.  A fix
      cell (for ``next0``) or a rim cell (for ``prev0``), whose entry the
      kernels rewrite, carries on the step of the cell before it, 0 before
      the first such step or where it would read past the last cell, so a
      row of a convex mask is one run.  Every step is in [0, ``reach``] and
      every cell it reads in [0, n) (:func:`_runs`).

    The compiled kernels (:mod:`harea.pdloop`) read these tables, and only
    they read ``rim_ptr``, ``fix``, ``reach`` and the runs; their cell
    loops read the axis-0 neighbor at a run's constant step, and ``next0``
    only at the fix cells.  Being part of the cached operator, all are
    built once per grid.  The operator also caches the
    step-rule estimate of :func:`operator_norm_sq`, which depends on nothing
    else.
    """

    next0: np.ndarray
    prev0: np.ndarray
    edge: np.ndarray
    edge_cells: np.ndarray
    rim: np.ndarray
    rim_ptr: np.ndarray
    rim_src: np.ndarray
    rim_bins: np.ndarray
    fix: np.ndarray
    reach: int
    next0_runs: np.ndarray
    prev0_runs: np.ndarray
    h: float

    @property
    def n(self) -> int:
        return self.next0.size

    def grad(self, u: np.ndarray) -> np.ndarray:
        """K u: interior values (n,) to interior gradients (2, n)."""
        return self.hgrad(u) / self.h

    def div(self, p: np.ndarray) -> np.ndarray:
        """-K^T p: interior vectors (2, n) to interior values (n,)."""
        return self.hdiv(p) / self.h

    def hgrad(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """h K u: interior values (n,), or a stack (n, B) of them, to interior
        gradients (2, n) or (2, n, B), column by column alike, written into
        ``out`` (a C-contiguous array of that shape) when it is given."""
        if out is None:
            out = np.empty((2, *u.shape))
        elif not out.flags.c_contiguous:
            raise FieldError("hgrad writes into a C-contiguous array of shape (2, *u.shape)")
        # mode="clip" lets take write straight into out; the indices are in range
        u.take(self.next0, axis=0, out=out[0], mode="clip")
        np.subtract(out[0], u, out=out[0])
        np.subtract(u[1:], u[:-1], out=out[1, :-1])
        ends = u.take(self.edge_cells, axis=0)
        # a fancy setitem costs about half as much as ndarray.put here
        out.reshape(2 * self.n, *u.shape[1:])[self.edge] = ends[0] - ends[1]
        return out

    def hdiv(self, p: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
        """h times the divergence of ``p`` (2, n), written into ``out`` (n,)
        when it is given; ``scratch`` (n,) is overwritten."""
        out = np.empty(self.n) if out is None else out
        back = np.empty(self.n) if scratch is None else scratch
        np.add(p[0], p[1], out=out)
        p[0].take(self.prev0, out=back, mode="clip")
        np.add(back[1:], p[1, :-1], out=back[1:])
        np.subtract(out, back, out=out)
        s = np.bincount(self.rim_bins, p.take(self.rim_src), 2 * self.rim.size)
        out[self.rim] = s[0::2] - s[1::2]
        return out


def difference_operator(grid: Grid) -> DiffOperator:
    """The grid's difference operator, built once and cached on the grid."""
    cached = getattr(grid, "_K", None)
    if cached is not None:
        return cached
    m = grid.interior_mask
    cell = np.arange(int(m.sum()))
    local = np.full(m.shape, -1, dtype=np.intp)
    local[m] = cell
    # plus[a, c] - minus[a, c] is component a of the gradient at c
    plus = np.stack((cell, cell))
    minus = plus.copy()
    for a in (0, 1):
        # forward difference where possible, backward fallback otherwise
        fwd = m & _neighbor(m, a, 1)
        bwd = m & ~fwd & _neighbor(m, a, -1)
        plus[a, fwd[m]] = _neighbor(local, a, 1)[fwd]
        minus[a, bwd[m]] = _neighbor(local, a, -1)[bwd]
    forward = plus != cell
    # prev[a, c]: the cell whose forward difference along a lands on c, or -1
    prev = np.full_like(plus, -1)
    for a in (0, 1):
        prev[a, plus[a, forward[a]]] = cell[forward[a]]
    regular = forward.all(axis=0) & (prev >= 0).all(axis=0)
    regular[minus[minus != cell]] = False  # targets of a backward fallback
    prev0 = np.where(regular, prev[0], cell)
    rim = np.flatnonzero(~regular)
    slot = np.full(cell.size, -1, dtype=np.intp)
    slot[rim] = np.arange(rim.size)
    # the entries each rim cell adds (bin 2r) and subtracts (bin 2r + 1),
    # ascending within a bin: a stable sort of the ascending entries by bin
    entries, bins = [], []
    for side, idx in enumerate((minus.ravel(), plus.ravel())):
        sel = np.flatnonzero(~regular[idx])
        entries.append(sel)
        bins.append(2 * slot[idx[sel]] + side)
    entries, bins = np.concatenate(entries), np.concatenate(bins)
    order = np.argsort(bins, kind="stable")
    edge = np.flatnonzero(~forward)
    fix = ~forward.all(axis=0)
    # the largest step to a forward neighbor, along axis 0 (next0) or axis 1
    reach = max(1, int((plus[0] - cell).max(initial=0)), int((cell - prev0).max(initial=0)))
    K = DiffOperator(
        next0=plus[0].copy(),  # a view would keep all of plus alive
        prev0=prev0,
        edge=edge,
        edge_cells=np.stack((plus.ravel()[edge], minus.ravel()[edge])),
        rim=rim,
        rim_ptr=np.concatenate((np.zeros(1, np.intp), np.cumsum(np.bincount(bins, minlength=2 * rim.size)))),
        rim_src=entries[order],
        rim_bins=bins[order],
        # the cells of the edge entries; np.unique(edge % n) would add about 1.2 MB to peak RSS
        fix=np.flatnonzero(fix),
        reach=reach,
        next0_runs=_runs(plus[0] - cell, fix, 1, reach),
        prev0_runs=_runs(cell - prev0, ~regular, -1, reach),
        h=grid.h,
    )
    object.__setattr__(grid, "_K", K)
    return K


def _runs(step: np.ndarray, free: np.ndarray, sign: int, reach: int) -> np.ndarray:
    """The runs of one axis-0 ``step`` (n,) over the cells, (2, k): each
    run's end, then its step.  A ``free`` cell carries on the step of the
    cell before it, or 0 where there is none or the cell ``c + sign * step``
    it would read is not one of the n."""
    cell = np.arange(step.size)
    last = np.maximum.accumulate(np.where(free, -1, cell))
    step = np.where(last >= 0, step[last], 0)
    read = cell + sign * step
    step[(read < 0) | (read >= step.size)] = 0
    # pdloop.c's sweep needs every step within the reach: see its header
    assert ((0 <= step) & (step <= reach)).all()
    ends = np.flatnonzero(np.diff(step, append=-1)) + 1
    return np.stack((ends, step[ends - 1]))


def _share_operator(grid: Grid, source: Grid) -> None:
    """Give ``grid`` the difference operator of ``source``, a grid with the
    same mask and h, and with it the step-rule estimate the operator caches:
    both depend on nothing else."""
    object.__setattr__(grid, "_K", difference_operator(source))


def interior_xstar(grid: Grid) -> np.ndarray:
    """X* at the interior cell centers, component-major (2, n), read-only;
    equal to ``xstar_field(grid).interior().T`` and cached on the grid."""
    cached = getattr(grid, "_xstar", None)
    if cached is not None:
        return cached
    x, y = grid.interior_centers().T
    xs = np.stack((-2.0 * y, 2.0 * x))
    xs.setflags(write=False)
    object.__setattr__(grid, "_xstar", xs)
    return xs


def _hxstar(grid: Grid) -> np.ndarray:
    """h X* (2, n), read-only and 64-byte aligned for the compiled block,
    cached on the grid beside X* (so a translated grid has its own)."""
    hxs = getattr(grid, "_hxs", None)
    if hxs is None:
        hxs = np.multiply(grid.h, interior_xstar(grid), out=pdloop._aligned(2, grid.interior_count))
        hxs.setflags(write=False)
        object.__setattr__(grid, "_hxs", hxs)
    return hxs


class EnergyError(ValueError):
    """Raised for inadmissible certificates or malformed energy inputs."""


class EnergyMode(enum.Enum):
    """Cell norm used by the area term: Euclidean or l1."""

    ISOTROPIC = "iso"
    ANISOTROPIC = "aniso"

    @staticmethod
    def parse(s) -> "EnergyMode":
        try:
            return EnergyMode(s)
        except ValueError:
            raise EnergyError(f"unknown energy mode {s!r} (expected 'iso' or 'aniso')") from None


def _cell_norms(v: np.ndarray, mode: EnergyMode, scratch: np.ndarray | None = None) -> np.ndarray:
    """Per-cell norms (n,) of component-major vectors ``v`` (2, n):
    ``sqrt(x*x + y*y)`` or ``|x| + |y|``, returned in ``scratch[0]`` when a
    (2, n) ``scratch`` is given."""
    iso = mode is EnergyMode.ISOTROPIC
    scratch = np.empty_like(v) if scratch is None else scratch
    (np.square if iso else np.abs)(v, out=scratch)
    s = np.add(scratch[0], scratch[1], out=scratch[0])
    return np.sqrt(s, out=s) if iso else s


def gradient(u: ScalarField) -> VectorField:
    """Per-cell difference gradient (forward, with backward fallback at the rim)."""
    return VectorField.from_interior(u.grid, difference_operator(u.grid).grad(u.interior()).T)


def divergence(p: VectorField) -> ScalarField:
    """Exact negative adjoint of :func:`gradient` under the cell inner product."""
    return ScalarField.from_interior(p.grid, difference_operator(p.grid).div(p.interior().T))


def lipschitz_estimate(u: ScalarField) -> float:
    """Largest Euclidean gradient length over interior cells."""
    K = difference_operator(u.grid)
    return float(np.max(_cell_norms(K.grad(u.interior()), EnergyMode.ISOTROPIC), initial=0.0))


_POWER_STEPS = 60
_POWER_MARGIN = 1.02  # the power value's safety factor, which the bound checks
# the loop's step cap; the bound proves the estimate at step 60 on every
# grid tested, the disk, lens and square at h = 1/4 to 1/256 among them
_GUARD_STEPS = 200


def _checkerboard(grid: Grid) -> np.ndarray:
    """1 - 2((i + j) mod 2) over the interior cells (i, j), row-major."""
    return 1.0 - 2.0 * (np.add(*np.nonzero(grid.interior_mask)) % 2)


def operator_norm_sq(grid: Grid) -> float:
    """The step rule's proven upper bound on ||gradient||^2, the estimate
    of :func:`_step_rule`, cached on the grid's operator, so a grid that
    shares the operator (:func:`_share_operator`) shares the estimate."""
    K = difference_operator(grid)
    cached = getattr(K, "_norm_sq", None)
    if cached is None:
        cached = _step_rule(grid)[0]
        object.__setattr__(K, "_norm_sq", cached)
    return cached


def _step_rule(grid: Grid, until: float | None = None) -> tuple[float, float]:
    """``(estimate, bound)``: the step rule's estimate of the largest
    eigenvalue of K^T K and the Collatz-Wielandt bound that proves it, from
    one power loop.

    Each step applies ``w = -K.div(K.grad(v))`` (in :mod:`harea.pdloop`'s
    kernel where it loads, rounded alike), then ``v = w / |w|``, from the
    unit checkerboard (:func:`_checkerboard`, the top eigenvector of K^T K
    on a periodic grid).  The estimate is ``|w|`` at step ``_POWER_STEPS``,
    or where ``w = 0``, times the 2% margin, floored at the uniform-grid
    8/h^2: a power value approaches the norm from below.  With S the
    checkerboard signs, S K^T K S has no negative entry, since every nonzero
    row of K differences two axis neighbors, which have opposite signs; so
    every iterate is S times a nonnegative vector, and from step
    ``_POWER_STEPS`` on, max w_c / v_c over the cells with ``v_c != 0`` is
    at least the eigenvalue.  (v is 0 exactly at the cells isolated along
    both axes, which K leaves out.)  The loop stops once that bound is at
    or below ``until``, the estimate by default; after ``_GUARD_STEPS``
    steps it lifts the estimate to the bound.  The start is normalized by a
    pairwise sum, as each step is, not by BLAS, whose order depends on its
    thread count, and draws no random numbers (no solve imports
    ``numpy.random``).
    """
    K = difference_operator(grid)
    apply = pdloop.normal_operator(K) or (lambda v: -K.div(K.grad(v)))
    v = _checkerboard(grid)
    v /= np.sqrt(np.add.reduce(v * v))
    squares = np.empty(K.n)
    for step in range(1, _GUARD_STEPS + 1):
        w = apply(v)
        lam = float(np.sqrt(np.add.reduce(np.multiply(w, w, out=squares))))
        if step <= _POWER_STEPS:
            est = max(lam * _POWER_MARGIN, 8.0 / grid.h**2)
        if step >= _POWER_STEPS or lam == 0:
            bound = float(np.max(w[v != 0] / v[v != 0], initial=0.0))
            if bound <= (est if until is None else until):
                return est, bound
        np.divide(w, lam, out=v)
    return max(est, bound), bound
