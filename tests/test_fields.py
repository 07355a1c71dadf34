import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harea.fields as fields_module
from harea import (
    DomainSpec,
    Grid,
    ScalarField,
    SolverConfig,
    VectorField,
    boundary_faces,
    divergence,
    es1_datum,
    gradient,
    lipschitz_estimate,
    operator_norm_sq,
    rasterize,
    sample_datum,
    solve,
    star,
    xstar_field,
)
from harea.fields import FieldError, _cw_bound, _hxstar, difference_operator, interior_xstar
from oracles import (
    allocating_operator_norm_sq,
    bincount_hdiv,
    checkerboard,
    dense_normal_matrix,
    index_cw_bound,
    index_operator,
    loop_gradient,
    take_hgrad,
)
from test_pdloop import holes, notched, one_cell_rows, ragged, small_disk, staggered, tiny


def full_grid(n, h=1.0, origin=(0.0, 0.0)):
    return Grid(h=h, origin=np.asarray(origin, float), nx=n, ny=n,
                interior_mask=np.ones((n, n), dtype=bool))


def test_star_rotates_left():
    assert tuple(star((1.0, 0.0))) == (0.0, 1.0)
    assert tuple(star((0.0, 1.0))) == (-1.0, 0.0)
    v = np.array([0.3, -2.0])
    assert np.allclose(star(star(v)), -v)
    assert np.dot(star(v), v) == 0.0


def test_xstar_field_values():
    grid = full_grid(2, h=0.5, origin=(0.0, 0.5))
    xs = xstar_field(grid)
    # cell (0, 1): center (0.25, 1.25); X* = 2*(-y, x)
    assert np.allclose(xs.values[0, 1], (-2.5, 0.5))


def test_interior_xstar_is_the_field_on_interior_cells():
    grid = rasterize(DomainSpec.parabolic(), 1 / 32)
    xs = interior_xstar(grid)
    ref = xstar_field(grid).interior().T
    assert xs.shape == (2, grid.interior_count)
    assert np.array_equal(xs.view(np.int64), ref.view(np.int64))
    assert interior_xstar(grid) is xs and not xs.flags.writeable
    # the full-grid field is the closed form 2(-y, x) bit for bit, zero outside
    X, Y = grid.cell_centers()
    inline = np.where(grid.interior_mask[..., None], np.stack((-2.0 * Y, 2.0 * X), axis=-1), 0.0)
    assert np.array_equal(xstar_field(grid).values.view(np.int64), inline.view(np.int64))


def test_gradient_forward_difference_hand_case():
    grid = full_grid(3, h=0.5)
    u = ScalarField(grid, np.arange(9, dtype=float).reshape(3, 3))
    g = gradient(u)
    # values[i, j] = 3i + j: forward x-difference 3/h = 6, y-difference 1/h = 2
    assert np.allclose(g.values[0, 0], (6.0, 2.0))
    # last row/column fall back to the backward difference, same slopes here
    assert np.allclose(g.values[2, 2], (6.0, 2.0))


def test_gradient_of_affine_is_exact():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    u = ScalarField.from_function(grid, lambda x, y: 2.0 * x - 0.7 * y + 0.3)
    g = gradient(u)
    m = grid.interior_mask
    assert np.allclose(g.values[m, 0], 2.0, atol=1e-12)
    assert np.allclose(g.values[m, 1], -0.7, atol=1e-12)


def test_lipschitz_estimate_affine():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    u = ScalarField.from_function(grid, lambda x, y: x - 2.0 * y)
    assert lipschitz_estimate(u) == pytest.approx(np.sqrt(5.0), rel=1e-12)


def test_divergence_is_negative_adjoint():
    """<Du, p> + <u, div p> must vanish identically; this adjointness is what
    makes the primal-dual iteration minimize the intended functional."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    rng = np.random.default_rng(5)
    m = grid.interior_mask
    for _ in range(25):
        uv = np.zeros((grid.nx, grid.ny))
        uv[m] = rng.standard_normal(m.sum())
        pv = np.zeros((grid.nx, grid.ny, 2))
        pv[m] = rng.standard_normal((m.sum(), 2))
        u = ScalarField(grid, uv)
        p = VectorField(grid, pv)
        lhs = float(np.sum(gradient(u).values * p.values))
        rhs = float(np.sum(u.values * divergence(p).values))
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs + rhs) <= 1e-12 * scale


# Hand-drawn masks, row k of a picture holding the cells (k, j); the shapes
# are not square so a swapped axis shows.
HAND_MASKS = {
    # every cell isolated along both axes
    "diagonal": ["#....", ".#...", "..#..", "...#."],
    # one cell wide: isolated along x, forward/backward along y
    "column": ["......", "######", "......"],
    # backward fallback on the far rim of each run, plus isolated cells
    "ragged": ["##.#..", "###.##", ".#..#.", "##.###", "#....#"],
}


def hand_grid(name, h=0.25):
    mask = np.array([[c == "#" for c in row] for row in HAND_MASKS[name]])
    return Grid(h=h, origin=np.zeros(2), nx=mask.shape[0], ny=mask.shape[1], interior_mask=mask)


def random_pair(grid, rng):
    m = grid.interior_mask
    uv = np.zeros((grid.nx, grid.ny))
    uv[m] = rng.standard_normal(m.sum())
    pv = np.zeros((grid.nx, grid.ny, 2))
    pv[m] = rng.standard_normal((m.sum(), 2))
    return ScalarField(grid, uv), VectorField(grid, pv)


@pytest.mark.parametrize("name", sorted(HAND_MASKS))
def test_gradient_matches_loop_referee(name):
    grid = hand_grid(name)
    rng = np.random.default_rng(3)
    for _ in range(5):
        u, _ = random_pair(grid, rng)
        ref = loop_gradient(grid.interior_mask, grid.h, u.values)
        assert np.array_equal(gradient(u).values, ref)


def test_hand_masks_cover_every_stencil_branch():
    """Forward, backward-fallback and isolated cells occur along both axes."""
    for a in (0, 1):
        kinds = set()
        for name in HAND_MASKS:
            m = np.moveaxis(hand_grid(name).interior_mask, a, 0)
            fwd = m & np.pad(m[1:], ((0, 1), (0, 0)))
            prev = np.pad(m[:-1], ((1, 0), (0, 0)))
            branches = {"forward": fwd, "backward": m & ~fwd & prev, "isolated": m & ~fwd & ~prev}
            kinds |= {kind for kind, sel in branches.items() if sel.any()}
        assert kinds == {"forward", "backward", "isolated"}


@pytest.mark.parametrize("name", sorted(HAND_MASKS))
def test_divergence_is_negative_adjoint_on_hand_masks(name):
    grid = hand_grid(name)
    rng = np.random.default_rng(7)
    for _ in range(25):
        u, p = random_pair(grid, rng)
        lhs = float(np.sum(gradient(u).values * p.values))
        rhs = float(np.sum(u.values * divergence(p).values))
        assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


OPERATOR_GRIDS = {
    **{name: lambda name=name: hand_grid(name) for name in HAND_MASKS},
    "lens32": lambda: rasterize(DomainSpec.parabolic(), 1 / 32),
    "lens64": lambda: rasterize(DomainSpec.parabolic(), 1 / 64),
    "disk24": lambda: rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 24),
}


@pytest.mark.parametrize("name", sorted(OPERATOR_GRIDS))
def test_operator_matches_index_referee(name):
    """The slice-and-rim kernels give the index-array forms' results exactly,
    on inputs with zeros and with entries near 1e150, called with fresh
    outputs and on reused output and scratch buffers as the solver's loop
    calls them."""
    grid = OPERATOR_GRIDS[name]()
    K = difference_operator(grid)
    plus, minus = index_operator(grid)
    rng = np.random.default_rng(13)
    n = grid.interior_count
    # the same buffers on every call, as the NumPy block passes them
    u_buf, p_buf, h_out, d_out, scratch = np.empty(n), np.empty((2, n)), np.empty((2, n)), np.empty(n), np.empty(n)
    for scale in (1.0, 1e150):
        for _ in range(3):
            u = scale * rng.standard_normal(n)
            u[rng.random(n) < 0.2] = 0.0
            p = scale * rng.standard_normal((2, n))
            p[rng.random((2, n)) < 0.2] = 0.0
            assert np.array_equal(K.hgrad(u), take_hgrad(plus, minus, u))
            assert np.array_equal(K.hdiv(p), bincount_hdiv(plus, minus, p))
            u_buf[...], p_buf[...] = u, p
            assert K.hgrad(u_buf, h_out) is h_out and np.array_equal(h_out, take_hgrad(plus, minus, u))
            assert K.hdiv(p_buf, d_out, scratch) is d_out and np.array_equal(d_out, bincount_hdiv(plus, minus, p))
    # the gradient's rim is written through a flat view, which a strided out lacks
    with pytest.raises(FieldError, match="C-contiguous"):
        K.hgrad(u_buf, np.empty((n, 2)).T)


def test_divergence_supported_on_interior():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    p = VectorField(grid, np.ones((grid.nx, grid.ny, 2)))
    d = divergence(p)
    assert np.all(d.values[~grid.interior_mask] == 0.0)


@pytest.mark.parametrize(
    "domain, inv_h",
    [(DomainSpec.parabolic(), 32), (DomainSpec.parabolic(), 64),
     (DomainSpec.disk((0.0, 0.0), 1.0), 24), (DomainSpec.disk((0.0, 0.0), 1.0), 64),
     *(pytest.param(mask, None, id=mask.__name__)
       for mask in (notched, ragged, tiny, holes, staggered, one_cell_rows, small_disk)),
     pytest.param(DomainSpec.disk((0.0, 0.0), 1.0), 40, id="disk-40")],
)
def test_operator_norm_sq_matches_the_allocating_loop_bitwise(each_kernel_path, domain, inv_h):
    """The estimate is the same double, by bytes, in the host build, in the
    portable build and in the NumPy loop, on the lens and disk grids and on
    the compiled block's referee masks (test_pdloop): a polygon spike, cells
    isolated along either axis, two cells, random holes, run ends on chunk
    ends, one-cell rows, and fewer cells than the sweep's lead.  The referee has
    no guard, so this also shows the guard leaves each estimate as it is,
    on the h = 1/40 disk too, whose estimate is 0.031% above the true norm."""
    grid_of = (lambda: domain()[0]) if inv_h is None else (lambda: rasterize(domain, 1.0 / inv_h))
    ref = allocating_operator_norm_sq(grid_of())
    for path in each_kernel_path():
        assert np.float64(operator_norm_sq(grid_of())).tobytes() == np.float64(ref).tobytes(), path


def test_operator_norm_sq_of_one_interior_cell_is_the_floor(each_kernel_path):
    """One interior cell has no difference, so the first power step ends the
    loop at lambda = 0 and every path returns the floor 8/h^2."""
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    for path in each_kernel_path():
        grid = Grid(h=0.25, origin=np.zeros(2), nx=3, ny=3, interior_mask=mask)
        assert operator_norm_sq(grid) == allocating_operator_norm_sq(grid) == 8.0 / 0.25**2, path


ESTIMATES = """
from harea import DomainSpec, operator_norm_sq, rasterize
square = DomainSpec.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
for domain, inv_h in ((DomainSpec.parabolic(), 112), (square, 96)):
    print(float(operator_norm_sq(rasterize(domain, 1 / inv_h))).hex())
"""


def test_operator_norm_sq_is_the_same_at_one_and_two_blas_threads():
    """The start vector is normalized by a pairwise sum, not by a BLAS dot
    product, which sums in another order on more threads: on the h = 1/112
    lens and the h = 1/96 square, where that order moved the estimate by an
    ulp, one and two OpenBLAS threads give the same bytes."""
    src = str(Path(fields_module.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        run = subprocess.run([sys.executable, "-c", ESTIMATES], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        runs.append(run.stdout)
    assert runs[0] == runs[1] and len(runs[0].split()) == 2


def test_the_step_rule_and_a_solve_call_no_blas_norm(monkeypatch):
    """Neither a fresh grid's estimate nor a solve calls ``np.linalg.norm``."""

    def blas(*args, **kwargs):
        raise AssertionError("np.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", blas)
    grid = rasterize(DomainSpec.parabolic(), 1 / 16)
    assert operator_norm_sq(grid) > 8.0 / grid.h**2
    rep = solve(grid, sample_datum(boundary_faces(grid), es1_datum), SolverConfig(max_iters=100))
    assert rep.iterations == 100


def disk16():
    return rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)


REFEREE_GRIDS = [*(pytest.param(lambda mask=mask: mask()[0], id=mask.__name__)
                   for mask in (tiny, ragged, notched, holes)), disk16]


@pytest.mark.parametrize("grid_of", REFEREE_GRIDS)
def test_step_rule_estimate_and_bound_reach_the_dense_spectrum(grid_of):
    """Against the largest eigenvalue of K^T K from a dense eigensolver: the
    sign-flipped M = S K^T K S has no negative entry, the shipped estimate
    is at least that eigenvalue, and so is the Collatz-Wielandt bound, both
    where it stops under the estimate and after all its steps, where it is
    within 1% of the eigenvalue."""
    grid = grid_of()
    KtK = dense_normal_matrix(grid)
    S = checkerboard(grid)
    assert (S[:, None] * KtK * S[None, :]).min() >= 0.0
    lam = np.linalg.eigvalsh(KtK)[-1]
    est = operator_norm_sq(grid)
    assert est >= lam
    assert lam * (1 - 1e-12) <= _cw_bound(grid, est) <= est
    assert lam * (1 - 1e-12) <= _cw_bound(grid, 0.0) <= 1.01 * lam


@pytest.mark.parametrize("grid_of", [
    *REFEREE_GRIDS,
    pytest.param(lambda: rasterize(DomainSpec.parabolic(), 1 / 32), id="lens32"),
    pytest.param(lambda: rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 40), id="disk40"),
])
def test_step_rule_guard_equals_the_index_referee_bitwise(grid_of):
    """The guard's bound is the index referee's double, by bytes: after all
    its steps (``est`` = 0) and where it stops under the shipped estimate."""
    grid = grid_of()
    for est in (0.0, operator_norm_sq(grid)):
        bound = np.float64(_cw_bound(grid, est)).tobytes()
        assert bound == np.float64(index_cw_bound(grid, est)).tobytes(), est


def test_step_rule_guard_lifts_an_unsafe_estimate(monkeypatch):
    """With the power value's 2% margin patched to -2%, the estimate falls
    below the largest eigenvalue of K^T K; the guard then runs all its steps
    and returns its bound, which reaches the eigenvalue."""
    shipped = operator_norm_sq(disk16())
    calls = []

    def spy(grid, est):
        calls.append((est, _cw_bound(grid, est)))
        return calls[-1][1]

    monkeypatch.setattr(fields_module, "_POWER_MARGIN", 0.98)
    monkeypatch.setattr(fields_module, "_cw_bound", spy)
    grid = disk16()
    lifted = operator_norm_sq(grid)
    lam = np.linalg.eigvalsh(dense_normal_matrix(grid))[-1]
    (est, bound), = calls
    assert est == pytest.approx(shipped / 1.02 * 0.98, rel=1e-12) and est < lam
    assert lifted == bound >= lam * (1 - 1e-12)


@pytest.mark.parametrize("grid_of", [*REFEREE_GRIDS, pytest.param(
    lambda: rasterize(DomainSpec.parabolic(), 1 / 32), id="lens32")])
def test_hxstar_is_cached_read_only_aligned_h_times_xstar(grid_of):
    """The grid's h X* equals ``grid.h * interior_xstar(grid)`` by bytes, is
    read-only, C-contiguous and 64-byte aligned (the compiled block reads it
    in place), and is built once per grid."""
    grid = grid_of()
    hxs = _hxstar(grid)
    assert hxs.tobytes() == (grid.h * interior_xstar(grid)).tobytes()
    assert hxs.shape == (2, grid.interior_count) and hxs.flags.c_contiguous
    assert not hxs.flags.writeable and hxs.ctypes.data % 64 == 0
    assert _hxstar(grid) is hxs


def test_operator_norm_sq_bounds():
    """The shifted-difference operator norm exceeds the all-interior 8/h^2
    because rim cells reuse their only neighbor for both stencils; the cached
    estimate must still be a true upper bound for the step-size rule."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    L2 = operator_norm_sq(grid)
    assert L2 >= 8.0 / grid.h**2
    # brute-force power iteration, independent of the library's own
    rng = np.random.default_rng(11)
    m = grid.interior_mask
    v = np.zeros((grid.nx, grid.ny))
    v[m] = rng.standard_normal(m.sum())
    lam = 0.0
    for _ in range(300):
        w = divergence(VectorField(grid, gradient(ScalarField(grid, v)).values))
        nv = -w.values  # D^T D = -div grad
        lam = float(np.sqrt(np.sum(nv[m] ** 2) / np.sum(v[m] ** 2)))
        v = np.zeros_like(v)
        v[m] = nv[m] / np.linalg.norm(nv[m])
    assert lam <= L2 * (1.0 + 1e-6)
    assert lam >= 0.9 * L2  # the estimate is not wildly conservative


def test_scalar_field_rejects_nan_inside():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    bad = np.zeros((grid.nx, grid.ny))
    bad[grid.interior_mask] = np.nan
    with pytest.raises(Exception):
        ScalarField(grid, bad)


def test_field_values_zeroed_outside():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    u = ScalarField(grid, np.full((grid.nx, grid.ny), 7.0))
    assert np.all(u.values[~grid.interior_mask] == 0.0)
    assert np.all(u.values[grid.interior_mask] == 7.0)


def test_vector_field_masks_exterior_and_rejects_nan_inside():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    m = grid.interior_mask
    v = np.full((grid.nx, grid.ny, 2), np.nan)
    v[m] = (1.0, -2.0)
    p = VectorField(grid, v)
    assert np.all(p.values[~m] == 0.0)
    assert np.array_equal(p.interior(), np.tile((1.0, -2.0), (m.sum(), 1)))
    i, j = np.argwhere(m)[0]
    v[i, j, 1] = np.nan
    with pytest.raises(FieldError, match="non-finite"):
        VectorField(grid, v)
