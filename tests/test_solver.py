import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import harea
from harea import (
    BoundaryDatum,
    DomainSpec,
    EnergyMode,
    Grid,
    ScalarField,
    SolverConfig,
    SolverError,
    VectorField,
    balanced_steps,
    boundary_faces,
    operator_norm_sq,
    penalized_energy,
    prox_dual,
    prox_primal,
    rasterize,
    refine_study,
    sample_datum,
    solve,
    solver_tolerance,
)
from harea.energy import _cell_norms
from harea.solver import _project_dual
from harea.surfaces import Affine, es1_datum


def one_cell_grid(center, h=1.0):
    origin = (center[0] - h / 2, center[1] - h / 2)
    return Grid(h=h, origin=np.asarray(origin), nx=1, ny=1,
                interior_mask=np.ones((1, 1), dtype=bool))


# ---------------------------------------------------------------------------
# proximal maps


def test_prox_dual_projects_shifted_point():
    # cell center (1, 2): X* = (-4, 2) of length 2 sqrt(5) > 1 = h^2,
    # so q = 0 lands on the ball surface at (-4, 2)/sqrt(20)
    grid = one_cell_grid((1.0, 2.0))
    q = VectorField.zeros(grid)
    out = prox_dual(q, 1.0)
    want = np.array([-4.0, 2.0]) / np.sqrt(20.0)
    assert np.allclose(out.values[0, 0], want, atol=1e-15)


def test_prox_dual_zero_drift_identity():
    grid = one_cell_grid((0.0, 0.0))  # X* = 0 at the origin
    q = VectorField.zeros(grid)
    assert np.all(prox_dual(q, 1.0).values == 0.0)


def test_prox_dual_sigma_zero_keeps_ball_points():
    grid = one_cell_grid((1.0, 2.0), h=1.0)
    qv = np.zeros((1, 1, 2))
    qv[0, 0] = (0.3, -0.4)  # inside the unit ball
    out = prox_dual(VectorField(grid, qv), 0.0)
    assert np.allclose(out.values[0, 0], (0.3, -0.4))


def test_prox_dual_anisotropic_clips_componentwise():
    grid = one_cell_grid((1.0, 2.0))
    out = prox_dual(VectorField.zeros(grid), 1.0, EnergyMode.ANISOTROPIC)
    # (-4, 2) clipped to the box [-1, 1]^2
    assert np.allclose(out.values[0, 0], (-1.0, 1.0))


def test_prox_primal_soft_threshold():
    grid = one_cell_grid((0.25, 0.25), h=0.5)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.zeros(4))
    v = ScalarField(grid, np.full((1, 1), 5.0))
    w = grid.h * len(faces)  # accumulated face weight = 4h = 2
    out = prox_primal(v, 0.5 / w, datum)  # tau * w = 1/2... scaled to 1? no:
    # tau*w = 0.5, shrink(5, 0.5) = 4.5
    assert out.values[0, 0] == pytest.approx(4.5)
    out = prox_primal(v, 1.0 / w, datum)  # tau*w = 1 -> 4
    assert out.values[0, 0] == pytest.approx(4.0)
    out = prox_primal(v, 10.0 / w, datum)  # tau*w = 10 > |v|: collapse to mean
    assert out.values[0, 0] == pytest.approx(0.0)


def test_prox_primal_interior_untouched():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.zeros(len(faces)))
    rng = np.random.default_rng(1)
    uv = np.zeros((grid.nx, grid.ny))
    uv[grid.interior_mask] = rng.standard_normal(grid.interior_count)
    v = ScalarField(grid, uv)
    out = prox_primal(v, 0.7, datum)
    owners = np.zeros((grid.nx, grid.ny), dtype=bool)
    owners[faces.owner[:, 0], faces.owner[:, 1]] = True
    inner = grid.interior_mask & ~owners
    assert np.array_equal(out.values[inner], v.values[inner])


def test_prox_primal_constrained_pins_to_face_mean():
    grid = one_cell_grid((0.25, 0.25), h=0.5)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.full(4, 3.0))
    v = ScalarField(grid, np.full((1, 1), -17.0))
    out = prox_primal(v, 0.1, datum, mode="constrained")
    assert out.values[0, 0] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(SolverError):
        SolverConfig(tol=0.0)
    with pytest.raises(SolverError):
        SolverConfig(mode="magic")
    with pytest.raises(SolverError, match="together"):
        SolverConfig(step_sigma=0.1)
    with pytest.raises(SolverError, match="together"):
        SolverConfig(step_tau=0.1)
    with pytest.raises(SolverError):
        SolverConfig(step_sigma=-1.0)


def test_step_product_respects_operator_norm():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    L2 = operator_norm_sq(grid)
    s, t = SolverConfig().resolved_steps(grid)
    assert (s, t) == balanced_steps(grid, grid.h / 2)
    assert s * t * L2 <= 1.0 + 1e-9
    # oversized explicit steps are refused rather than silently run
    with pytest.raises(SolverError):
        SolverConfig(step_sigma=1.0, step_tau=1.0).resolved_steps(grid)


def test_solver_tolerance_formula():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 32)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.full(len(faces), 2.0))
    assert solver_tolerance(grid, datum) == pytest.approx(10 * (1 / 32) * 3.0)


# ---------------------------------------------------------------------------
# solve


def tuned(max_iters=20000, tol=1e-9):
    return SolverConfig(max_iters=max_iters, tol=tol)


def test_constant_datum_recovers_constant():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.full(len(faces), 2.5))
    rep = solve(grid, datum, tuned())
    assert rep.converged
    err = np.max(np.abs(rep.u.values[grid.interior_mask] - 2.5))
    assert err <= solver_tolerance(grid, datum)


def test_affine_datum_error_within_budget():
    L = Affine((1.0, -2.0), 0.5)
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), L)
    rep = solve(grid, datum, tuned())
    ref = ScalarField.from_function(grid, L)
    err = np.max(np.abs((rep.u.values - ref.values)[grid.interior_mask]))
    assert err <= 0.05 * (1.0 + np.sqrt(5.0) + 0.5) * 16 / 16 + 0.25  # coarse level
    assert rep.energy.total <= penalized_energy(
        ScalarField(grid, np.where(grid.interior_mask, datum.values.mean(), 0.0)), datum
    ).total


def test_solve_deterministic_bitwise():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)
    cfg = tuned(max_iters=500)
    r1 = solve(grid, datum, cfg)
    r2 = solve(grid, datum, cfg)
    assert np.array_equal(r1.u.values, r2.u.values)
    assert np.array_equal(r1.dual.values, r2.dual.values)
    assert r1.energy.total == r2.energy.total
    assert r1.iterations == r2.iterations
    assert r1.stagnation == r2.stagnation


def mode_config(mode, **kw):
    """``mode`` is an energy mode, or "constrained" for pinned owner cells
    under the isotropic norm."""
    if mode == "constrained":
        return SolverConfig(mode="constrained", **kw)
    return SolverConfig(energy_mode=mode, **kw)


@pytest.mark.parametrize(
    "mode, iterations, energy",
    [
        ("iso", 421, 3.698630360771103),
        ("aniso", 245, 4.198444463067632),
        ("constrained", 1051, 3.7155600548451044),
    ],
)
def test_es1_lens_iteration_pinned(mode, iterations, energy):
    """es1 on the lens at h = 1/32 with the h/2 step split, given explicitly
    and left to the default rule.  The pinned iteration counts and energies
    are those of the full-grid stencil solver that the interior-cell
    operator replaced (constrained: of the (n, 2) interior-vector solver that
    the component-major one replaced); a change of representation must
    reproduce them."""
    grid = rasterize(DomainSpec.parabolic(), 1 / 32)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    default = mode_config(mode, max_iters=30000, tol=1e-10)
    s, t = balanced_steps(grid, grid.h / 2)
    for cfg in (replace(default, step_sigma=s, step_tau=t), default):
        rep = solve(grid, datum, cfg)
        assert rep.converged
        assert rep.iterations == iterations
        assert rep.energy.total == pytest.approx(energy, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mode", ["iso", "aniso", "constrained"])
def test_reported_energy_matches_penalized_energy(mode):
    """The loop sums h |h (K u + X*)| per cell; ``penalized_energy`` sums
    h^2 |K u + X*|.  The two formulas must agree on the returned iterate."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)
    rep = solve(grid, datum, mode_config(mode, max_iters=20000, tol=1e-9))
    want = penalized_energy(rep.u, datum, rep.energy.mode)
    assert rep.energy.total == pytest.approx(want.total, rel=1e-12, abs=0.0)
    assert rep.energy.interior == pytest.approx(want.interior, rel=1e-12, abs=0.0)
    assert rep.energy.penalty == pytest.approx(want.penalty, rel=1e-12, abs=0.0)


def test_dual_is_the_best_iterates_dual():
    """``dual`` pairs with ``u``.  A converged solve stops 50 iterations after
    its best iterate k; a solve cut at k - 1 has not reached the best energy,
    and one cut at k (with a tol that cannot fire sooner) returns the same u
    and dual bit for bit."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)
    rep = solve(grid, datum, tuned())
    assert rep.converged
    k = rep.iterations - 50
    before = solve(grid, datum, tuned(max_iters=k - 1, tol=1e-300))
    assert before.energy.total > rep.energy.total
    cut = solve(grid, datum, tuned(max_iters=k, tol=1e-300))
    assert cut.iterations == k
    assert cut.energy.total == rep.energy.total
    assert np.array_equal(cut.u.values, rep.u.values)
    assert np.array_equal(cut.dual.values, rep.dual.values)


def test_norm_and_projection_kernels_match_hypot_reference():
    """The one cell-norm kernel (sqrt(x*x + y*y)) and the one dual projection
    against np.hypot, on component-major vectors spanning 1e-150..1e150."""
    rng = np.random.default_rng(7)
    n = 20000
    v = rng.choice((-1.0, 1.0), (2, n)) * 10.0 ** rng.uniform(-150, 150, (2, n))
    ref = np.hypot(v[0], v[1])
    norms = _cell_norms(v.copy(), EnergyMode.ISOTROPIC)
    np.testing.assert_array_max_ulp(norms, ref, maxulp=2)
    assert np.array_equal(_cell_norms(v.copy(), EnergyMode.ANISOTROPIC), np.abs(v[0]) + np.abs(v[1]))

    radius = 1.0
    inside = ref < radius
    assert 0.2 * n < inside.sum() < 0.8 * n
    got = _project_dual(v.copy(), radius, EnergyMode.ISOTROPIC, np.empty_like(v))
    assert np.array_equal(got[:, inside], v[:, inside])
    want = v * (radius / np.maximum(ref, radius))
    np.testing.assert_array_max_ulp(got, want, maxulp=4)
    got = _project_dual(v.copy(), radius, EnergyMode.ANISOTROPIC)
    assert np.array_equal(got, np.clip(v, -radius, radius))


def test_huge_finite_datum_solves():
    """Data of size 1e200 stay far from overflow: the cell norm squares only
    differences of neighboring values, and the primal prox moves an owner
    cell by its threshold instead of rebuilding it from the face mean."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, 1e200 * np.cos(np.arange(len(faces))))
    rep = solve(grid, datum, SolverConfig(max_iters=50))
    assert rep.converged
    assert np.isfinite(rep.energy.total)
    assert rep.energy.total == pytest.approx(penalized_energy(rep.u, datum).total, rel=1e-12)


@pytest.mark.parametrize("module", ["harea.solver", "harea.bsc", "harea.checks"])
def test_solver_import_leaves_scipy_unloaded(module):
    """SciPy's import costs a large share of a solve's set-up time, so neither
    the solve path nor the slope certificates and checks may pull it in."""
    env = dict(os.environ)
    package_root = str(Path(harea.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = f"import sys, {module}; print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_nonconvergence_reports_instead_of_raising():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: x * y)
    rep = solve(grid, datum, tuned(max_iters=10, tol=1e-14))
    assert not rep.converged
    assert rep.iterations == 10
    assert np.isfinite(rep.energy.total)


def test_overflowing_datum_raises_divergence():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    faces = boundary_faces(grid)
    vals = np.where(np.arange(len(faces)) % 2 == 0, 1e308, -1e308)
    datum = BoundaryDatum(faces, vals)
    with np.errstate(all="ignore"):
        with pytest.raises(SolverError, match="divergence.*iteration"):
            solve(grid, datum, SolverConfig(max_iters=50))


def test_constrained_mode_pins_owner_cells():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    faces = boundary_faces(grid)
    datum = sample_datum(faces, lambda x, y: x + y)
    cfg = tuned(max_iters=2000)
    rep = solve(grid, datum, replace(cfg, mode="constrained"))
    # every boundary-owner cell carries exactly its face-measure-weighted mean
    sums = np.zeros((grid.nx, grid.ny))
    cnts = np.zeros((grid.nx, grid.ny))
    np.add.at(sums, (faces.owner[:, 0], faces.owner[:, 1]), datum.values)
    np.add.at(cnts, (faces.owner[:, 0], faces.owner[:, 1]), 1.0)
    owners = cnts > 0
    want = sums[owners] / cnts[owners]
    assert np.allclose(rep.u.values[owners], want, atol=1e-12)


def test_shift_equivariance_tight():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    faces = boundary_faces(grid)
    datum = sample_datum(faces, lambda x, y: np.cos(2 * x) * y)
    cfg = tuned(max_iters=4000)
    r0 = solve(grid, datum, cfg)
    r1 = solve(grid, BoundaryDatum(faces, datum.values + 0.3), cfg)
    diff = np.max(np.abs((r1.u.values - r0.u.values - 0.3)[grid.interior_mask]))
    # the iteration commutes with vertical shifts almost exactly
    assert diff <= 1e-8


def test_refine_study_monotone_for_affine():
    rows, monotone = refine_study(
        DomainSpec.disk((0.0, 0.0), 1.0),
        Affine((0.5, 0.3), -0.2),
        [1 / 8, 1 / 16, 1 / 32],
        exact=Affine((0.5, 0.3), -0.2),
    )
    assert len(rows) == 3
    assert monotone
    errs = [r.error for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_report_json_roundtrips():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    datum = sample_datum(boundary_faces(grid), lambda x, y: x)
    rep = solve(grid, datum, tuned(max_iters=200))
    d = rep.to_json()
    assert set(d) >= {"iterations", "converged", "stagnation", "energy"}
    import json

    json.dumps(d)  # must be serializable as-is
