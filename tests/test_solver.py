import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import harea
import harea.solver as solver_module
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
from harea.checks import _PAIR_SEED, _fourier_datum, _positive_offset
from harea.energy import _cell_norms
from harea.solver import _Penalty, _folded_steps, _project_dual, _prox
from harea.surfaces import Affine, es1_datum, es2_surface
from oracles import reference_solve


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
    q = VectorField(grid, np.zeros((1, 1, 2)))
    out = prox_dual(q, 1.0)
    want = np.array([-4.0, 2.0]) / np.sqrt(20.0)
    assert np.allclose(out.values[0, 0], want, atol=1e-15)


def test_prox_dual_zero_drift_identity():
    grid = one_cell_grid((0.0, 0.0))  # X* = 0 at the origin
    q = VectorField(grid, np.zeros((1, 1, 2)))
    assert np.all(prox_dual(q, 1.0).values == 0.0)


def test_prox_dual_sigma_zero_keeps_ball_points():
    grid = one_cell_grid((1.0, 2.0), h=1.0)
    qv = np.zeros((1, 1, 2))
    qv[0, 0] = (0.3, -0.4)  # inside the unit ball
    out = prox_dual(VectorField(grid, qv), 0.0)
    assert np.allclose(out.values[0, 0], (0.3, -0.4))


def test_prox_primal_soft_threshold():
    grid = one_cell_grid((0.25, 0.25), h=0.5)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.zeros(4))
    v = ScalarField(grid, np.full((1, 1), 5.0))
    w = grid.h * len(faces)  # accumulated face weight = 4h = 2
    out = prox_primal(v, 0.5 / w, datum)  # tau*w = 0.5, shrink(5, 0.5) = 4.5
    assert out.values[0, 0] == pytest.approx(4.5)
    out = prox_primal(v, 1.0 / w, datum)  # tau*w = 1 -> 4
    assert out.values[0, 0] == pytest.approx(4.0)
    out = prox_primal(v, 10.0 / w, datum)  # tau*w = 10 > |v|: collapse to mean
    assert out.values[0, 0] == pytest.approx(0.0)


def _seeded_owners(rng, k, h):
    """k owner cells with 1, 2 or 3 faces of measure h each, values v and
    face values at scales spanning 1e-3..1e200, per-cell tau with tau h at
    the same scale, and the faces listed in shuffled order.  Returns
    (v, tau, counts, face values (k, 3) padded with nan, datum-like)."""
    counts = rng.integers(1, 4, k)
    scale = 10.0 ** rng.uniform(-3, 200, k)
    phi = scale[:, None] * rng.uniform(-1.0, 1.0, (k, 3))
    phi[np.arange(3) >= counts[:, None]] = np.nan
    v = scale * rng.uniform(-3.0, 3.0, k)
    v[::7] = phi[::7, 0]  # on a face value
    tau = scale * 10.0 ** rng.uniform(-2, 0.3, k) / h
    cell, col = np.nonzero(~np.isnan(phi))
    order = rng.permutation(cell.size)
    faces = SimpleNamespace(owner_cell=cell[order], measure=np.full(cell.size, h))
    datum = SimpleNamespace(faces=faces, values=phi[cell, col][order])
    return v, tau, counts, phi, datum


def test_exact_prox_meets_its_optimality_condition():
    """The boundary prox of tau h sum_j |x - phi_j| over an owner's m faces,
    on seeded owners with m in {1, 2, 3} at scales 1e-3..1e200: the result x
    satisfies 0 in x - v + tau h sum_j sign(x - phi_j), with sign(0) any
    value in [-1, 1], and no point of a dense scan around x has a lower
    objective.  One-face owners equal the soft threshold of the surrogate
    prox bit for bit."""
    rng = np.random.default_rng(5)
    h, k = 1 / 24, 6000
    v, tau, counts, phi, datum = _seeded_owners(rng, k, h)
    pen = _Penalty(datum, tau, "penalized")
    assert np.array_equal(pen.idx, np.arange(k))
    x = _prox(v.copy(), pen)

    th = tau * h
    size = np.nanmax(np.abs(np.column_stack((phi, v, x, th * counts))), axis=1)
    slack = 8 * np.finfo(float).eps * size
    diff = x[:, None] - phi
    r = x - v + th * np.nansum(np.sign(diff), axis=1)
    ties = np.sum(diff == 0, axis=1)
    assert np.all(np.abs(r) <= th * ties + slack)

    # (x - v)^2 / 2 + tau h sum |x - phi_j| in units of the owner's scale,
    # at offsets 1e-9..10 scales either side of x
    s = size[:, None]
    step = np.concatenate((-np.logspace(-9, 1, 120), np.logspace(-9, 1, 120)))
    y = x[:, None] + s * step

    def objective(y):
        dist = np.abs((y[..., None] - phi[:, None, :]) / s[..., None])
        return 0.5 * ((y - v[:, None]) / s) ** 2 + (th[:, None] / s) * np.nansum(dist, axis=2)

    at_x = objective(x[:, None])
    assert np.all(objective(y) >= at_x - 1e-12 * (1.0 + at_x))

    one = counts == 1
    t = th[one]
    old = np.minimum(np.maximum(v[one] - t, phi[one, 0]), v[one] + t)
    assert np.array_equal(x[one], old)
    for m in (1, 2, 3):
        assert np.sum(counts == m) > k // 4


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


def test_datum_of_another_grid_is_refused():
    """A datum sampled on another grid is refused by ``solve`` and
    ``prox_primal`` as ``penalized_energy`` refuses it: its owner indices
    name cells of that grid, and a coarser datum would otherwise be solved
    against the wrong cells, a finer one fail with a bare IndexError."""
    domain = DomainSpec.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    square = rasterize(domain, 1 / 16)
    for other in (rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16), rasterize(domain, 1 / 32)):
        datum = sample_datum(boundary_faces(other), lambda x, y: x + y * y)
        with pytest.raises(SolverError, match="different grid"):
            solve(square, datum, SolverConfig(max_iters=20))
        with pytest.raises(SolverError, match="different grid"):
            prox_primal(ScalarField.from_interior(square, np.zeros(square.interior_count)), 0.1, datum)


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


@pytest.mark.parametrize(
    "kw, key",
    [
        ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"),
        ({"max_iters": "100"}, "max_iters"),
        ({"tol": "1e-7"}, "tol"),
        ({"tol": None}, "tol"),
        ({"tol": True}, "tol"),
        ({"step_sigma": "0.1", "step_tau": 0.1}, "step_sigma"),
        ({"step_sigma": 0.1, "step_tau": [0.1]}, "step_tau"),
        ({"step_sigma": 0.1, "step_tau": False}, "step_tau"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(kw, key):
    """A fractional or boolean iteration cap, or a tolerance or step that is
    not a real number, is refused when the config is made, not later in the
    loop."""
    with pytest.raises(SolverError, match=key):
        SolverConfig(**kw)


def test_steps_the_scaled_dual_cannot_carry_are_refused():
    """The loop carries the dual divided by sigma_h = sigma/h; its ball radius
    h^2/sigma_h and the primal step factor sigma_h tau_h must be finite and
    positive.  Steps that pass the product bound but break either one are
    refused, naming step_sigma, instead of freezing or diverging the loop."""
    grid, datum = _lens_es1()
    L2 = operator_norm_sq(grid)
    for sigma, tau in ((5e-324, 1.0), (1e-300, 1e-300)):
        assert sigma * tau * L2 <= 1.0
        cfg = SolverConfig(step_sigma=sigma, step_tau=tau)
        with pytest.raises(SolverError, match="step_sigma"):
            cfg.resolved_steps(grid)
        with pytest.raises(SolverError, match="step_sigma"):
            solve(grid, datum, cfg)
    s, t = balanced_steps(grid)
    h = grid.h
    assert _folded_steps(s, t, h) == (s / h, h * h / (s / h), (s / h) * (t / h))


def test_step_product_respects_operator_norm():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    L2 = operator_norm_sq(grid)
    s, t = SolverConfig().resolved_steps(grid)
    assert (s, t) == balanced_steps(grid, grid.h / 2)
    assert s * t * L2 <= 1.0 + 1e-9
    # oversized explicit steps are refused rather than silently run
    with pytest.raises(SolverError):
        SolverConfig(step_sigma=1.0, step_tau=1.0).resolved_steps(grid)


@pytest.mark.parametrize("gamma", [-1.0, 0.0, float("inf"), float("nan")])
def test_balanced_steps_refuse_a_split_that_is_not_positive_and_finite(gamma):
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    with pytest.raises(SolverError, match="gamma"):
        balanced_steps(grid, gamma)


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
    """``mode`` is "iso" for the penalized boundary term or "constrained" for
    pinned owner cells; both minimize the isotropic area."""
    return SolverConfig(mode="constrained" if mode == "constrained" else "penalized", **kw)


@pytest.mark.parametrize(
    "mode, iterations, energy",
    [
        ("iso", 1220, 3.6866836854176093),
        ("constrained", 580, 3.7155607430933637),
    ],
)
def test_es1_lens_iteration_pinned(mode, iterations, energy):
    """es1 on the lens at h = 1/32 with the h/2 step split, given explicitly
    and left to the default rule.  The pinned iteration counts and energies
    are those of the over-relaxed loop with the exact boundary prox; a change
    of representation must reproduce them."""
    grid = rasterize(DomainSpec.parabolic(), 1 / 32)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    default = mode_config(mode, max_iters=30000, tol=1e-10)
    s, t = balanced_steps(grid, grid.h / 2)
    for cfg in (replace(default, step_sigma=s, step_tau=t), default):
        rep = solve(grid, datum, cfg)
        assert rep.converged
        assert rep.iterations == iterations
        assert rep.energy.total == pytest.approx(energy, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "k, iterations, energy", [(0, 1100, 4.2887107463034395), (1, 1140, 4.304652962209537)]
)
def test_comparison_pair_iteration_pinned(k, iterations, energy):
    """The first ordered pair (phi, phi + delta) of the comparison check on
    its h = 1/24 disk, with the default steps.  The reference loop shares the
    solver's relaxation, checkpoint spacing, stagnation window and dual
    projection, so it cannot see a change to them; these pins can."""
    grid, datum = _comparison_data(k)
    rep = solve(grid, datum, SolverConfig(max_iters=20000, tol=1e-9))
    assert rep.converged
    assert rep.iterations == iterations
    assert rep.energy.total == pytest.approx(energy, rel=1e-12, abs=0.0)


def test_loop_memory_does_not_grow_with_iterations(monkeypatch):
    """Every update of the loop writes into buffers allocated once per solve:
    the traced peak of a 400-iteration solve equals that of a 40-iteration
    one to within one n-long float array."""
    import tracemalloc

    monkeypatch.setattr(solver_module, "_STAGNATION_WINDOW", 20000)
    grid, datum = _lens_es1()
    solve(grid, datum, SolverConfig(max_iters=10))  # caches the operator and the step rule

    def peak(max_iters):
        tracemalloc.start()
        try:
            rep = solve(grid, datum, SolverConfig(max_iters=max_iters))
            return rep, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (short, short_peak), (long, long_peak) = peak(40), peak(400)
    assert (short.iterations, long.iterations) == (40, 400)
    assert abs(long_peak - short_peak) <= 8 * grid.interior_count


@pytest.mark.parametrize("mode", ["iso", "constrained"])
def test_reported_energy_matches_penalized_energy(mode):
    """The loop's checkpoints and ``penalized_energy`` are one evaluation,
    h |h (K u + X*)| per cell, so they agree by bytes on the returned iterate."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)
    rep = solve(grid, datum, mode_config(mode, max_iters=20000, tol=1e-9))
    assert rep.energy.mode is EnergyMode.ISOTROPIC
    assert rep.energy == penalized_energy(rep.u, datum)


_DOMAINS = {
    "disk": DomainSpec.disk((0.0, 0.0), 1.0),
    "lens": DomainSpec.parabolic(),
    "square": DomainSpec.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]),
}


@pytest.mark.parametrize("domain", sorted(_DOMAINS))
def test_reported_energy_is_penalized_energy_by_bytes_on_every_grid(each_kernel_path, domain):
    """Every block's checkpoint energy is ``penalized_energy`` of the iterate
    it ends on, by bytes, also where h is not a power of two: with the
    interior term summed as h^2 |K u + X*| the h = 1/24 disk read 1.9e-16
    relative apart after 100 iterations."""
    for path in each_kernel_path():
        for inv_h in (16, 24, 32, 40):
            grid = rasterize(_DOMAINS[domain], 1 / inv_h)
            datum = sample_datum(boundary_faces(grid), es1_datum)
            for mode in ("penalized", "constrained"):
                rep = solve(grid, datum, SolverConfig(mode=mode, max_iters=100))
                assert rep.energy == penalized_energy(rep.u, datum), (path, inv_h, mode)


def test_dual_is_the_best_iterates_dual():
    """``dual`` pairs with ``u``.  The energy is evaluated at every 10th
    iterate, and a converged solve stops within 50 iterations of its best
    checkpoint k; a solve cut at k (with a tol that cannot fire sooner)
    returns the same u and dual bit for bit, and one cut at k - 10 has not
    reached the best energy."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)
    rep = solve(grid, datum, tuned())
    assert rep.converged and rep.iterations % 10 == 0
    checkpoints = range(rep.iterations - 60, rep.iterations + 1, 10)
    cuts = {k: solve(grid, datum, tuned(max_iters=k, tol=1e-300)) for k in checkpoints}
    k = min(k for k, cut in cuts.items() if cut.energy.total == rep.energy.total)
    assert k >= rep.iterations - 50
    assert cuts[k - 10].energy.total > rep.energy.total
    cut = cuts[k]
    assert cut.iterations == k
    assert np.array_equal(cut.u.values, rep.u.values)
    assert np.array_equal(cut.dual.values, rep.dual.values)


@pytest.mark.parametrize("divisor", [1, 4, 16])
def test_iso_fixed_point_is_the_discrete_minimum(monkeypatch, divisor):
    """With the stagnation stop switched off, 10,000 iterations of es1 iso on
    the h = 1/32 lens reach the same energy for the step splits gamma = h,
    h/4 and h/16, and it is the discrete minimum 3.6866827726: the loop's
    fixed point minimizes the functional ``penalized_energy`` reports."""
    monkeypatch.setattr(solver_module, "_STAGNATION_WINDOW", 20000)
    grid, datum = _lens_es1()
    s, t = balanced_steps(grid, grid.h / divisor)
    rep = solve(grid, datum, SolverConfig(max_iters=10000, tol=1e-10, step_sigma=s, step_tau=t))
    assert (rep.iterations, rep.converged) == (10000, False)
    assert rep.energy.total == pytest.approx(3.6866827726, rel=0.0, abs=1e-7)


def test_norm_and_projection_kernels_match_hypot_reference():
    """The isotropic cell-norm kernel (sqrt(x*x + y*y)) and the dual
    projection against np.hypot, and the l1 cell norm against |x| + |y|, on
    component-major vectors spanning 1e-150..1e150."""
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
    got = _project_dual(v.copy(), radius)
    assert np.array_equal(got[:, inside], v[:, inside])
    want = v * (radius / np.maximum(ref, radius))
    np.testing.assert_array_max_ulp(got, want, maxulp=4)


def test_huge_finite_datum_solves():
    """Data of size 1e200 stay far from overflow: the cell norm squares only
    differences of neighboring values, and the primal prox moves an owner
    cell by its threshold instead of rebuilding it from the face mean.  In
    50 iterations no checkpoint improves on the start, so the solve stops
    by stagnation without having converged."""
    grid, datum = _huge_datum()
    rep = solve(grid, datum, SolverConfig(max_iters=50))
    assert not rep.converged
    assert np.isfinite(rep.energy.total)
    assert rep.energy.total == pytest.approx(penalized_energy(rep.u, datum).total, rel=1e-12)


def _comparison_data(k):
    """A datum of the comparison check's family on its h = 1/24 disk: the
    first phi (k = 0), the first phi + delta (k = 1) or the second phi
    (k = 2), drawn in the check's order phi, delta, phi, ..."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 24)
    rng = np.random.default_rng(_PAIR_SEED)
    phi = _fourier_datum(rng)
    delta = _positive_offset(rng)
    if k == 1:
        return grid, sample_datum(boundary_faces(grid), lambda x, y: phi(x, y) + delta(x, y))
    if k == 2:
        phi = _fourier_datum(rng)
    return grid, sample_datum(boundary_faces(grid), phi)


def _lens_es1():
    grid = rasterize(DomainSpec.parabolic(), 1 / 32)
    return grid, sample_datum(boundary_faces(grid), es1_datum)


def _square_es2():
    grid = rasterize(DomainSpec.polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]), 1 / 32)
    return grid, sample_datum(boundary_faces(grid), es2_surface)


def _huge_datum():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    faces = boundary_faces(grid)
    return grid, BoundaryDatum(faces, 1e200 * np.cos(np.arange(len(faces))))


@pytest.mark.parametrize(
    "problem, cfg",
    [
        (_lens_es1, mode_config("iso", max_iters=30000, tol=1e-10)),
        (_lens_es1, mode_config("constrained", max_iters=30000, tol=1e-10)),
        (_square_es2, SolverConfig(max_iters=30000, tol=1e-9)),
        *[(lambda k=k: _comparison_data(k), SolverConfig(max_iters=20000, tol=1e-9)) for k in range(3)],
        (_huge_datum, SolverConfig(max_iters=50)),
    ],
    ids=["es1-iso", "es1-constrained", "es2", "pair-phi", "pair-psi", "pair-next", "1e200"],
)
def test_solve_follows_the_unscaled_reference_loop(problem, cfg):
    """``solve`` carries the dual divided by sigma_h and takes the median form
    of the prox; the unscaled loop with the np.where prox must agree with it
    on every iteration count and to rounding on the returned iterate."""
    grid, datum = problem()
    rep = solve(grid, datum, cfg)
    ref = reference_solve(grid, datum, cfg)
    assert (rep.iterations, rep.converged) == (ref.iterations, ref.converged)
    for name in ("interior", "penalty", "total"):
        got, want = getattr(rep.energy, name), getattr(ref.energy, name)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), name
    for got, want in ((rep.u.values, ref.u.values), (rep.dual.values, ref.dual.values)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _loaded_after_import(module, wanted, then="pass"):
    """The modules whose names ``wanted`` accepts that a fresh interpreter
    has loaded after ``import module`` and the statements ``then``."""
    env = dict(os.environ)
    package_root = str(Path(harea.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = f"import sys, {module}; {then}; print([m for m in sys.modules if {wanted}])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["harea.solver", "harea.bsc", "harea.checks"])
def test_solver_import_leaves_scipy_unloaded(module):
    """SciPy's import costs a large share of a solve's set-up time, so neither
    the solve path nor the slope certificates and checks may pull it in."""
    assert _loaded_after_import(module, "m.partition('.')[0] == 'scipy'") == "[]"


@pytest.mark.parametrize("module", ["harea", "harea.solver", "harea.energy", "harea.checks", "harea.cli"])
def test_import_leaves_numpy_random_unloaded(module):
    """numpy.random raises a process's resident memory from about 27 to 33 MB
    (import numpy alone, then numpy.random), so no module may load it on
    import; nor does a solve (the test below)."""
    assert _loaded_after_import(module, "m.startswith('numpy.random')") == "[]"


def test_solve_leaves_numpy_random_unloaded():
    """The step rule starts its power estimate from the checkerboard signs and
    draws no random numbers, so rasterizing, sampling es1 and solving on the
    h = 1/16 lens loads neither numpy.random nor the OpenSSL ``_hashlib`` its
    import brings in (through ``secrets``)."""
    then = (
        "g = harea.rasterize(harea.DomainSpec.parabolic(), 1 / 16); "
        "harea.solve(g, harea.sample_datum(harea.boundary_faces(g), harea.es1_datum))"
    )
    wanted = "m.startswith('numpy.random') or m == '_hashlib'"
    assert _loaded_after_import("harea", wanted, then) == "[]"


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


def test_refine_study_takes_a_constant_reference():
    """A reference that returns a scalar is broadcast over the cells, as a
    datum's expression is over the faces."""
    one = lambda x, y: 1.0  # noqa: E731
    rows, _ = refine_study(DomainSpec.disk((0.0, 0.0), 1.0), one, [1 / 8, 1 / 16], tuned(), exact=one)
    assert [r.h for r in rows] == [1 / 8, 1 / 16]
    for r in rows:
        u = r.report.u
        assert r.error == float(np.max(np.abs(u.values - 1.0)[u.grid.interior_mask]))


def test_report_json_roundtrips():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    datum = sample_datum(boundary_faces(grid), lambda x, y: x)
    rep = solve(grid, datum, tuned(max_iters=200))
    d = rep.to_json()
    assert set(d) >= {"iterations", "converged", "stagnation", "energy", "seconds"}
    assert d["seconds"] == rep.seconds and set(rep.seconds) == {"setup", "block"}
    import json

    json.dumps(d)  # must be serializable as-is


def test_report_seconds_split_the_set_up_from_the_block_calls(monkeypatch):
    """``seconds["setup"]`` runs to the first call of the block and
    ``seconds["block"]`` sums the block's calls: a block built in 0.05 s
    whose three calls take 0.2 s each reads at least those, and no call is
    counted in the set-up.  Reports that differ only in their seconds are
    equal."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    datum = sample_datum(boundary_faces(grid), lambda x, y: x)
    numpy_block, calls = solver_module._numpy_block, []

    def slow(**kw):
        time.sleep(0.05)
        block, u, Q = numpy_block(**kw)

        def timed(steps):
            calls.append(steps)
            time.sleep(0.2)
            return block(steps)

        return timed, u, Q

    monkeypatch.setattr(harea.pdloop, "bind", lambda **kw: None)
    monkeypatch.setattr(solver_module, "_numpy_block", slow)
    rep = solve(grid, datum, tuned(max_iters=20))
    assert calls == [0, 10, 10]
    assert 0.05 <= rep.seconds["setup"] < 0.25 and rep.seconds["block"] >= 0.6
    assert replace(rep, seconds={"setup": 0.0, "block": 0.0}) == rep
