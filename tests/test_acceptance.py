"""End-to-end acceptance tests.

Each test pins one externally meaningful guarantee of the package together
with its numeric tolerance.  The heavy grid computations run once through the
shared verification-suite fixture ``suite`` (in conftest.py); individual tests
then interrogate the recorded reports.  Two guarantees (operator adjointness,
slope certification) are exercised directly because they need independent
referees rather than the suite's own verdict.
"""

import time

import numpy as np
import pytest

from harea import (
    Affine,
    BscViolation,
    CheckId,
    DomainSpec,
    ScalarField,
    VectorField,
    boundary_samples,
    divergence,
    es1_datum,
    feasibility_tolerance,
    gradient,
    minimal_Q,
    rasterize,
)
from oracles import certificate_defects, grid_search_defect, prove_infeasible_below

SQUARE = DomainSpec.polygon([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def test_gradient_divergence_adjoint_on_random_pairs():
    """<Du, p> = -<u, div p> within 1e-12 relative, 100 random pairs on a
    32x32 grid, in under a second."""
    grid = rasterize(SQUARE, 1.0 / 16.0)
    assert int(grid.interior_mask.sum()) == 32 * 32
    rng = np.random.default_rng(12345)
    m = grid.interior_mask
    start = time.perf_counter()
    for _ in range(100):
        uv = np.zeros((grid.nx, grid.ny))
        uv[m] = rng.standard_normal(int(m.sum()))
        pv = np.zeros((grid.nx, grid.ny, 2))
        pv[m] = rng.standard_normal((int(m.sum()), 2))
        u = ScalarField(grid, uv)
        p = VectorField(grid, pv)
        lhs = float(np.sum(gradient(u).values * p.values))
        rhs = float(np.sum(u.values * divergence(p).values))
        assert abs(lhs + rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)
    assert time.perf_counter() - start < 1.0


def test_affine_datum_is_recovered_with_refinement(suite):
    """Affine data are reproduced on the disk: sup error within
    0.05 * (1 + sup|L|) at the two finer grids, strictly decreasing in h."""
    reports, _ = suite
    r = reports[CheckId.AFFINE_UNIQUE]
    bound = 0.05 * (1.0 + np.sqrt(5.0) + 0.5)
    assert r.passed
    assert r.thresholds["sup_err_h64"] == pytest.approx(bound, rel=1e-12)
    assert r.metrics["sup_err_h32"] <= bound
    assert r.metrics["sup_err_h64"] <= bound
    assert r.metrics["decrease_violation"] < 0.0
    assert r.runtime < 60.0


def test_zero_datum_disk_energy_matches_radial_quadrature(suite):
    """With zero boundary values on the unit disk the minimal energy is the
    integral of 2|z|, i.e. 4*pi/3, matched within 2%; the rotation-field
    certificate gap stays nonnegative on the solution and 20 random fields."""
    reports, _ = suite
    r = reports[CheckId.CALIBRATION_DISK]
    assert r.passed
    assert r.thresholds["energy_rel_err"] == 0.02
    assert r.metrics["energy_rel_err"] <= 0.02
    assert r.metrics["gap_negativity"] <= 1e-9
    assert r.config["random_fields"] == 20


def test_es1_surface_reproduced_with_spine_and_residual(suite):
    """The x*(y - x^2 + 1) surface: relative L1 error below 5% with monotone
    refinement, degenerate cells confined to the upper spine, and the
    stationarity residual of the exact surface below 1e-6 off the axis bands."""
    reports, _ = suite
    r = reports[CheckId.EXAMPLE_ES1]
    e = reports[CheckId.EULER_RESIDUAL_ES1]
    assert r.passed and e.passed
    assert r.metrics["rel_l1_h64"] <= 0.05
    assert r.metrics["rel_l1_finest"] <= 0.05
    assert r.metrics["decrease_violation"] <= 0.0
    assert r.metrics["char_off_band_cells"] == 0.0
    assert r.metrics["char_spine_missing_frac"] <= 0.1
    assert e.metrics["residual_max"] <= 1e-6
    assert e.metrics["char_spine_missing_frac"] == 0.0
    assert r.runtime + e.runtime < 120.0


def test_es2_surface_reproduced_with_flat_band(suite):
    """The -2xy + y|y| surface on the square: relative L1 error below 5%,
    degenerate cells confined to the y = 0 band, exact-surface residual below
    1e-6 outside that band."""
    reports, _ = suite
    r = reports[CheckId.EXAMPLE_ES2]
    assert r.passed
    assert r.metrics["rel_l1_h64"] <= 0.05
    assert r.metrics["rel_l1_finest"] <= 0.05
    assert r.metrics["residual_max"] <= 1e-6
    assert r.metrics["char_off_band_cells"] == 0.0
    assert r.metrics["char_band_missing_frac"] <= 0.1


def test_energy_is_submodular_under_vee_and_wedge(suite):
    """Anisotropic energies satisfy the vee/wedge inequality to 1e-10 on 200
    random pairs; isotropic violations vanish linearly with h."""
    reports, _ = suite
    a = reports[CheckId.SUBMODULARITY_ANISO]
    v = reports[CheckId.VEE_WEDGE_ISO]
    assert a.passed and v.passed
    assert a.metrics["max_violation"] <= 1e-10
    assert a.config["pairs"] == 200
    assert v.metrics["violation_per_h"] <= 0.5


def test_solver_is_order_preserving_contraction_and_shift_equivariant(suite):
    """Certified ordered datum pairs give ordered solutions within tolerance,
    sup-norm contraction up to twice the tolerance, and exact equivariance
    under constant shifts of the datum."""
    reports, _ = suite
    c = reports[CheckId.COMPARISON]
    k = reports[CheckId.CONTRACTION]
    s = reports[CheckId.SHIFT_EQUIVARIANCE]
    assert c.passed and k.passed and s.passed
    assert c.metrics["uncertified_pairs"] == 0.0
    assert c.config["pairs"] == 20
    assert c.metrics["order_excess"] <= 0.0
    assert k.metrics["contraction_excess"] <= 0.0
    assert tuple(s.config["alphas"]) == (-1.0, 0.3)
    assert s.metrics["shift_sup"] <= s.thresholds["shift_sup"]


def test_slope_certification_affine_flat_edge_and_es1():
    """Certification recovers sqrt(5) for affine data, rejects x^2 on the
    square with an independently confirmed witness, and brackets the minimal
    certified slope for the es1 datum within 1% via two solver-free probes."""
    disk = DomainSpec.disk((0.0, 0.0), 1.0)
    rep = minimal_Q(boundary_samples(disk, Affine((1.0, -2.0), 0.5), 200))
    assert abs(rep.Q_min - np.sqrt(5.0)) <= 1e-2

    square_samples = boundary_samples(SQUARE, lambda x, y: x * x, 160)
    with pytest.raises(BscViolation) as exc_info:
        minimal_Q(square_samples)
    wx, wy = exc_info.value.witness
    assert exc_info.value.slack > 0.0
    pts = square_samples.points
    i0 = int(np.argmin(np.hypot(pts[:, 0] - wx, pts[:, 1] - wy)))
    # independent dense slope search: no upper support exists at the witness
    assert grid_search_defect(square_samples, i0, "upper") > 1e-4

    samples = boundary_samples(DomainSpec.parabolic(), es1_datum, 200)
    eps = feasibility_tolerance(samples.values)
    rep = minimal_Q(samples)
    assert np.isfinite(rep.Q_min) and rep.Q_min > 0.0
    # upper probe: the returned certificates themselves verify feasibility at
    # Q_min under direct recomputation, so the true minimal slope is <= Q_min
    worst_defect, worst_norm = certificate_defects(samples, rep)
    assert worst_defect <= eps + 1e-12
    assert worst_norm <= rep.Q_min * (1.0 + 1e-9)
    # lower probe: branch-and-bound proves no admissible slope family exists
    # at 0.99 * Q_min, so the true minimal slope is > 0.99 * Q_min
    proved, detail = prove_infeasible_below(samples, 0.99 * rep.Q_min, eps)
    assert proved, detail


def test_solution_sits_between_barriers_with_lipschitz_bound(suite):
    """The es1 solution lies between the affine-envelope barriers cell by
    cell, meets the datum at rate Q_min near the boundary, and its Lipschitz
    estimate honors the certified bound K."""
    reports, _ = suite
    b = reports[CheckId.BARRIER_SANDWICH]
    l = reports[CheckId.LIPSCHITZ_BOUND]
    assert b.passed and l.passed
    assert b.metrics["violating_cells"] == 0.0
    assert b.metrics["envelope_excess"] <= 1e-9
    assert l.metrics["boundary_excess"] <= l.thresholds["boundary_excess"]
    assert l.metrics["lipschitz_excess"] <= 0.0


def test_penalized_and_constrained_optima_agree(suite):
    """No relaxation gap: the penalized and constrained es1 optima at h = 1/64
    differ by at most 2% relative."""
    reports, _ = suite
    r = reports[CheckId.LAVRENTIEV]
    assert r.passed
    assert r.thresholds["mode_gap_rel"] == 0.02
    assert r.metrics["mode_gap_rel"] <= 0.02


def test_restriction_and_translation_consistency(suite):
    """Solving on a subdomain with the restricted solution as datum reproduces
    it within twice the tolerance; translating the lattice problem leaves the
    solution field and its energy invariant to 1e-8 relative."""
    reports, _ = suite
    r = reports[CheckId.RESTRICTION]
    t = reports[CheckId.TRANSLATION_COVARIANCE]
    assert r.passed and t.passed
    assert r.metrics["agreement_sup"] <= r.thresholds["agreement_sup"]
    assert t.metrics["field_sup"] <= t.thresholds["field_sup"]
    assert t.metrics["energy_rel"] <= 1e-8


def test_full_suite_is_green_within_budget(suite):
    reports, summary = suite
    assert set(reports) == set(CheckId)
    assert summary["total"] == 15
    assert summary["passed"] == 15
    assert summary["failed"] == 0
    assert summary["runtime"] < 900.0
