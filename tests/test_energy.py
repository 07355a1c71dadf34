import numpy as np
import pytest

import harea.energy as energy_module
import harea.fields as fields_module
import harea.solver as solver_module
from harea import (
    BoundaryDatum,
    DomainSpec,
    EnergyError,
    EnergyMode,
    Grid,
    ScalarField,
    SolverConfig,
    area_energy,
    boundary_faces,
    certificate_gap,
    char_set,
    es1_surface,
    es2_surface,
    euler_residual,
    lipschitz_estimate,
    penalized_energy,
    rasterize,
    sample_datum,
    solve,
    translate_problem,
    unit_rotation_certificate,
)
from harea import pdloop
from harea.checks import _vee_wedge_excess, run_check
from harea.fields import _hxstar, difference_operator, interior_xstar, operator_norm_sq
from oracles import hypot_certificate_gap, hypot_char_set, hypot_lipschitz


def one_cell_grid(center, h=1.0):
    origin = (center[0] - h / 2, center[1] - h / 2)
    return Grid(h=h, origin=np.asarray(origin), nx=1, ny=1,
                interior_mask=np.ones((1, 1), dtype=bool))


def test_single_cell_area_is_drift_norm():
    # flat u on one cell: only the rotation drift contributes, h^2 |X*(z_c)|
    grid = one_cell_grid((1.0, 2.0))
    u = ScalarField(grid, np.zeros((1, 1)))
    assert area_energy(u) == pytest.approx(2.0 * np.hypot(1.0, 2.0))


def test_single_cell_area_anisotropic():
    grid = one_cell_grid((1.0, 2.0))
    u = ScalarField(grid, np.zeros((1, 1)))
    # l1 norm of X* = 2(-2, 1): 4 + 2
    assert area_energy(u, EnergyMode.ANISOTROPIC) == pytest.approx(6.0)


def test_energy_mode_parses_its_two_values_only():
    assert EnergyMode.parse("iso") is EnergyMode.parse(EnergyMode.ISOTROPIC) is EnergyMode.ISOTROPIC
    assert EnergyMode.parse("aniso") is EnergyMode.ANISOTROPIC
    for name in ("l1", "isotropic", "anisotropic"):
        with pytest.raises(EnergyError, match="expected 'iso' or 'aniso'"):
            EnergyMode.parse(name)


def test_zero_datum_disk_quadrature():
    """For u = 0 the area is the Riemann sum of |X*| = 2|z|; the radial
    integral over the unit disk is 4 pi / 3."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 64)
    u = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    target = 4.0 * np.pi / 3.0
    assert abs(area_energy(u) - target) <= 0.02 * target


def test_penalty_term_hand_case():
    grid = one_cell_grid((0.25, 0.25), h=0.5)
    faces = boundary_faces(grid)
    assert len(faces) == 4
    datum = BoundaryDatum(faces, np.array([1.0, 2.0, 3.0, 4.0]))
    u = ScalarField(grid, np.zeros((1, 1)))
    br = penalized_energy(u, datum)
    # each face contributes h * |0 - phi_f|
    assert br.penalty == pytest.approx(0.5 * (1 + 2 + 3 + 4))
    assert br.total == pytest.approx(br.interior + br.penalty)


def test_penalized_energy_is_total_of_parts():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    faces = boundary_faces(grid)
    rng = np.random.default_rng(3)
    uv = np.zeros((grid.nx, grid.ny))
    uv[grid.interior_mask] = rng.standard_normal(grid.interior_count)
    u = ScalarField(grid, uv)
    datum = BoundaryDatum(faces, rng.standard_normal(len(faces)))
    br = penalized_energy(u, datum)
    assert br.interior == pytest.approx(area_energy(u))
    assert br.total == pytest.approx(br.interior + br.penalty)


def test_anisotropic_submodularity_random():
    """l1 cell norms make the functional exactly submodular under pointwise
    max/min of both the field and the datum."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    faces = boundary_faces(grid)
    rng = np.random.default_rng(17)
    mode = EnergyMode.ANISOTROPIC
    for _ in range(40):
        uv1 = np.zeros((grid.nx, grid.ny))
        uv2 = np.zeros((grid.nx, grid.ny))
        uv1[grid.interior_mask] = rng.standard_normal(grid.interior_count)
        uv2[grid.interior_mask] = rng.standard_normal(grid.interior_count)
        u1, u2 = ScalarField(grid, uv1), ScalarField(grid, uv2)
        d1 = BoundaryDatum(faces, rng.standard_normal(len(faces)))
        d2 = BoundaryDatum(faces, rng.standard_normal(len(faces)))
        vee_u = ScalarField(grid, np.maximum(u1.values, u2.values))
        wedge_u = ScalarField(grid, np.minimum(u1.values, u2.values))
        vee_d = BoundaryDatum(faces, np.maximum(d1.values, d2.values))
        wedge_d = BoundaryDatum(faces, np.minimum(d1.values, d2.values))
        lhs = (penalized_energy(vee_u, vee_d, mode).total
               + penalized_energy(wedge_u, wedge_d, mode).total)
        rhs = penalized_energy(u1, d1, mode).total + penalized_energy(u2, d2, mode).total
        assert lhs <= rhs + 1e-10


def test_certificate_gap_nonnegative_for_unit_rotation():
    # the normalized drift field is admissible: gap >= 0 up to roundoff
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 32)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.zeros(len(faces)))
    V = unit_rotation_certificate(grid)
    assert np.max(np.abs(V.values[grid.interior_mask] ** 2).sum(axis=-1) - 1.0) <= 1e-9
    rng = np.random.default_rng(23)
    for _ in range(10):
        uv = np.zeros((grid.nx, grid.ny))
        uv[grid.interior_mask] = rng.standard_normal(grid.interior_count)
        assert certificate_gap(ScalarField(grid, uv), V, datum) >= -1e-9


def test_penalized_energy_rejects_datum_from_another_grid():
    """The penalty indexes the field through the datum's owner cells, so a
    datum on another grid of the same lattice must be refused, not misread."""
    h = 1 / 16
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), h)
    u = ScalarField.from_function(grid, es1_surface)
    square = DomainSpec.polygon([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    sub_datum = sample_datum(boundary_faces(rasterize(square, h)), es1_surface)
    with pytest.raises(EnergyError, match="datum faces belong to a different grid"):
        penalized_energy(u, sub_datum)


def test_certificate_gap_rejects_certificate_on_a_translated_grid():
    h = 1 / 16
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), h)
    u = ScalarField.from_function(grid, es1_surface)
    datum = sample_datum(boundary_faces(grid), es1_surface)
    moved = Grid(h=h, origin=grid.origin + (4 * h, -7 * h), nx=grid.nx, ny=grid.ny,
                 interior_mask=grid.interior_mask)
    with pytest.raises(EnergyError, match="certificate lives on a different grid"):
        certificate_gap(u, unit_rotation_certificate(moved), datum)


def test_translation_identity_is_exact():
    """Lattice translation plus the matching tilt is an exact symmetry of the
    discrete functional, not just an approximate one."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    faces = boundary_faces(grid)
    expr = lambda x, y: x * (y - x**2 + 1)
    u = ScalarField.from_function(grid, lambda x, y: np.sin(2 * x) * y)
    datum = sample_datum(faces, expr)
    E0 = penalized_energy(u, datum).total
    h = grid.h
    _, u_t, datum_t = translate_problem(u, datum, (3 * h, -5 * h), xi=0.8)
    E1 = penalized_energy(u_t, datum_t).total
    assert E1 == pytest.approx(E0, abs=1e-10)


def test_translated_grid_shares_the_operator_and_the_step_rule():
    """The shifted grid has the source's mask and h, so it takes the source's
    difference operator and step-rule estimate, which depend on nothing
    else, and builds its own X*."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: x * y)
    u = ScalarField.from_function(grid, lambda x, y: np.sin(2 * x) * y)
    L2 = operator_norm_sq(grid)
    h = grid.h
    grid_t, _, _ = translate_problem(u, datum, (3 * h, -5 * h))
    assert difference_operator(grid_t) is difference_operator(grid)
    unshared = Grid(h=h, origin=grid_t.origin, nx=grid.nx, ny=grid.ny, interior_mask=grid.interior_mask)
    assert operator_norm_sq(grid_t) == L2 == operator_norm_sq(unshared)
    assert np.array_equal(interior_xstar(grid_t), interior_xstar(unshared))
    assert not np.array_equal(interior_xstar(grid_t), interior_xstar(grid))


def test_a_translated_grid_and_its_source_run_the_step_rule_once(monkeypatch):
    """The estimate is cached on the operator the two grids share, so the
    step rule runs once in all and binds K^T K once, even where the
    translate is made before the source's estimate and asks for its own
    first."""
    calls = []
    rule, bind = fields_module._step_rule, pdloop.normal_operator
    monkeypatch.setattr(fields_module, "_step_rule", lambda *args: calls.append("rule") or rule(*args))
    monkeypatch.setattr(pdloop, "normal_operator", lambda K: calls.append("K^T K") or bind(K))
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: x * y)
    u = ScalarField.from_function(grid, lambda x, y: np.sin(2 * x) * y)
    grid_t, _, _ = translate_problem(u, datum, (3 * grid.h, -5 * grid.h))
    assert operator_norm_sq(grid_t) == operator_norm_sq(grid)
    assert calls == ["rule", "K^T K"]


def test_translated_grid_builds_its_own_hxstar():
    """h X* depends on the cell centers, so a translated grid, which shares
    its source's operator and estimate, still builds its own, even where the
    source's is cached already."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: x * y)
    u = ScalarField.from_function(grid, lambda x, y: np.sin(2 * x) * y)
    source = _hxstar(grid)
    grid_t, _, _ = translate_problem(u, datum, (3 * grid.h, -5 * grid.h))
    shifted = _hxstar(grid_t)
    assert shifted is not source and shifted.tobytes() != source.tobytes()
    assert shifted.tobytes() == (grid_t.h * interior_xstar(grid_t)).tobytes()


def test_solves_and_evaluations_read_the_grids_cached_hxstar(monkeypatch):
    """Once a grid's h X* is cached, both solver blocks, every energy
    evaluation and the vee-wedge excess run with X* no longer reachable, and
    the cached array is the one they leave behind: nothing forms h X* per
    call."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    faces = boundary_faces(grid)
    datum = sample_datum(faces, lambda x, y: x * y)
    cfg = SolverConfig(max_iters=200)
    V = unit_rotation_certificate(grid)
    operator_norm_sq(grid)
    cached = _hxstar(grid)

    def unreachable(_):
        raise AssertionError("X* read after h X* was cached")

    for module in (fields_module, energy_module, solver_module):
        monkeypatch.setattr(module, "interior_xstar", unreachable)
    reports = [solve(grid, datum, cfg)]
    with monkeypatch.context() as m:
        m.setattr(pdloop, "bind", lambda **kw: None)
        reports.append(solve(grid, datum, cfg))
    assert reports[0].u.values.tobytes() == reports[1].u.values.tobytes()
    u = reports[0].u
    assert penalized_energy(u, datum).total == reports[0].energy.total
    area_energy(u)
    certificate_gap(u, V, datum)
    z = np.random.default_rng(5).standard_normal((2, grid.interior_count + len(faces)))
    _vee_wedge_excess(grid, faces, *z, EnergyMode.ISOTROPIC)
    assert _hxstar(grid) is cached


def test_translation_covariance_is_unchanged_by_the_shared_operator(monkeypatch):
    """The check's metrics are equal by bytes whether the shifted grid shares
    the source's operator and estimate or builds its own."""
    shared = run_check("translation_covariance")
    monkeypatch.setattr(energy_module, "_share_operator", lambda grid, source: None)
    alone = run_check("translation_covariance")
    assert shared.passed and alone.passed
    assert shared.metrics.keys() == alone.metrics.keys()
    for name, value in shared.metrics.items():
        assert np.float64(value).tobytes() == np.float64(alone.metrics[name]).tobytes(), name


def test_translation_rejects_off_lattice_shift():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    faces = boundary_faces(grid)
    u = ScalarField(grid, np.zeros((grid.nx, grid.ny)))
    datum = BoundaryDatum(faces, np.zeros(len(faces)))
    with pytest.raises(Exception, match="multiple of h"):
        translate_problem(u, datum, (0.01, 0.0))


def erode(mask, layers):
    m = mask.copy()
    for _ in range(layers):
        inner = m.copy()
        inner[1:, :] &= m[:-1, :]
        inner[:-1, :] &= m[1:, :]
        inner[:, 1:] &= m[:, :-1]
        inner[:, :-1] &= m[:, 1:]
        m = inner
    return m


def test_euler_residual_vanishes_for_es2_closed_form():
    """Away from its characteristic line y=0 the closed-form es2 surface
    satisfies the discrete equation to machine precision, because the
    normalized horizontal field is piecewise constant there."""
    grid = rasterize(
        DomainSpec.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]), 1 / 32
    )
    u = ScalarField.from_function(grid, es2_surface)
    res = euler_residual(u)
    _, Y = grid.cell_centers()
    region = erode(grid.interior_mask, 2) & (np.abs(Y) > 2 * grid.h)
    assert np.max(np.abs(res.values[region])) <= 1e-9


def test_euler_residual_vanishes_for_es1_closed_form():
    grid = rasterize(DomainSpec.parabolic(), 1 / 32)
    u = ScalarField.from_function(grid, es1_surface)
    res = euler_residual(u)
    X, Y = grid.cell_centers()
    h = grid.h
    region = erode(grid.interior_mask, 2) & (Y > 2 * h) & (np.abs(X) > 2 * h)
    assert np.max(np.abs(res.values[region])) <= 1e-9
    # the lower half-plane part of the same closed form is genuinely not a
    # solution: the residual there is O(1) in h, not small
    lower = erode(grid.interior_mask, 2) & (Y < -2 * h) & (np.abs(X) > 2 * h)
    assert np.max(np.abs(res.values[lower])) > 0.1


def test_char_set_of_es2_is_the_y_band():
    grid = rasterize(
        DomainSpec.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)]), 1 / 32
    )
    u = ScalarField.from_function(grid, es2_surface)
    cs = char_set(u)
    _, Y = grid.cell_centers()
    assert np.max(np.abs(Y[cs])) <= 2.5 * grid.h
    band = grid.interior_mask & (np.abs(Y) <= 0.5 * grid.h)
    assert np.all(cs[band])


def test_certificate_gap_matches_full_grid_oracle_on_calibration_disk_inputs():
    """The interior (2, n) computation sums the same products in the same
    order as the full-grid formula, so the gap is equal bit for bit: on the
    calibration_disk check's solve and its twenty seeded random fields."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 64)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.zeros(len(faces)))
    V = unit_rotation_certificate(grid)
    fields = [solve(grid, datum, SolverConfig(max_iters=20000, tol=1e-9)).u]
    rng = np.random.default_rng(99)
    for _ in range(20):
        w = np.zeros((grid.nx, grid.ny))
        w[grid.interior_mask] = rng.standard_normal(grid.interior_count)
        fields.append(ScalarField(grid, w))
    for u in fields:
        assert certificate_gap(u, V, datum) == hypot_certificate_gap(u, V, datum)


def test_char_set_and_lipschitz_estimate_match_full_grid_hypot_oracles():
    """sqrt(x*x + y*y) and np.hypot differ by at most an ulp or two: the es1
    characteristic set at h = 1/64 is the same mask, and the Lipschitz
    estimates agree to 2 ulp."""
    grid = rasterize(DomainSpec.parabolic(), 1 / 64)
    u = ScalarField.from_function(grid, es1_surface)
    assert char_set(u).any()
    assert np.array_equal(char_set(u), hypot_char_set(u))
    rng = np.random.default_rng(4)
    w = np.zeros((grid.nx, grid.ny))
    w[grid.interior_mask] = rng.standard_normal(grid.interior_count)
    for field in (u, ScalarField(grid, w)):
        ref = hypot_lipschitz(field)
        assert abs(lipschitz_estimate(field) - ref) <= 2 * np.spacing(ref)
