import tracemalloc

import numpy as np
import pytest
from oracles import (
    assert_kkt,
    certificate_defects,
    dense_certificates,
    grid_search_defect,
    prove_infeasible_below,
)

from harea import checks
from harea import (
    BscError,
    BscViolation,
    DomainError,
    DomainSpec,
    Samples,
    barriers,
    boundary_samples,
    feasibility_tolerance,
    minimal_Q,
    rasterize,
)
from harea.surfaces import Affine, es1_datum

SQUARE = DomainSpec.polygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
DISK = DomainSpec.disk((0.0, 0.0), 1.0)


def certified(samples, grid=None):
    """``minimal_Q``, with every slope it returns passed by the KKT referee."""
    rep = minimal_Q(samples, grid=grid)
    assert_kkt(samples, rep)
    return rep


def test_boundary_samples_lie_on_the_curve():
    for domain, on_curve in (
        (DISK, lambda x, y: abs(np.hypot(x, y) - 1.0) < 1e-9),
        (SQUARE, lambda x, y: max(abs(x), abs(y)) > 1 - 1e-9),
        (
            DomainSpec.parabolic(),
            lambda x, y: abs(y - (x * x - 1.0)) < 1e-9 or abs(y - (1.0 - x * x)) < 1e-9,
        ),
    ):
        samples = boundary_samples(domain, lambda x, y: 0.0 * x, 64)
        assert samples.points.shape == (64, 2) and samples.values.shape == (64,)
        for x, y in samples.points:
            assert on_curve(x, y)
        assert np.all(samples.values == 0.0)


def test_boundary_samples_call_the_expression_once_on_the_curve_points():
    """The values are the expression on the points' coordinate arrays, bit
    for bit, from one call; a scalar return is broadcast."""
    for domain, expr in ((DomainSpec.parabolic(), es1_datum), (DISK, _first_pair()[0])):
        calls = []
        samples = boundary_samples(domain, lambda x, y: calls.append(x) or expr(x, y), 200)
        assert len(calls) == 1
        assert np.array_equal(samples.points, domain.boundary_points(200))
        assert samples.values.tobytes() == expr(*samples.points.T).tobytes()
    assert np.array_equal(boundary_samples(DISK, lambda x, y: 1.5, 10).values, np.full(10, 1.5))


def test_boundary_samples_of_listed_samples_take_the_nearest_value():
    rng = np.random.default_rng(11)
    t = rng.uniform(0.0, 2.0 * np.pi, 37)
    listed = Samples(np.stack((np.cos(t), np.sin(t)), axis=1), rng.normal(size=37))
    samples = boundary_samples(DISK, listed, 50)
    d2 = ((samples.points[:, None, :] - listed.points[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(samples.values, listed.values[np.argmin(d2, axis=1)])


def test_feasibility_tolerance_scales_with_range():
    assert feasibility_tolerance(np.array([0.0, 0.0])) == pytest.approx(1e-6)
    assert feasibility_tolerance(np.array([-2.0, 3.0])) == pytest.approx(6e-6)


def test_too_few_samples_rejected():
    with pytest.raises(BscError):
        minimal_Q(Samples(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0])))


def test_repeated_copies_of_too_few_samples_rejected():
    """Five copies of one sample are one sample: too few to certify."""
    with pytest.raises(BscError, match="at least 3 distinct samples"):
        minimal_Q(Samples(np.tile([[0.5, 0.5]], (5, 1)), np.full(5, 1.0)))


@pytest.mark.parametrize("points, values", [
    pytest.param(np.zeros((5, 2)), np.zeros(8), id="more-values"),
    pytest.param(np.zeros((5, 2)), np.zeros(3), id="fewer-values"),
    pytest.param(np.zeros((0, 2)), np.zeros(0), id="empty"),
])
def test_samples_of_mismatched_shapes_rejected(points, values):
    with pytest.raises(DomainError, match="samples need points"):
        Samples(points, values)


@pytest.mark.parametrize("bad", ["nan-value", "inf-value", "nan-point"])
def test_non_finite_samples_rejected(bad):
    samples = boundary_samples(DISK, Affine((1.0, -2.0), 0.5), 20)
    pts, vals = samples.points.copy(), samples.values.copy()
    if bad == "nan-point":
        pts[3, 0] = np.nan
    else:
        vals[3] = {"nan-value": np.nan, "inf-value": np.inf}[bad]
    with pytest.raises(BscError, match="non-finite"):
        minimal_Q(Samples(pts, vals))


def test_affine_datum_certified_at_its_own_slope():
    samples = boundary_samples(DISK, Affine((1.0, -2.0), 0.5), 120)
    rep = certified(samples)
    assert rep.Q_min == pytest.approx(np.sqrt(5.0), abs=1e-2)
    # the certificates are supports of norm at most Q_min; they need not be
    # the datum slope (at (1, 0) a flatter upper support exists)
    eps = feasibility_tolerance(samples.values)
    assert np.max(rep.slack) <= eps
    worst_defect, worst_norm = certificate_defects(samples, rep)
    assert worst_defect <= eps
    assert worst_norm <= rep.Q_min


def test_constant_datum_needs_no_slope():
    samples = boundary_samples(DISK, lambda x, y: 0.0 * x + 1.0, 80)
    rep = certified(samples)
    assert rep.Q_min <= 1e-2


def test_feasibility_is_monotone_in_Q():
    samples = boundary_samples(DISK, Affine((1.0, -2.0), 0.0), 80)
    # below the datum slope no support exists; above it both sides close
    rep = certified(samples)
    need = max(np.hypot(*rep.lower[0]), np.hypot(*rep.upper[0]))
    assert 1.0 < need <= 3.0
    assert rep.slack[0] <= feasibility_tolerance(samples.values)


def test_flat_edge_quadratic_is_violated():
    """x^2 on the square: along a flat edge the datum is strictly convex, so
    no affine function can touch it from above at an interior edge point,
    whatever the slope bound."""
    expr = lambda x, y: x**2
    samples = boundary_samples(SQUARE, expr, 160)
    with pytest.raises(BscViolation) as exc_info:
        minimal_Q(samples)
    wx, wy = exc_info.value.witness
    assert max(abs(wx), abs(wy)) == pytest.approx(1.0, abs=1e-9)
    assert exc_info.value.slack > 0.1

    # referee 1: midpoint convexity at the witness is already infeasible for
    # every slope: any upper support averages to phi(z0) over a symmetric
    # sample pair, but the datum averages strictly higher
    pts, phi = samples.points, samples.values
    i0 = int(np.argmin(np.hypot(pts[:, 0] - wx, pts[:, 1] - wy)))
    same_edge = np.isclose(pts[:, 1], pts[i0, 1]) & ~np.isclose(pts[:, 0], pts[i0, 0])
    if abs(wy) < 0.5:  # witness on a vertical edge instead
        same_edge = np.isclose(pts[:, 0], pts[i0, 0]) & ~np.isclose(pts[:, 1], pts[i0, 1])
    offsets = pts[same_edge] - pts[i0]
    values = phi[same_edge]
    paired = False
    for k in range(len(offsets)):
        match = np.where(np.all(np.isclose(offsets, -offsets[k]), axis=1))[0]
        if len(match):
            gap = 0.5 * (values[k] + values[match[0]]) - phi[i0]
            assert gap > 1e-4
            paired = True
            break
    assert paired

    # referee 2: dense slope search agrees there is no upper support
    assert grid_search_defect(samples, i0, "upper") > 1e-4


def test_es1_on_the_true_boundary_is_certified():
    samples = boundary_samples(DomainSpec.parabolic(), es1_datum, 100)
    rep = certified(samples)
    assert 9.0 <= rep.Q_min <= 10.5
    eps = feasibility_tolerance(samples.values)
    assert np.max(rep.slack) <= eps


def test_repeated_samples_are_certified_as_the_distinct_ones():
    """A closed polyline that lists its first points again repeats their
    lines at every anchor; equal lines must not cut each other's edges by
    rounding (the dense edge formula reported a violation here)."""
    distinct = boundary_samples(DISK, lambda x, y: x * y, 9)
    repeated = np.r_[0:9, 0:3]
    rep = certified(Samples(distinct.points[repeated], distinct.values[repeated]))
    assert rep.Q_min == certified(distinct).Q_min
    for cert in (rep.lower, rep.upper, rep.slack):
        assert np.array_equal(cert[9:], cert[:3])


def test_Q_min_scales_linearly_with_the_datum():
    # affine supports scale with the datum, so Q_min must too
    base = boundary_samples(DomainSpec.parabolic(), es1_datum, 80)
    doubled = Samples(base.points, 2.0 * base.values)
    q1 = certified(base).Q_min
    q2 = certified(doubled).Q_min
    assert q2 == pytest.approx(2.0 * q1, rel=5e-3)


def test_K_adds_domain_radius_term():
    samples = boundary_samples(DISK, Affine((1.0, 0.0), 0.0), 80)
    grid = rasterize(DISK, 1 / 16)
    rep = certified(samples, grid=grid)
    centers = grid.interior_centers()
    want = rep.Q_min + 4.0 * np.max(np.hypot(centers[:, 0], centers[:, 1]))
    assert rep.K == pytest.approx(want)
    # without a grid the sample positions stand in for the domain
    rep2 = certified(samples)
    assert rep2.K == pytest.approx(rep2.Q_min + 4.0, abs=1e-6)


def test_affine_barriers_collapse_onto_the_datum():
    """For an affine datum the lower and upper envelopes both equal the affine
    function itself, squeezing every minimizer to it."""
    L = Affine((1.0, -2.0), 0.5)
    samples = boundary_samples(DISK, L, 120)
    grid = rasterize(DISK, 1 / 16)
    rep = certified(samples, grid=grid)
    f, g = barriers(samples, rep, grid)
    X, Y = grid.cell_centers()
    m = grid.interior_mask
    want = X[m] - 2.0 * Y[m] + 0.5
    assert np.max(np.abs(f.values[m] - want)) <= 1e-5
    assert np.max(np.abs(g.values[m] - want)) <= 1e-5


def test_barriers_bracket_each_other():
    samples = boundary_samples(DomainSpec.parabolic(), es1_datum, 120)
    grid = rasterize(DomainSpec.parabolic(), 1 / 16)
    rep = certified(samples, grid=grid)
    f, g = barriers(samples, rep, grid)
    m = grid.interior_mask
    assert np.max((f.values - g.values)[m]) <= 1e-9


def test_report_arrays_are_read_only_and_tied_to_their_samples():
    samples = boundary_samples(DISK, Affine((0.5, 0.5), 0.0), 60)
    grid = rasterize(DISK, 1 / 8)
    rep = certified(samples, grid=grid)
    assert rep.lower.shape == rep.upper.shape == (60, 2) and rep.slack.shape == (60,)
    for cert in (rep.lower, rep.upper, rep.slack):
        with pytest.raises(ValueError):
            cert[0] = 0.0
    with pytest.raises(BscError, match="does not match"):
        barriers(Samples(samples.points[:-1], samples.values[:-1]), rep, grid)


def test_report_json():
    import json

    samples = boundary_samples(DISK, Affine((0.5, 0.5), 0.0), 60)
    rep = certified(samples)
    json.dumps(rep.to_json())


def _es1_curve_samples():
    """The barrier_sandwich check's slope-certificate input."""
    return boundary_samples(DomainSpec.parabolic(), es1_datum, checks._CURVE_SAMPLES)


def _pairs():
    """The comparison check's 20 ordered datum pairs, in its order."""
    rng = np.random.default_rng(checks._PAIR_SEED)
    for _ in range(20):
        phi = checks._fourier_datum(rng)
        delta = checks._positive_offset(rng)
        yield phi, lambda x, y, phi=phi, delta=delta: phi(x, y) + delta(x, y)


def _first_pair():
    return next(_pairs())


@pytest.mark.parametrize("case", ["es1", "affine-disk", "pair-phi"])
def test_Q_min_is_tight(case):
    """The certificates verify Q_min by direct arithmetic, and branch-and-bound
    proves that no admissible slopes exist 1e-4 below it."""
    samples = {
        "es1": _es1_curve_samples,
        "affine-disk": lambda: boundary_samples(DISK, Affine((1.0, -2.0), 0.5), 120),
        "pair-phi": lambda: boundary_samples(DISK, _first_pair()[0], 160),
    }[case]()
    eps = feasibility_tolerance(samples.values)
    rep = certified(samples)
    worst_defect, worst_norm = certificate_defects(samples, rep)
    assert worst_defect <= eps
    assert worst_norm <= rep.Q_min * (1.0 + 1e-12)
    proved, detail = prove_infeasible_below(samples, rep.Q_min * (1.0 - 1e-4), eps)
    assert proved, detail


def _assert_matches_dense(samples):
    """Q_min and the slopes to 1e-12 of Q_min, the slack to 1e-12 of the
    datum's scale 1 + range (the feasibility tolerance is 1e-6 of it)."""
    Q, slopes, slack = dense_certificates(samples)
    rep = certified(samples)
    assert rep.Q_min == pytest.approx(Q, rel=1e-12, abs=0.0)
    got = np.stack((rep.lower, rep.upper), axis=1)
    assert np.max(np.abs(got - slopes)) <= 1e-12 * Q
    scale = 1.0 + np.ptp(samples.values)
    assert np.max(np.abs(rep.slack - slack)) <= 1e-12 * scale


@pytest.mark.parametrize("case", ["es1-200", "affine-disk", "constant"])
def test_minimal_Q_matches_the_dense_referee(case):
    samples = {
        "es1-200": lambda: boundary_samples(DomainSpec.parabolic(), es1_datum, 200),
        "affine-disk": lambda: boundary_samples(DISK, Affine((1.0, -2.0), 0.5), 200),
        # the origin is admissible at every sample
        "constant": lambda: boundary_samples(DISK, lambda x, y: 0.0 * x + 1.0, 80),
    }[case]()
    _assert_matches_dense(samples)


@pytest.mark.parametrize("n", [1000, 2000], ids=["es1-1000", "es1-2000"])
def test_minimal_Q_passes_the_kkt_referee(n):
    """Above 200 samples the dense referee re-solves too slowly for tier-1
    (12.5 s at 1,000); the KKT referee checks optimality in O(n) a problem."""
    certified(boundary_samples(DomainSpec.parabolic(), es1_datum, n))


def test_minimal_Q_matches_the_dense_referee_on_the_comparison_pairs():
    for phi, psi in _pairs():
        for datum in (phi, psi):
            _assert_matches_dense(boundary_samples(DISK, datum, 160))


# tracemalloc peak of minimal_Q on 2,000 es1 samples: 5.7 MiB; the
# bound leaves 2x headroom.  The dense edge formula took O(n^2) memory
# here (31.8 MiB at 1,000 samples of an affine datum).
_PEAK_2000_MIB = 11.5


def test_minimal_Q_memory_is_linear_in_the_samples():
    samples = boundary_samples(DomainSpec.parabolic(), es1_datum, 2000)
    tracemalloc.start()
    try:
        minimal_Q(samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _PEAK_2000_MIB * 2**20
