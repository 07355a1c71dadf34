import numpy as np
import pytest

from harea import (
    BoundaryDatum,
    DomainError,
    DomainSpec,
    boundary_faces,
    rasterize,
    sample_datum,
)


def test_disk_rasterization_hand_count():
    """Disk of radius 1 at h=1/2: centers (+-1/4,+-1/4), (+-3/4,+-1/4),
    (+-1/4,+-3/4) are inside (max radius 0.7906), the four (+-3/4,+-3/4)
    corners are out (radius 1.06) -- 12 interior cells."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.5)
    assert grid.interior_count == 12
    X, Y = grid.cell_centers()
    m = grid.interior_mask
    assert np.max(np.hypot(X[m], Y[m])) == pytest.approx(np.hypot(0.75, 0.25))


def test_disk_staircase_perimeter():
    # 12-cell cross: 12*4 slots - 2*16 shared pairs = 16 faces of length 1/2
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.5)
    faces = boundary_faces(grid)
    assert len(faces) == 16
    assert np.sum(faces.measure) == pytest.approx(8.0)


def test_unresolvable_grid_raises():
    with pytest.raises(DomainError):
        rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 2.5)


def test_cell_centers_on_snapped_lattice():
    # centers must be h*(k+1/2) regardless of the domain's placement
    for domain in (DomainSpec.disk((0.13, -0.41), 0.7), DomainSpec.parabolic()):
        grid = rasterize(domain, 0.125)
        k = grid.xs / grid.h - 0.5
        assert np.allclose(k, np.round(k))
        k = grid.ys / grid.h - 0.5
        assert np.allclose(k, np.round(k))


def test_mask_matches_predicate_brute_force():
    domain = DomainSpec.parabolic()
    grid = rasterize(domain, 1 / 16)
    X, Y = grid.cell_centers()
    want = domain.contains(X, Y)
    assert np.array_equal(grid.interior_mask, want)


def test_parabolic_region_shape():
    # lens between y = x^2 - 1 and y = 1 - x^2, cusps at (+-1, 0)
    domain = DomainSpec.parabolic()
    assert domain.contains(0.0, 0.0)
    assert domain.contains(0.0, -0.9)
    assert domain.contains(0.0, 0.9)
    assert not domain.contains(0.0, 1.1)  # above the upper arc
    assert not domain.contains(0.9, 0.9)  # outside the upper arc
    assert not domain.contains(1.5, 0.0)  # beyond the cusps
    assert not domain.contains(0.0, -1.01)  # below the lower vertex


def test_polygon_even_odd_nonconvex():
    # L-shape: unit square minus its upper-right quadrant
    L = DomainSpec.polygon(
        [(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)]
    )
    assert L.contains(0.25, 0.75)
    assert L.contains(0.75, 0.25)
    assert not L.contains(0.75, 0.75)
    grid = rasterize(L, 0.25)
    # 16 cells of the full square minus the 4 cut-out cells
    assert grid.interior_count == 12


@pytest.mark.parametrize(
    "make",
    [
        lambda: DomainSpec.disk((0.0, 0.0), float("inf")),
        lambda: DomainSpec.disk((0.0, 0.0), float("nan")),
        lambda: DomainSpec.disk((float("inf"), 0.0), 1.0),
        lambda: DomainSpec.disk((0.0, float("nan")), 1.0),
        lambda: DomainSpec.polygon([(0, 0), (float("inf"), 0), (0, 1)]),
        lambda: DomainSpec.polygon([(0, 0), (1, 0), (0, float("nan"))]),
    ],
    ids=["radius-inf", "radius-nan", "center-inf", "center-nan", "vertex-inf", "vertex-nan"],
)
def test_non_finite_geometry_is_a_domain_error(make):
    with pytest.raises(DomainError, match="finite"):
        make()


def test_polygon_needs_three_vertices():
    with pytest.raises(DomainError):
        DomainSpec.polygon([(0, 0), (1, 0)])


def test_boundary_faces_point_outward():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    faces = boundary_faces(grid)
    X, Y = grid.cell_centers()
    ox = X[faces.owner[:, 0], faces.owner[:, 1]]
    oy = Y[faces.owner[:, 0], faces.owner[:, 1]]
    # face midpoint sits half a cell outward of the owner center
    mx = ox + 0.5 * grid.h * faces.normal[:, 0]
    my = oy + 0.5 * grid.h * faces.normal[:, 1]
    assert np.allclose(faces.midpoint[:, 0], mx)
    assert np.allclose(faces.midpoint[:, 1], my)
    # the neighbor across each face is exterior
    ni = faces.owner[:, 0] + np.round(faces.normal[:, 0]).astype(int)
    nj = faces.owner[:, 1] + np.round(faces.normal[:, 1]).astype(int)
    assert not grid.interior_mask[ni, nj].any()


def test_face_measures_are_h():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 8)
    faces = boundary_faces(grid)
    assert np.allclose(faces.measure, grid.h)


def test_sample_datum_evaluates_at_midpoints():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    faces = boundary_faces(grid)
    datum = sample_datum(faces, lambda x, y: 3.0 * x - y)
    want = 3.0 * faces.midpoint[:, 0] - faces.midpoint[:, 1]
    assert np.array_equal(datum.values, want)
    assert datum.sup == pytest.approx(np.max(np.abs(want)))


def test_datum_length_mismatch_raises():
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    faces = boundary_faces(grid)
    with pytest.raises(DomainError):
        BoundaryDatum(faces, np.zeros(len(faces) + 1))


def test_same_lattice_detects_offsets():
    """Grids of one spacing share the global lattice: their origins differ
    by whole cells, here (-2, -1) of them."""
    g1 = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    g2 = rasterize(DomainSpec.disk((0.5, 0.25), 1.0), 0.25)
    assert ((g1.origin - g2.origin) / 0.25).tolist() == [-2.0, -1.0]
