"""Zero datum on the unit disk: the energy of the flat solution is the
integral of 2|z|, and the unit rotation field certifies it is minimal."""

import numpy as np

from harea import (
    BoundaryDatum,
    DomainSpec,
    ScalarField,
    SolverConfig,
    boundary_faces,
    certificate_gap,
    rasterize,
    solve,
    unit_rotation_certificate,
)

grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1.0 / 64.0)
faces = boundary_faces(grid)
datum = BoundaryDatum(faces, np.zeros(len(faces)))

rep = solve(grid, datum, SolverConfig(max_iters=20000, tol=1e-9))

target = 4.0 * np.pi / 3.0
print("solver energy %.6f vs 4*pi/3 = %.6f (rel err %.2e)" % (
    rep.energy.total, target, abs(rep.energy.total - target) / target))

# the divergence-free unit field makes every competitor at least as expensive:
# gap(w) = E(w) - linear functional bounded by E, nonnegative for all w
V = unit_rotation_certificate(grid)
print("gap at the solution: %.3e" % certificate_gap(rep.u, V, datum))
rng = np.random.default_rng(0)
worst = np.inf
for _ in range(10):
    w = np.zeros((grid.nx, grid.ny))
    w[grid.interior_mask] = rng.standard_normal(grid.interior_count)
    worst = min(worst, certificate_gap(ScalarField(grid, w), V, datum))
print("smallest gap over 10 random fields: %.3e (nonnegative => minimality)" % worst)
