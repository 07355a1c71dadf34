"""Solve the lens-domain benchmark and compare with its closed-form surface.

Writes solution.csv / solution.pgm next to this script (out_lens/).
"""

import os

import numpy as np

from harea import (
    DomainSpec,
    SolverConfig,
    boundary_faces,
    char_set,
    es1_datum,
    es1_surface,
    rasterize,
    sample_datum,
    solve,
    write_field,
    write_pgm,
)

h = 1.0 / 64.0
grid = rasterize(DomainSpec.parabolic(), h)
faces = boundary_faces(grid)
datum = sample_datum(faces, es1_datum)

rep = solve(grid, datum, SolverConfig(max_iters=30000, tol=1e-9))
print("converged: %s after %d iterations" % (rep.converged, rep.iterations))
print(
    "energy: interior %.6f + penalty %.6f = %.6f"
    % (rep.energy.interior, rep.energy.penalty, rep.energy.total)
)

X, Y = grid.cell_centers()
m = grid.interior_mask
exact = es1_surface(X, Y)
rel_l1 = np.sum(np.abs(rep.u.values - exact)[m]) / np.sum(np.abs(exact)[m])
print("relative L1 distance to the closed form: %.4f" % rel_l1)

# degenerate cells concentrate on the upper half of the y-axis
chars = char_set(rep.u)
cy = Y[chars]
print("%d degenerate cells, %.0f%% with y > 0" % (chars.sum(), 100.0 * np.mean(cy > 0)))

outdir = os.path.join(os.path.dirname(__file__), "out_lens")
os.makedirs(outdir, exist_ok=True)
write_field(rep.u, os.path.join(outdir, "solution.csv"))
write_pgm(rep.u.values, os.path.join(outdir, "solution.pgm"), mask=grid.interior_mask)
print("wrote", os.path.join(outdir, "solution.csv"))
