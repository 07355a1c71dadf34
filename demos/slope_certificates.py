"""Certify boundary data by affine supports and sandwich a solve between the
resulting barrier envelopes."""

import numpy as np

from harea import (
    DomainSpec,
    SolverConfig,
    barriers,
    boundary_faces,
    boundary_samples,
    es1_datum,
    lipschitz_estimate,
    minimal_Q,
    rasterize,
    sample_datum,
    solve,
    solver_tolerance,
)


def main():
    dom = DomainSpec.parabolic()
    samples = boundary_samples(dom, es1_datum, 200)
    report = minimal_Q(samples)
    print(f"minimal certified slope Q_min = {report.Q_min:.4f}")
    print(f"interior Lipschitz bound   K  = {report.K:.4f}")
    for z, lo, hi in zip(samples.points[:3], report.lower, report.upper):
        lo, hi = np.round(lo, 3), np.round(hi, 3)
        print(f"  sample {np.round(z, 3)}: lower slope {lo}, upper slope {hi}")

    grid = rasterize(dom, 1.0 / 32.0)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    rep = solve(grid, datum, SolverConfig(max_iters=20000, tol=1e-9))

    f, g = barriers(samples, report, grid)
    m = grid.interior_mask
    tol = solver_tolerance(grid, datum)
    below = int(np.sum(rep.u.values[m] < f.values[m] - tol))
    above = int(np.sum(rep.u.values[m] > g.values[m] + tol))
    print(f"barrier sandwich: {below} cells under f, {above} cells over g (tol {tol:.3f})")
    lip = lipschitz_estimate(rep.u)
    print(f"solution Lipschitz estimate {lip:.3f} vs certified bound {report.K:.3f}")


if __name__ == "__main__":
    main()
