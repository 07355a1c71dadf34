"""Area-minimizing t-graphs over planar domains.

The package discretizes the sub-Riemannian area of a t-graph — the integral
of |grad(u) + X*| with the rotation drift X*(z) = 2(-y, x) — over a cell grid,
minimizes it with a primal-dual splitting under penalized or pinned boundary
data, certifies boundary data against the bounded slope condition, and bundles
the resulting guarantees (comparison, barriers, covariance, worked examples)
into named, reproducible checks.

Submodules are imported lazily, so ``import harea`` and ``harea --help`` load
no numeric library.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # geometry
    "DomainSpec": "geometry",
    "Grid": "geometry",
    "BoundaryFaces": "geometry",
    "BoundaryDatum": "geometry",
    "DomainError": "geometry",
    "rasterize": "geometry",
    "boundary_faces": "geometry",
    "sample_datum": "geometry",
    # fields
    "ScalarField": "fields",
    "VectorField": "fields",
    "star": "fields",
    "xstar_field": "fields",
    "gradient": "fields",
    "divergence": "fields",
    "lipschitz_estimate": "fields",
    "operator_norm_sq": "fields",
    # energy
    "EnergyMode": "energy",
    "EnergyBreakdown": "energy",
    "EnergyError": "energy",
    "area_energy": "energy",
    "default_char_threshold": "energy",
    "penalized_energy": "energy",
    "char_set": "energy",
    "euler_residual": "energy",
    "unit_rotation_certificate": "energy",
    "certificate_gap": "energy",
    "translate_problem": "energy",
    # solver
    "SolverConfig": "solver",
    "SolveReport": "solver",
    "SolverError": "solver",
    "solve": "solver",
    "balanced_steps": "solver",
    "solver_tolerance": "solver",
    "prox_dual": "solver",
    "prox_primal": "solver",
    "refine_study": "solver",
    "RefineRow": "solver",
    # bsc
    "BscError": "bsc",
    "BscViolation": "bsc",
    "BscReport": "bsc",
    "boundary_samples": "bsc",
    "minimal_Q": "bsc",
    "barriers": "bsc",
    "feasibility_tolerance": "bsc",
    # surfaces
    "Affine": "surfaces",
    "zero": "surfaces",
    "es1_datum": "surfaces",
    "es1_surface": "surfaces",
    "es2_surface": "surfaces",
    "Samples": "surfaces",
    # checks
    "CheckId": "checks",
    "TestReport": "checks",
    "run_check": "checks",
    "run_suite": "checks",
    # io
    "read_field": "fileio",
    "write_field": "fileio",
    "write_pgm": "fileio",
    "FormatError": "fileio",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'harea' has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
