"""The benchmark's workloads, their correctness gates and the public-API probes.

Every workload is a closed loop: each operation starts after the previous one
ends.  A workload has a set-up (imports, grids, faces, data, step rule), a
timed phase made of operations (one solve, or one check), and probes that the
traced run adds after the timed phase to price single public calls.

All package calls go through :class:`Api`, which times them from outside;
nothing inside ``harea`` is changed.
"""

from __future__ import annotations

import importlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from .data import disk_pairs
from .trace import Tracer

ENERGY_REL_TOL = 1e-9  # reported vs re-evaluated energy of a solve
LENS_REL_L1_TOL = 0.05  # the threshold the example_es1 check uses

# run_check ids of the verify workload, in CheckId order.  The refinement
# ladders (example_es1, example_es2, affine_unique) and the comparison trio
# (comparison, contraction, shift_equivariance) are left out: the lens and
# disk-pair workloads already cover their solve patterns.
VERIFY_CHECKS = (
    "translation_covariance",
    "submodularity_aniso",
    "vee_wedge_iso",
    "lavrentiev",
    "barrier_sandwich",
    "lipschitz_bound",
    "euler_residual_es1",
    "restriction",
    "calibration_disk",
)

# Public functions the checks module calls, by layer; the traced verify run
# wraps them where the checks module looks them up.
CHECKS_CALLS = {
    "geometry": ("rasterize", "boundary_faces", "sample_datum"),
    "fields": ("gradient", "divergence", "lipschitz_estimate"),
    "energy": (
        "penalized_energy",
        "certificate_gap",
        "char_set",
        "euler_residual",
        "translate_problem",
        "unit_rotation_certificate",
    ),
    "solver": ("balanced_steps",),
    "bsc": ("boundary_samples", "minimal_Q", "barriers"),
}


@dataclass(frozen=True)
class SolveRecord:
    seconds: float
    iterations: int
    converged: bool
    capped: bool
    energy: float


@dataclass
class Tally:
    """What one run measured: solves, operations and their failures."""

    solves: list[SolveRecord] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def op(self, failures: list[str], label: str) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.reasons.extend(f"{label}: {f}" for f in failures)


class Api:
    """The package's public functions, traced under ``<module>.<function>``.

    ``solve`` is always timed, traced or not, because the end-to-end metrics
    need each solve's wall time, iteration count and energy.
    """

    def __init__(self, tracer: Tracer, tally: Tally):
        self.tracer = tracer
        self.tally = tally
        self.solver = importlib.import_module("harea.solver")
        for module, name in (
            ("geometry", "rasterize"),
            ("geometry", "boundary_faces"),
            ("geometry", "sample_datum"),
            ("solver", "balanced_steps"),
        ):
            fn = getattr(importlib.import_module(f"harea.{module}"), name)
            setattr(self, name, tracer.wrap(f"{module}.{name}", fn))

    def solve(self, grid, datum, cfg=None):
        cfg = cfg or self.solver.SolverConfig()
        start = time.perf_counter()
        with self.tracer.span("solver.solve"):
            rep = self.solver.solve(grid, datum, cfg)
        seconds = time.perf_counter() - start
        capped = rep.iterations >= cfg.max_iters and not rep.converged
        self.tally.solves.append(
            SolveRecord(seconds, rep.iterations, rep.converged, capped, rep.energy.total)
        )
        return rep

    def tuned_config(self, grid, max_iters: int, tol: float):
        """The suite's tuned configuration: dual step shrunk by h/2."""
        sigma, tau = self.balanced_steps(grid, grid.h / 2.0)
        return self.solver.SolverConfig(max_iters=max_iters, tol=tol, step_sigma=sigma, step_tau=tau)


# ---------------------------------------------------------------------------
# gates


def solve_failures(rep, datum) -> list[str]:
    """A solve must converge and report the energy its field really has."""
    from harea.energy import penalized_energy

    out = []
    if not rep.converged:
        out.append(f"not converged after {rep.iterations} iterations")
    again = penalized_energy(rep.u, datum, rep.energy.mode).total
    rel = abs(again - rep.energy.total) / max(abs(again), 1e-30)
    if not rel <= ENERGY_REL_TOL:
        out.append(f"reported energy {rep.energy.total!r} != re-evaluated {again!r} (rel {rel:.2e})")
    return out


def rel_l1(u, exact) -> float:
    from harea.fields import ScalarField

    ref = ScalarField.from_function(u.grid, exact).values
    m = u.grid.interior_mask
    return float(np.sum(np.abs(u.values - ref)[m]) / max(float(np.sum(np.abs(ref)[m])), 1e-30))


def lens_failures(rep, datum) -> list[str]:
    from harea.surfaces import es1_surface

    out = solve_failures(rep, datum)
    err = rel_l1(rep.u, es1_surface)
    if not err <= LENS_REL_L1_TOL:
        out.append(f"rel-L1 error {err:.4f} against es1_surface exceeds {LENS_REL_L1_TOL}")
    return out


def order_failures(rep_lo, rep_hi, tol: float) -> list[str]:
    """The comparison principle: data phi <= psi give solutions u_phi <= u_psi + tol."""
    m = rep_lo.u.grid.interior_mask
    excess = float(np.max((rep_lo.u.values - rep_hi.u.values)[m]))
    return [] if excess <= tol else [f"order broken: max(u_phi - u_psi) = {excess:.3e} > {tol:.3e}"]


def gated_solve(api: Api, label: str, grid, datum, cfg, gate):
    """One operation: a solve, failed on SolverError or on ``gate(rep)``'s
    failures.  Returns the report, or None if the solve raised."""
    with api.tracer.span("op.solve"):
        try:
            rep = api.solve(grid, datum, cfg)
        except api.solver.SolverError as exc:
            api.tally.op([f"SolverError: {exc}"], label)
            return None
        api.tally.op(gate(rep), label)
        return rep


# ---------------------------------------------------------------------------
# workloads


class Lens:
    """es1 on the parabolic lens at h = 1/n, solved ``repeats`` times per pass.

    The inputs are fixed by the program; the seed is unused.
    """

    seeded = False

    def __init__(self, n: int, repeats: int):
        self.h = 1.0 / n
        self.repeats = repeats

    def setup(self, api: Api, seed: int):
        from harea.geometry import DomainSpec
        from harea.surfaces import es1_datum

        grid = api.rasterize(DomainSpec.parabolic(), self.h)
        datum = api.sample_datum(api.boundary_faces(grid), es1_datum)
        return grid, datum, api.tuned_config(grid, 30000, 1e-10)

    def run(self, api: Api, state) -> None:
        grid, datum, cfg = state
        for k in range(self.repeats):
            gated_solve(api, f"solve {k}", grid, datum, cfg, lambda rep: lens_failures(rep, datum))

    def probe_inputs(self, state):
        grid, datum, cfg = state
        return grid, datum, cfg.step_sigma, cfg.step_tau


class DiskPairs:
    """Seeded ordered datum pairs on the unit disk at h = 1/24, one shared grid."""

    seeded = True

    def __init__(self, pairs: int = 20):
        self.pairs = pairs

    def setup(self, api: Api, seed: int):
        from harea.geometry import DomainSpec

        grid = api.rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1.0 / 24.0)
        faces = api.boundary_faces(grid)
        data = [
            (api.sample_datum(faces, phi), api.sample_datum(faces, psi))
            for phi, psi in disk_pairs(seed, self.pairs)
        ]
        return grid, data, api.tuned_config(grid, 20000, 1e-9)

    def run(self, api: Api, state) -> None:
        grid, data, cfg = state
        tolerance = api.solver.solver_tolerance
        for k, (d_lo, d_hi) in enumerate(data):
            lo = gated_solve(api, f"pair {k} phi", grid, d_lo, cfg, lambda rep: solve_failures(rep, d_lo))
            tol = max(tolerance(grid, d_lo), tolerance(grid, d_hi))

            def hi_gate(rep):
                order = order_failures(lo, rep, tol) if lo is not None else []
                return solve_failures(rep, d_hi) + order

            gated_solve(api, f"pair {k} psi", grid, d_hi, cfg, hi_gate)

    def probe_inputs(self, state):
        grid, data, cfg = state
        return grid, data[0][0], cfg.step_sigma, cfg.step_tau


class Verify:
    """``run_check`` on nine checks in CheckId order, in a cold process.

    The inputs are fixed by the program's own seeds; the run's seed is unused.
    """

    seeded = False

    def setup(self, api: Api, seed: int):
        return importlib.import_module("harea.checks")

    def run(self, api: Api, checks) -> None:
        # Memoized artifacts must not carry over from an earlier pass.
        for obj in vars(checks).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        saved = dict(vars(checks))
        try:
            checks.solve = api.solve
            for layer, names in CHECKS_CALLS.items():
                for name in names:
                    setattr(checks, name, api.tracer.wrap(f"{layer}.{name}", saved[name]))
            for cid in checks.CheckId:
                if cid.value not in VERIFY_CHECKS:
                    continue
                with api.tracer.span(f"checks.{cid.value}"):
                    rep = checks.run_check(cid)
                failures = [] if rep.passed else [f"failed: {rep.metrics} vs {rep.thresholds}"]
                api.tally.op(failures, f"check {cid.value}")
        finally:
            for name in ("solve",) + sum(CHECKS_CALLS.values(), ()):
                setattr(checks, name, saved[name])

    def probe_inputs(self, checks):
        """The h = 1/32 disk with es1 data: the grid of translation_covariance
        and restriction, and one of vee_wedge_iso's two grids."""
        from harea.geometry import DomainSpec, boundary_faces, rasterize, sample_datum
        from harea.solver import balanced_steps
        from harea.surfaces import es1_datum

        grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1.0 / 32.0)
        datum = sample_datum(boundary_faces(grid), es1_datum)
        sigma, tau = balanced_steps(grid, grid.h / 2.0)
        return grid, datum, sigma, tau


WORKLOADS = {
    "lens64": Lens(64, repeats=3),
    "lens128": Lens(128, repeats=1),
    "disk_pairs": DiskPairs(),
    "verify": Verify(),
}


# ---------------------------------------------------------------------------
# probes of single public calls (traced run only, after the timed phase)


def per_call_us(fn, batch_s: float = 0.05, batches: int = 5) -> float:
    """Median over batches of the mean wall time of one call, in microseconds."""
    start = time.perf_counter()
    fn()
    once = time.perf_counter() - start
    n = max(1, math.ceil(batch_s / max(once, 1e-9)))
    times = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - start) / n)
    return statistics.median(times) * 1e6


def price_public_calls(grid, datum, sigma: float, tau: float) -> dict[str, float]:
    """Microseconds per call of the public operators on a workload's grid.

    The public wrappers validate and copy fields, so these numbers price the
    API as a caller sees it, not the split inside ``solve``.
    """
    from harea.energy import penalized_energy
    from harea.fields import ScalarField, divergence, gradient
    from harea.solver import prox_dual, prox_primal

    rng = np.random.default_rng(0)
    v = np.zeros((grid.nx, grid.ny))
    v[grid.interior_mask] = rng.standard_normal(grid.interior_count)
    u = ScalarField(grid, v)
    q = gradient(u)
    calls = {
        "fields.gradient.us": lambda: gradient(u),
        "fields.divergence.us": lambda: divergence(q),
        "solver.prox_dual.us": lambda: prox_dual(q, sigma),
        "solver.prox_primal.us": lambda: prox_primal(u, tau, datum),
        "energy.penalized_energy.us": lambda: penalized_energy(u, datum),
    }
    return {name: per_call_us(fn) for name, fn in calls.items()}


def price_bsc() -> dict[str, float]:
    """Seconds of one call each on barrier_sandwich's inputs: es1 on the lens,
    200 boundary samples, the h = 1/32 grid."""
    from harea.bsc import barriers, boundary_samples, minimal_Q
    from harea.geometry import DomainSpec, rasterize
    from harea.surfaces import es1_datum

    lens = DomainSpec.parabolic()
    grid = rasterize(lens, 1.0 / 32.0)
    t0 = time.perf_counter()
    samples = boundary_samples(lens, es1_datum, 200)
    t1 = time.perf_counter()
    rep = minimal_Q(samples, grid=grid)
    t2 = time.perf_counter()
    barriers(samples, rep, grid)
    t3 = time.perf_counter()
    return {"bsc.boundary_samples.s": t1 - t0, "bsc.minimal_Q.s": t2 - t1, "bsc.barriers.s": t3 - t2}
