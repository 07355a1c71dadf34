"""Metric definitions and their computation from one run's measurements.

``END_TO_END`` and ``PER_LAYER`` are the lists ``BENCHMARK.json`` declares;
a test keeps the two in step.  Each per-layer metric names the end-to-end
metric it should move and on which workloads, so a regression can be traced
to one layer.
"""

from __future__ import annotations

import statistics

from .trace import Tracer
from .workloads import VERIFY_CHECKS, Tally

# name, unit, better, bound (share of the parent's median it may worsen by).
# Timings on the 2-core sandbox swing by 10-25% between runs minutes
# apart, so every timing gets the largest bound; energy is deterministic for
# a seed and held to the ROADMAP's 1e-7 relative.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("solve_s.p50", "s", "lower", 0.25),
    ("solve_s.p75", "s", "lower", 0.25),
    ("energy", "1", "lower", 1e-7),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

ALL = "lens64, disk_pairs, verify"

# name, unit, what it should move and where
PER_LAYER = (
    ("geometry.rasterize.s", "s", "setup_s on lens64, disk_pairs; wall_s on verify"),
    ("geometry.rasterize.calls", "count", "setup_s on lens64, disk_pairs; wall_s on verify"),
    ("geometry.boundary_faces.s", "s", "setup_s on lens64, disk_pairs; wall_s on verify"),
    ("geometry.boundary_faces.calls", "count", "setup_s on lens64, disk_pairs; wall_s on verify"),
    ("geometry.sample_datum.s", "s", "setup_s on disk_pairs (40 calls per set-up), lens64; wall_s on verify"),
    ("geometry.sample_datum.calls", "count", "setup_s on lens64, disk_pairs; wall_s on verify"),
    ("solver.balanced_steps.s", "s", "setup_s, mostly on lens64 (power iteration)"),
    ("solver.solve.s", "s", f"solve_s.*, wall_s on {ALL}"),
    ("solver.solve.calls", "count", f"solve_s.*, wall_s on {ALL}"),
    ("solver.iters", "count", f"solve_s.*, wall_s on {ALL}"),
    ("solver.ms_per_iter", "ms", "solve_s.*, wall_s: arithmetic on lens64, per-call overhead on disk_pairs"),
    ("solver.max_iters_hit", "count", f"energy on {ALL}"),
    ("fields.gradient.us", "us", "wall_s on verify (standalone public calls)"),
    ("fields.divergence.us", "us", "wall_s on verify (standalone public calls)"),
    ("solver.prox_dual.us", "us", "wall_s on verify (standalone public calls)"),
    ("solver.prox_primal.us", "us", "wall_s on verify (standalone public calls)"),
    ("energy.penalized_energy.us", "us", "wall_s on verify (standalone public calls)"),
    ("bsc.boundary_samples.s", "s", "wall_s on verify; no change on lens64, disk_pairs"),
    ("bsc.minimal_Q.s", "s", "wall_s on verify; no change on lens64, disk_pairs"),
    ("bsc.barriers.s", "s", "wall_s on verify; no change on lens64, disk_pairs"),
    *((f"checks.{cid}.s", "s", "wall_s on verify") for cid in VERIFY_CHECKS),
    ("geometry.self_s", "s", "setup_s on lens64, disk_pairs; wall_s on verify"),
    ("fields.self_s", "s", "wall_s on verify"),
    ("energy.self_s", "s", "wall_s on verify"),
    ("solver.self_s", "s", f"solve_s.*, wall_s on {ALL}"),
    ("bsc.self_s", "s", "wall_s on verify"),
    ("checks.self_s", "s", "wall_s on verify"),
    ("trace.wall_s", "s", "tracing overhead = trace.wall_s - untraced wall_s"),
    ("trace.spans", "count", "tracing overhead"),
)

LAYERS = ("geometry", "fields", "energy", "solver", "bsc", "checks")


def quantile(values: list[float], q: int) -> float:
    """The q-th quartile (q = 2 is the median); a single value is its own quartile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[q - 1]


def end_to_end(tally: Tally, wall: list[float], setup_s: float, peak_rss_mb: float) -> dict:
    seconds = [s.seconds for s in tally.solves]
    return {
        "wall_s": statistics.median(wall),
        "setup_s": setup_s,
        "solve_s.p50": quantile(seconds, 2),
        "solve_s.p75": quantile(seconds, 3),
        "energy": statistics.fmean(s.energy for s in tally.solves),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tally: Tally, tracer: Tracer, wall: list[float], probes: dict) -> dict:
    out = {}
    for name in ("geometry.rasterize", "geometry.boundary_faces", "geometry.sample_datum"):
        out[f"{name}.s"], out[f"{name}.calls"] = tracer.totals(name)
    out["solver.balanced_steps.s"] = tracer.totals("solver.balanced_steps")[0]
    solve_s = sum(s.seconds for s in tally.solves)
    iters = sum(s.iterations for s in tally.solves)
    out["solver.solve.s"] = solve_s
    out["solver.solve.calls"] = len(tally.solves)
    out["solver.iters"] = iters / max(len(tally.solves), 1)
    out["solver.ms_per_iter"] = 1e3 * solve_s / max(iters, 1)
    out["solver.max_iters_hit"] = sum(s.capped for s in tally.solves)
    out.update(probes)
    for cid in VERIFY_CHECKS:
        out[f"checks.{cid}.s"] = tracer.totals(f"checks.{cid}")[0]
    own = tracer.self_seconds()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    out["trace.wall_s"] = statistics.median(wall)
    out["trace.spans"] = len(tracer.spans)
    return out
