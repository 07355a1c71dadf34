"""Command-line front end.

Subcommands
-----------
solve      minimize the penalized area for a configured domain and datum
energy     evaluate the penalized energy of a stored field
bsc        certify the smallest slope constant of a boundary datum
barriers   write the lower/upper envelope fields implied by the certificate
verify     run named property checks and write their reports
reproduce  regenerate a worked example and compare against golden metrics
refine     solve across grid refinements and tabulate the errors

All but verify and reproduce read a JSON run config (-c/--config) and take
the --out and --h overrides.  Solver overrides go only where a solve or an
energy reads them: --mode (penalized or constrained) on solve and refine,
--energy (iso or aniso) on solve, energy and refine.

Exit codes: 0 success / all checks passed; 1 a check failed, the solver did
not converge, a slope certificate was refused, or stdout was closed before
the report was printed; 2 usage or config errors.
Heavy numeric imports happen after the HAREA_THREADS cap is applied, so the
cap reaches the underlying BLAS.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["dispatch", "main", "UsageError"]

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 2."""


def _apply_thread_cap() -> None:
    raw = os.environ.get("HAREA_THREADS", "").strip()
    if not raw:
        return
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"HAREA_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise UsageError("HAREA_THREADS must be >= 0 (0 = automatic)")
    if n == 0:
        return
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


# ---------------------------------------------------------------------------
# config parsing


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise UsageError(f"{where}: unknown keys {unknown}")


def _number(v) -> float:
    """``float(v)``; a boolean is refused rather than read as 0 or 1."""
    if isinstance(v, bool):
        raise TypeError(v)
    return float(v)


def _convert(value, key, kind=_number, what="a number"):
    """``kind(value)`` for the config key ``key``; a value of the wrong type
    is a usage error naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise UsageError(f"config key '{key}' must be {what}, got {value!r}") from None


def _xy(v):
    x, y = v
    return _number(x), _number(y)


def _whole(v) -> int:
    """``int(v)`` for a whole number; booleans and fractions are refused."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise ValueError(v)
    return int(v)


def _text(v) -> str:
    if not isinstance(v, str):
        raise TypeError(v)
    return v


def _load_config(path: str) -> dict:
    from .fileio import _read_text

    try:
        cfg = json.loads(_read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    if not isinstance(cfg, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    _reject_unknown(cfg, {"domain", "h", "datum", "solver", "out", "levels", "samples"}, path)
    return cfg


def _build_domain(block):
    from .geometry import DomainSpec

    if not isinstance(block, dict) or "kind" not in block:
        raise UsageError("domain block must be an object with a 'kind'")
    kind = block["kind"]
    if kind == "disk":
        _reject_unknown(block, {"kind", "center", "radius"}, "domain")
        center = _convert(block.get("center", (0.0, 0.0)), "center", _xy, "[x, y]")
        return DomainSpec.disk(center, _convert(block.get("radius", 1.0), "radius"))
    if kind == "polygon":
        _reject_unknown(block, {"kind", "vertices"}, "domain")
        if "vertices" not in block:
            raise UsageError("polygon domain needs 'vertices'")
        vertices = _convert(block["vertices"], "vertices", lambda vs: list(map(_xy, vs)), "[[x, y], ...]")
        return DomainSpec.polygon(vertices)
    if kind == "parabolic":
        _reject_unknown(block, {"kind"}, "domain")
        return DomainSpec.parabolic()
    raise UsageError(f"unknown domain kind {kind!r} (disk, polygon, parabolic)")


def _check_datum_block(block) -> None:
    from .surfaces import DATUM_KINDS

    if not isinstance(block, dict) or "kind" not in block:
        raise UsageError("datum block must be an object with a 'kind'")
    name = block["kind"]
    kind = DATUM_KINDS.get(name) if isinstance(name, str) else None
    if kind is None:
        raise UsageError(f"unknown datum kind {name!r} ({', '.join(DATUM_KINDS)})")
    _reject_unknown(block, {"kind", *kind.keys}, "datum")
    for key, what in kind.keys.items():
        if what is not None and key not in block:
            raise UsageError(f"{name} datum needs {what}")


def _build_solver(block, args):
    from dataclasses import fields

    from .solver import SolverConfig

    block = dict(block or {})
    _reject_unknown(block, {f.name for f in fields(SolverConfig)}, "solver")
    if getattr(args, "mode", None):
        block["mode"] = args.mode
    if getattr(args, "energy", None):
        block["energy_mode"] = args.energy
    try:
        return SolverConfig(**block)
    except Exception as exc:
        raise UsageError(f"solver block: {exc}")


def _datum_on_faces(grid, block):
    from .geometry import boundary_faces, sample_datum
    from .surfaces import DATUM_KINDS

    return sample_datum(boundary_faces(grid), DATUM_KINDS[block["kind"]].expression(block))


def _bsc_samples(domain, cfg):
    from .bsc import boundary_samples
    from .surfaces import DATUM_KINDS, Samples

    expr = DATUM_KINDS[cfg["datum"]["kind"]].expression(cfg["datum"])
    if isinstance(expr, Samples):  # certified at the listed points themselves
        return list(zip(map(tuple, expr.points.tolist()), expr.values.tolist()))
    return boundary_samples(domain, expr, _convert(cfg.get("samples", 200), "samples", _whole, "an integer"))


def _resolve(args, need):
    """Load + override the run config; returns (cfg_dict, domain, h, out)."""
    cfg = _load_config(args.config)
    for key in need:
        if key not in cfg:
            raise UsageError(f"{args.config}: missing required key '{key}'")
    domain = _build_domain(cfg["domain"]) if "domain" in cfg else None
    h = args.h if args.h is not None else _convert(cfg.get("h", 0.0), "h")
    if "datum" in cfg:
        _check_datum_block(cfg["datum"])
    out = args.out or _convert(cfg.get("out", "results"), "out", _text, "a string")
    return cfg, domain, h, out


def _echo(cfg, h, solver=None) -> dict:
    e = {"domain": cfg.get("domain"), "h": h, "datum": cfg.get("datum")}
    if solver is not None:
        e["solver"] = solver.to_json()
    return e


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    from .fileio import write_field, write_json, write_pgm, write_vector_field
    from .geometry import rasterize

    cfg, domain, h, out = _resolve(args, need=("domain", "h", "datum"))
    grid = rasterize(domain, h)
    scfg = _build_solver(cfg.get("solver"), args)
    datum = _datum_on_faces(grid, cfg["datum"])
    from .solver import solve

    rep = solve(grid, datum, scfg)
    os.makedirs(out, exist_ok=True)
    write_field(rep.u, os.path.join(out, "solution.csv"))
    write_vector_field(rep.dual, os.path.join(out, "dual.csv"))
    write_pgm(rep.u.values, os.path.join(out, "solution.pgm"), grid.interior_mask)
    write_json(
        {"run": _echo(cfg, h, scfg), "result": rep.to_json()},
        os.path.join(out, "report.json"),
    )
    print(
        f"solved {grid.interior_count} cells: energy {rep.energy.total:.9g}, "
        f"{rep.iterations} iterations, converged={rep.converged}"
    )
    print(f"wrote {out}/solution.csv, {out}/dual.csv, {out}/solution.pgm, {out}/report.json")
    return 0 if rep.converged else 1


def _cmd_energy(args) -> int:
    from .energy import penalized_energy
    from .fileio import read_field, write_json
    from .geometry import rasterize

    cfg, domain, h, out = _resolve(args, need=("domain", "h", "datum"))
    scfg = _build_solver(cfg.get("solver"), args)
    grid = rasterize(domain, h)
    datum = _datum_on_faces(grid, cfg["datum"])
    path = args.field or os.path.join(out, "solution.csv")
    u = read_field(path, grid)
    br = penalized_energy(u, datum, scfg.energy_mode)
    os.makedirs(out, exist_ok=True)
    write_json({"run": _echo(cfg, h, scfg), "energy": br.to_json()}, os.path.join(out, "energy.json"))
    print(f"area {br.interior:.9g} + penalty {br.penalty:.9g} = {br.total:.9g}")
    print(f"wrote {out}/energy.json")
    return 0


def _cmd_bsc(args) -> int:
    from .bsc import BscViolation, minimal_Q
    from .fileio import write_json
    from .geometry import rasterize

    cfg, domain, h, out = _resolve(args, need=("domain", "datum"))
    samples = _bsc_samples(domain, cfg)
    grid = rasterize(domain, h) if h > 0 else None
    os.makedirs(out, exist_ok=True)
    try:
        rep = minimal_Q(samples, grid=grid)
    except BscViolation as exc:
        write_json(
            {
                "run": _echo(cfg, h),
                "feasible": False,
                "witness": list(exc.witness),
                "slack": exc.slack,
            },
            os.path.join(out, "bsc.json"),
        )
        print(f"slope condition violated at {exc.witness} (slack {exc.slack:.6g})")
        print(f"wrote {out}/bsc.json")
        return 1
    write_json({"run": _echo(cfg, h), **rep.to_json()}, os.path.join(out, "bsc.json"))
    print(f"certified: Q_min {rep.Q_min:.9g}, gradient bound K {rep.K:.9g}")
    print(f"wrote {out}/bsc.json")
    return 0


def _cmd_barriers(args) -> int:
    from .bsc import BscViolation, barriers, minimal_Q
    from .fileio import write_field, write_json
    from .geometry import rasterize

    cfg, domain, h, out = _resolve(args, need=("domain", "h", "datum"))
    samples = _bsc_samples(domain, cfg)
    grid = rasterize(domain, h)
    os.makedirs(out, exist_ok=True)
    try:
        rep = minimal_Q(samples, grid=grid)
    except BscViolation as exc:
        print(f"slope condition violated at {exc.witness}; no barriers exist")
        return 1
    f, g = barriers(samples, rep, grid)
    write_field(f, os.path.join(out, "barrier_lower.csv"))
    write_field(g, os.path.join(out, "barrier_upper.csv"))
    write_json({"run": _echo(cfg, h), **rep.to_json()}, os.path.join(out, "bsc.json"))
    print(f"wrote {out}/barrier_lower.csv, {out}/barrier_upper.csv, {out}/bsc.json")
    return 0


def _cmd_verify(args) -> int:
    from .checks import CheckId, run_suite
    from .fileio import write_json

    if args.check:
        try:
            ids = [CheckId(c) for c in args.check]
        except ValueError:
            valid = ", ".join(c.value for c in CheckId)
            raise UsageError(f"unknown check id (valid: {valid})")
    else:
        ids = None
    reports, summary = run_suite(ids)
    out = args.out or "results"
    os.makedirs(out, exist_ok=True)
    write_json(
        {"reports": [r.to_json() for r in reports], "summary": summary},
        os.path.join(out, "verify.json"),
    )
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.check_id.value:24s} {r.runtime:7.1f}s")
        if not r.passed:
            for k, thr in r.thresholds.items():
                flag = "" if r.metrics[k] <= thr else "  <-- exceeded"
                print(f"        {k} = {r.metrics[k]:.6g} (threshold {thr:.6g}){flag}")
    print(
        f"{summary['passed']}/{summary['total']} checks passed "
        f"in {summary['runtime']:.1f}s; wrote {out}/verify.json"
    )
    return 0 if summary["failed"] == 0 else 1


def _reproduce_metrics(example: str):
    """Solve the named worked example and derive its comparison metrics."""
    import numpy as np

    from .checks import _PARABOLIC, _SQUARE, _erode
    from .energy import char_set, euler_residual
    from .solver import SolverConfig, refine_study
    from .surfaces import DATUM_KINDS

    domain = {"es1": _PARABOLIC, "es2": _SQUARE}[example]
    kind = DATUM_KINDS[example]
    expr, exact, norm = kind.expression({}), kind.minimizer({}), kind.error_norm
    cfg = SolverConfig(max_iters=30000, tol=1e-9)
    (row,), _ = refine_study(domain, expr, [1.0 / 64.0], cfg, exact=exact, error_norm=norm)
    rep = row.report
    grid = rep.u.grid
    m = grid.interior_mask
    cs = char_set(rep.u) & _erode(m, 4)
    res = euler_residual(rep.u)
    core = _erode(m, 2)
    metrics = {
        "energy_total": float(rep.energy.total),
        "rel_l1": row.error,
        "sup_abs": float(np.max(np.abs(rep.u.values[m]))),
        "char_cells": float(int(np.sum(cs))),
        "residual_core_max": float(np.max(np.abs(res.values[core]))),
    }
    return grid, rep, cs, res, metrics


def _cmd_reproduce(args) -> int:
    from importlib import resources

    from .fileio import write_field, write_json, write_pgm

    example = args.example
    ref = resources.files("harea.golden").joinpath(f"{example}.json")
    golden = json.loads(ref.read_text())
    grid, rep, cs, res, metrics = _reproduce_metrics(example)
    out = args.out or "results"
    os.makedirs(out, exist_ok=True)
    write_field(rep.u, os.path.join(out, "solution.csv"))
    write_field(res, os.path.join(out, "residual.csv"))
    write_pgm(cs.astype(float), os.path.join(out, "char.pgm"), grid.interior_mask)
    ok = True
    rows = []
    for k, want in golden["metrics"].items():
        tol = golden["tolerances"][k]
        got = metrics[k]
        good = abs(got - want) <= tol
        ok = ok and good
        rows.append((k, got, want, tol, good))
    write_json(
        {
            "example": example,
            "metrics": metrics,
            "golden": golden["metrics"],
            "tolerances": golden["tolerances"],
            "match": ok,
        },
        os.path.join(out, "report.json"),
    )
    for k, got, want, tol, good in rows:
        mark = "ok " if good else "MISMATCH"
        print(f"{mark} {k:18s} {got:.9g} vs golden {want:.9g} (tol {tol:g})")
    print(f"wrote {out}/solution.csv, {out}/residual.csv, {out}/char.pgm, {out}/report.json")
    return 0 if ok else 1


def _cmd_refine(args) -> int:
    from .energy import EnergyMode
    from .fileio import _atomic_write, write_json
    from .solver import refine_study
    from .surfaces import DATUM_KINDS, DATUM_NAMES

    cfg, domain, h, out = _resolve(args, need=("domain", "h", "datum"))
    block = cfg["datum"]
    kind = DATUM_KINDS[block["kind"]]
    if kind.error_norm is None:
        raise UsageError(f"refine needs a closed-form datum ({', '.join(DATUM_NAMES)})")
    levels = _convert(cfg.get("levels", 3), "levels", _whole, "an integer")
    if levels < 2:
        raise UsageError("refine needs at least 2 levels")
    scfg = _build_solver(cfg.get("solver"), args)
    expr = kind.expression(block)
    exact = None
    # the closed forms minimize the isotropic energy only
    if scfg.energy_mode is EnergyMode.ISOTROPIC and kind.minimizer is not None:
        exact = kind.minimizer(block)
    hs = [h / 2**k for k in range(levels)]
    rows, monotone = refine_study(domain, expr, hs, scfg, exact=exact, error_norm=kind.error_norm)
    os.makedirs(out, exist_ok=True)
    lines = ["h,error,iterations,converged"]
    for r in rows:
        err = "" if r.error is None else format(r.error, ".17g")
        lines.append(f"{format(r.h, '.17g')},{err},{r.iterations},{int(r.converged)}")
    _atomic_write(os.path.join(out, "refine.csv"), "\n".join(lines) + "\n")
    write_json(
        {"run": _echo(cfg, h, scfg), "monotone": monotone, "norm": kind.error_norm},
        os.path.join(out, "refine.json"),
    )
    print(f"{'h':>12s} {'error':>14s} {'iters':>8s}  converged")
    for r in rows:
        err_disp = "-" if r.error is None else f"{r.error:.6g}"
        print(f"{r.h:12.6g} {err_disp:>14s} {r.iterations:8d}  {r.converged}")
    if monotone is None:
        monotone = f"n/a, no closed-form minimizer of the {scfg.energy_mode.value} energy for this datum"
    print(f"monotone decrease: {monotone}")
    print(f"wrote {out}/refine.csv, {out}/refine.json")
    return 0


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="harea",
        description="Area-minimizing t-graphs: solver, certificates, and property checks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    overrides = {
        "--mode": dict(choices=("penalized", "constrained"), help="solver mode override"),
        "--energy": dict(choices=("iso", "aniso"), help="energy mode override"),
    }

    def common(sp, *flags):
        sp.add_argument("-c", "--config", required=True, help="JSON run config")
        sp.add_argument("--out", help="output directory (default: config 'out' or results/)")
        sp.add_argument("--h", type=float, help="grid spacing override")
        for flag in flags:  # only the overrides the subcommand reads
            sp.add_argument(flag, **overrides[flag])

    sp = sub.add_parser("solve", help="minimize the penalized area functional")
    common(sp, "--mode", "--energy")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("energy", help="evaluate the energy of a stored field")
    common(sp, "--energy")
    sp.add_argument("field", nargs="?", help="field CSV (default: <out>/solution.csv)")
    sp.set_defaults(func=_cmd_energy)

    sp = sub.add_parser("bsc", help="certify the minimal slope constant")
    common(sp)
    sp.set_defaults(func=_cmd_bsc)

    sp = sub.add_parser("barriers", help="write certified lower/upper envelopes")
    common(sp)
    sp.set_defaults(func=_cmd_barriers)

    sp = sub.add_parser("verify", help="run the named property checks")
    sp.add_argument("--check", action="append", help="check id (repeatable; default: all)")
    sp.add_argument("--out", help="output directory for verify.json")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("reproduce", help="regenerate a worked example against goldens")
    sp.add_argument("example", choices=("es1", "es2"))
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_reproduce)

    sp = sub.add_parser("refine", help="error table across grid refinements")
    common(sp, "--mode", "--energy")
    sp.set_defaults(func=_cmd_refine)
    return p


def dispatch(argv=None) -> int:
    """Parse argv, run the subcommand, and return the process exit code."""
    try:
        _apply_thread_cap()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    from .bsc import BscError, BscViolation
    from .energy import EnergyError
    from .fileio import FormatError
    from .geometry import DomainError
    from .solver import SolverError
    from .surfaces import DatumError

    try:
        return int(args.func(args))
    except (UsageError, FormatError, DomainError, DatumError, BscError, EnergyError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, BscViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = dispatch()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``harea refine | head``), after the files
        # were written; devnull keeps the flush at interpreter exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
