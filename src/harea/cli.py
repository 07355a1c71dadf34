"""Command-line front end.

Subcommands
-----------
solve      minimize the penalized area for a configured domain and datum
energy     evaluate the penalized energy of a stored field
bsc        certify the smallest slope constant of a boundary datum
barriers   the same, and write the lower/upper envelope fields it implies
verify     run named property checks and write their reports
reproduce  regenerate a worked example and compare against golden metrics
refine     solve across grid refinements and tabulate the errors

All but verify and reproduce read a JSON run config (-c/--config), check
every key of it when it loads (a wrong type, a missing required key or a
non-object block is exit 2 naming the key) and take the --out and --h
overrides.  --mode (penalized or constrained) goes on solve and refine, the
only subcommands that solve; solves minimize the isotropic area.  --energy
(iso, the default, or aniso) goes on energy alone and chooses the cell norm
it evaluates; the anisotropic energy is kept for evaluation only, since its
discrete minimizers are not unique.  bsc and barriers write bsc.json with
"feasible": true and the certificate, or false with the violating sample
("witness") and its "slack"; barriers writes its envelopes only when true.

Exit codes: 0 success / all checks passed; 1 a check failed, a solve (or a
refine level) did not converge, the slope condition is violated, or stdout was
closed before the report was printed; 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import os
import sys

__all__ = ["dispatch", "main", "UsageError"]


class UsageError(Exception):
    """Configuration or invocation problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config: one schema, every key converted and checked when the config loads


def _number(v) -> float:
    """``float(v)`` of a JSON number; a boolean or a numeric string is
    refused rather than read as a number."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(v)
    return float(v)


def _whole(v) -> int:
    """``int(v)`` for a whole JSON number; booleans, fractions and strings
    are refused."""
    if not _number(v).is_integer():
        raise ValueError(v)
    return int(v)


def _instance_of(cls):
    def check(v):
        if not isinstance(v, cls):
            raise TypeError(v)
        return v

    return check


def _xy(v):
    x, y = v
    return _number(x), _number(y)


_TYPES = {  # a key's type -> its converter; surfaces.DATUM_KINDS names them too
    "a number": _number,
    "an integer": _whole,
    "a string": _instance_of(str),
    "an object": _instance_of(dict),
    "[x, y]": _xy,
    "[[x, y], ...]": lambda vs: [_xy(v) for v in vs],
}

_CONFIG = {  # top-level key -> type; the objects are converted by _load_config
    "domain": "an object",
    "h": "a number",
    "datum": "an object",
    "solver": "an object",
    "out": "a string",
    "levels": "an integer",
    "samples": "an integer",
}

_DOMAINS = {  # domain kind -> (its keys and their types, its required keys)
    "disk": ({"center": "[x, y]", "radius": "a number"}, ()),
    "polygon": ({"vertices": "[[x, y], ...]"}, ("vertices",)),
    "parabolic": ({}, ()),
}


def _convert(block: dict, keys: dict, required, where: str) -> dict:
    """The values of ``block`` converted by their types in ``keys`` (a type of
    None passes the value on as given); an unknown key, a missing required
    key or a value of the wrong type is a usage error naming the key."""
    unknown = sorted(set(block) - set(keys))
    if unknown:
        raise UsageError(f"{where}: unknown keys {unknown}")
    for key in required:
        if key not in block:
            raise UsageError(f"{where}: missing required key '{key}'")
    values = {}
    for key, what in keys.items():
        if key in block:
            try:
                values[key] = block[key] if what is None else _TYPES[what](block[key])
            except (TypeError, ValueError, OverflowError):
                raise UsageError(f"config key '{key}' must be {what}, got {block[key]!r}") from None
    return values


def _kinded(block: dict, where: str, kinds: dict):
    """The kind a domain or datum block names, and its other keys converted;
    each entry of ``kinds`` starts with its keys and its required keys."""
    rest = dict(block)
    name = rest.pop("kind", None)
    if not isinstance(name, str) or name not in kinds:
        raise UsageError(f"config key '{where}' needs a 'kind' of {', '.join(kinds)}, got {name!r}")
    keys, required = kinds[name][:2]
    return name, _convert(rest, keys, required, where)


def _solver(block: dict, args):
    """The SolverConfig of a solver block, with the --mode flag over its
    value; SolverConfig checks the values itself."""
    from dataclasses import fields

    from .solver import SolverConfig, SolverError

    values = _convert(block, dict.fromkeys(f.name for f in fields(SolverConfig)), (), "solver")
    if getattr(args, "mode", None):
        values["mode"] = args.mode
    try:
        return SolverConfig(**values)
    except SolverError as exc:
        raise UsageError(f"solver block: {exc}") from None


def _load_config(args, required=("domain", "h", "datum")) -> dict:
    """The run config of ``args.config`` with every key converted, before any
    grid, samples file or output directory.  ``domain`` becomes a DomainSpec,
    ``datum`` a (DatumKind, converted keys) pair, ``solver`` a SolverConfig;
    ``h`` and ``out`` take the --h and --out overrides, and ``run`` is the
    report's echo of the blocks as written."""
    from .fileio import _read_text
    from .geometry import DomainSpec
    from .surfaces import DATUM_KINDS

    path = args.config
    try:
        raw = json.loads(_read_text(path, "config"))
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        )
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: top level must be a JSON object")
    cfg = _convert(raw, _CONFIG, required, path)
    name, values = _kinded(cfg["domain"], "domain", _DOMAINS)
    cfg["domain"] = getattr(DomainSpec, name)(**values)
    name, values = _kinded(cfg["datum"], "datum", DATUM_KINDS)
    cfg["datum"] = DATUM_KINDS[name], values
    if name == "samples" and "samples" in cfg:  # no subcommand would read the count
        raise UsageError(f"{path}: key 'samples' counts a closed-form datum's points; a samples file lists its own")
    cfg["solver"] = _solver(cfg.get("solver", {}), args)
    cfg["h"] = args.h if args.h is not None else cfg.get("h", 0.0)
    cfg["out"] = args.out or cfg.get("out")
    cfg["run"] = {"domain": raw["domain"], "h": cfg["h"], "datum": raw["datum"]}
    return cfg


def _echo(cfg, solver=False) -> dict:
    return {**cfg["run"], "solver": cfg["solver"].to_json()} if solver else cfg["run"]


def _out_dir(path) -> str:
    """The output directory ``path`` (default ``results``), made if missing;
    a path that cannot be made a directory is a usage error naming it."""
    path = path or "results"
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot make output directory {path}: {exc.strerror or exc}") from None
    return path


def _datum_on_faces(grid, datum):
    from .geometry import boundary_faces, sample_datum

    kind, values = datum
    return sample_datum(boundary_faces(grid), kind.expression(**values))


def _bsc_samples(cfg):
    from .bsc import boundary_samples
    from .surfaces import Samples

    kind, values = cfg["datum"]
    expr = kind.expression(**values)
    if isinstance(expr, Samples):  # certified at the listed points themselves
        return expr
    n = {"n": cfg["samples"]} if "samples" in cfg else {}  # else boundary_samples' own
    return boundary_samples(cfg["domain"], expr, **n)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    from .fileio import write_field, write_json, write_pgm, write_vector_field
    from .geometry import rasterize

    cfg = _load_config(args)
    grid = rasterize(cfg["domain"], cfg["h"])
    datum = _datum_on_faces(grid, cfg["datum"])
    out = _out_dir(cfg["out"])
    from .solver import solve

    rep = solve(grid, datum, cfg["solver"])
    write_field(rep.u, os.path.join(out, "solution.csv"))
    write_vector_field(rep.dual, os.path.join(out, "dual.csv"))
    write_pgm(rep.u.values, os.path.join(out, "solution.pgm"), grid.interior_mask)
    write_json(
        {"run": _echo(cfg, solver=True), "result": rep.to_json()},
        os.path.join(out, "report.json"),
    )
    print(
        f"solved {grid.interior_count} cells: energy {rep.energy.total:.9g}, "
        f"{rep.iterations} iterations, converged={rep.converged} "
        f"(set-up {rep.seconds['setup']:.3f} s, block {rep.seconds['block']:.3f} s)"
    )
    print(f"wrote {out}/solution.csv, {out}/dual.csv, {out}/solution.pgm, {out}/report.json")
    return 0 if rep.converged else 1


def _cmd_energy(args) -> int:
    from .energy import penalized_energy
    from .fileio import read_field, write_json
    from .geometry import rasterize

    cfg = _load_config(args)
    grid = rasterize(cfg["domain"], cfg["h"])
    datum = _datum_on_faces(grid, cfg["datum"])
    out = _out_dir(cfg["out"])
    u = read_field(args.field or os.path.join(out, "solution.csv"), grid)
    br = penalized_energy(u, datum, args.energy)
    write_json({"run": _echo(cfg), "energy": br.to_json()}, os.path.join(out, "energy.json"))
    print(f"area {br.interior:.9g} + penalty {br.penalty:.9g} = {br.total:.9g}")
    print(f"wrote {out}/energy.json")
    return 0


def _cmd_certify(args, envelopes: bool) -> int:
    """``bsc`` (a grid, for K, only when h > 0) and, with ``envelopes``,
    ``barriers`` (h required): certify the slope condition into bsc.json, and
    write the envelopes when certified.  A violation is exit 1 from both."""
    from .bsc import BscViolation, barriers, minimal_Q
    from .fileio import write_field, write_json
    from .geometry import rasterize

    cfg = _load_config(args, ("domain", "h", "datum") if envelopes else ("domain", "datum"))
    samples = _bsc_samples(cfg)
    grid = rasterize(cfg["domain"], cfg["h"]) if envelopes or cfg["h"] > 0 else None
    out = _out_dir(cfg["out"])
    fields = {}  # file name -> envelope field
    try:
        rep = minimal_Q(samples, grid=grid)
    except BscViolation as exc:
        result = {"feasible": False, "witness": list(exc.witness), "slack": exc.slack}
        said = f"slope condition violated at {exc.witness} (slack {exc.slack:.6g})"
    else:
        result = {"feasible": True, **rep.to_json()}
        said = f"certified: Q_min {rep.Q_min:.9g}, gradient bound K {rep.K:.9g}"
        if envelopes:
            fields = dict(zip(("barrier_lower.csv", "barrier_upper.csv"), barriers(samples, rep, grid)))
    for name, field in fields.items():
        write_field(field, os.path.join(out, name))
    write_json({"run": _echo(cfg), **result}, os.path.join(out, "bsc.json"))
    print(said)
    print("wrote " + ", ".join(f"{out}/{name}" for name in [*fields, "bsc.json"]))
    return 0 if result["feasible"] else 1


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
    out = _out_dir(args.out)
    reports, summary = run_suite(ids)
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
    expr, exact, norm = kind.expression(), kind.minimizer(), kind.error_norm
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
    out = _out_dir(args.out)
    grid, rep, cs, res, metrics = _reproduce_metrics(example)
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
    from .fileio import _atomic_write, write_json
    from .solver import refine_study
    from .surfaces import DATUM_NAMES

    cfg = _load_config(args)
    kind, values = cfg["datum"]
    if kind.error_norm is None:
        raise UsageError(f"refine needs a closed-form datum ({', '.join(DATUM_NAMES)})")
    levels = cfg.get("levels", 3)
    if levels < 2:
        raise UsageError("refine needs at least 2 levels")
    expr = kind.expression(**values)
    exact = None if kind.minimizer is None else kind.minimizer(**values)
    hs = [cfg["h"] / 2**k for k in range(levels)]
    out = _out_dir(cfg["out"])
    rows, monotone = refine_study(
        cfg["domain"], expr, hs, cfg["solver"], exact=exact, error_norm=kind.error_norm
    )
    lines = ["h,error,iterations,converged"]
    for r in rows:
        err = "" if r.error is None else format(r.error, ".17g")
        lines.append(f"{format(r.h, '.17g')},{err},{r.report.iterations},{int(r.report.converged)}")
    _atomic_write(os.path.join(out, "refine.csv"), "\n".join(lines) + "\n")
    write_json(
        {"run": _echo(cfg, solver=True), "monotone": monotone, "norm": kind.error_norm},
        os.path.join(out, "refine.json"),
    )
    print(f"{'h':>12s} {'error':>14s} {'iters':>8s}  converged")
    for r in rows:
        err_disp = "-" if r.error is None else f"{r.error:.6g}"
        print(f"{r.h:12.6g} {err_disp:>14s} {r.report.iterations:8d}  {r.report.converged}")
    if monotone is None:
        monotone = "n/a, no closed-form minimizer for this datum"
    print(f"monotone decrease: {monotone}")
    print(f"wrote {out}/refine.csv, {out}/refine.json")
    return 0 if all(r.report.converged for r in rows) else 1


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
        "--energy": dict(choices=("iso", "aniso"), default="iso", help="cell norm (default: iso)"),
    }

    def common(sp, *flags):
        sp.add_argument("-c", "--config", required=True, help="JSON run config")
        sp.add_argument("--out", help="output directory (default: config 'out' or results/)")
        sp.add_argument("--h", type=float, help="grid spacing override")
        for flag in flags:  # only the overrides the subcommand reads
            sp.add_argument(flag, **overrides[flag])

    sp = sub.add_parser("solve", help="minimize the penalized area functional")
    common(sp, "--mode")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("energy", help="evaluate the energy of a stored field")
    common(sp, "--energy")
    sp.add_argument("field", nargs="?", help="field CSV (default: <out>/solution.csv)")
    sp.set_defaults(func=_cmd_energy)

    for name, envelopes, does in (
        ("bsc", False, "certify the minimal slope constant"),
        ("barriers", True, "write certified lower/upper envelopes"),
    ):
        sp = sub.add_parser(name, help=does)
        common(sp)
        sp.set_defaults(func=functools.partial(_cmd_certify, envelopes=envelopes))

    sp = sub.add_parser("verify", help="run the named property checks")
    sp.add_argument("--check", action="append", help="check id (repeatable; default: all)")
    sp.add_argument("--out", help="output directory for verify.json")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("reproduce", help="regenerate a worked example against goldens")
    sp.add_argument("example", choices=("es1", "es2"))
    sp.add_argument("--out", help="output directory")
    sp.set_defaults(func=_cmd_reproduce)

    sp = sub.add_parser("refine", help="error table across grid refinements")
    common(sp, "--mode")
    sp.set_defaults(func=_cmd_refine)
    return p


def dispatch(argv=None) -> int:
    """Parse argv, run the subcommand, and return the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    from .bsc import BscError
    from .energy import EnergyError
    from .fileio import FormatError
    from .geometry import DomainError
    from .solver import SolverError

    try:
        return int(args.func(args))
    except (UsageError, FormatError, DomainError, BscError, EnergyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
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
