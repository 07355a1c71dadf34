"""Which checks of the verification suite fail on a wrong solver.

Runs ``run_suite()`` once unpatched and once under each mutant of a fixed
set, with the mutant applied inside ``solve`` only (the energy, the checks
and the slope certificates are left alone), and prints a check-by-mutant
table: ``FAIL`` where the check fails, ``.`` where it passes.  Every
memoized artifact of ``harea.checks`` (each module-level name with a
``cache_clear``) is cleared before each run, so no run reads another's
solves.

The mutants:

- ``cap<N>``: ``max_iters`` capped at N = 10, 100, 300, 1,000 and 3,000;
- ``pen2tau``: the boundary prox built with 2 tau, which doubles the boundary
  weight the solver minimizes;
- ``hx0.9``: h X* scaled by 0.9, so the solver minimizes (and reports) the
  energy of another functional;
- ``start``: the start returned unchanged, as if no iteration moved it;
- ``drop3``: the face penalty dropped for owners with three or more faces.

Not collected by pytest (the file name has no ``test_`` prefix).  It takes
about a minute on a 2-core machine::

    PYTHONPATH=src python tests/mutation_audit.py
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import replace

import numpy as np

import harea.checks
import harea.pdloop
import harea.solver
from harea.checks import CheckId, run_suite

CAPS = (10, 100, 300, 1000, 3000)


def _clear_memos() -> None:
    for obj in vars(harea.checks).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


@contextlib.contextmanager
def _patched(module, name, value):
    saved = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, saved)


@contextlib.contextmanager
def _capped(cap: int):
    """``solve`` runs at most ``cap`` iterations, whatever its config asks."""
    real = harea.solver.solve

    def solve(grid, datum, cfg=None):
        cfg = cfg or harea.solver.SolverConfig()
        return real(grid, datum, replace(cfg, max_iters=min(cfg.max_iters, cap)))

    # the checks call solve from their own module, refine_study from the solver's
    with _patched(harea.solver, "solve", solve), _patched(harea.checks, "solve", solve):
        yield


@contextlib.contextmanager
def _penalty_double_tau():
    real = harea.solver._Penalty

    def penalty(datum, tau, mode):
        return real(datum, 2.0 * tau, mode)

    with _patched(harea.solver, "_Penalty", penalty):
        yield


@contextlib.contextmanager
def _hxstar_scaled():
    real = harea.solver._hxstar

    def hxstar(grid):
        base = real(grid)
        return np.multiply(base, 0.9, out=harea.pdloop._aligned(*base.shape))

    with _patched(harea.solver, "_hxstar", hxstar):
        yield


@contextlib.contextmanager
def _start_unchanged():
    """Every block call returns the start's energies and moves nothing."""
    real_bind = harea.pdloop.bind

    def bind(**loop):
        block, u, Q = real_bind(**loop) or harea.solver._numpy_block(**loop)
        return (lambda steps: block(0)), u, Q

    with _patched(harea.pdloop, "bind", bind):
        yield


@contextlib.contextmanager
def _drop_multi_face_penalty():
    """Owners with three or more faces leave the prox: their cells move
    freely, as if their faces carried no penalty."""
    real = harea.solver._Penalty

    def penalty(datum, tau, mode):
        pen = real(datum, tau, mode)
        keep = np.ones(pen.idx.size, dtype=bool)
        for pos, _, _ in pen.multi:
            keep[pos] = False
        for name in ("idx", "weight", "t", "mean", "lo", "hi"):
            setattr(pen, name, getattr(pen, name)[keep])
        pen.multi = []
        return pen

    with _patched(harea.solver, "_Penalty", penalty):
        yield


MUTANTS = {
    **{f"cap{cap}": (lambda cap=cap: _capped(cap)) for cap in CAPS},
    "pen2tau": _penalty_double_tau,
    "hx0.9": _hxstar_scaled,
    "start": _start_unchanged,
    "drop3": _drop_multi_face_penalty,
}


def audit() -> dict:
    """``{run: {"failed": [check ids], "seconds": s}}`` for the unpatched
    suite (``none``) and each mutant."""
    out = {}
    for name in ("none", *MUTANTS):
        _clear_memos()
        patch = contextlib.nullcontext() if name == "none" else MUTANTS[name]()
        start = time.perf_counter()
        with patch:
            reports, _ = run_suite()
        out[name] = {
            "failed": [r.check_id.value for r in reports if not r.passed],
            "seconds": round(time.perf_counter() - start, 1),
        }
        print(f"{name}: {len(out[name]['failed'])} failing checks in {out[name]['seconds']} s", flush=True)
    _clear_memos()
    return out


def table(result: dict) -> str:
    runs = list(result)
    lines = ["| check | " + " | ".join(runs) + " |", "|---" * (len(runs) + 1) + "|"]
    for cid in CheckId:
        marks = ["FAIL" if cid.value in result[r]["failed"] else "." for r in runs]
        lines.append(f"| `{cid.value}` | " + " | ".join(marks) + " |")
    lines.append("| suite time (s) | " + " | ".join(str(result[r]["seconds"]) for r in runs) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(table(audit()))
