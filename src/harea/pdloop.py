"""The primal-dual loop's iteration body compiled from C, and its loader.

``pdloop.c`` runs a block of iterations of :func:`harea.solver.solve`'s loop,
up to an energy checkpoint, in place on the iterate and working buffers that
:func:`bind` allocates, each starting on a 64-byte boundary so that the
block's speed does not follow the heap's history, and returns the
checkpoint's interior and penalty energies.  Every element goes
through the NumPy block's operations in NumPy's order and both energies are
summed in the order of NumPy's pairwise ``add.reduce``, so the two blocks
give the same iterates and energies bit for bit.  Where the NumPy block makes
about 38 NumPy calls an iteration, each a pass over its arrays, the compiled
one makes a single sweep over the cells, compiled to vector instructions, with
h div and the primal step :data:`_CHUNK` cells and the stencil's reach ahead
of the dual step.  The same source runs the step rule's power estimate
(:func:`power_estimate`), rounded as :func:`harea.fields.operator_norm_sq`'s
NumPy loop rounds it.  Both read the operator's tables (the runs of one
axis-0 step, the rim CSR, the rewritten gradient entries, the stencil's
reach) from the grid's cached :class:`~harea.fields.DiffOperator`, so they
are built once per grid; :func:`bind` builds only the datum's tables; h X*
is the grid's cached one.  Every loop over the cells reads a cell's axis-0
neighbor at its run's constant step, so it compiles to plain vector loads:
read through ``next0`` and ``prev0``, GCC compiles it to gathers, which made
the host build's block 2.1-2.8 times as slow on an AVX-512 Xeon.

The source ships with the package.  The first step-size estimate or solve in
a process compiles it with :data:`CFLAGS` for the host CPU and loads it with
ctypes; importing the package does neither.  The shared object is cached
under ``$XDG_CACHE_HOME/harea`` (or ``~/.cache/harea``) as
``pdloop-<host>-<build>.so``: ``<host>`` is a CRC-32 of the CPU feature line
of ``/proc/cpuinfo`` (``flags`` on x86, ``Features`` on Arm), read on the
first load, so a host with other features never loads the object, and
``<build>`` a CRC-32 of the source, the flags and the machine.  It is written
by an atomic rename, and the first load in a process prunes the cache
(:func:`_prune`).  Where the
feature line cannot be read (``<host>`` is then the machine's name), or where
the compiler rejects the host build, the block is built with the portable
flags (:data:`CFLAGS` without ``-march=native``).  A process without the host
object tries the host build first, so a host build that failed once is tried
again by the next process.  Where that directory cannot be written the
object is built in a private temporary directory instead.  Where no C
compiler is found, the source is missing, the portable build fails too, a
build runs past :data:`_COMPILE_TIMEOUT` seconds or the object cannot be
loaded, :func:`bind` and :func:`power_estimate` return None and their
callers run the NumPy loops; nothing else selects between the two.
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = ["CFLAGS", "bind", "loop_info", "power_estimate"]

# -ffast-math and -Ofast would reorder and contract the arithmetic the NumPy
# block rounds step by step, and GCC contracts a * b + c into a fused
# multiply-add unless told not to.  -march=native widens the vectors of the
# dual step's square root and divide (2 doubles with SSE2, 8 with AVX-512),
# which round each element as before; it ties the object to the host's CPU,
# so the object is cached under the host's CPU features.
CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")
# where the host's CPU features cannot be read or the compiler rejects the host build
_PORTABLE_CFLAGS = tuple(flag for flag in CFLAGS if flag != "-march=native")
# seconds a build may run before it counts as failed (a build takes under one)
_COMPILE_TIMEOUT = 60
# cells per chunk of the kernel's sweep; 128 ran 2-6% faster than 32 in process
_CHUNK = 128

_SOURCE = Path(__file__).with_name("pdloop.c")
_CPUINFO = Path("/proc/cpuinfo")
_idx, _f64 = ctypes.POINTER(ctypes.c_ssize_t), ctypes.POINTER(ctypes.c_double)


class _State(ctypes.Structure):
    """``struct pd_state`` of pdloop.c, field for field."""

    _fields_ = [
        *((name, ctypes.c_ssize_t) for name in ("n", "chunk", "lead")),
        *((name, _f64) for name in ("u", "q", "g", "u_step", "du", "hxs")),
        ("n_prev0_run", ctypes.c_ssize_t),
        ("prev0_runs", _idx),
        ("n_rim", ctypes.c_ssize_t),
        *((name, _idx) for name in ("rim", "rim_ptr", "rim_src", "rim_owner")),
        ("n_next0_run", ctypes.c_ssize_t),
        *((name, _idx) for name in ("next0_runs", "next0")),
        ("n_edge", ctypes.c_ssize_t),
        *((name, _idx) for name in ("edge", "edge_cells")),
        ("n_fix", ctypes.c_ssize_t),
        ("fix", _idx),
        ("fix_q", _f64),
        ("constrained", ctypes.c_int),
        *((name, _f64) for name in ("lo", "hi", "t", "mean")),
        *((name, _idx) for name in ("owner_multi", "multi_m", "multi_off")),
        *((name, _f64) for name in ("multi_data", "select")),
        ("n_face", ctypes.c_ssize_t),
        ("face_owner", _idx),
        *((name, _f64) for name in ("phi", "measure", "terms")),
        *((name, ctypes.c_double) for name in ("h", "factor", "radius", "numerator", "keep", "relax")),
    ]


class _BuildError(Exception):
    """The compiler rejected the build."""


class _BuildTimeout(Exception):
    """The compiler ran past :data:`_COMPILE_TIMEOUT`."""


def _compile(compiler: str, flags: tuple[str, ...], target: Path) -> None:
    """Build the shared object with ``flags`` into a temporary file beside
    ``target`` and rename it into place."""
    import subprocess  # imported by a build only: about 0.8 MB of RSS with its dependencies

    fd, tmp = tempfile.mkstemp(prefix=target.stem, suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        try:
            built = subprocess.run([compiler, *flags, "-o", tmp, str(_SOURCE)],
                                   capture_output=True, text=True, timeout=_COMPILE_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise _BuildTimeout(f"the compiler ran for more than {_COMPILE_TIMEOUT} s") from exc
        if built.returncode:
            raise _BuildError(built.stderr)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load(path: Path):
    lib = ctypes.CDLL(str(path))
    lib.pd_state_size.argtypes, lib.pd_state_size.restype = (), ctypes.c_size_t
    if lib.pd_state_size() != ctypes.sizeof(_State):
        raise OSError(f"{path}: struct pd_state does not match the loader's layout")
    lib.pd_run.argtypes, lib.pd_run.restype = (ctypes.POINTER(_State), ctypes.c_ssize_t, _f64), None
    lib.pd_power.argtypes = (ctypes.POINTER(_State), ctypes.c_ssize_t, _f64, _f64, _f64)
    lib.pd_power.restype = ctypes.c_double
    return lib


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "harea"


def _host() -> str | None:
    """A CRC-32 of the CPU feature line of /proc/cpuinfo (``flags`` on x86,
    ``Features`` on Arm); None where there is none to read."""
    import zlib

    try:
        with open(_CPUINFO) as fh:
            for line in fh:
                key, colon, features = line.partition(":")
                if colon and key.strip() in ("flags", "Features"):
                    return f"{zlib.crc32(features.strip().encode()):08x}"
    except OSError:
        pass
    return None


def _prune(path: Path, host: str) -> None:
    """Remove beside ``path`` the objects of ``host``'s other builds but the
    newest, so two checkouts run in turn keep one object each, and those
    named without a host part (the naming before the host key) or under the
    machine's name, which no CPU-keyed host loads; other hosts' stay."""
    keys = {other: other.name[len("pdloop-"):-len(".so")].rpartition("-")[0]
            for other in path.parent.glob("pdloop-*.so") if other != path}
    builds = [other for other, key in keys.items() if key == host]
    try:
        builds.sort(key=lambda other: other.stat().st_mtime_ns)
    except OSError:  # one was removed meanwhile; the next build prunes
        return
    stale = [other for other, key in keys.items() if key != host and key in ("", platform.machine())]
    for other in builds[:-1] + stale:
        try:
            other.unlink()
        except OSError:  # removed by another process, or not ours to remove
            pass


def _load_or_build(compiler: str, directory: Path, host: str, builds):
    """Load the first of ``builds``, ``(flags, name)`` in order, that is in
    ``directory`` or that the compiler accepts, and return it with its
    flags."""
    directory.mkdir(parents=True, exist_ok=True)
    for flags, name in builds:
        path = directory / name
        if not path.is_file():
            try:
                _compile(compiler, flags, path)
            except _BuildError as exc:
                rejected = exc
                continue
        lib = _load(path)
        _prune(path, host)
        return lib, flags
    raise rejected


@functools.cache
def _library():
    """The loaded kernel and the flags that built it, built on first use;
    None where it cannot be built or loaded."""
    import zlib  # hashlib would load OpenSSL, about 3.5 MB of RSS

    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        return None
    try:
        source = _SOURCE.read_bytes()
    except OSError:  # installed without its package data
        return None
    host = _host()
    # the host build, then the portable one where the compiler rejects it
    flag_sets = (CFLAGS, _PORTABLE_CFLAGS) if host else (_PORTABLE_CFLAGS,)
    host = host or platform.machine() or "unknown"
    builds = []
    for flags in flag_sets:
        key = zlib.crc32(" ".join((*flags, platform.machine())).encode(), zlib.crc32(source))
        builds.append((flags, f"pdloop-{host}-{key:08x}.so"))
    try:
        return _load_or_build(compiler, _cache_dir(), host, builds)
    except (_BuildError, _BuildTimeout):
        return None
    except (OSError, RuntimeError):  # the cache cannot be written or read; RuntimeError: no home
        pass
    try:
        # the loaded object stays mapped after its file is removed
        with tempfile.TemporaryDirectory(prefix="harea-") as tmp:
            return _load_or_build(compiler, Path(tmp), host, builds)
    except (OSError, _BuildError, _BuildTimeout):
        return None


def loop_info() -> dict:
    """Which block runs the loop in this process, ``"c"`` or ``"numpy"``,
    and the flags that built the C block, the host or the portable ones
    (None for NumPy).  Builds the kernel if no estimate or solve has yet."""
    kernel = _library()
    return {"loop": "c" if kernel else "numpy", "cflags": list(kernel[1]) if kernel else None}


def _pointer(a: np.ndarray, ctype):
    if a.dtype != np.dtype(ctype) or not a.flags.c_contiguous:
        raise ValueError(f"the kernel takes C-contiguous {np.dtype(ctype)} arrays, got {a.dtype}")
    return a.ctypes.data_as(ctypes.POINTER(ctype))


def _aligned(*shape: int) -> np.ndarray:
    """An empty float64 array starting on a 64-byte boundary (a cache line)."""
    raw = np.empty(int(np.prod(shape)) + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + raw.size - 7].reshape(shape)


def _operator(K) -> dict:
    """The fields of ``struct pd_state`` that describe the operator ``K``,
    pointing into the tables it carries, which are built once per grid."""
    return dict(
        n=K.n, n_prev0_run=K.prev0_runs.shape[1], n_rim=K.rim.size, n_next0_run=K.next0_runs.shape[1],
        n_edge=K.edge.size, n_fix=K.fix.size, h=K.h,
        **{name: _pointer(getattr(K, name), ctypes.c_ssize_t) for name in
           ("prev0_runs", "rim", "rim_ptr", "rim_src", "next0_runs", "next0", "edge", "edge_cells", "fix")},
    )


def power_estimate(K, v: np.ndarray, steps: int) -> float | None:
    """The step rule's power estimate on the operator ``K``: ``steps`` steps
    of ``w = -K.div(K.grad(v))``, ``lam = |w|`` and ``v = w / lam`` from the
    unit vector ``v`` (overwritten), and the last ``lam``, 0.0 once a step
    gives ``w = 0``; each element is rounded as
    :func:`harea.fields.operator_norm_sq`'s NumPy loop rounds it, from the
    same start, the unit checkerboard.  None where the kernel cannot be
    built or loaded."""
    kernel = _library()
    if kernel is None:
        return None
    g, w, f64 = np.empty(2 * K.n), np.empty(K.n), ctypes.c_double
    state = _State(**_operator(K))
    return kernel[0].pd_power(ctypes.byref(state), steps, _pointer(v, f64), _pointer(g, f64), _pointer(w, f64))


def bind(
    *, K, datum, pen, start, hxs, factor: float, radius: float, relax: float
) -> tuple[Callable[[int], tuple[float, float]], np.ndarray, np.ndarray] | None:
    """The compiled block of one solve, ``(block, u, Q)``: each call
    ``block(steps)`` runs ``steps`` iterations on the primal ``u`` (n,) and
    the dual ``Q`` (2, n) in place and returns the interior and penalty
    energies of the iterate it ends on.  None where the kernel cannot be
    built or loaded.

    ``K`` is the grid's :class:`~harea.fields.DiffOperator`, ``datum`` the
    boundary datum, ``pen`` its :class:`~harea.solver._Penalty`, ``start``
    the first iterate, copied into ``u``, and ``hxs`` the grid's h X* (2, n);
    the others are folded constants.  Every other buffer is allocated here,
    so blocks of different solves may run in threads at once."""
    kernel = _library()
    if kernel is None:
        return None
    lib, n = kernel[0], K.n
    u, q, g, u_step, du = (_aligned(*shape) for shape in ((n,), (2, n), (2, n), (n,), (n,)))
    u[...], q[...] = start, 0.0
    faces = datum.faces
    # each rim cell's index among the owners, -1 for none (an owner is never regular)
    owner_at = np.full(n, -1, dtype=np.intp)
    owner_at[pen.idx] = np.arange(pen.idx.size)
    # owners with m > 2 faces: their index among such owners, m, and their m
    # face values followed by the m + 1 moves (t / m)(m - 2j) of the median
    owner_multi, ms, rows = np.full(pen.idx.size, -1, dtype=np.intp), [np.empty(0, dtype=np.intp)], []
    for p, values, moves in pen.multi:
        owner_multi[p] = np.arange(len(rows), len(rows) + p.size)
        ms.append(np.full(p.size, values.shape[1], dtype=np.intp))
        rows.extend(np.concatenate((values, moves), axis=1))
    ints = {
        name: np.ascontiguousarray(a, dtype=np.intp)
        for name, a in (("rim_owner", owner_at[K.rim]), ("owner_multi", owner_multi),
                        ("multi_m", np.concatenate(ms)), ("face_owner", faces.owner_cell))
    }
    ints["multi_off"] = np.cumsum([0] + [row.size for row in rows], dtype=np.intp)[:-1]
    floats = {
        name: np.ascontiguousarray(a, dtype=np.float64)
        for name, a in (("lo", pen.lo), ("hi", pen.hi), ("t", pen.t), ("mean", pen.mean),
                        ("multi_data", np.concatenate(rows) if rows else np.empty(0)),
                        ("phi", datum.values), ("measure", faces.measure))
    }
    # scratch space
    floats.update(
        fix_q=np.empty(2 * K.fix.size), terms=np.empty(len(faces.owner_cell)),
        select=np.empty(2 * int(ints["multi_m"].max(initial=0)) + 1),
    )
    floats.update(u=u, q=q, g=g, u_step=u_step, du=du, hxs=hxs)
    state = _State(
        **_operator(K), chunk=_CHUNK, lead=_CHUNK + K.reach,  # the lead runs a chunk and the reach ahead
        constrained=int(pen.mode == "constrained"), n_face=len(faces.owner_cell), factor=factor,
        radius=radius, numerator=relax * radius, keep=1.0 - relax, relax=relax,
        **{name: _pointer(a, ctypes.c_ssize_t) for name, a in ints.items()},
        **{name: _pointer(a, ctypes.c_double) for name, a in floats.items()},
    )
    energies = np.empty(2)
    run, ref, out = lib.pd_run, ctypes.byref(state), _pointer(energies, ctypes.c_double)
    arrays = (K, ints, floats, energies)  # the state points into these; the block keeps them alive

    def block(steps: int) -> tuple[float, float]:
        run(ref, steps, out)
        return float(energies[0]), float(energies[1])

    block.state, block.arrays = state, arrays
    return block, u, q
