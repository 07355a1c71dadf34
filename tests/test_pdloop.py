"""The compiled block of the primal-dual loop against the NumPy block.

The NumPy block in ``harea.solver`` is the referee: where the kernel builds,
``solve`` runs the compiled block, and with ``pdloop.bind`` patched to return
None it runs the NumPy block on the same problem.  The two reports must agree
bit for bit, on the iterates, the iteration count and the energies.
"""

import ctypes
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import harea
import harea.fields as fields_module
import harea.solver as solver_module
from harea import (
    BoundaryDatum,
    DomainSpec,
    Grid,
    SolverConfig,
    SolverError,
    balanced_steps,
    boundary_faces,
    rasterize,
    sample_datum,
    solve,
)
from harea import pdloop
from harea.checks import _PAIR_SEED, _SQUARE, _fourier_datum
from harea.fields import _hxstar, difference_operator
from harea.solver import _Penalty
from harea.surfaces import es1_datum

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture
def c_block():
    if pdloop._library() is None:
        pytest.skip("the C block cannot be built here (no compiler, or the build failed)")


def both_blocks(monkeypatch, grid, datum, cfg):
    """The reports (or SolverError messages) of the C block and the NumPy
    block on one problem."""
    out = []
    for patch in (False, True):
        with monkeypatch.context() as m:
            if patch:
                m.setattr(pdloop, "bind", lambda **kw: None)
            try:
                with np.errstate(all="ignore"), warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    out.append(solve(grid, datum, cfg))
            except SolverError as exc:
                out.append(str(exc))
    return out


def assert_bitwise_equal(a, b):
    assert (a.iterations, a.converged) == (b.iterations, b.converged)
    assert np.array(a.stagnation).tobytes() == np.array(b.stagnation).tobytes()
    for name in ("interior", "penalty", "total"):
        x, y = getattr(a.energy, name), getattr(b.energy, name)
        assert np.array(x).tobytes() == np.array(y).tobytes(), name
    assert a.u.values.tobytes() == b.u.values.tobytes()
    assert a.dual.values.tobytes() == b.dual.values.tobytes()


def lens(h=1 / 32):
    grid = rasterize(DomainSpec.parabolic(), h)
    return grid, sample_datum(boundary_faces(grid), es1_datum)


def comparison_phi():
    """The first datum of the comparison check on its h = 1/24 disk."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 24)
    return grid, sample_datum(boundary_faces(grid), _fourier_datum(np.random.default_rng(_PAIR_SEED)))


NOTCHED = [(0, 0), (1, 0), (1, 0.5), (0.52, 0.5), (0.52, 0.9), (0.48, 0.9), (0.48, 0.5), (0, 0.5)]


def notched():
    """A polygon whose one-cell-wide spike ends in an owner cell with three
    faces at h = 1/25."""
    grid = rasterize(DomainSpec.polygon(NOTCHED), 1 / 25)
    return grid, sample_datum(boundary_faces(grid), lambda x, y: np.sin(5 * x) + y * y)


RAGGED = ["##.#..", "###.##", ".#..#.", "##.###", "#....#", "######"]


def ragged():
    """A hand-drawn mask with cells isolated along either axis, backward
    fallbacks, and owners with three and four faces."""
    mask = np.array([[c == "#" for c in row] for row in RAGGED])
    grid = Grid(h=0.25, origin=np.zeros(2), nx=mask.shape[0], ny=mask.shape[1], interior_mask=mask)
    return grid, sample_datum(boundary_faces(grid), lambda x, y: np.cos(3 * x) - y)


TINY = ["...", ".#.", ".#."]


def tiny():
    """A hand-drawn mask of two cells, one above the other, with six faces:
    both energy sums take NumPy's plain loop for fewer than 8 terms."""
    mask = np.array([[c == "#" for c in row] for row in TINY])
    grid = Grid(h=0.25, origin=np.zeros(2), nx=mask.shape[0], ny=mask.shape[1], interior_mask=mask)
    return grid, sample_datum(boundary_faces(grid), lambda x, y: np.cos(3 * x) - y)


def lens64():
    return lens(1 / 64)


def holes():
    """A 40 x 40 mask with a quarter of its cells exterior at random: rows
    split into several runs, axis-0 steps that change from row to row, and
    rim cells and owners with three or four faces in every chunk of the
    compiled block's sweep (test_holes_mask_covers_every_chunk_of_the_sweep)."""
    mask = np.random.default_rng(1473).random((40, 40)) >= 0.25
    grid = Grid(h=1 / 40, origin=np.zeros(2), nx=40, ny=40, interior_mask=mask)
    return grid, sample_datum(boundary_faces(grid), lambda x, y: np.sin(9 * x) * np.cos(7 * y) + x)


def staggered():
    """16 rows of 32 cells, the even ones a column right of the odd ones:
    the axis-0 step changes at every row, and a run of the lag's table and
    one of the lead's end on each chunk end of the sweep's chunk loop
    (test_run_table_cases_cover_the_sweeps_edges)."""
    mask = np.zeros((16, 33), dtype=bool)
    for i in range(16):
        mask[i, (i + 1) % 2:(i + 1) % 2 + 32] = True
    grid = Grid(h=1 / 32, origin=np.zeros(2), nx=16, ny=33, interior_mask=mask)
    return grid, sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)


def one_cell_rows():
    """60 rows, every third a single cell, which is a fix cell and a rim
    cell: the runs carry on over it, inside the sweep's chunk loop."""
    mask = np.zeros((60, 9), dtype=bool)
    for i in range(60):
        if i % 3 == 2:
            mask[i, i // 3 % 9] = True
        else:
            mask[i, 1 + i % 2:8 - i % 3] = True
    grid = Grid(h=1 / 32, origin=np.zeros(2), nx=60, ny=9, interior_mask=mask)
    return grid, sample_datum(boundary_faces(grid), lambda x, y: np.cos(5 * x) * y)


def small_disk():
    """The h = 1/5 disk: fewer cells than the sweep's lead, so its chunk loop
    never runs, and the lead alone and the lag alone each cross several
    runs."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 5)
    return grid, sample_datum(boundary_faces(grid), lambda x, y: x * x - np.sin(2 * y))


CASES = {
    "lens-penalized": (lens, SolverConfig(max_iters=30000, tol=1e-10)),
    "lens-constrained": (lens, SolverConfig(mode="constrained", max_iters=30000, tol=1e-10)),
    "comparison-pair": (comparison_phi, SolverConfig(max_iters=20000, tol=1e-9)),
    "notched-polygon": (notched, SolverConfig(max_iters=20000, tol=1e-9)),
    "ragged-mask": (ragged, SolverConfig(max_iters=20000, tol=1e-9)),
    "ragged-constrained": (ragged, SolverConfig(mode="constrained", max_iters=20000, tol=1e-9)),
    "cut-at-137": (lens, SolverConfig(max_iters=137, tol=1e-300)),
    "cut-at-3": (notched, SolverConfig(max_iters=3)),
    "tiny-mask": (tiny, SolverConfig(max_iters=20000, tol=1e-9)),
    "cut-at-137-h64": (lens64, SolverConfig(max_iters=137, tol=1e-300)),
    "holes-penalized": (holes, SolverConfig(max_iters=20000, tol=1e-9)),
    "holes-constrained": (holes, SolverConfig(mode="constrained", max_iters=20000, tol=1e-9)),
    "staggered-rows": (staggered, SolverConfig(max_iters=2000, tol=1e-9)),
    "one-cell-rows": (one_cell_rows, SolverConfig(max_iters=2000, tol=1e-9)),
    "fewer-cells-than-the-lead": (small_disk, SolverConfig(max_iters=2000, tol=1e-9)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_c_block_equals_numpy_block_bitwise(c_block, monkeypatch, case):
    problem, cfg = CASES[case]
    grid, datum = problem()
    c, ref = both_blocks(monkeypatch, grid, datum, cfg)
    assert_bitwise_equal(c, ref)
    if case.startswith("cut"):
        assert c.iterations == cfg.max_iters


@pytest.mark.parametrize("chunk", [1, 7, 32])
def test_sweep_at_other_chunks_equals_numpy_block_bitwise(c_block, monkeypatch, chunk):
    """The sweep's lead covers the stencil's reach at any chunk; smaller
    chunks put more chunk ends, where the lead and the lag come closest,
    among the random-holes mask's rim cells and long axis-0 steps."""
    monkeypatch.setattr(pdloop, "_CHUNK", chunk)
    problem, cfg = CASES["holes-penalized"]
    c, ref = both_blocks(monkeypatch, *problem(), cfg)
    assert_bitwise_equal(c, ref)


@pytest.mark.parametrize("case", ["cut-at-3", "ragged-constrained"])
def test_c_block_solve_calls_no_numpy_loop_kernel(c_block, monkeypatch, case):
    """Under the compiled block a solve calls none of the NumPy block's
    stencil, projection or cell-norm kernels, and takes every energy from
    the compiled block: with those kernels raising, it returns the same
    report bit for bit.  The start prox stays the NumPy one."""
    problem, cfg = CASES[case]
    grid, datum = problem()
    ref = solve(grid, datum, cfg)  # caches the grid's step rule

    def uncalled(*args, **kwargs):
        raise AssertionError("a NumPy loop kernel ran under the compiled block")

    for owner, name in ((fields_module.DiffOperator, "hgrad"), (fields_module.DiffOperator, "hdiv"),
                        (fields_module, "_cell_norms"), (solver_module, "_cell_norms"),
                        (solver_module, "_project_dual")):
        monkeypatch.setattr(owner, name, uncalled)
    assert_bitwise_equal(solve(grid, datum, cfg), ref)


@pytest.mark.parametrize("case", sorted(CASES))
def test_portable_c_block_equals_numpy_block_bitwise(portable_block, monkeypatch, case):
    """The portable build (2-wide SSE2 on x86-64) stays under the referee on
    a host whose own build has wider vectors."""
    problem, cfg = CASES[case]
    grid, datum = problem()
    c, ref = both_blocks(monkeypatch, grid, datum, cfg)
    assert_bitwise_equal(c, ref)


def test_threads_run_c_blocks_at_once(c_block):
    """ctypes releases the GIL while a block runs, so several threads may be
    in pd_run at the same time; each solve's scratch space is its own, so
    every report equals its serial one bit for bit.  Four threads, two per
    problem, outnumber the cores of a small host."""
    problems = [(lens, SolverConfig(max_iters=30000, tol=1e-10)),
                (comparison_phi, SolverConfig(max_iters=20000, tol=1e-9))]
    inputs = [(*problem(), cfg) for problem, cfg in problems]
    serial = [solve(*args) for args in inputs]
    jobs = [k % len(inputs) for k in range(2 * len(inputs))]
    start = threading.Barrier(len(jobs))
    reports = [[] for _ in jobs]

    def work(j):
        start.wait()
        for _ in range(3):
            reports[j].append(solve(*inputs[jobs[j]]))

    threads = [threading.Thread(target=work, args=(j,)) for j in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for k, runs in zip(jobs, reports):
        assert len(runs) == 3
        for rep in runs:
            assert_bitwise_equal(rep, serial[k])


def test_referee_cases_cover_the_prox_branches():
    """The notched polygon has exactly one owner with three faces; the ragged
    mask has owners with three and with four faces and cells isolated along
    each axis."""
    assert [faces.shape for _, faces, _ in _Penalty(notched()[1], 1.0, "penalized").multi] == [(1, 3)]
    grid, datum = ragged()
    assert sorted(faces.shape[1] for _, faces, _ in _Penalty(datum, 1.0, "penalized").multi) == [3, 4]
    m = grid.interior_mask
    for a in (0, 1):
        k = np.moveaxis(m, a, 0)
        lo = np.pad(k[:-1], ((1, 0), (0, 0)))
        hi = np.pad(k[1:], ((0, 1), (0, 0)))
        assert (k & ~lo & ~hi).any()


def test_holes_mask_covers_every_chunk_of_the_sweep():
    """The random-holes mask splits rows into several runs, its axis-0 steps
    change from row to row, and every chunk of the compiled block's sweep
    holds a rim cell and an owner with three or four faces."""
    grid, datum = holes()
    runs = np.diff(grid.interior_mask.astype(int), axis=1, prepend=0) == 1
    assert runs.sum(axis=1).min() >= 3
    K = difference_operator(grid)
    cells = np.arange(K.n)
    steps = (K.next0 - cells)[K.next0 != cells]
    assert np.unique(steps).size >= 10
    chunks = -(-K.n // pdloop._CHUNK)
    assert np.unique(K.rim // pdloop._CHUNK).size == chunks
    pen = _Penalty(datum, 1.0, "penalized")
    multi = np.concatenate([pen.idx[pos] for pos, _, _ in pen.multi])
    assert np.unique(multi // pdloop._CHUNK).size == chunks
    assert sorted(faces.shape[1] for _, faces, _ in pen.multi) == [3, 4]


def run_steps(runs):
    """The step of each cell from a run table (2, k): each run's end, then
    its step."""
    return np.repeat(runs[1], np.diff(runs[0], prepend=0))


SUITE_GRIDS = {
    **{f"disk-{k}": (DomainSpec.disk((0.0, 0.0), 1.0), 1 / k) for k in (16, 24, 32, 64)},
    **{f"lens-{k}": (DomainSpec.parabolic(), 1 / k) for k in (32, 64, 128)},
    **{f"square-{k}": (_SQUARE, 1 / k) for k in (32, 64, 128)},
}
REFEREE_MASKS = (holes, notched, ragged, tiny, staggered, one_cell_rows, small_disk)


@pytest.mark.parametrize("grid_of", [
    *(pytest.param(lambda mask=mask: mask()[0], id=mask.__name__) for mask in REFEREE_MASKS),
    *(pytest.param(lambda spec=spec: rasterize(*spec), id=name) for name, spec in SUITE_GRIDS.items()),
])
def test_run_tables_give_each_cell_its_axis0_neighbor(grid_of):
    """The compiled loops read the axis-0 neighbor at their run's step: it is
    next0 at every cell but the fix cells and prev0 at every regular cell,
    where the kernels keep what they compute.  Every step is in [0, reach]
    and every cell read is one of the n, the two facts the sweep's
    independence of a chunk's cells rests on; the runs tile the cells and
    each is as long as it can be."""
    K = difference_operator(grid_of())
    cells = np.arange(K.n)
    fwd, back = run_steps(K.next0_runs), run_steps(K.prev0_runs)
    assert fwd.size == back.size == K.n
    kept = np.ones(K.n, dtype=bool)
    kept[K.fix] = False
    assert np.array_equal((cells + fwd)[kept], K.next0[kept])
    regular = np.ones(K.n, dtype=bool)
    regular[K.rim] = False
    assert np.array_equal((cells - back)[regular], K.prev0[regular])
    for steps, read in ((fwd, cells + fwd), (back, cells - back)):
        assert ((0 <= steps) & (steps <= K.reach)).all()
        assert ((0 <= read) & (read < K.n)).all()
    for runs in (K.next0_runs, K.prev0_runs):
        assert (np.diff(runs[0]) > 0).all() and (np.diff(runs[1]) != 0).all()


def test_run_table_cases_cover_the_sweeps_edges():
    """On the staggered rows a run of the lag's table (ending at c) and a run
    of the lead's (ending at c + lead) end on every chunk end of the
    sweep's chunk loop; the lag and the lead each meet a one-cell row in
    that loop; the small disk has fewer cells than the lead, and several
    runs of each table."""
    K = difference_operator(staggered()[0])
    lead = pdloop._CHUNK + K.reach
    ends = list(range(pdloop._CHUNK, K.n - lead, pdloop._CHUNK))
    assert len(ends) == 2
    assert set(ends) <= set(K.next0_runs[0]) and set(ends) <= set(K.prev0_runs[0] - lead)
    grid = one_cell_rows()[0]
    K, counts = difference_operator(grid), grid.interior_mask.sum(axis=1)
    lead = pdloop._CHUNK + K.reach
    single = (np.cumsum(counts) - counts)[counts == 1]  # the cells of the one-cell rows
    assert (single < K.n - lead).any() and (single >= lead).any()
    K = difference_operator(small_disk()[0])
    assert K.n < pdloop._CHUNK + K.reach
    assert K.next0_runs.shape[1] > 2 and K.prev0_runs.shape[1] > 2


def bind_keywords(grid, datum):
    """The keywords both blocks take, as ``solve`` builds them, with a random
    start."""
    sigma, tau = balanced_steps(grid)
    _, radius, factor = solver_module._folded_steps(sigma, tau, grid.h)
    start = np.random.default_rng(3).standard_normal(grid.interior_count)
    return dict(K=difference_operator(grid), datum=datum, pen=_Penalty(datum, tau, "penalized"), start=start,
                hxs=_hxstar(grid), factor=factor, radius=radius, relax=solver_module._RELAX)


@pytest.mark.parametrize("problem", [tiny, ragged, notched, comparison_phi])
def test_c_block_owns_its_buffers_64_byte_aligned(c_block, problem):
    """The compiled block allocates its iterate and working buffers, each on
    a 64-byte boundary, and returns the ``u`` and ``Q`` its state points at;
    its h X* is the grid's cached array, aligned alike and read in place;
    ``u`` is a copy of the start, and the block runs on it as the NumPy block
    runs on its own."""
    grid, datum = problem()
    kw = bind_keywords(grid, datum)
    block, u, Q = pdloop.bind(**kw)
    pointers = {name: ctypes.cast(getattr(block.state, name), ctypes.c_void_p).value
                for name in ("u", "q", "g", "u_step", "du", "hxs")}
    assert all(p % 64 == 0 for p in pointers.values()), pointers
    assert (pointers["u"], pointers["q"]) == (u.ctypes.data, Q.ctypes.data)
    assert pointers["hxs"] == kw["hxs"].ctypes.data and kw["hxs"] is _hxstar(grid)
    assert u is not kw["start"] and not np.shares_memory(u, kw["start"])
    assert u.tobytes() == kw["start"].tobytes() and not Q.any()
    ref, ref_u, ref_Q = solver_module._numpy_block(**kw)
    assert block(0) == ref(0) and block(17) == ref(17)
    assert (u.tobytes(), Q.tobytes()) == (ref_u.tobytes(), ref_Q.tobytes())
    assert u.tobytes() != kw["start"].tobytes()


def test_second_solve_reuses_the_grids_operator_tables(c_block, monkeypatch):
    """The operator's tables (the axis-0 step runs, the rim CSR, the
    rewritten gradient entries' flat indices and their cells, the fix cells)
    are built once per grid:
    the blocks of two solves on one grid point at the same arrays of the
    grid's cached operator, and both solves equal the NumPy block bit for
    bit."""
    grid, datum = holes()
    cfg = SolverConfig(max_iters=400)
    K, bind, states = difference_operator(grid), pdloop.bind, []

    def recording(**kw):
        block, u, Q = bind(**kw)
        states.append(block.state)
        return block, u, Q

    monkeypatch.setattr(pdloop, "bind", recording)
    for _ in range(2):
        c, ref = both_blocks(monkeypatch, grid, datum, cfg)
        assert_bitwise_equal(c, ref)
    assert len(states) == 2 and difference_operator(grid) is K
    for name in ("prev0_runs", "rim", "rim_ptr", "rim_src", "next0_runs", "next0", "edge", "edge_cells", "fix"):
        pointers = {ctypes.cast(getattr(state, name), ctypes.c_void_p).value for state in states}
        assert pointers == {getattr(K, name).ctypes.data}, name
    assert all(state.lead == pdloop._CHUNK + K.reach for state in states)


def test_referee_cases_cover_the_pairwise_sum_bands():
    """The checkpoint sums follow NumPy's pairwise summation, whose rule
    changes at 8 and 128 terms; the interior sum of the h = 1/64 lens is
    longer than NumPy's 8,192-element buffer."""
    grid, datum = tiny()
    assert grid.interior_count < 8 and len(datum.faces) < 8
    grid, datum = ragged()
    assert 8 <= grid.interior_count <= 128 and 8 <= len(datum.faces) <= 128
    grid, datum = lens64()
    assert grid.interior_count > 8192 and len(datum.faces) > 128


@pytest.mark.parametrize("max_iters", [10, 7])
def test_diverging_steps_raise_at_the_same_iteration(c_block, monkeypatch, max_iters):
    """A primal step 1e200 times the balanced one, let past the step bound,
    overflows; both blocks raise on the same checkpoint."""
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1 / 16)
    datum = sample_datum(boundary_faces(grid), lambda x, y: np.sin(3 * x) + y)
    s, t = balanced_steps(grid)
    monkeypatch.setattr(solver_module, "operator_norm_sq", lambda grid: 1e-300)
    cfg = SolverConfig(max_iters=max_iters, step_sigma=s, step_tau=1e200 * t)
    c, ref = both_blocks(monkeypatch, grid, datum, cfg)
    assert c == ref == f"divergence: non-finite energy at iteration {max_iters}"


def test_overflowing_datum_raises_at_the_same_iteration(c_block, monkeypatch):
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)
    faces = boundary_faces(grid)
    datum = BoundaryDatum(faces, np.where(np.arange(len(faces)) % 2 == 0, 1e308, -1e308))
    c, ref = both_blocks(monkeypatch, grid, datum, SolverConfig(max_iters=50))
    assert isinstance(c, str) and c == ref


def test_failed_build_falls_back_to_the_numpy_block(c_block, fresh_loader, monkeypatch, tmp_path):
    """Where the compiler fails, ``solve`` runs the NumPy block and returns the
    same report bit for bit, and the loop is reported as ``numpy``."""
    grid, datum = notched()
    cfg = SolverConfig(max_iters=20000, tol=1e-9)
    c = solve(grid, datum, cfg)

    def broken(compiler, flags, target):
        raise pdloop._BuildError("the compiler failed")

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(pdloop, "_compile", broken)
    pdloop._library.cache_clear()
    assert pdloop.loop_info() == {"loop": "numpy", "cflags": None}
    assert_bitwise_equal(solve(grid, datum, cfg), c)


def test_rejected_host_build_falls_back_to_the_portable_build(c_block, fresh_loader, monkeypatch, tmp_path):
    """A compiler that rejects only -march=native leaves the C block running,
    built with the portable flags under the host's key, and its report equals
    the NumPy block's bit for bit."""
    if pdloop._host() is None:
        pytest.skip("the host's CPU features cannot be read, so only the portable build is tried")
    compile_ = pdloop._compile

    def no_native(compiler, flags, target):
        if "-march=native" in flags:
            raise pdloop._BuildError("unrecognized command-line option '-march=native'")
        compile_(compiler, flags, target)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(pdloop, "_compile", no_native)
    assert pdloop.loop_info() == {"loop": "c", "cflags": list(pdloop._PORTABLE_CFLAGS)}
    (built,) = (tmp_path / "harea").iterdir()
    assert built.name.startswith(f"pdloop-{pdloop._host()}-")
    grid, datum = notched()
    c, ref = both_blocks(monkeypatch, grid, datum, SolverConfig(max_iters=20000, tol=1e-9))
    assert_bitwise_equal(c, ref)


def test_host_build_that_failed_once_is_built_by_the_next_process(c_block, fresh_loader, monkeypatch,
                                                                   tmp_path):
    """A host build that fails once, for any reason, leaves the portable
    object in the cache; the next process tries the host build again and
    ends on the host flags, with the portable object kept beside it as the
    host's newest other build."""
    if pdloop._host() is None:
        pytest.skip("the host's CPU features cannot be read, so only the portable build is tried")
    compile_, failures = pdloop._compile, [1]

    def fails_once(compiler, flags, target):
        if "-march=native" in flags and failures:
            failures.pop()
            raise pdloop._BuildError("No space left on device")
        compile_(compiler, flags, target)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(pdloop, "_compile", fails_once)
    assert pdloop.loop_info()["cflags"] == list(pdloop._PORTABLE_CFLAGS)
    (portable,) = (tmp_path / "harea").iterdir()
    pdloop._library.cache_clear()
    assert pdloop.loop_info()["cflags"] == list(pdloop.CFLAGS)
    (built,) = set((tmp_path / "harea").iterdir()) - {portable}
    assert built.name.startswith(f"pdloop-{pdloop._host()}-")


def test_hung_compiler_falls_back_to_the_numpy_block(c_block, fresh_loader, monkeypatch, tmp_path):
    """A build that runs past the timeout counts as failed: the compiler is
    stopped, nothing is cached, and ``solve`` runs the NumPy block."""
    grid, datum = notched()
    cfg = SolverConfig(max_iters=20000, tol=1e-9)
    c = solve(grid, datum, cfg)
    calls = []

    def hung(cmd, **kwargs):
        calls.append(kwargs.get("timeout"))
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(subprocess, "run", hung)
    pdloop._library.cache_clear()
    assert pdloop.loop_info() == {"loop": "numpy", "cflags": None}
    assert calls == [pdloop._COMPILE_TIMEOUT]
    assert list((tmp_path / "harea").iterdir()) == []
    assert_bitwise_equal(solve(grid, datum, cfg), c)


def test_missing_source_falls_back_to_the_numpy_block(fresh_loader, monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(pdloop, "_SOURCE", tmp_path / "pdloop.c")
    assert pdloop.loop_info() == {"loop": "numpy", "cflags": None}
    assert list(tmp_path.iterdir()) == []


def test_kernel_is_cached_by_atomic_rename(c_block, fresh_loader, monkeypatch, tmp_path):
    """The first build writes one shared object under $XDG_CACHE_HOME/harea
    and leaves no temporary file; a later process loads it without building."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert pdloop._library() is not None
    built = sorted(p.name for p in (tmp_path / "harea").iterdir())
    assert len(built) == 1 and built[0].startswith("pdloop-") and built[0].endswith(".so")

    def no_build(compiler, flags, target):
        raise AssertionError("the cached kernel was built again")

    monkeypatch.setattr(pdloop, "_compile", no_build)
    pdloop._library.cache_clear()
    assert pdloop.loop_info()["loop"] == "c"


def test_new_build_removes_the_hosts_other_builds_only(c_block, fresh_loader, monkeypatch, tmp_path):
    """Three sources under one host key leave the newest two objects in the
    cache, so two checkouts run in turn do not remove each other's object;
    an object named without a host part (the naming before the host key)
    and one under the machine's name, which a host keyed by its CPU
    features never loads, are removed by the first build; an object under
    another host's key stays."""
    cache = tmp_path / "harea"
    cache.mkdir()
    machine = platform.machine() or "unknown"
    foreign, unkeyed = cache / "pdloop-0badf00d-12345678.so", cache / "pdloop-deadbeef.so"
    machine_keyed = cache / f"pdloop-{machine}-75182c51.so"
    for stale in (foreign, unkeyed, machine_keyed):
        stale.write_bytes(b"")
    source, cpuinfo, text = tmp_path / "pdloop.c", tmp_path / "cpuinfo", pdloop._SOURCE.read_text()
    cpuinfo.write_text("processor\t: 0\nflags\t\t: fpu sse sse2\n")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(pdloop, "_SOURCE", source)
    monkeypatch.setattr(pdloop, "_CPUINFO", cpuinfo)
    host = pdloop._host()
    assert host not in (None, "0badf00d", machine)
    objects = []
    for k in range(3):
        source.write_text(text + f"\n/* source {k} */\n")
        pdloop._library.cache_clear()
        assert pdloop._library() is not None
        (built,) = set(cache.iterdir()) - {foreign, unkeyed, machine_keyed} - {cache / name for name in objects}
        assert built.name.startswith(f"pdloop-{host}-")
        objects.append(built.name)
        assert not unkeyed.exists() and not machine_keyed.exists()
    assert sorted(p.name for p in cache.iterdir()) == sorted([foreign.name, *objects[1:]])


def test_first_load_prunes_the_cache_without_a_build(c_block, fresh_loader, monkeypatch, tmp_path):
    """A process that loads the cached host object and builds nothing still
    removes an object of the naming before the host key beside it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert pdloop._library() is not None
    (ours,) = (tmp_path / "harea").iterdir()
    unkeyed = tmp_path / "harea" / "pdloop-deadbeef.so"
    unkeyed.write_bytes(b"")

    def no_build(compiler, flags, target):
        raise AssertionError("the cached kernel was built again")

    monkeypatch.setattr(pdloop, "_compile", no_build)
    pdloop._library.cache_clear()
    assert pdloop.loop_info()["loop"] == "c"
    assert list((tmp_path / "harea").iterdir()) == [ours]


def test_foreign_host_builds_its_own_kernel(c_block, fresh_loader, monkeypatch, tmp_path):
    """An object built with -march=native runs only on CPUs with the builder's
    features, so a host whose feature line differs, sharing the cache, gets
    another file name: it builds its own object and does not load this one."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert pdloop._library() is not None
    (ours,) = (tmp_path / "harea").iterdir()
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nflags\t\t: fpu sse sse2\n")
    monkeypatch.setattr(pdloop, "_CPUINFO", cpuinfo)
    assert pdloop._host() not in (None, ours.name.split("-")[1])
    compile_, built = pdloop._compile, []

    def counted(compiler, flags, target):
        built.append(target.name)
        compile_(compiler, flags, target)

    monkeypatch.setattr(pdloop, "_compile", counted)
    pdloop._library.cache_clear()
    assert pdloop.loop_info() == {"loop": "c", "cflags": list(pdloop.CFLAGS)}
    assert len(built) == 1 and built[0] != ours.name
    assert sorted(p.name for p in (tmp_path / "harea").iterdir()) == sorted([ours.name, built[0]])


def test_host_identity_reads_the_cpu_feature_line(monkeypatch, tmp_path):
    """The host key is a CRC-32 of the ``flags`` line (x86) or the
    ``Features`` line (Arm); without either the host cannot be identified."""
    cpuinfo = tmp_path / "cpuinfo"
    monkeypatch.setattr(pdloop, "_CPUINFO", cpuinfo)
    keys = []
    for text in ("processor\t: 0\nflags\t\t: fpu sse2 avx\n", "flags : fpu sse2 avx2\n",
                 "processor\t: 0\nFeatures\t: fp asimd evtstrm\nCPU part\t: 0xd0c\n"):
        cpuinfo.write_text(text)
        keys.append(pdloop._host())
    assert len(set(keys)) == 3 and all(len(k) == 8 for k in keys)
    cpuinfo.write_text("processor\t: 0\nvendor_id\t: GenuineIntel\n")
    assert pdloop._host() is None
    cpuinfo.unlink()
    assert pdloop._host() is None


def test_state_struct_matches_the_loader_field_for_field():
    """The fields of ``struct pd_state`` in pdloop.c are those of
    ``pdloop._State``, in order and of the same kinds.  ``_load`` compares
    only the struct's size, which two swapped fields of one type keep."""
    body = re.search(r"struct pd_state \{(.*?)\};", pdloop._SOURCE.read_text(), re.S).group(1)
    kinds = {"idx_t": "index", "idx_t *": "index pointer", "double *": "double pointer",
             "int": "int", "double": "double"}
    source = []
    for declaration in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        base, names = declaration.replace("const ", "").split(None, 1)
        for name in names.split(","):
            name = name.strip()
            source.append((name.lstrip("*"), kinds[base + " *" * name.startswith("*")]))
    ctypes_kinds = {ctypes.c_ssize_t: "index", pdloop._idx: "index pointer", pdloop._f64: "double pointer",
                    ctypes.c_int: "int", ctypes.c_double: "double"}
    assert source == [(name, ctypes_kinds[ctype]) for name, ctype in pdloop._State._fields_]


def test_unwritable_cache_builds_in_a_private_directory(c_block, fresh_loader, monkeypatch, tmp_path):
    """The private build reports the flags that built it, the same as the
    cached build's."""
    cached = pdloop.loop_info()
    pdloop._library.cache_clear()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert pdloop.loop_info() == cached
    assert cached["loop"] == "c" and cached["cflags"] in (list(pdloop.CFLAGS), list(pdloop._PORTABLE_CFLAGS))
    assert blocker.read_text() == ""


def compiler_or_skip():
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        pytest.skip("no C compiler found")
    return compiler


def test_kernel_source_compiles_without_warnings(tmp_path):
    compiler = compiler_or_skip()
    source = Path(pdloop.__file__).with_name("pdloop.c")
    for flags in (pdloop.CFLAGS, pdloop._PORTABLE_CFLAGS):
        cmd = [compiler, *flags, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"), str(source)]
        out = subprocess.run(cmd, capture_output=True, text=True)
        assert out.returncode == 0, (flags, out.stderr)


def assert_sweep_vectorized(flags, tmp_path):
    """GCC reports the sweep's chunk loop (h div and the primal step at the
    lead's cell, the dual step with its square root and divide at the
    lag's) vectorized as a whole: not left scalar, and not split by loop
    distribution into a vectorized and a scalar part."""
    compiler = compiler_or_skip()
    about = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
    if "Free Software Foundation" not in about or "clang" in about:
        pytest.skip(f"{compiler} is not GCC")
    major = subprocess.run([compiler, "-dumpversion"], capture_output=True, text=True).stdout
    if int(major.split(".")[0]) < 12:
        pytest.skip("the vectorizer's report is checked with GCC 12 and later")
    source = Path(pdloop.__file__).with_name("pdloop.c")
    lines = source.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("PASS void sweep("))
    pragma = next(i for i in range(start, len(lines)) if lines[i].strip() == "#pragma GCC ivdep")
    loop = pragma + 2  # the chunk's loop, on the line after the pragma (lines count from 1)
    assert lines[loop - 1].lstrip().startswith("for (")
    cmd = [compiler, *flags, "-fopt-info-vec-optimized", "-fopt-info-vec-missed",
           "-o", str(tmp_path / "k.so"), str(source)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    reports = [line for line in out.stderr.splitlines() if f"pdloop.c:{loop}:" in line]
    assert any("loop vectorized" in line for line in reports), reports
    assert not any("couldn't vectorize loop" in line for line in reports), reports


def test_sweep_is_vectorized(tmp_path):
    assert_sweep_vectorized(pdloop.CFLAGS, tmp_path)


def test_cell_loops_load_no_gathers(tmp_path):
    """The host build's loops over the cells (the sweep, the checkpoint
    energy's norm_pass, and the power estimate's grad_pass and div_pass)
    read each axis-0 neighbor at a run's constant step, so objdump finds no
    gather instruction in them: GCC compiles an indexed load to vgatherqpd,
    which made the block 2.1-2.8 times as slow on an AVX-512 host."""
    if platform.machine().lower() not in ("x86_64", "amd64", "i386", "i686"):
        pytest.skip("gather instructions are x86's")
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump is not installed")
    compiler = compiler_or_skip()
    obj = tmp_path / "k.so"
    built = subprocess.run([compiler, *pdloop.CFLAGS, "-o", str(obj), str(pdloop._SOURCE)],
                           capture_output=True, text=True)
    if built.returncode:
        pytest.skip(f"the compiler rejects the host build: {built.stderr}")
    listing = subprocess.run([objdump, "-d", str(obj)], capture_output=True, text=True, check=True).stdout
    bodies, name = {}, None
    for line in listing.splitlines():
        label = re.fullmatch(r"[0-9a-f]+ <([\w.]+)>:", line)
        if label:  # GCC may name a specialized copy sweep.constprop.0, or the like
            name = label.group(1).split(".")[0]
        elif name:
            bodies.setdefault(name, []).append(line)
    for loop in ("sweep", "norm_pass", "grad_pass", "div_pass"):
        assert loop in bodies, loop
        assert not [line for line in bodies[loop] if "vgather" in line], loop


def test_sweep_is_vectorized_in_the_portable_build(tmp_path):
    assert_sweep_vectorized(pdloop._PORTABLE_CFLAGS, tmp_path)


def test_flags_keep_numpy_rounding_and_portability():
    """Both flag sets round as the NumPy block does, and the portable one
    names no CPU.  The host build's tie to its CPU is held by the cache key
    (test_foreign_host_builds_its_own_kernel)."""
    for flags in (pdloop.CFLAGS, pdloop._PORTABLE_CFLAGS):
        assert "-ffp-contract=off" in flags
        assert not {"-ffast-math", "-Ofast"} & set(flags)
    assert "-march=native" in pdloop.CFLAGS
    assert not any(flag.startswith(("-march", "-mtune", "-mcpu")) for flag in pdloop._PORTABLE_CFLAGS)


def test_import_and_help_neither_build_nor_load_the_kernel(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    package_root = str(Path(harea.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (package_root, env.get("PYTHONPATH")) if p)
    code = (
        "import contextlib, io, sys, harea.solver, harea.cli\n"
        "sys.argv = ['harea', '--help']\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    harea.cli.main()\n"
        "print(harea.pdloop._library.cache_info().currsize)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"
    assert list(tmp_path.iterdir()) == []


def test_package_data_ships_the_kernel_source():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]["harea"]
    assert "pdloop.c" in data
    assert Path(pdloop.__file__).with_name("pdloop.c").is_file()
