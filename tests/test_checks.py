import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from oracles import dense_lipschitz_bound

import harea.checks
import harea.solver
from harea import CheckId, SolverConfig, run_check, run_suite
from harea.checks import (
    _ES1_CFG,
    _ES1_H,
    _PARABOLIC,
    _SQUARE,
    _VEEWEDGE_SEED,
    _check_lipschitz_bound,
    _es1_certificate,
    _es1_solve,
    _is_certified,
    _rand_smooth,
)
from harea.fields import ScalarField
from harea.geometry import DomainSpec, boundary_faces, rasterize, sample_datum
from harea.pdloop import loop_info
from harea.solver import solver_tolerance

# The checks that run no solve, and so echo no solver config.
SOLVELESS = {CheckId.SUBMODULARITY_ANISO, CheckId.VEE_WEDGE_ISO, CheckId.EULER_RESIDUAL_ES1}

# The memoized artifacts of the checks module.
MEMOS = (harea.checks._pair_artifacts, harea.checks._es1_solve, harea.checks._es1_certificate)


def clear_memos():
    for f in MEMOS:
        f.cache_clear()


def metric_bytes(rep):
    return {k: float(v).hex() for k, v in rep.metrics.items()}


def test_check_ids_are_exhaustive_and_ordered():
    assert [c.value for c in CheckId] == [
        "affine_unique",
        "comparison",
        "contraction",
        "shift_equivariance",
        "translation_covariance",
        "submodularity_aniso",
        "vee_wedge_iso",
        "lavrentiev",
        "barrier_sandwich",
        "lipschitz_bound",
        "euler_residual_es1",
        "example_es1",
        "example_es2",
        "restriction",
        "calibration_disk",
    ]


def test_run_check_accepts_string_id():
    rep = run_check("euler_residual_es1")
    assert rep.check_id is CheckId.EULER_RESIDUAL_ES1
    assert rep.passed


def test_unknown_id_raises():
    with pytest.raises(ValueError):
        run_check("no_such_check")


def test_report_passed_means_all_thresholds_met(suite):
    """On every report of the suite: each metric has a threshold and each
    threshold a metric, the report passes iff every metric meets its
    threshold, and exactly the twelve checks that solve echo their config."""
    reports, _ = suite
    assert list(reports) == list(CheckId)
    for cid, rep in reports.items():
        assert set(rep.metrics) == set(rep.thresholds), cid
        assert rep.passed == all(rep.metrics[k] <= rep.thresholds[k] for k in rep.metrics), cid
        assert ("solver" in rep.config) == (cid not in SOLVELESS), cid
        assert rep.runtime > 0


def test_report_json_serializable():
    rep = run_check(CheckId.EULER_RESIDUAL_ES1)
    d = rep.to_json()
    json.dumps(d)
    assert d["id"] == "euler_residual_es1"
    assert set(d) == {"id", "passed", "metrics", "thresholds", "config", "runtime"}


def test_reports_reproduce_bit_exactly():
    """Two runs with the same configuration must agree metric-for-metric to
    the last bit; any drift would make the config echo useless."""
    a = run_check(CheckId.VEE_WEDGE_ISO)
    b = run_check(CheckId.VEE_WEDGE_ISO)
    assert a.metrics == b.metrics
    assert a.thresholds == b.thresholds


def test_suite_empty_filter():
    reports, summary = run_suite([])
    assert reports == []
    assert summary["total"] == 0
    assert summary["passed"] == 0
    assert summary["failed"] == 0


def test_suite_single_filter():
    reports, summary = run_suite([CheckId.EULER_RESIDUAL_ES1])
    assert len(reports) == 1
    assert summary == {
        "total": 1,
        "passed": 1,
        "failed": 0,
        "runtime": summary["runtime"],
        **loop_info(),
    }


def test_suite_orders_by_declared_id():
    reports, _ = run_suite(["euler_residual_es1", "submodularity_aniso"])
    assert [r.check_id for r in reports] == [
        CheckId.SUBMODULARITY_ANISO,
        CheckId.EULER_RESIDUAL_ES1,
    ]


def test_user_solver_config_is_honored():
    # an absurdly small iteration budget must surface as a failed check,
    # proving the override reaches the solves
    cfg = SolverConfig(max_iters=2, tol=1e-14)
    rep = run_check(CheckId.AFFINE_UNIQUE, solver_cfg=cfg)
    assert not rep.passed
    assert rep.metrics["sup_err_h64"] > rep.thresholds["sup_err_h64"]
    # the memoized es1 solve is keyed on the config, so the override reaches
    # it too instead of reusing the default solve
    rep = run_check(CheckId.BARRIER_SANDWICH, solver_cfg=cfg)
    assert rep.config["solver"]["max_iters"] == 2
    assert not rep.passed


def test_user_solver_config_reaches_every_solve(monkeypatch):
    """Every solve of every check runs the user's config, up to the mode
    lavrentiev sets, and every check that solves echoes that config."""
    cfg = SolverConfig(max_iters=2, tol=1e-14)
    seen = []

    def recording(solve):
        def wrapped(grid, datum, run_cfg=None):
            seen.append(run_cfg)
            return solve(grid, datum, run_cfg)

        return wrapped

    # the checks call solve from their own module, refine_study from the solver's
    monkeypatch.setattr(harea.checks, "solve", recording(harea.checks.solve))
    monkeypatch.setattr(harea.solver, "solve", recording(harea.solver.solve))
    try:
        for cid in CheckId:
            clear_memos()
            seen.clear()
            rep = run_check(cid, cfg)
            assert "aborted" not in rep.metrics, cid
            assert [replace(c, mode=cfg.mode) if c else c for c in seen] == [cfg] * len(seen), cid
            assert bool(seen) == (cid not in SOLVELESS), cid
            assert rep.config.get("solver") == (None if cid in SOLVELESS else cfg.to_json()), cid
    finally:
        clear_memos()


def test_every_memo_of_the_checks_module_is_listed():
    """The benchmark clears each module-level name with a ``cache_clear``
    between passes; the tests here clear ``MEMOS``, which must be all of them."""
    found = {name for name, obj in vars(harea.checks).items() if hasattr(obj, "cache_clear")}
    assert found == {f.__name__ for f in MEMOS}


def test_translation_covariance_metrics_do_not_depend_on_its_old_budget():
    """translation_covariance runs es1's budget (30000, 1e-10), so that
    restriction reads its h = 1/32 disk solve; under its old budget
    (20000, 1e-9) both of its solves stop at the same iterates, and its
    metrics are the same bytes."""
    clear_memos()
    old = run_check("translation_covariance", SolverConfig(max_iters=20000, tol=1e-9))
    clear_memos()
    new = run_check("translation_covariance")
    assert new.config["solver"] == _ES1_CFG.to_json()
    assert metric_bytes(old) == metric_bytes(new)


def test_translation_covariance_and_restriction_share_one_disk_solve(monkeypatch):
    """Three solves for the two checks: the h = 1/32 disk once, then the
    translated disk and the sub-rectangle; each check reads what it reads
    when it runs alone."""
    clear_memos()
    calls = []
    real = harea.checks.solve
    monkeypatch.setattr(harea.checks, "solve", lambda *args: calls.append(args) or real(*args))
    try:
        reports, _ = run_suite(["translation_covariance", "restriction"])
        assert len(calls) == 3
        monkeypatch.setattr(harea.checks, "solve", real)
        for rep in reports:
            clear_memos()
            assert metric_bytes(rep) == metric_bytes(run_check(rep.check_id)), rep.check_id
    finally:
        clear_memos()


def test_es1_certificate_is_computed_once_whatever_the_budget(monkeypatch):
    """The slope certificate takes no solver config: the sandwich and
    slope-bound checks share one minimal_Q under different budgets, and
    report the default run's Q_min and K."""
    clear_memos()
    default = run_check("lipschitz_bound").config
    clear_memos()
    calls = []
    real = harea.checks.minimal_Q
    monkeypatch.setattr(harea.checks, "minimal_Q", lambda *a, **k: calls.append(a) or real(*a, **k))
    try:
        sandwich = run_check("barrier_sandwich")
        bound = run_check("lipschitz_bound", SolverConfig(max_iters=30000, tol=1e-9))
    finally:
        clear_memos()
    assert len(calls) == 1
    assert sandwich.config["Q_min"] == bound.config["Q_min"] == default["Q_min"]
    assert bound.config["K"] == default["K"]
    assert bound.config["solver"]["tol"] == 1e-9


def test_aborted_check_reports_its_reason_and_config():
    """A user config whose steps break the step condition fails the check
    with the reason, instead of raising, and is echoed beside it."""
    cfg = SolverConfig(step_sigma=1.0, step_tau=1.0)
    rep = run_check(CheckId.TRANSLATION_COVARIANCE, cfg)
    assert not rep.passed
    assert rep.metrics == {"aborted": 1.0}
    assert rep.thresholds == {"aborted": 0.0}
    assert "step product" in rep.config["reason"]
    assert rep.config["solver"] == cfg.to_json()


def test_is_certified_refuses_a_violated_slope_condition():
    """x^2 on the square is flat along two sides: no slope constant certifies
    it, and the violation reads as uncertified rather than raising."""
    assert _is_certified(_SQUARE, lambda x, y: x + 2.0 * y, 20.0)
    assert not _is_certified(_SQUARE, lambda x, y: x * x, 20.0)


def test_lipschitz_bound_matches_dense_referee_in_bounded_memory():
    grid, datum, rep = _es1_solve(_PARABOLIC, _ES1_H, _ES1_CFG)
    bsc = _es1_certificate()[0]
    tracemalloc.start()
    try:
        gated, _ = _check_lipschitz_bound(_ES1_CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = dense_lipschitz_bound(grid, rep.u.values, datum, bsc.Q_min, bsc.K, solver_tolerance(grid, datum))
    assert (gated["boundary_excess"][0], gated["lipschitz_excess"][0]) == ref
    # the dense cell-by-face matrices peaked at 16 MiB on this 2,728-cell grid
    assert peak < 4 * 2**20


def test_checks_module_keeps_names_perfbench_wraps():
    """The benchmark's traced verify run replaces these module-level names of
    harea.checks by name; a rename there would break it."""
    workloads = pytest.importorskip("perfbench.workloads")
    import harea.checks

    names = [n for layer in workloads.CHECKS_CALLS.values() for n in layer] + ["solve"]
    missing = [n for n in names if not hasattr(harea.checks, n)]
    assert missing == []


def test_vee_wedge_fields_equal_the_full_grid_evaluation_bitwise():
    """Every field the vee_wedge_iso check draws, as the row it evaluates
    (broadcast on the grid's 1D coordinates at the interior cells, then at
    the face midpoints), equals the function on the whole grid at the
    interior cells followed by its sampled datum."""
    rng = np.random.default_rng(_VEEWEDGE_SEED)
    for h in (1.0 / 16.0, 1.0 / 32.0):
        grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), h)
        faces = boundary_faces(grid)
        for _ in range(120):
            f, row = _rand_smooth(rng, grid, faces)
            full = ScalarField.from_function(grid, f).interior()
            assert np.array_equal(row, np.concatenate((full, sample_datum(faces, f).values)))
