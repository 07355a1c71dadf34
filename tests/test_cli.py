import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import harea
from harea import DomainSpec, geometry, rasterize
from harea.cli import _datum_on_faces, dispatch
from harea.geometry import boundary_faces
from harea.pdloop import loop_info
from harea.surfaces import DATUM_KINDS

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's generated console-script wrapper does with an entry point.
WRAPPER = """
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
main = getattr(importlib.import_module(module), attr)
sys.argv[0] = "harea"
del sys.argv[1]
sys.exit(main())
"""

DISK_CFG = {
    "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
    "h": 0.125,
    "datum": {"kind": "affine", "a": [1, -2], "b": 0.5},
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {**DISK_CFG, **overrides}
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_happy_path_affine(tmp_path):
    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"))
    assert dispatch(["solve", "-c", cfg]) == 0
    for name in ("solution.csv", "dual.csv", "solution.pgm", "report.json"):
        assert (tmp_path / "run" / name).exists()
    rep = json.loads((tmp_path / "run" / "report.json").read_text())
    assert rep["result"]["converged"] is True
    assert set(rep["result"]["seconds"]) == {"setup", "block"}


def test_solve_prints_its_seconds_which_no_config_sets(tmp_path, capsys):
    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"))
    assert dispatch(["solve", "-c", cfg]) == 0
    assert re.search(r"\(set-up \d+\.\d{3} s, block \d+\.\d{3} s\)$", capsys.readouterr().out.splitlines()[0])
    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"), solver={"seconds": 1.0})
    assert dispatch(["solve", "-c", cfg]) == 2


def test_solve_report_is_strict_json_when_stopped_early(tmp_path):
    """A solve cut off before the 50-iteration stagnation window fills has no
    stagnation figure; report.json must still be valid JSON (no Infinity)."""
    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"), solver={"max_iters": 10})
    assert dispatch(["solve", "-c", cfg]) == 1  # not converged

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    text = (tmp_path / "run" / "report.json").read_text()
    rep = json.loads(text, parse_constant=reject)
    assert rep["result"]["iterations"] == 10
    assert rep["result"]["stagnation"] is None


def test_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"domain": {"kind": "disk"},\n  "h": }')
    assert dispatch(["solve", "-c", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_missing_config_file(tmp_path):
    assert dispatch(["solve", "-c", str(tmp_path / "nope.json")]) == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, typo_key=1)
    assert dispatch(["solve", "-c", cfg]) == 2
    # the solver block takes exactly the SolverConfig fields
    for key, value in (("seed", 1), ("theta", 1), ("energy_mode", "aniso")):
        cfg = write_cfg(tmp_path, solver={key: value})
        assert dispatch(["solve", "-c", cfg]) == 2
        assert key in capsys.readouterr().err


def test_unknown_datum_kind_rejected(tmp_path):
    cfg = write_cfg(tmp_path, datum={"kind": "mystery"})
    assert dispatch(["solve", "-c", cfg]) == 2


def test_unresolvable_h_rejected(tmp_path):
    cfg = write_cfg(tmp_path)
    assert dispatch(["solve", "-c", cfg, "--h", "2.5"]) == 2


@pytest.mark.parametrize(
    "command, overrides, key",
    [
        ("solve", {"domain": {"kind": "disk", "radius": "big"}}, "'radius'"),
        ("solve", {"datum": {"kind": "affine", "a": 3}}, "'a'"),
        ("solve", {"domain": {"kind": "disk", "center": [0]}}, "'center'"),
        ("solve", {"h": "fine"}, "'h'"),
        ("bsc", {"samples": "many"}, "'samples'"),
        ("refine", {"levels": "x"}, "'levels'"),
        ("solve", {"out": 5}, "'out'"),
        ("solve", {"datum": {"kind": "samples", "path": 5}}, "'path'"),
        ("refine", {"levels": 2.5}, "'levels'"),
        ("refine", {"levels": True}, "'levels'"),
        ("bsc", {"samples": 7.9}, "'samples'"),
        ("bsc", {"samples": True}, "'samples'"),
        ("solve", {"solver": {"max_iters": 2.5}}, "max_iters"),
        ("solve", {"domain": {"kind": "disk", "radius": True}}, "'radius'"),
        ("solve", {"domain": {"kind": "disk", "center": [True, 0]}}, "'center'"),
        ("solve", {"h": True}, "'h'"),
        ("solve", {"h": 10**400}, "'h'"),
        ("solve", {"solver": 5}, "'solver'"),
        ("solve", {"solver": [1, 2]}, "'solver'"),
        ("solve", {"solver": "ab"}, "'solver'"),
        ("solve", {"datum": {"kind": "affine", "a": [True, False]}}, "'a'"),
        ("solve", {"datum": {"kind": "affine", "a": [1, 0], "b": True}}, "'b'"),
        ("solve", {"h": "0.25"}, "'h'"),
        ("refine", {"levels": "3"}, "'levels'"),
    ],
    ids=[
        "radius",
        "affine-a",
        "center",
        "h",
        "samples",
        "levels",
        "out",
        "samples-path",
        "levels-fraction",
        "levels-bool",
        "samples-fraction",
        "samples-bool",
        "max-iters-fraction",
        "radius-bool",
        "center-bool",
        "h-bool",
        "h-too-large",
        "solver-int",
        "solver-list",
        "solver-string",
        "affine-a-bool",
        "affine-b-bool",
        "h-numeric-string",
        "levels-numeric-string",
    ],
)
def test_config_value_of_wrong_type_is_a_usage_error(tmp_path, capsys, command, overrides, key):
    cfg = write_cfg(tmp_path, **{"out": str(tmp_path / "run"), **overrides})
    assert dispatch([command, "-c", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "domain",
    [
        {"kind": "disk", "radius": 1e400},
        {"kind": "disk", "center": [1e400, 0]},
        {"kind": "disk", "center": [0, float("nan")]},
        {"kind": "polygon", "vertices": [[0, 0], [1e400, 0], [0, 1]]},
    ],
    ids=["radius", "center", "center-nan", "vertices"],
)
def test_infinite_geometry_is_a_domain_error(tmp_path, capsys, domain):
    """JSON reads 1e400 as infinity; a domain that is not finite is refused
    when the config loads, with exit code 2 and no traceback."""
    cfg = write_cfg(tmp_path, domain=domain)
    assert dispatch(["solve", "-c", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("solve", {"levels": "x"}),
        ("energy", {"levels": "x"}),
        ("bsc", {"levels": "x"}),
        ("barriers", {"levels": "x"}),
        ("refine", {"samples": "many"}),
    ],
    ids=["solve", "energy", "bsc", "barriers", "refine"],
)
def test_whole_config_is_checked_before_any_work(tmp_path, capsys, command, overrides):
    """A wrong-typed key the subcommand does not read still stops it at load,
    before the output directory exists."""
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, out=str(out), **overrides)
    assert dispatch([command, "-c", cfg]) == 2
    key = next(iter(overrides))
    assert capsys.readouterr().err == f"error: config key '{key}' must be an integer, got {overrides[key]!r}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["solve", "-c", "CFG"], ["verify", "--check", "submodularity_aniso"]],
    ids=["solve", "verify"],
)
def test_output_path_that_is_a_file_is_a_usage_error(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    argv = [write_cfg(tmp_path) if a == "CFG" else a for a in argv]
    assert dispatch([*argv, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, raw, message",
    [
        ("solve", {"domain": DISK_CFG["domain"], "h": 0.125}, "missing required key 'datum'"),
        ("barriers", {"domain": DISK_CFG["domain"], "datum": DISK_CFG["datum"]}, "missing required key 'h'"),
        ("bsc", [DISK_CFG], "top level must be a JSON object"),
    ],
    ids=["solve-datum", "barriers-h", "top-level-list"],
)
def test_config_shape_errors_are_usage_errors(tmp_path, capsys, command, raw, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert dispatch([command, "-c", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "run").exists()


def test_no_subcommand_is_usage_error():
    assert dispatch([]) == 2


def test_energy_reads_back_solution(tmp_path):
    out = str(tmp_path / "run")
    cfg = write_cfg(tmp_path, out=out)
    assert dispatch(["solve", "-c", cfg]) == 0
    assert dispatch(["energy", "-c", cfg]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    energy = json.loads((tmp_path / "run" / "energy.json").read_text())
    # re-evaluating the stored solution reproduces the solver's energy exactly
    assert energy["energy"]["total"] == pytest.approx(
        report["result"]["energy"]["total"], abs=1e-12
    )


def test_energy_of_a_solution_is_its_reported_energy_by_bytes(tmp_path):
    """At h = 1/24, not a power of two, ``harea energy`` on ``harea solve``'s
    solution.csv gives the total report.json carries, to the last bit."""
    out = str(tmp_path / "run")
    cfg = write_cfg(tmp_path, out=out, h=1.0 / 24.0)
    assert dispatch(["solve", "-c", cfg]) == 0
    assert dispatch(["energy", "-c", cfg]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    energy = json.loads((tmp_path / "run" / "energy.json").read_text())
    assert energy["energy"]["total"] == report["result"]["energy"]["total"]


@pytest.mark.parametrize(
    "flags, mode, interior, total",
    [
        ([], "iso", 7.940653392915251, 18.955618071665643),
        (["--energy", "aniso"], "aniso", 10.096259824841061, 21.11122450359145),
    ],
    ids=["iso", "aniso"],
)
def test_energy_of_a_stored_field_is_pinned(tmp_path, flags, mode, interior, total):
    """``harea energy`` on a fixed field: the norm comes from --energy alone
    (iso by default) and the echoed run carries no solver block."""
    from harea import ScalarField
    from harea.fileio import write_field

    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, out=str(out))
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.125)
    path = str(tmp_path / "field.csv")
    write_field(ScalarField.from_function(grid, lambda x, y: np.sin(3 * x) + x * y), path)
    assert dispatch(["energy", "-c", cfg, *flags, path]) == 0
    report = json.loads((out / "energy.json").read_text())
    assert "solver" not in report["run"]
    energy = report["energy"]
    assert energy["mode"] == mode
    for key, want in (("interior", interior), ("penalty", 11.014964678750392), ("total", total)):
        assert energy[key] == pytest.approx(want, rel=1e-12, abs=0.0), key


def test_unreadable_field_path_is_a_usage_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"))
    assert dispatch(["energy", "-c", cfg, str(tmp_path)]) == 2
    assert f"error: cannot read field {tmp_path}: " in capsys.readouterr().err


def test_subcommands_reject_flags_they_do_not_read(tmp_path, capsys):
    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"))
    assert dispatch(["solve", "-c", cfg]) == 0  # so energy has a field to read
    for argv in (
        ["bsc", "--mode", "constrained"],
        ["bsc", "--energy", "aniso"],
        ["barriers", "--mode", "constrained"],
        ["barriers", "--energy", "aniso"],
        ["energy", "--mode", "constrained"],
        ["solve", "--energy", "aniso"],
        ["refine", "--energy", "aniso"],
    ):
        assert dispatch([*argv, "-c", cfg]) == 2, argv
        assert argv[1] in capsys.readouterr().err, argv


def test_bsc_subcommand_certifies_affine(tmp_path, capsys):
    out = str(tmp_path / "run")
    cfg = write_cfg(tmp_path, out=out)
    assert dispatch(["bsc", "-c", cfg]) == 0
    rep = json.loads((tmp_path / "run" / "bsc.json").read_text())
    assert rep["feasible"] is True
    assert rep["Q_min"] == pytest.approx(np.sqrt(5.0), abs=1e-2)
    assert capsys.readouterr().out.splitlines() == [
        f"certified: Q_min {rep['Q_min']:.9g}, gradient bound K {rep['K']:.9g}",
        f"wrote {out}/bsc.json",
    ]
    # a valid sample count reaches boundary_samples
    cfg = write_cfg(tmp_path, out=out, samples=64)
    assert dispatch(["bsc", "-c", cfg]) == 0
    assert json.loads((tmp_path / "run" / "bsc.json").read_text())["points"] == 64


def square_x2_cfg(tmp_path, out):
    """x^2 sampled on the square boundary: flat sides break the slope condition."""
    ts = np.linspace(-1, 1, 41)
    rows = ["x,y,value"]
    for t in ts:
        for x, y in ((t, -1.0), (t, 1.0), (-1.0, t), (1.0, t)):
            rows.append(f"{x},{y},{x * x}")
    (tmp_path / "sq.csv").write_text("\n".join(rows))
    return write_cfg(
        tmp_path,
        domain={"kind": "polygon", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
        datum={"kind": "samples", "path": str(tmp_path / "sq.csv")},
        out=str(out),
    )


def test_bsc_subcommand_flags_violation(tmp_path):
    cfg = square_x2_cfg(tmp_path, tmp_path / "run")
    assert dispatch(["bsc", "-c", cfg]) == 1
    rep = json.loads((tmp_path / "run" / "bsc.json").read_text())
    assert rep["feasible"] is False
    assert "witness" in rep


def test_barriers_subcommand_writes_the_witness_on_violation(tmp_path, capsys):
    """barriers refuses a violating datum as bsc does: the same bsc.json,
    the same printed witness, exit 1, and no envelope written."""
    assert dispatch(["bsc", "-c", square_x2_cfg(tmp_path, tmp_path / "bsc")]) == 1
    said = capsys.readouterr().out.splitlines()
    out = tmp_path / "barriers"
    assert dispatch(["barriers", "-c", square_x2_cfg(tmp_path, out)]) == 1
    assert capsys.readouterr().out.splitlines() == [said[0], f"wrote {out}/bsc.json"]
    assert said[0].startswith("slope condition violated at (") and "(slack " in said[0]
    assert sorted(os.listdir(out)) == ["bsc.json"]
    assert (out / "bsc.json").read_bytes() == (tmp_path / "bsc" / "bsc.json").read_bytes()


def write_samples(path, pts, vals):
    rows = ["x,y,value"] + [f"{x:.17g},{y:.17g},{v:.17g}" for (x, y), v in zip(pts, vals)]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def circle_samples(n, seed):
    t = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, n)
    return np.stack((np.cos(t), np.sin(t)), axis=1), np.sin(3.0 * t)


@pytest.mark.parametrize("command", ["solve", "energy", "bsc", "barriers", "refine"])
def test_a_sample_count_beside_a_samples_datum_is_a_usage_error(tmp_path, capsys, monkeypatch, command):
    """A samples file lists its own points, so no subcommand would read a
    sample count beside it: the pair stops every subcommand when the config
    loads, naming the key, before the file is read or the output directory
    is made."""
    out = tmp_path / "run"
    path = write_samples(tmp_path / "s.csv", *circle_samples(50, seed=7))
    cfg = write_cfg(tmp_path, out=str(out), datum={"kind": "samples", "path": path}, samples=5)

    def unread(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr("harea.fileio.read_samples", unread)
    assert dispatch([command, "-c", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "key 'samples'" in err and err.count("\n") == 1
    assert not out.exists()


def test_bsc_certifies_a_samples_file_at_its_listed_points(tmp_path, monkeypatch):
    """``harea bsc`` hands minimal_Q the samples datum's own Samples."""
    from harea.bsc import minimal_Q

    made, seen = [], []
    listed = DATUM_KINDS["samples"]

    def expression(**values):
        made.append(listed.expression(**values))
        return made[-1]

    def certify(samples, **kw):
        seen.append(samples)
        return minimal_Q(samples, **kw)

    monkeypatch.setitem(DATUM_KINDS, "samples", listed._replace(expression=expression))
    monkeypatch.setattr("harea.bsc.minimal_Q", certify)
    path = write_samples(tmp_path / "s.csv", *circle_samples(40, seed=3))
    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"), datum={"kind": "samples", "path": path})
    assert dispatch(["bsc", "-c", cfg]) == 0
    assert len(made) == len(seen) == 1 and seen[0] is made[0]
    assert json.loads((tmp_path / "run" / "bsc.json").read_text())["points"] == 40


def test_samples_datum_takes_the_first_nearest_sample(tmp_path):
    pts, vals = circle_samples(150, seed=5)
    # every point listed twice with another value: the first copy wins the tie
    pts, vals = np.concatenate((pts, pts)), np.concatenate((vals, vals + 1.0))
    path = write_samples(tmp_path / "s.csv", pts, vals)
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1.0 / 32.0)
    mid = boundary_faces(grid).midpoint
    assert len(mid) * len(vals) > 2 * geometry._BLOCK_DOUBLES  # several row blocks
    datum = _datum_on_faces(grid, (DATUM_KINDS["samples"], {"path": path}))
    d2 = (mid[:, 0, None] - pts[None, :, 0]) ** 2 + (mid[:, 1, None] - pts[None, :, 1]) ** 2
    nearest = np.argmin(d2, axis=1)
    assert np.all(nearest < 150)
    assert np.array_equal(datum.values, vals[nearest])


@pytest.mark.parametrize(
    "rows, message",
    [
        (["1,0,1", "0,1", "-1,0,3"], ":3: expected 3 comma-separated values"),
        (["1,0,1", "0,1,two", "-1,0,3"], ":3: non-numeric entry"),
        (["1,0,1", "0,1,2"], ": need at least 3 samples"),
    ],
)
def test_samples_file_errors_name_the_file(tmp_path, capsys, rows, message):
    path = tmp_path / "s.csv"
    path.write_text("\n".join(["x,y,value", *rows]) + "\n")
    cfg = write_cfg(tmp_path, datum={"kind": "samples", "path": str(path)}, out=str(tmp_path))
    assert dispatch(["solve", "-c", cfg]) == 2
    assert f"error: {path}{message}\n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, row",
    [("bsc", "0,1,nan"), ("bsc", "0,1,inf"), ("bsc", "nan,1,2"), ("barriers", "0,1,nan")],
    ids=["bsc-nan-value", "bsc-inf-value", "bsc-nan-point", "barriers-nan-value"],
)
def test_non_finite_sample_is_rejected_with_its_line(tmp_path, capsys, command, row):
    path = tmp_path / "s.csv"
    path.write_text("\n".join(["x,y,value", "1,0,1", row, "-1,0,3", "0,-1,4"]) + "\n")
    datum = {"kind": "samples", "path": str(path)}
    cfg = write_cfg(tmp_path, datum=datum, out=str(tmp_path / "run"))
    assert dispatch([command, "-c", cfg]) == 2
    assert f"error: {path}:3: non-finite entry\n" in capsys.readouterr().err


def test_non_finite_field_value_is_rejected_with_its_line(tmp_path, capsys):
    from harea import ScalarField
    from harea.fileio import write_field

    cfg = write_cfg(tmp_path, out=str(tmp_path / "run"))
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.125)
    path = tmp_path / "field.csv"
    write_field(ScalarField.from_function(grid, lambda x, y: x * y), str(path))
    lines = path.read_text().splitlines()
    lines[4] = lines[4].rpartition(",")[0] + ",nan"
    path.write_text("\n".join(lines) + "\n")
    assert dispatch(["energy", "-c", cfg, str(path)]) == 2
    assert f"error: {path}:5: non-finite entry\n" in capsys.readouterr().err


def test_samples_datum_memory_stays_bounded(tmp_path):
    path = write_samples(tmp_path / "s.csv", *circle_samples(10_000, seed=6))
    # 512 faces: one dense faces-by-samples float64 array would take 39 MiB
    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 1.0 / 64.0)
    tracemalloc.start()
    try:
        datum = _datum_on_faces(grid, (DATUM_KINDS["samples"], {"path": path}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(datum.values) == 512
    assert peak < 8 * 2**20


def test_barriers_subcommand_writes_envelopes(tmp_path):
    out = str(tmp_path / "run")
    cfg = write_cfg(tmp_path, out=out)
    assert dispatch(["barriers", "-c", cfg]) == 0
    rep = json.loads((tmp_path / "run" / "bsc.json").read_text())
    assert dispatch(["bsc", "-c", cfg]) == 0  # same config, so the same bsc.json
    assert json.loads((tmp_path / "run" / "bsc.json").read_text()) == rep
    assert rep["feasible"] is True
    from harea.fileio import read_field

    grid = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.125)
    f = read_field(str(tmp_path / "run" / "barrier_lower.csv"), grid)
    g = read_field(str(tmp_path / "run" / "barrier_upper.csv"), grid)
    m = grid.interior_mask
    assert np.max((f.values - g.values)[m]) <= 1e-9


def test_verify_single_check(tmp_path):
    out = str(tmp_path / "v")
    assert dispatch(["verify", "--check", "euler_residual_es1", "--out", out]) == 0
    bundle = json.loads((tmp_path / "v" / "verify.json").read_text())
    assert bundle["summary"] == {
        "total": 1,
        "passed": 1,
        "failed": 0,
        "runtime": bundle["summary"]["runtime"],
        **loop_info(),
    }
    assert bundle["reports"][0]["id"] == "euler_residual_es1"
    assert bundle["reports"][0]["passed"] is True


def test_verify_unknown_check_is_usage_error(tmp_path):
    assert dispatch(["verify", "--check", "nonsense", "--out", str(tmp_path)]) == 2


def test_verify_prints_the_exceeded_thresholds_of_a_failed_check(tmp_path, capsys, monkeypatch):
    import harea.checks
    from harea import CheckId

    gated = {"defect": (2.0, 1.0), "spread": (0.5, 1.0)}
    failing = (lambda cfg: (gated, {}), None)
    monkeypatch.setitem(harea.checks._CHECKS, CheckId.SUBMODULARITY_ANISO, failing)
    assert dispatch(["verify", "--check", "submodularity_aniso", "--out", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL  submodularity_aniso ")
    assert lines[1:3] == [
        "        defect = 2 (threshold 1)  <-- exceeded",
        "        spread = 0.5 (threshold 1)",
    ]
    assert lines[3].startswith("0/1 checks passed ")


@pytest.mark.parametrize("example", ["es1", "es2"])
def test_reproduce_matches_golden(tmp_path, example):
    out = str(tmp_path / "rep")
    assert dispatch(["reproduce", example, "--out", out]) == 0
    rep = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert rep["match"] is True
    assert (tmp_path / "rep" / "char.pgm").exists()
    assert (tmp_path / "rep" / "residual.csv").exists()


def test_refine_subcommand(tmp_path):
    out = str(tmp_path / "r")
    cfg = write_cfg(tmp_path, h=0.25, out=out)
    assert dispatch(["refine", "-c", cfg]) == 0
    table = (tmp_path / "r" / "refine.csv").read_text().splitlines()
    assert table[0] == "h,error,iterations,converged"
    assert len(table) == 4  # header + 3 levels
    meta = json.loads((tmp_path / "r" / "refine.json").read_text())
    assert meta["monotone"] is True


def test_refine_exits_1_when_a_level_does_not_converge(tmp_path):
    """Like solve, refine writes its table and then exits 1 when any level
    stopped at max_iters."""
    out = tmp_path / "r"
    cfg = write_cfg(tmp_path, out=str(out), solver={"max_iters": 3}, levels=2)
    assert dispatch(["refine", "-c", cfg]) == 1
    rows = (out / "refine.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [["3", "0"], ["3", "0"]]
    assert (out / "refine.json").exists()


def test_refine_without_a_closed_form_minimizer(tmp_path, capsys):
    out = tmp_path / "r"
    cfg = write_cfg(tmp_path, h=0.25, out=str(out), datum={"kind": "zero"}, levels=2)
    assert dispatch(["refine", "-c", cfg]) == 0
    rows = (out / "refine.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["", ""]
    assert json.loads((out / "refine.json").read_text())["monotone"] is None
    said = capsys.readouterr().out
    assert "monotone decrease: n/a, no closed-form minimizer for this datum\n" in said


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"datum": {"kind": "samples", "path": "s.csv"}}, "refine needs a closed-form datum"),
        ({"levels": 1}, "refine needs at least 2 levels"),
    ],
    ids=["samples-datum", "one-level"],
)
def test_refine_usage_errors(tmp_path, capsys, overrides, message):
    out = tmp_path / "r"
    cfg = write_cfg(tmp_path, out=str(out), **overrides)
    assert dispatch(["refine", "-c", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_refine_applies_mode_and_energy_flags(tmp_path):
    """The --mode flag reaches every level without a solver block in the
    config."""

    def iterations(name, *flags):
        out = tmp_path / name
        cfg = write_cfg(tmp_path, name=f"{name}.json", h=0.25, out=str(out))
        assert dispatch(["refine", "-c", cfg, *flags]) == 0
        rows = (out / "refine.csv").read_text().splitlines()[1:]
        return [row.split(",")[2] for row in rows], json.loads((out / "refine.json").read_text())

    plain, _ = iterations("plain")
    flagged, meta = iterations("flagged", "--mode", "constrained")
    assert meta["run"]["solver"]["mode"] == "constrained"
    assert flagged != plain


def test_closed_stdout_ends_without_traceback(tmp_path):
    """`harea refine -c cfg.json | head` with the reader gone before the
    report is printed: no traceback, and the files are still written."""
    out = tmp_path / "r"
    cfg = write_cfg(tmp_path, h=0.25, out=str(out), levels=2)
    proc = subprocess.Popen(
        [sys.executable, "-c", WRAPPER, "harea.cli:main", "refine", "-c", cfg],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=entry_point_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    assert json.loads((out / "refine.json").read_text())["monotone"] is True


def declared_scripts():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def entry_point_env():
    """The environment of a fresh interpreter that imports this checkout's harea."""
    package_root = str(Path(harea.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def run_entry_point(spec, *args):
    """Run `spec` ("module:attr") in a fresh interpreter as the `harea` script."""
    return subprocess.run(
        [sys.executable, "-c", WRAPPER, spec, *args],
        capture_output=True,
        text=True,
        env=entry_point_env(),
    )


def test_console_script_entry_point():
    spec = declared_scripts().get("harea")
    assert spec == "harea.cli:main"
    out = run_entry_point(spec, "--help")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: harea")
    assert "solve" in out.stdout and "verify" in out.stdout


def test_cli_parser_leaves_numpy_unloaded():
    """Importing the package and the CLI and building the parser load no
    NumPy, so ``harea --help`` stays light."""
    code = "import sys, harea, harea.cli; harea.cli._build_parser(); print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=entry_point_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(shutil.which("harea") is None, reason="harea is not on PATH")
def test_installed_console_script():
    out = subprocess.run(["harea", "--help"], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    # an install from another checkout prints another parser's help
    assert out.stdout == run_entry_point(declared_scripts()["harea"], "--help").stdout


def test_every_exported_name_resolves():
    for name in harea.__all__:
        assert getattr(harea, name) is not None, name


@pytest.mark.parametrize(
    "demo, lines",
    [
        (
            "disk_calibration.py",
            ["solver energy 4.190798 vs 4*pi/3 = 4.188790 (rel err 4.79e-04)"],
        ),
        (
            "slope_certificates.py",
            [
                "minimal certified slope Q_min = 9.7236",
                "interior Lipschitz bound   K  = 13.7236",
                "  sample [-1.  0.]: lower slope [-1.94 -0.98], upper slope [0.41  0.189]",
                "barrier sandwich: 0 cells under f, 0 cells over g (tol 0.552)",
            ],
        ),
    ],
)
def test_demo_runs(demo, lines):
    """The demos that write no files run against this checkout's package."""
    path = Path(__file__).resolve().parents[1] / "demos" / demo
    out = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                         env=entry_point_env())
    assert out.returncode == 0, out.stderr
    for line in lines:
        assert line in out.stdout.splitlines(), line
