"""Tests of the benchmark harness itself: gates, seeded data, metric names.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from harea import DomainSpec, ScalarField, boundary_faces, rasterize, sample_datum  # noqa: E402
from harea.surfaces import es1_datum  # noqa: E402

from perfbench import data, metrics  # noqa: E402
from perfbench.trace import Tracer  # noqa: E402
from perfbench.workloads import Api, Tally, lens_failures, order_failures  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def lens():
    """The lens64 solve, through the harness's own Api."""
    api = Api(Tracer(False, "test"), Tally())
    grid = rasterize(DomainSpec.parabolic(), 1.0 / 64.0)
    datum = sample_datum(boundary_faces(grid), es1_datum)
    rep = api.solve(grid, datum, api.tuned_config(grid, 30000, 1e-10))
    return datum, rep


def test_good_lens_passes_its_gate(lens):
    datum, rep = lens
    assert lens_failures(rep, datum) == []


def test_shifted_lens_field_fails_its_gate(lens):
    datum, rep = lens
    g = rep.u.grid
    bad = replace(rep, u=ScalarField(g, np.where(g.interior_mask, rep.u.values + 0.5, 0.0)))
    assert lens_failures(bad, datum)


def test_tampered_lens_energy_fails_its_gate(lens):
    datum, rep = lens
    e = rep.energy
    bad = replace(rep, energy=replace(e, total=e.total * (1 - 1e-6)))
    assert any("energy" in f for f in lens_failures(bad, datum))


def test_unconverged_lens_fails_its_gate(lens):
    datum, rep = lens
    assert any("converged" in f for f in lens_failures(replace(rep, converged=False), datum))


def test_order_gate_catches_a_crossing(lens):
    _, rep = lens
    g = rep.u.grid
    lower = replace(rep, u=ScalarField(g, np.where(g.interior_mask, rep.u.values + 1.0, 0.0)))
    assert order_failures(rep, rep, 0.0) == []
    assert order_failures(lower, rep, 0.5)


def _samples(pairs):
    x = np.linspace(-0.9, 0.9, 7)
    X, Y = np.meshgrid(x, x)
    return np.array([[phi(X, Y), psi(X, Y)] for phi, psi in pairs])


def test_same_seed_reproduces_disk_pairs():
    assert np.array_equal(_samples(data.disk_pairs(5, 4)), _samples(data.disk_pairs(5, 4)))


def test_different_seed_changes_disk_pairs():
    assert not np.allclose(_samples(data.disk_pairs(5, 4)), _samples(data.disk_pairs(6, 4)))


def test_disk_pairs_are_ordered():
    v = _samples(data.disk_pairs(3, 20))
    assert np.all(v[:, 1] > v[:, 0])


def test_metric_names_and_benchmark_json_agree():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    assert e2e == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, unit, _ in metrics.PER_LAYER
    ]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_run_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    and prints no result."""
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lens64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
