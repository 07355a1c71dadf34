import json
import os
import re

import numpy as np
import pytest

from harea import DomainSpec, ScalarField, VectorField, rasterize
from harea.fileio import (
    FormatError,
    read_field,
    read_samples,
    read_vector_field,
    write_field,
    write_json,
    write_pgm,
    write_vector_field,
)


@pytest.fixture()
def grid():
    return rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.25)


def random_field(grid, rng):
    v = np.zeros((grid.nx, grid.ny))
    v[grid.interior_mask] = rng.standard_normal(grid.interior_count)
    return ScalarField(grid, v)


def test_roundtrip_100_random_fields(grid, tmp_path):
    rng = np.random.default_rng(42)
    path = str(tmp_path / "f.csv")
    for _ in range(100):
        u = random_field(grid, rng)
        write_field(u, path)
        back = read_field(path)
        assert np.array_equal(back.values, u.values)  # bit-exact
        assert back.grid.h == grid.h and np.array_equal(back.grid.origin, grid.origin)
        assert np.array_equal(back.grid.interior_mask, grid.interior_mask)


def test_roundtrip_extreme_values(grid, tmp_path):
    v = np.zeros((grid.nx, grid.ny))
    cells = np.argwhere(grid.interior_mask)
    v[grid.interior_mask] = 1.0
    v[tuple(cells[0])] = 1e-300
    v[tuple(cells[1])] = -1.2345678901234567e300
    v[tuple(cells[2])] = np.nextafter(0.5, 1.0)
    u = ScalarField(grid, v)
    path = str(tmp_path / "f.csv")
    write_field(u, path)
    assert np.array_equal(read_field(path).values, u.values)


def test_single_cell_field_single_row(tmp_path):
    from harea import Grid

    grid = Grid(h=1.0, origin=np.zeros(2), nx=1, ny=1,
                interior_mask=np.ones((1, 1), dtype=bool))
    u = ScalarField(grid, np.full((1, 1), 3.25))
    path = str(tmp_path / "one.csv")
    write_field(u, path)
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    assert len(lines) == 3  # metadata, header, one data row
    assert lines[1] == "x,y,value"


def test_missing_header_rejected(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as f:
        f.write("x,y,value\n0.5,0.5,1.0\n")
    with pytest.raises(FormatError, match="header"):
        read_field(path)


def test_malformed_row_rejected(grid, tmp_path):
    path = str(tmp_path / "f.csv")
    write_field(random_field(grid, np.random.default_rng(0)), path)
    with open(path) as f:
        text = f.read()
    with open(path, "w") as f:
        f.write(text + "not,enough\n")
    with pytest.raises(FormatError, match="3 comma-separated"):
        read_field(path)


def test_non_numeric_row_rejected(grid, tmp_path):
    path = str(tmp_path / "f.csv")
    write_field(random_field(grid, np.random.default_rng(0)), path)
    with open(path, "a") as f:
        f.write("0.125,0.125,nine\n")
    with pytest.raises(FormatError, match=r":\d+: non-numeric entry$"):
        read_field(path)


def test_samples_skip_comments_header_and_blank_lines(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# a circle\nX,Y,Value\n1,0,1.5\n# north\n0,1,2\n\n-1,0,-3\n")
    points, values = read_samples(str(path))
    assert points.tolist() == [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]]
    assert values.tolist() == [1.5, 2.0, -3.0]


def test_cell_listed_twice_rejected_naming_both_lines(grid, tmp_path):
    path = str(tmp_path / "f.csv")
    write_field(random_field(grid, np.random.default_rng(0)), path)
    with open(path) as f:
        lines = f.read().splitlines()
    x, y, _ = lines[2].split(",")
    lines.append(f"{x},{y},123.0")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=rf":{len(lines)}: cell .* already listed on line 3$"):
        read_field(path)


def test_grid_mismatch_described(grid, tmp_path):
    path = str(tmp_path / "f.csv")
    write_field(random_field(grid, np.random.default_rng(0)), path)
    other = rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.2)
    with pytest.raises(FormatError, match="does not match") as exc:
        read_field(path, grid=other)
    # both origins print as plain floats
    assert str(exc.value).endswith(f"at {(float(other.origin[0]), float(other.origin[1]))})")
    assert "np.float64" not in str(exc.value)


BAD_LATTICE = {
    "h-zero": ("h", "0"),
    "h-nan": ("h", "nan"),
    "h-inf": ("h", "inf"),
    "ox-nan": ("ox", "nan"),
    "nx-negative": ("nx", "-3"),
}


def write_bad_lattice(grid, path, key, value):
    """A field file on ``grid`` whose metadata line sets ``key`` to ``value``."""
    write_field(random_field(grid, np.random.default_rng(0)), path)
    with open(path) as f:
        lines = f.read().splitlines()
    lines[0] = " ".join(f"{key}={value}" if t.startswith(f"{key}=") else t for t in lines[0].split(" "))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("key, value", BAD_LATTICE.values(), ids=BAD_LATTICE.keys())
def test_bad_lattice_metadata_rejected(grid, tmp_path, key, value):
    path = str(tmp_path / "f.csv")
    write_bad_lattice(grid, path, key, value)
    with pytest.raises(FormatError, match=rf"^{re.escape(path)}: bad lattice .*{key}={value}"):
        read_field(path)


@pytest.mark.parametrize("key, value", BAD_LATTICE.values(), ids=BAD_LATTICE.keys())
def test_bad_lattice_metadata_is_a_usage_error_in_the_cli(tmp_path, capsys, key, value):
    from harea.cli import dispatch

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": {"kind": "disk", "center": [0, 0], "radius": 1.0},
        "h": 0.125,
        "datum": {"kind": "affine", "a": [1, -2], "b": 0.5},
        "out": str(tmp_path / "run"),
    }))
    path = str(tmp_path / "f.csv")
    write_bad_lattice(rasterize(DomainSpec.disk((0.0, 0.0), 1.0), 0.125), path, key, value)
    assert dispatch(["energy", "-c", str(cfg), path]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: bad lattice ")


def test_vector_roundtrip(grid, tmp_path):
    rng = np.random.default_rng(7)
    v = np.zeros((grid.nx, grid.ny, 2))
    v[grid.interior_mask] = rng.standard_normal((grid.interior_count, 2))
    p = VectorField(grid, v)
    path = str(tmp_path / "p.csv")
    write_vector_field(p, path)
    back = read_vector_field(path, grid)
    assert np.array_equal(back.values, p.values)


def test_pgm_format(grid, tmp_path):
    path = str(tmp_path / "img.pgm")
    X, _ = grid.cell_centers()
    write_pgm(X, path, grid.interior_mask)
    with open(path) as f:
        lines = f.read().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == f"{grid.nx} {grid.ny}"
    assert lines[2] == "255"
    pix = np.array([int(t) for row in lines[3:] for t in row.split()])
    assert pix.min() >= 0 and pix.max() == 255
    assert len(pix) == grid.nx * grid.ny


def test_pgm_constant_input(grid, tmp_path):
    path = str(tmp_path / "flat.pgm")
    write_pgm(np.ones((grid.nx, grid.ny)), path, grid.interior_mask)
    with open(path) as f:
        lines = f.read().splitlines()
    pix = np.array([int(t) for row in lines[3:] for t in row.split()]).reshape(
        -1, grid.nx
    )
    # flat data renders as full white inside, black outside
    assert set(pix.ravel()) <= {0, 255}


def test_writes_are_atomic_no_temp_left(grid, tmp_path):
    path = str(tmp_path / "f.csv")
    for seed in range(3):
        write_field(random_field(grid, np.random.default_rng(seed)), path)
    leftovers = [n for n in os.listdir(tmp_path) if n != "f.csv"]
    assert leftovers == []


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_write_json_rejects_non_finite(tmp_path, bad):
    path = tmp_path / "r.json"
    with pytest.raises(FormatError, match="r.json"):
        write_json({"ok": 1.0, "nested": {"bad": bad}}, str(path))
    assert list(tmp_path.iterdir()) == []
