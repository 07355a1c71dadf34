"""Plain-text formats: CSV fields and boundary samples, PGM images, JSON reports.

Every format is readable without libraries: fields are ``x,y,value`` CSV with
a metadata comment carrying the lattice, boundary samples are ``x,y,value``
CSV, images are ASCII PGM, reports are JSON.  Both CSV readers parse rows
the same way, and a file they cannot open or parse raises FormatError.
Values are serialized with 17 significant digits so a write/read cycle
reproduces each double bit-exactly.  All writers go through a temp file and
an atomic rename, so a crash never leaves a half-written artifact.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .fields import ScalarField, VectorField
from .geometry import Grid

__all__ = [
    "FormatError",
    "read_field",
    "write_field",
    "read_vector_field",
    "write_vector_field",
    "read_samples",
    "write_pgm",
    "write_json",
]

_MAGIC = "# harea field v1"


class FormatError(ValueError):
    """Raised when an artifact file does not match its declared format."""


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _g17(v: float) -> str:
    return format(float(v), ".17g")


def _write_lattice(path: str, grid: Grid, header: str, values: np.ndarray) -> None:
    """Shared writer of :func:`write_field` and :func:`write_vector_field`:
    one row per interior cell, row-major, of its center and ``values[i, j]``."""
    lines = [
        f"{_MAGIC} h={_g17(grid.h)} ox={_g17(grid.origin[0])} oy={_g17(grid.origin[1])}"
        f" nx={grid.nx} ny={grid.ny}",
        header,
    ]
    X, Y = grid.cell_centers()
    m = grid.interior_mask
    for x, y, v in zip(X[m], Y[m], values[m]):
        lines.append(",".join(map(_g17, (x, y, *v))))
    _atomic_write(path, "\n".join(lines) + "\n")


def _read_text(path: str, what: str) -> str:
    """The file's text; an unreadable path raises FormatError naming ``what``."""
    try:
        with open(path) as f:
            return f.read()
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


def _rows(path: str, lines: list[str], header: str):
    """Yield ``(line number, values)`` per data row, skipping blank lines,
    ``#`` comments and the column row ``header``; a non-finite entry raises
    FormatError."""
    ncols = header.count(",") + 1
    for ln, row in enumerate(lines, start=1):
        s = row.strip()
        if not s or s.startswith("#") or s.lower() == header:
            continue
        parts = s.split(",")
        if len(parts) != ncols:
            raise FormatError(f"{path}:{ln}: expected {ncols} comma-separated values")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise FormatError(f"{path}:{ln}: non-numeric entry") from None
        if not np.isfinite(vals).all():
            raise FormatError(f"{path}:{ln}: non-finite entry")
        yield ln, vals


def write_field(u: ScalarField, path: str) -> None:
    """One CSV row per interior cell, row-major; lattice in a comment line."""
    _write_lattice(path, u.grid, "x,y,value", u.values[..., None])


def _read_lattice(path: str, grid: Grid | None, header: str):
    """Shared parser of :func:`read_field` and :func:`read_vector_field`:
    ``header`` is the column row.  Returns the grid (``grid`` itself when
    given) and the values, ``(nx, ny)`` for one value column and
    ``(nx, ny, 2)`` for two."""
    lines = _read_text(path, "field").splitlines()
    if not lines or not lines[0].startswith(_MAGIC):
        raise FormatError(f"{path}: missing field header line '{_MAGIC} ...'")
    meta = {}
    for tok in lines[0][len(_MAGIC) :].split():
        k, _, v = tok.partition("=")
        meta[k] = v
    try:
        h = float(meta["h"])
        origin = (float(meta["ox"]), float(meta["oy"]))
        nx, ny = int(meta["nx"]), int(meta["ny"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: bad metadata line: {exc}") from exc
    if not (0.0 < h < np.inf and np.isfinite(origin).all() and nx > 0 and ny > 0):
        raise FormatError(
            f"{path}: bad lattice h={h} ox={origin[0]} oy={origin[1]} nx={nx} ny={ny}: h must be"
            " positive and finite, ox and oy finite, nx and ny positive integers"
        )
    if len(lines) < 2 or lines[1].strip() != header:
        raise FormatError(f"{path}: missing '{header}' header row")

    width = header.count(",") - 1
    listed_on = np.zeros((nx, ny), dtype=np.int64)  # line number per listed cell, 0 if none
    vals = np.zeros((nx, ny) if width == 1 else (nx, ny, width))
    for ln, (x, y, *v) in _rows(path, lines, header):
        i = int(round((x - origin[0]) / h - 0.5))
        j = int(round((y - origin[1]) / h - 0.5))
        if not (0 <= i < nx and 0 <= j < ny):
            raise FormatError(f"{path}:{ln}: point ({x}, {y}) outside the declared lattice")
        if listed_on[i, j]:
            raise FormatError(
                f"{path}:{ln}: cell ({i}, {j}) already listed on line {listed_on[i, j]}"
            )
        listed_on[i, j] = ln
        vals[i, j] = v[0] if width == 1 else v
    mask = listed_on > 0

    if grid is None:
        return Grid(h=h, origin=np.asarray(origin), nx=nx, ny=ny, interior_mask=mask), vals
    if not (
        grid.nx == nx
        and grid.ny == ny
        and abs(grid.h - h) <= 1e-15 * max(h, 1.0)
        and np.allclose(grid.origin, origin, atol=1e-12)
        and np.array_equal(grid.interior_mask, mask)
    ):
        raise FormatError(
            f"{path}: field lattice (h={h}, {nx}x{ny} at {origin}) does not match "
            f"the expected grid (h={grid.h}, {grid.nx}x{grid.ny} at {tuple(map(float, grid.origin))})"
        )
    return grid, vals


def read_field(path: str, grid: Grid | None = None) -> ScalarField:
    """Inverse of :func:`write_field`.

    The grid is rebuilt from the metadata line and the listed cells; values
    off the listed cells are zero, as in every solver-produced field.  The
    metadata must give a positive finite ``h``, finite ``ox`` and ``oy`` and
    positive integers ``nx`` and ``ny``.  A cell listed twice raises
    FormatError naming both lines.  When ``grid`` is supplied the file must
    describe that exact lattice and mask.
    """
    return ScalarField(*_read_lattice(path, grid, "x,y,value"))


def write_vector_field(p: VectorField, path: str) -> None:
    """Like :func:`write_field` with two value columns, ``x,y,px,py``."""
    _write_lattice(path, p.grid, "x,y,px,py", p.values)


def read_vector_field(path: str, grid: Grid | None = None) -> VectorField:
    """Inverse of :func:`write_vector_field`; same lattice rules as
    :func:`read_field`."""
    return VectorField(*_read_lattice(path, grid, "x,y,px,py"))


def read_samples(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Boundary samples from a CSV of ``x,y,value`` rows; an ``x,y,value``
    header and ``#`` comment lines are skipped.  Returns the points (n, 2)
    and the values (n,); fewer than 3 samples raise FormatError."""
    lines = _read_text(path, "samples").splitlines()
    rows = [vals for _, vals in _rows(path, lines, "x,y,value")]
    if len(rows) < 3:
        raise FormatError(f"{path}: need at least 3 samples")
    table = np.asarray(rows)
    return table[:, :2], table[:, 2]


def write_pgm(values: np.ndarray, path: str, mask: np.ndarray | None = None) -> None:
    """ASCII PGM (P2) of a 2d array, min-max scaled to 0..255.

    The array's first axis is x, so rows of the image are written north-up.
    Cells outside ``mask`` render as 0.
    """
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise FormatError("image data must be a 2d array")
    sel = np.ones_like(a, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    pix = np.zeros(a.shape, dtype=int)
    if sel.any():
        lo = float(np.min(a[sel]))
        hi = float(np.max(a[sel]))
        span = hi - lo
        if span > 0:
            pix[sel] = np.clip(np.round(255.0 * (a[sel] - lo) / span), 0, 255).astype(int)
        else:
            pix[sel] = 255
    nx, ny = a.shape
    lines = ["P2", f"{nx} {ny}", "255"]
    for j in range(ny - 1, -1, -1):
        lines.append(" ".join(str(int(p)) for p in pix[:, j]))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(obj: dict, path: str) -> None:
    """Write ``obj`` as strict JSON; a NaN or an infinity raises FormatError
    and leaves no file."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    _atomic_write(path, text + "\n")
