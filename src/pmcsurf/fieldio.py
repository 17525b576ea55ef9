"""File formats for field data and report/series output.

Radial field (text): header lines "m", "n_s", "n_th", "s_max" as key value
pairs, then n_s * n_th + 1 values one per line, pole first, row-major in
(ring, angle). Cartesian fields (text) use a header of "m" then per-axis
"R" and "n" pairs, then values row-major. Blank lines and lines starting
with "#" are skipped. All floats are written with 17 significant digits
so they round-trip.
"""

import contextlib
import csv
import os

import numpy as np

from .errors import UsageError
from .fields import BoxGrid, CartesianField, PolarGrid, ScalarField

_FMT = "%.17g"


def _require(path):
    if not os.path.exists(path):
        raise FileNotFoundError(path)


@contextlib.contextmanager
def _casts(path):
    """A number that fails to parse makes the file malformed, not a crash."""
    try:
        yield
    except ValueError as exc:
        raise UsageError("malformed field file %s: %s" % (path, exc)) from exc


def write_radial_field(fld, path):
    g = fld.grid
    with open(path, "w") as fh:
        fh.write("m 2\n")
        fh.write("n_s %d\n" % g.n_s)
        fh.write("n_th %d\n" % g.n_theta)
        fh.write(("s_max " + _FMT + "\n") % g.s_max)
        for v in fld.flat():
            fh.write((_FMT + "\n") % v)


def read_radial_field(path):
    _require(path)
    header = {}
    values = []
    with open(path) as fh, _casts(path):
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("m", "n_s", "n_th", "s_max"):
                header[parts[0]] = parts[1]
            else:
                values.append(float(parts[0]))
    missing = {"m", "n_s", "n_th", "s_max"} - set(header)
    if missing:
        raise UsageError("radial field header missing %s" % sorted(missing))
    with _casts(path):
        m = int(header["m"])
        shape = int(header["n_s"]), int(header["n_th"]), float(header["s_max"])
    grid = PolarGrid(*shape)
    values = np.asarray(values, dtype=float)
    if m != 2:
        raise UsageError("radial field files are two dimensional (m = 2)")
    return ScalarField.from_flat(grid, values)


def write_cartesian_field(fld, path):
    g = fld.grid
    with open(path, "w") as fh:
        fh.write("m %d\n" % g.m)
        for r, n in zip(g.extents, g.counts):
            fh.write(("R " + _FMT + "\n") % r)
            fh.write("n %d\n" % n)
        for v in fld.values.ravel():
            fh.write((_FMT + "\n") % v)


def read_cartesian_field(path):
    _require(path)
    m = None
    rs, ns, values = [], [], []
    with open(path) as fh, _casts(path):
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 2 and parts[0] == "m":
                m = int(parts[1])
            elif len(parts) == 2 and parts[0] == "R":
                rs.append(float(parts[1]))
            elif len(parts) == 2 and parts[0] == "n":
                ns.append(int(parts[1]))
            else:
                values.append(float(parts[0]))
    if m is None or len(rs) != m or len(ns) != m:
        raise UsageError("cartesian field header incomplete")
    grid = BoxGrid(tuple(rs), tuple(ns))
    values = np.asarray(values, dtype=float)
    expected = int(np.prod(grid.counts))
    if values.shape != (expected,):
        raise UsageError("value count does not match the grid")
    fld = CartesianField(grid, values.reshape(tuple(grid.counts)))
    fld.margin = fld.spacelike_margin()
    return fld


def write_series_csv(path, columns):
    """columns: ordered dict-like of name -> sequence, equal lengths."""
    names = list(columns)
    rows = zip(*(columns[k] for k in names))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in rows:
            writer.writerow([(_FMT % v) if isinstance(v, float) else v for v in row])


def read_series_csv(path):
    _require(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader)
        cols = {k: [] for k in names}
        for row in reader:
            for k, v in zip(names, row):
                cols[k].append(float(v))
    return {k: np.asarray(v) for k, v in cols.items()}
