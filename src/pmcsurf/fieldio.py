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


def _write_values(fh, values):
    """The value block, one number a line, formatted by a single % operation."""
    v = np.asarray(values, dtype=float).ravel().tolist()
    fh.write(((_FMT + "\n") * len(v)) % tuple(v))


def write_radial_field(fld, path):
    g = fld.grid
    with open(path, "w") as fh:
        fh.write("m 2\n")
        fh.write("n_s %d\n" % g.n_s)
        fh.write("n_th %d\n" % g.n_theta)
        fh.write(("s_max " + _FMT + "\n") % g.s_max)
        _write_values(fh, fld.flat())


def _read_field(path, keys):
    """Header "key value" pairs (keys from keys, in file order), then the
    value block, one number a line, through numpy's parser."""
    _require(path)
    header = []
    with open(path) as fh, _casts(path):
        while True:
            pos = fh.tell()
            line = fh.readline()
            parts = line.split()
            if line and (not parts or parts[0].startswith("#")):
                continue
            if len(parts) != 2 or parts[0] not in keys:
                break
            header.append(parts)
        fh.seek(pos)
        # an empty block would make loadtxt warn; the callers count values
        values = np.loadtxt(fh, comments="#", ndmin=1) if line else np.empty(0)
    return header, values


def read_radial_field(path):
    pairs, values = _read_field(path, ("m", "n_s", "n_th", "s_max"))
    header = dict(pairs)
    missing = {"m", "n_s", "n_th", "s_max"} - set(header)
    if missing:
        raise UsageError("radial field header missing %s" % sorted(missing))
    with _casts(path):
        m = int(header["m"])
        shape = int(header["n_s"]), int(header["n_th"]), float(header["s_max"])
    grid = PolarGrid(*shape)
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
        _write_values(fh, fld.values)


def read_cartesian_field(path):
    pairs, values = _read_field(path, ("m", "R", "n"))
    with _casts(path):
        ms = [int(v) for k, v in pairs if k == "m"]
        rs = [float(v) for k, v in pairs if k == "R"]
        ns = [int(v) for k, v in pairs if k == "n"]
    if not ms or len(rs) != ms[-1] or len(ns) != ms[-1]:
        raise UsageError("cartesian field header incomplete")
    grid = BoxGrid(tuple(rs), tuple(ns))
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
