"""On-disk formats for signals and coefficient fields.

Two signal formats, chosen by file extension:

* ``.qs2d`` -- binary, little-endian: magic ``QS2D``, u32 version=1,
  u32 n1, u32 n2, f64 min1, f64 step1, f64 min2, f64 step2, then
  n1*n2*4 f64 components (q0,q1,q2,q3 interleaved, row-major, axis-2
  fastest).  Header is 48 bytes.
* ``.csv`` -- header ``x1,x2,q0,q1,q2,q3``, one row per sample in the
  same order, LF line endings, UTF-8.  Floats are written with Python's
  shortest-roundtrip repr, so a CSV roundtrip is lossless.

Coefficient fields use ``.qtf4``: magic ``QTF4``, u32 version=1,
u32 nw1, nw2, nu1, nu2, four (f64 min, f64 step) axis records in order
w1, w2, u1, u2, the two parameter sextets as 12 f64, then the quaternion
payload with index order w1-major and u2 fastest.  Header is 184 bytes.

Malformed input raises FormatError carrying the byte offset of the first
offending byte.  Offsets follow the file's order: a file with two faults
reports the one nearer its start.
"""

from __future__ import annotations

import math
import struct
from array import array
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .grid import Axis, GridSignal2D, _check_memory

__all__ = ["save_signal", "load_signal", "save_field", "load_field"]

_QS2D_MAGIC = b"QS2D"
_QS2D_HEADER = struct.Struct("<4s3I4d")
_QTF4_MAGIC = b"QTF4"
_QTF4_HEADER = struct.Struct("<4s5I8d12d")
_CSV_HEADER = "x1,x2,q0,q1,q2,q3"
#: f64 values per payload read: 256 KB, small enough to check in cache
_PAYLOAD_CHUNK = 1 << 15
#: the file extensions of each kind of file
_SUFFIXES = {"signal": (".qs2d", ".csv"), "field": (".qtf4",)}
#: peak memory of a .csv load over the file's size.  The load holds 56
#: bytes a data line (six f64 values and the line's offset) and the (n1,
#: n2, 4) copy of the samples: measured at n = 256, 512 and 1024 as 0.75
#: to 0.84 for random signals as ``save_signal`` writes them, 2.0 to 2.5
#: for a zero signal, 2.7 to 2.9 for a zero signal on an integer grid,
#: and 4.7 to 5.3 for hand-written integer coordinates and zero values
#: (15.6-byte lines at n = 512, about the shortest a large grid has)
_CSV_LOAD_FACTOR = 8


def _suffix(path, kind):
    """The extension of ``path``; a ParameterError unless a ``kind`` file takes it."""
    suffix = Path(path).suffix
    if suffix not in _SUFFIXES[kind]:
        raise ParameterError(f"unknown {kind} extension {suffix!r} "
                             f"(use {' or '.join(_SUFFIXES[kind])})")
    return suffix


def _check_output(path, kind=None):
    """A ParameterError unless a file, of ``kind`` when given, can be written
    at ``path``; the CLI checks each output path before it does any work."""
    path = Path(path)
    if kind is not None:
        _suffix(path, kind)
    if not path.parent.is_dir():
        raise ParameterError(f"cannot write {path}: no directory {path.parent}")
    if path.is_dir():
        raise ParameterError(f"cannot write {path}: it is a directory")


def save_signal(f: GridSignal2D, path):
    path = Path(path)
    if _suffix(path, "signal") == ".qs2d":
        _save_qs2d(f, path)
    else:
        _save_csv(f, path)


def load_signal(path) -> GridSignal2D:
    path = Path(path)
    if _suffix(path, "signal") == ".qs2d":
        return _load_qs2d(path)
    return _load_csv(path)


def _save_qs2d(f, path):
    header = _QS2D_HEADER.pack(
        _QS2D_MAGIC, 1, f.ax1.n, f.ax2.n,
        f.ax1.min, f.ax1.step, f.ax2.min, f.ax2.step,
    )
    _write(path, header, f.data)


def _write(path, header, data):
    # tofile writes the array's own buffer: no bytes copy of the payload
    with open(path, "wb") as fh:
        fh.write(header)
        np.ascontiguousarray(data, dtype="<f8").tofile(fh)


def _read_header(path, layout):
    """The header fields and the file size; the payload is not read."""
    size = path.stat().st_size
    with open(path, "rb") as fh:
        raw = fh.read(layout.size)
    if len(raw) < layout.size:
        raise FormatError(f"{path}: truncated header", offset=len(raw))
    return layout.unpack(raw), size


def _check_axis(path, offset, amin, astep):
    # offset is that of the axis record's min; its step follows it
    if not np.isfinite(amin):
        raise FormatError(f"{path}: bad axis min {amin}", offset=offset)
    if not (np.isfinite(astep) and astep > 0):
        raise FormatError(f"{path}: bad axis step {astep}", offset=offset + 8)


def _read_payload(path, size, start, count):
    """``count`` f64 values from byte ``start``, checked finite as they are read.

    The payload is read straight into the result, ``_PAYLOAD_CHUNK`` values
    at a time, and each slice is checked while it is still in cache, so the
    check costs no second pass over the array and no full-size mask.  A
    truncated file is reported first, then a payload over the memory budget.
    """
    if size < start + 8 * count:
        raise FormatError(f"{path}: truncated payload", offset=size)
    _check_memory(8 * count, f"{path}: the payload")
    data = np.empty(count, dtype="<f8")
    finite = np.empty(min(count, _PAYLOAD_CHUNK), dtype=bool)
    with open(path, "rb") as fh:
        fh.seek(start)
        for lo in range(0, count, _PAYLOAD_CHUNK):
            part = data[lo:lo + _PAYLOAD_CHUNK]
            got = fh.readinto(part)
            if got < part.nbytes:
                # the file shrank after its size was read
                raise FormatError(f"{path}: truncated payload", offset=start + 8 * lo + got)
            ok = np.isfinite(part, out=finite[:len(part)])
            if not ok.all():
                bad = lo + int(np.argmin(ok))
                raise FormatError(f"{path}: non-finite value", offset=start + 8 * bad)
    return data.astype(float, copy=False)


def _load_qs2d(path):
    values, size = _read_header(path, _QS2D_HEADER)
    magic, version, n1, n2, min1, step1, min2, step2 = values
    if magic != _QS2D_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}", offset=4)
    if n1 < 2:
        raise FormatError(f"{path}: bad sample count n1={n1}", offset=8)
    if n2 < 2:
        raise FormatError(f"{path}: bad sample count n2={n2}", offset=12)
    _check_axis(path, 16, min1, step1)
    _check_axis(path, 32, min2, step2)
    data = _read_payload(path, size, _QS2D_HEADER.size, n1 * n2 * 4)
    return GridSignal2D(Axis(n1, min1, step1), Axis(n2, min2, step2),
                        data.reshape(n1, n2, 4))


def _save_csv(f, path):
    x1 = f.ax1.coords
    x2 = f.ax2.coords
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        for k1 in range(f.ax1.n):
            for k2 in range(f.ax2.n):
                # shortest-roundtrip decimal form of each double
                row = [x1[k1], x2[k2], *f.data[k1, k2]]
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _load_csv(path):
    _check_memory(_CSV_LOAD_FACTOR * path.stat().st_size, f"{path}: loading the CSV file")
    # one pass over the lines: the first fault in the file is the one reported
    values, starts = array("d"), array("q")
    with open(path, "rb") as fh:
        header = fh.readline(len(_CSV_HEADER) + 1)
        if header.removesuffix(b"\n") != _CSV_HEADER.encode():
            raise FormatError(f"{path}: bad header line", offset=0)
        offset = len(header)
        for line in fh:
            start, offset = offset, offset + len(line)
            if line == b"\n":
                continue
            try:
                fields = line.decode("utf-8").split(",")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: not UTF-8", offset=start + exc.start) from None
            if len(fields) != 6:
                raise FormatError(f"{path}: expected 6 fields, got {len(fields)}", offset=start)
            try:
                row = [float(v) for v in fields]
            except ValueError:
                raise FormatError(f"{path}: unparsable number", offset=start) from None
            if not all(map(math.isfinite, row)):
                raise FormatError(f"{path}: non-finite value", offset=start)
            values.extend(row)
            starts.append(start)
    if not starts:
        raise FormatError(f"{path}: no data rows", offset=len(_CSV_HEADER) + 1)
    # starts[k] is the offset of data line k, and starts[len(table)] the
    # end of the file
    starts.append(offset)
    table = np.frombuffer(values).reshape(-1, 6)
    # the one layout rule: the data lines are the grid's samples, in order,
    # on the grid whose rows are x1's runs of n2 lines
    x1, x2 = table[:, 0], table[:, 1]
    changed = x1 != x1[0]
    n2 = int(np.argmax(changed)) if changed.any() else len(x1)
    if n2 < 2:
        raise FormatError(f"{path}: rows do not form a rectangular grid", offset=starts[n2])
    ax2 = _axis_from_coords(x2[:n2], starts, path)
    ax1 = _axis_from_coords(x1[::n2], starts[::n2], path)
    scale = max(ax1.step, ax2.step)
    off = ((np.abs(x1 - np.repeat(ax1.coords, n2)[:len(x1)]) > 1e-9 * scale)
           | (np.abs(x2 - np.tile(ax2.coords, ax1.n)[:len(x1)]) > 1e-9 * scale))
    if off.any():
        raise FormatError(f"{path}: sample coordinates are not a uniform grid",
                          offset=starts[int(np.argmax(off))])
    if len(x1) % n2:
        # every line is on the grid, and the file ends inside its last run
        raise FormatError(f"{path}: rows do not form a rectangular grid", offset=starts[-1])
    return GridSignal2D(ax1, ax2, table[:, 2:].reshape(ax1.n, n2, 4))


def _axis_from_coords(coords, starts, path):
    """A uniform axis through ``coords``; ``starts[k]`` is the offset of the
    line holding ``coords[k]``, and ``starts[len(coords)]`` the offset just
    past those lines."""
    if len(coords) < 2:
        raise FormatError(f"{path}: axis needs at least 2 samples", offset=starts[len(coords)])
    steps = np.diff(coords)
    step = float(np.mean(steps))
    bad = steps <= 0 if step <= 0 else np.abs(steps - step) > 1e-9 * abs(step)
    if bad.any():
        # the line that ends the first irregular step
        raise FormatError(f"{path}: axis coordinates are not uniformly spaced",
                          offset=starts[int(np.argmax(bad)) + 1])
    return Axis(len(coords), float(coords[0]), _exact_step(coords, step))


def _exact_step(coords, mean):
    """The step whose ``Axis.coords`` are ``coords`` exactly, else ``mean``.

    The mean of the differences can miss the written step by an ulp, and
    an axis one ulp off fails every grid match.  The candidates are the
    mean and (last - first) / (n - 1), each with its neighbours within 2
    ulps; a hand-written file that none of them reproduces keeps the mean.
    """
    k = np.arange(len(coords))
    for base in (mean, float((coords[-1] - coords[0]) / (len(coords) - 1))):
        below = above = base
        candidates = [base]
        for _ in range(2):
            below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
            candidates += [below, above]
        for step in candidates:
            if np.array_equal(coords[0] + float(step) * k, coords):
                return float(step)
    return mean


def save_field(field, path):
    """Write an StqolctField as .qtf4."""
    _suffix(path, "field")
    axes = (field.w1, field.w2, field.u1, field.u2)
    axis_vals = [v for ax in axes for v in (ax.min, ax.step)]
    p1, p2 = field.params1, field.params2
    param_vals = [p1.a, p1.b, p1.c, p1.d, p1.p, p1.q,
                  p2.a, p2.b, p2.c, p2.d, p2.p, p2.q]
    header = _QTF4_HEADER.pack(
        _QTF4_MAGIC, 1, *(ax.n for ax in axes), *axis_vals, *param_vals,
    )
    _write(path, header, field.data)


def load_field(path):
    """Read a .qtf4 file; the result carries no plan (axes and params only).

    A payload over the memory budget raises ParameterError before it is
    allocated.
    """
    from .qolct import OlctParams
    from .stqolct import StqolctField

    path = Path(path)
    values, size = _read_header(path, _QTF4_HEADER)
    magic, version = values[0], values[1]
    if magic != _QTF4_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}", offset=0)
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}", offset=4)
    counts = values[2:6]
    for k, n in enumerate(counts):
        if n < 2:
            raise FormatError(f"{path}: bad axis count {n}", offset=8 + 4 * k)
    axis_vals = values[6:14]
    axes = []
    for k, n in enumerate(counts):
        amin, astep = axis_vals[2 * k], axis_vals[2 * k + 1]
        _check_axis(path, 24 + 16 * k, amin, astep)
        axes.append(Axis(n, amin, astep))
    params = []
    for k in range(2):
        try:
            params.append(OlctParams(*values[14 + 6 * k:20 + 6 * k]))
        except ParameterError as exc:
            # offset is that of the sextet's first value
            raise FormatError(f"{path}: bad parameter sextet: {exc}",
                              offset=88 + 48 * k) from None
    params1, params2 = params
    count = counts[0] * counts[1] * counts[2] * counts[3] * 4
    data = _read_payload(path, size, _QTF4_HEADER.size, count)
    return StqolctField(
        w1=axes[0], w2=axes[1], u1=axes[2], u2=axes[3],
        params1=params1, params2=params2,
        data=data.reshape(*counts, 4), plan=None,
    )
