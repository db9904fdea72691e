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
offending byte.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError
from .grid import Axis, GridSignal2D

__all__ = ["save_signal", "load_signal", "save_field", "load_field"]

_QS2D_MAGIC = b"QS2D"
_QS2D_HEADER = struct.Struct("<4s3I4d")
_QTF4_MAGIC = b"QTF4"
_QTF4_HEADER = struct.Struct("<4s5I8d12d")
_CSV_HEADER = "x1,x2,q0,q1,q2,q3"


def save_signal(f: GridSignal2D, path):
    path = Path(path)
    if path.suffix == ".qs2d":
        _save_qs2d(f, path)
    elif path.suffix == ".csv":
        _save_csv(f, path)
    else:
        raise ParameterError(f"unknown signal extension {path.suffix!r} (use .qs2d or .csv)")


def load_signal(path) -> GridSignal2D:
    path = Path(path)
    if path.suffix == ".qs2d":
        return _load_qs2d(path)
    if path.suffix == ".csv":
        return _load_csv(path)
    raise ParameterError(f"unknown signal extension {path.suffix!r} (use .qs2d or .csv)")


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
    if size < start + 8 * count:
        raise FormatError(f"{path}: truncated payload", offset=size)
    data = np.fromfile(path, dtype="<f8", count=count, offset=start).astype(float, copy=False)
    if not np.isfinite(data).all():
        bad = int(np.argmin(np.isfinite(data)))
        raise FormatError(f"{path}: non-finite value", offset=start + 8 * bad)
    return data


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
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8", offset=exc.start) from None
    lines = text.split("\n")
    if not lines or lines[0] != _CSV_HEADER:
        raise FormatError(f"{path}: bad header line", offset=0)
    rows = []
    offset = len(lines[0]) + 1
    for line in lines[1:]:
        if line:
            fields = line.split(",")
            if len(fields) != 6:
                raise FormatError(f"{path}: expected 6 fields, got {len(fields)}",
                                  offset=offset)
            try:
                values = [float(v) for v in fields]
            except ValueError:
                raise FormatError(f"{path}: unparsable number", offset=offset) from None
            if not all(map(math.isfinite, values)):
                raise FormatError(f"{path}: non-finite value", offset=offset)
            rows.append(values)
        offset += len(line) + 1
    if not rows:
        raise FormatError(f"{path}: no data rows", offset=len(_CSV_HEADER) + 1)
    table = np.array(rows)
    x1, x2 = table[:, 0], table[:, 1]
    n2 = int(np.argmax(x1 != x1[0])) if (x1 != x1[0]).any() else len(x1)
    if n2 < 2 or len(rows) % n2:
        raise FormatError(f"{path}: rows do not form a rectangular grid")
    n1 = len(rows) // n2
    ax1 = _axis_from_coords(x1[::n2], path)
    ax2 = _axis_from_coords(x2[:n2], path)
    grid_x1 = np.repeat(ax1.coords, n2)
    grid_x2 = np.tile(ax2.coords, n1)
    scale = max(ax1.step, ax2.step)
    if (np.abs(x1 - grid_x1).max() > 1e-9 * scale
            or np.abs(x2 - grid_x2).max() > 1e-9 * scale):
        raise FormatError(f"{path}: sample coordinates are not a uniform grid")
    return GridSignal2D(ax1, ax2, table[:, 2:].reshape(n1, n2, 4))


def _axis_from_coords(coords, path):
    if len(coords) < 2:
        raise FormatError(f"{path}: axis needs at least 2 samples")
    steps = np.diff(coords)
    step = float(np.mean(steps))
    if step <= 0 or np.abs(steps - step).max() > 1e-9 * abs(step):
        raise FormatError(f"{path}: axis coordinates are not uniformly spaced")
    return Axis(len(coords), float(coords[0]), step)


def save_field(field, path):
    """Write an StqolctField as .qtf4."""
    path = Path(path)
    if path.suffix != ".qtf4":
        raise ParameterError(f"unknown field extension {path.suffix!r} (use .qtf4)")
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
    """Read a .qtf4 file; the result carries no plan (axes and params only)."""
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
