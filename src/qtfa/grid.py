"""Sampled quaternion fields on centered 2D grids.

Signals live on uniform rectangular grids with a half-bin offset: the
``centered`` constructor places samples at -extent + (k + 1/2)*step, so no
sample sits exactly at the origin (for even n).  That keeps weights such
as \\|w\\|^(-alpha) and ln\\|w\\| finite at every node in the uncertainty
checks.  All quadrature is a plain Riemann sum with weight step1*step2;
sums use numpy's pairwise reduction, so results do not depend on thread
count.  Every rule that a signal must lie on a given grid is
``_check_axes``, which raises ShapeError naming both grids.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, ShapeError
from .quaternion import qconj, qmul, quat, unit_exp

__all__ = [
    "Axis",
    "GridSignal2D",
    "frequency_axis",
    "inner_product",
    "l2_norm",
    "pointwise_mul",
    "gaussian_signal",
    "chirp_signal",
    "impulse_signal",
    "translate_window",
]

# Axis.is_symmetric's tolerance on the centre, relative to the axis length
_SYMMETRY_TOL = 1e-9


def _check_count(n):
    """An axis's sample count: an integer of at least 2."""
    if not (isinstance(n, numbers.Integral) and n >= 2):
        raise ParameterError(f"axis needs an integer count of at least 2 samples, got {n!r}")


@dataclass(frozen=True)
class Axis:
    """A uniformly sampled coordinate axis: coordinate(k) = min + k*step."""

    n: int
    min: float
    step: float

    def __post_init__(self):
        _check_count(self.n)
        if not math.isfinite(self.min):
            raise ParameterError(f"axis min must be finite, got {self.min}")
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ParameterError(f"axis step must be positive and finite, got {self.step}")

    @classmethod
    def centered(cls, n, extent):
        """Half-bin offset axis covering [-extent, extent) with n samples."""
        _check_count(n)
        if not (extent > 0 and math.isfinite(extent)):
            raise ParameterError(f"extent must be positive and finite, got {extent}")
        step = 2.0 * extent / n
        if not math.isfinite(step):
            raise ParameterError(f"extent {extent} is too large: the step 2*extent/n overflows")
        return cls(n, -extent + step / 2.0, step)

    @property
    def coords(self):
        return self.min + self.step * np.arange(self.n)

    def is_symmetric(self):
        """True when the sample set is mirror symmetric about 0."""
        center = self.min + (self.n - 1) * self.step / 2.0
        return abs(center) <= _SYMMETRY_TOL * self.step * self.n


def frequency_axis(ax: Axis, bandwidth_scale: float = 1.0) -> Axis:
    """Reciprocal axis with step 2*pi*scale/(n*step), centered, half-bin.

    Pairing an axis with its reciprocal axis makes the discrete forward
    and inverse transforms exact mutual inverses on the grid.
    """
    step_w = 2.0 * np.pi * bandwidth_scale / (ax.n * ax.step)
    return Axis(ax.n, -ax.n * step_w / 2.0 + step_w / 2.0, step_w)


@dataclass
class GridSignal2D:
    """Quaternion samples over (ax1 x ax2); data shape (n1, n2, 4)."""

    ax1: Axis
    ax2: Axis
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.ax1.n, self.ax2.n, 4):
            raise ShapeError(
                f"data shape {self.data.shape} does not match axes "
                f"({self.ax1.n}, {self.ax2.n}, 4)"
            )
        if not np.isfinite(self.data).all():
            raise ParameterError("signal contains non-finite components")

    @property
    def cell_area(self):
        return self.ax1.step * self.ax2.step

    def copy(self):
        return GridSignal2D(self.ax1, self.ax2, self.data.copy())


def _check_axes(f, ax1, ax2, what):
    """The one grid-match rule: raise ShapeError unless f is sampled on (ax1, ax2).

    ``what`` says what does not match; the message adds both grids.
    """
    if f.ax1 != ax1 or f.ax2 != ax2:
        raise ShapeError(f"{what}: {f.ax1}, {f.ax2} against {ax1}, {ax2}")


def inner_product(f: GridSignal2D, g: GridSignal2D):
    """Quadrature inner product sum f(x) conj(g(x)) dA, a quaternion."""
    _check_axes(g, f.ax1, f.ax2, "signals are sampled on different grids")
    return np.sum(qmul(f.data, qconj(g.data)), axis=(0, 1)) * f.cell_area


def l2_norm(f: GridSignal2D) -> float:
    """sqrt of the energy sum |f(x)|^2 dA."""
    return float(np.sqrt(np.sum(f.data * f.data) * f.cell_area))


def pointwise_mul(f: GridSignal2D, g: GridSignal2D) -> GridSignal2D:
    """Cellwise Hamilton product f(x)*g(x)."""
    _check_axes(g, f.ax1, f.ax2, "signals are sampled on different grids")
    return GridSignal2D(f.ax1, f.ax2, qmul(f.data, g.data))


def _radius_sq(ax1, ax2):
    x1 = ax1.coords
    x2 = ax2.coords
    # a coordinate past about 1e154 squares to inf, which is |x|^2's limit
    with np.errstate(over="ignore"):
        return x1[:, None] ** 2 + x2[None, :] ** 2


def gaussian_signal(ax1, ax2, alpha, amplitude=None) -> GridSignal2D:
    """amplitude * exp(-alpha*|x|^2); amplitude is a quaternion, default 1.

    Samples whose envelope underflows are 0; an envelope that is 0 at
    every sample raises ParameterError.
    """
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ParameterError(f"gaussian width alpha must be positive and finite, got {alpha}")
    amplitude = quat(1.0) if amplitude is None else np.asarray(amplitude, dtype=float)
    if not np.isfinite(amplitude).all():
        raise ParameterError(f"gaussian amplitude must be finite, got {amplitude.tolist()}")
    with np.errstate(over="ignore"):
        envelope = np.exp(-alpha * _radius_sq(ax1, ax2))
    if not envelope.any():
        extents = ", ".join(f"{ax.n * ax.step / 2.0:g}" for ax in (ax1, ax2))
        raise ParameterError(f"gaussian exp(-alpha |x|^2) with alpha {alpha:g} on extents "
                             f"({extents}) is 0 at every sample")
    data = amplitude * envelope[:, :, None]
    return GridSignal2D(ax1, ax2, data)


def chirp_signal(ax1, ax2, rate1=0.0, rate2=0.0, freq1=0.0, freq2=0.0) -> GridSignal2D:
    """Unit-modulus quadratic chirp exp(i(r1 x1^2 + f1 x1)) exp(j(r2 x2^2 + f2 x2)).

    The left factor is an i-phase, the right a j-phase; their Hamilton
    product gives components (c1 c2, s1 c2, c1 s2, s1 s2).
    """
    x1 = ax1.coords
    x2 = ax2.coords
    left = unit_exp("i", rate1 * x1 * x1 + freq1 * x1)
    right = unit_exp("j", rate2 * x2 * x2 + freq2 * x2)
    data = qmul(left[:, None, :], right[None, :, :])
    return GridSignal2D(ax1, ax2, data)


def impulse_signal(ax1, ax2, k1, k2) -> GridSignal2D:
    """Discrete delta: value 1/(step1*step2) at cell (k1, k2), zero elsewhere."""
    if not (0 <= k1 < ax1.n and 0 <= k2 < ax2.n):
        raise ParameterError(f"impulse index ({k1}, {k2}) outside grid")
    data = np.zeros((ax1.n, ax2.n, 4))
    data[k1, k2, 0] = 1.0 / (ax1.step * ax2.step)
    return GridSignal2D(ax1, ax2, data)


def _aligned_shift(u, step, label):
    ratio = u / step
    shift = round(ratio)
    if abs(ratio - shift) > 1e-9:
        raise ParameterError(
            f"translation {label}={u} is not an integer multiple of the grid step {step}"
        )
    return int(shift)


def translate_window(phi: GridSignal2D, u) -> GridSignal2D:
    """Sample-shifted copy of phi: result(x) = phi(x - u), zero outside.

    The offsets must be integer multiples of the grid steps so the shift
    is exact; values pushed past the domain edge are dropped and the
    exposed cells filled with zeros.  It is the ST-QOLCT oracles' shift,
    kept apart from the fast paths' ``stqolct._translations`` on purpose.
    """
    u1, u2 = u
    m1 = _aligned_shift(u1, phi.ax1.step, "u1")
    m2 = _aligned_shift(u2, phi.ax2.step, "u2")
    n1, n2 = phi.ax1.n, phi.ax2.n
    out = np.zeros_like(phi.data)
    src1 = slice(max(0, -m1), min(n1, n1 - m1))
    src2 = slice(max(0, -m2), min(n2, n2 - m2))
    dst1 = slice(max(0, m1), min(n1, n1 + m1))
    dst2 = slice(max(0, m2), min(n2, n2 + m2))
    if src1.start < src1.stop and src2.start < src2.stop:
        out[dst1, dst2] = phi.data[src1, src2]
    return GridSignal2D(phi.ax1, phi.ax2, out)


def _memory_budget():
    """MemAvailable from /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def _check_memory(nbytes, what):
    """Raise ParameterError before a dense array of ``nbytes`` that the
    memory available (``_memory_budget``) cannot hold is allocated.

    Without swap, such an allocation ends in the OOM killer, not in an
    error.  Where the budget cannot be read there is no check.
    """
    budget = _memory_budget()
    if budget is not None and nbytes > budget:
        raise ParameterError(f"{what} needs {nbytes} bytes, over the memory budget of "
                             f"{budget} bytes (MemAvailable)")
