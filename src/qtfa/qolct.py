"""Two-sided quaternion offset linear canonical transform.

Each axis carries a parameter sextet (a, b, c, d, p, q) with a*d - b*c = 1
and b != 0.  The left kernel is i-complex, the right kernel j-complex:

    K1(x, w) = (2*pi*|b|)^(-1/2) * e^(i * (phase(x, w)/(2b) - sgn(b)*pi/4))
    phase(x, w) = a x^2 - 2 x (w - p) - 2 w (d p - b q) + d (w^2 + p^2)

The prefactor 1/sqrt(2*pi*b*i) is taken at its principal value, which is
what makes |K| = (2*pi*|b|)^(-1/2) everywhere and gives the transform its
unit Plancherel constant.  The Fourier kernel pair is the special case
(a, b, c, d, p, q) = (0, 1, -1, 0, 0, 0) up to the constant e^(-i*pi/4)
factors; setting p = q = 0 gives the plain linear canonical kernels.

``mode="direct"`` is the sandwiched-kernel Riemann sum with Hamilton
products; it is the oracle the fast mode is tested against.
``mode="fast"`` factors each kernel into an input chirp, a pure Fourier
phase in x*w/b, and an output prefactor, and runs the split-channel
engine of ``qft`` with the chirps and prefactors as its 1-D profiles
(``_channel_profiles``).  Each plan computes its forward and inverse
profiles once, on first use, and caches them; the engine applies them
by broadcasting.  The Fourier phase runs on the canonical grid nu = w/b;
for b < 0 that grid is the centered output grid reversed, and the
reversal is the DFT's exponent sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError
from .grid import Axis, GridSignal2D, _check_axes, frequency_axis
from .qft import _MODES, _check_choice, _profiles, _transform, check_reciprocal
from .quaternion import qconj, qmatmul, unit_exp

__all__ = ["OlctParams", "QolctPlan", "kernel_left", "kernel_right",
           "qolct_forward", "qolct_inverse"]

_DET_TOL = 1e-12


@dataclass(frozen=True)
class OlctParams:
    """One axis's parameter sextet (a, b, c, d, p, q)."""

    a: float
    b: float
    c: float
    d: float
    p: float = 0.0
    q: float = 0.0

    def __post_init__(self):
        vals = (self.a, self.b, self.c, self.d, self.p, self.q)
        if not all(math.isfinite(v) for v in vals):
            raise ParameterError(f"parameters must be finite, got {vals}")
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > _DET_TOL:
            raise ParameterError(f"a*d - b*c must be 1, got {det!r}")
        if self.b == 0.0:
            raise ParameterError("b must be nonzero")

    @classmethod
    def from_text(cls, text):
        """Parse the comma-separated form 'a,b,c,d,p,q'."""
        parts = text.split(",")
        if len(parts) != 6:
            raise ParameterError(f"expected 6 comma-separated values, got {text!r}")
        try:
            values = [float(v) for v in parts]
        except ValueError:
            raise ParameterError(f"unparsable parameter text {text!r}") from None
        return cls(*values)

    def to_text(self):
        return ",".join(repr(v) for v in (self.a, self.b, self.c, self.d, self.p, self.q))


def _kernel_angle(params: OlctParams, x, w):
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    a, b, d, p, q = params.a, params.b, params.d, params.p, params.q
    phase = (a * x * x - 2.0 * x * (w - p) - 2.0 * w * (d * p - b * q)
             + d * (w * w + p * p)) / (2.0 * b)
    return phase - math.copysign(math.pi / 4.0, b)


def kernel_left(params: OlctParams, x, w):
    """i-complex kernel values at broadcastable (x, w)."""
    amp = 1.0 / math.sqrt(2.0 * math.pi * abs(params.b))
    return amp * unit_exp("i", _kernel_angle(params, x, w))


def kernel_right(params: OlctParams, x, w):
    """j-complex kernel values at broadcastable (x, w)."""
    amp = 1.0 / math.sqrt(2.0 * math.pi * abs(params.b))
    return amp * unit_exp("j", _kernel_angle(params, x, w))


@dataclass(frozen=True)
class QolctPlan:
    """Parameter pair plus spatial and output grids.

    Output axes use step_w = 2*pi*|b|/(n*step_x) per axis, centered with
    a half-bin offset, so the inverse transform is grid-exact.
    """

    params1: OlctParams
    params2: OlctParams
    ax1: Axis
    ax2: Axis
    w1: Axis
    w2: Axis

    def __post_init__(self):
        check_reciprocal(self.ax1, self.w1, abs(self.params1.b))
        check_reciprocal(self.ax2, self.w2, abs(self.params2.b))

    @classmethod
    def for_axes(cls, params1, params2, ax1, ax2):
        return cls(params1, params2, ax1, ax2,
                   frequency_axis(ax1, abs(params1.b)),
                   frequency_axis(ax2, abs(params2.b)))

    # The fast engine's profiles, computed on first use (see QftPlan).
    @cached_property
    def _forward_profiles(self):
        return _channel_profiles(self)

    @cached_property
    def _inverse_profiles(self):
        return _channel_profiles(self, inverse=True)


def _chirp_angle(params, x):
    return (params.a * x * x / 2.0 + x * params.p) / params.b


def _prefactor_angle(params, w):
    b, d, p, q = params.b, params.d, params.p, params.q
    return (-w * (d * p - b * q) / b
            + d * (w * w + p * p) / (2.0 * b)
            - math.copysign(math.pi / 4.0, b))


def _complex_profiles(plan):
    # i/j phase profiles in their complex channel representation: a left
    # i-complex factor multiplies both split channels alike; a right
    # j-complex factor multiplies the p channel and the conjugate the m
    # channel.  amp carries both kernel prefactor moduli.
    p1, p2 = plan.params1, plan.params2
    amp = 1.0 / math.sqrt(4.0 * math.pi**2 * abs(p1.b * p2.b))
    chirp1 = np.exp(1j * _chirp_angle(p1, plan.ax1.coords))
    chirp2 = np.exp(1j * _chirp_angle(p2, plan.ax2.coords))
    pre1 = amp * np.exp(1j * _prefactor_angle(p1, plan.w1.coords))
    pre2 = np.exp(1j * _prefactor_angle(p2, plan.w2.coords))
    return chirp1, chirp2, pre1, pre2


def _channel_profiles(plan: QolctPlan, inverse=False):
    """The plan's profiles for the split-channel engine (``qft._profiles``).

    The chirps, kernel prefactors and |b| weights are the 1-D profiles.
    The transform runs on the canonical grid nu = w/b, which for negative
    b runs over the centered grid backwards; the reversal folds into the
    DFT exponent sign, since exp(-i x w/b) at reversed nodes is
    exp(+i x nu) at forward ones.
    """
    chirp1, chirp2, pre1, pre2 = _complex_profiles(plan)
    spatial = (plan.ax1, plan.ax2)
    canonical = (frequency_axis(plan.ax1), frequency_axis(plan.ax2))
    sgn = (math.copysign(1.0, plan.params1.b), math.copysign(1.0, plan.params2.b))
    if inverse:
        # Sums over w carry dw = |b| dnu per axis.
        weight = abs(plan.params1.b * plan.params2.b)
        return _profiles(canonical, spatial, sgn, (pre1.conj(), pre2.conj()),
                         (chirp1.conj() * weight, chirp2.conj()))
    return _profiles(spatial, canonical, (-sgn[0], -sgn[1]), (chirp1, chirp2),
                     (pre1, pre2))


def qolct_forward_batch(data, plan: QolctPlan):
    """Fast forward transform of an (n1, n2, 4) array."""
    return _transform(data, plan._forward_profiles)


def qolct_inverse_batch(data, plan: QolctPlan):
    """Fast inverse transform of an (nw1, nw2, 4) array."""
    return _transform(data, plan._inverse_profiles)


def qolct_forward(f: GridSignal2D, plan: QolctPlan, mode="fast") -> GridSignal2D:
    """Transform onto the plan's output grid."""
    _check_choice("mode", mode, _MODES)
    _check_axes(f, plan.ax1, plan.ax2, "signal axes do not match the plan's spatial axes")
    if mode == "direct":
        # the oracle: kernel quadrature with Hamilton products
        kl = kernel_left(plan.params1, plan.ax1.coords[None, :], plan.w1.coords[:, None])
        kr = kernel_right(plan.params2, plan.ax2.coords[:, None], plan.w2.coords[None, :])
        data = qmatmul(kl, qmatmul(f.data, kr)) * f.cell_area
    else:
        data = qolct_forward_batch(f.data, plan)
    return GridSignal2D(plan.w1, plan.w2, data)


def qolct_inverse(F: GridSignal2D, plan: QolctPlan, mode="fast") -> GridSignal2D:
    """Inverse transform with the conjugate kernel pair and dw weights."""
    _check_choice("mode", mode, _MODES)
    _check_axes(F, plan.w1, plan.w2, "signal axes do not match the plan's output axes")
    if mode == "direct":
        # the oracle: kernel quadrature with Hamilton products
        kl = qconj(kernel_left(plan.params1, plan.ax1.coords[:, None],
                               plan.w1.coords[None, :]))
        kr = qconj(kernel_right(plan.params2, plan.ax2.coords[None, :],
                                plan.w2.coords[:, None]))
        data = qmatmul(kl, qmatmul(F.data, kr)) * F.cell_area
    else:
        data = qolct_inverse_batch(F.data, plan)
    return GridSignal2D(plan.ax1, plan.ax2, data)
