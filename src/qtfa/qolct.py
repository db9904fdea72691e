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
products.  ``mode="fast"`` factors each kernel into an input chirp, a
pure Fourier phase in x*w/b, and an output chirp, and reuses the fast
QFT engine on the rescaled frequency w/b (reversed index order when
b < 0, since the frequency grid is centered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .grid import Axis, GridSignal2D, frequency_axis
from .qft import _axis_apply_fast, check_reciprocal
from .quaternion import cayley_join, cayley_split, qconj, qmatmul, unit_exp

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


def _flip_w(arr, plan):
    # The Fourier engine fills the canonical grid w/b; for negative b the
    # node order reverses.  Grid axes are the last two.
    if plan.params1.b < 0:
        arr = arr[..., ::-1, :]
    if plan.params2.b < 0:
        arr = arr[..., :, ::-1]
    return arr


def qolct_forward_batch(data, plan: QolctPlan):
    """Fast forward transform of a (..., n1, n2, 4) stack."""
    chirp1, chirp2, pre1, pre2 = _complex_profiles(plan)
    za, zb = cayley_split(data)
    p = za + 1j * zb
    m = za - 1j * zb
    p *= chirp1[:, None] * chirp2[None, :]
    m *= chirp1[:, None] * chirp2[None, :].conj()
    nu1 = frequency_axis(plan.ax1)
    nu2 = frequency_axis(plan.ax2)
    p = _axis_apply_fast(p, plan.ax1, nu1, -1, axis=-2)
    p = _axis_apply_fast(p, plan.ax2, nu2, -1, axis=-1)
    m = _axis_apply_fast(m, plan.ax1, nu1, -1, axis=-2)
    m = _axis_apply_fast(m, plan.ax2, nu2, +1, axis=-1)
    p = _flip_w(p, plan) * (pre1[:, None] * pre2[None, :])
    m = _flip_w(m, plan) * (pre1[:, None] * pre2[None, :].conj())
    return cayley_join((p + m) / 2.0, (p - m) / 2.0j)


def qolct_inverse_batch(data, plan: QolctPlan):
    """Fast inverse transform of a (..., nw1, nw2, 4) stack."""
    chirp1, chirp2, pre1, pre2 = _complex_profiles(plan)
    za, zb = cayley_split(data)
    p = za + 1j * zb
    m = za - 1j * zb
    p *= pre1.conj()[:, None] * pre2.conj()[None, :]
    m *= pre1.conj()[:, None] * pre2[None, :]
    p = _flip_w(p, plan)
    m = _flip_w(m, plan)
    nu1 = frequency_axis(plan.ax1)
    nu2 = frequency_axis(plan.ax2)
    # Sums over w carry dw = |b| dnu per axis.
    weight = abs(plan.params1.b * plan.params2.b)
    p = _axis_apply_fast(p, nu1, plan.ax1, +1, axis=-2)
    p = _axis_apply_fast(p, nu2, plan.ax2, +1, axis=-1) * weight
    m = _axis_apply_fast(m, nu1, plan.ax1, +1, axis=-2)
    m = _axis_apply_fast(m, nu2, plan.ax2, -1, axis=-1) * weight
    p *= chirp1.conj()[:, None] * chirp2.conj()[None, :]
    m *= chirp1.conj()[:, None] * chirp2[None, :]
    return cayley_join((p + m) / 2.0, (p - m) / 2.0j)


def _twiddles(src: Axis, dst: Axis, sign):
    # sum_k exp(sign*i*dst_r*src_k) a_k src.step = post_r * DFT_sign(pre * a)_r
    k = np.arange(src.n)
    pre = np.exp(sign * 1j * dst.min * src.step * k)
    post = np.exp(sign * 1j * dst.coords * src.min) * src.step
    return pre, post


def _channel_planes(plan: QolctPlan, inverse=False):
    """Phase planes of the fast transform, one set per Cayley channel.

    Returns ``((in_p, out_p, signs_p), (in_m, out_m, signs_m))``: channel
    c transforms as ``out_c * dft2(in_c * x, signs_c)`` (see ``_dft2``).
    The chirps, FFT twiddles, kernel prefactors and |b| weights fold into
    the (n1, n2) planes.  The node reversal for negative b folds into the
    DFT exponent sign: w/b runs over the centered grid backwards, and
    exp(-i x w/b) at reversed nodes is exp(+i x nu) at forward ones.
    """
    chirp1, chirp2, pre1, pre2 = _complex_profiles(plan)
    nu1 = frequency_axis(plan.ax1)
    nu2 = frequency_axis(plan.ax2)
    sgn1 = math.copysign(1.0, plan.params1.b)
    sgn2 = math.copysign(1.0, plan.params2.b)
    channels = []
    # The right j-complex factors reach the p channel as e^(+i..) and the
    # m channel as e^(-i..).
    for chirp2_c, pre2_c, sigma in ((chirp2, pre2, 1.0), (chirp2.conj(), pre2.conj(), -1.0)):
        chirp = chirp1[:, None] * chirp2_c[None, :]
        pre = pre1[:, None] * pre2_c[None, :]
        if inverse:
            signs = (sgn1, sigma * sgn2)
            axes = ((nu1, plan.ax1), (nu2, plan.ax2))
            # Sums over w carry dw = |b| dnu per axis.
            head, tail = pre.conj(), chirp.conj() * abs(plan.params1.b * plan.params2.b)
        else:
            signs = (-sgn1, -sigma * sgn2)
            axes = ((plan.ax1, nu1), (plan.ax2, nu2))
            head, tail = chirp, pre
        tw1 = _twiddles(*axes[0], signs[0])
        tw2 = _twiddles(*axes[1], signs[1])
        channels.append((head * (tw1[0][:, None] * tw2[0][None, :]),
                         tail * (tw1[1][:, None] * tw2[1][None, :]), signs))
    return tuple(channels)


def _dft2(x, signs):
    """In-place unscaled DFT over the first two axes of a complex array.

    ``signs`` are the exponent signs for axes 0 and 1: -1 is numpy's
    forward FFT, +1 its inverse without the 1/n.
    """
    for axis, sign in ((1, signs[1]), (0, signs[0])):
        if sign < 0:
            np.fft.fft(x, axis=axis, out=x)
        else:
            np.fft.ifft(x, axis=axis, norm="forward", out=x)
    return x


def _check_mode(mode):
    if mode not in ("direct", "fast"):
        raise ParameterError(f"mode must be 'direct' or 'fast', got {mode!r}")


def qolct_forward(f: GridSignal2D, plan: QolctPlan, mode="fast") -> GridSignal2D:
    """Transform onto the plan's output grid."""
    _check_mode(mode)
    if f.ax1 != plan.ax1 or f.ax2 != plan.ax2:
        raise ShapeError("signal axes do not match the plan's spatial axes")
    if mode == "direct":
        kl = kernel_left(plan.params1, plan.ax1.coords[None, :], plan.w1.coords[:, None])
        kr = kernel_right(plan.params2, plan.ax2.coords[:, None], plan.w2.coords[None, :])
        data = qmatmul(kl, qmatmul(f.data, kr)) * f.cell_area
    else:
        data = qolct_forward_batch(f.data, plan)
    return GridSignal2D(plan.w1, plan.w2, data)


def qolct_inverse(F: GridSignal2D, plan: QolctPlan, mode="fast") -> GridSignal2D:
    """Inverse transform with the conjugate kernel pair and dw weights."""
    _check_mode(mode)
    if F.ax1 != plan.w1 or F.ax2 != plan.w2:
        raise ShapeError("signal axes do not match the plan's output axes")
    if mode == "direct":
        kl = qconj(kernel_left(plan.params1, plan.ax1.coords[:, None],
                               plan.w1.coords[None, :]))
        kr = qconj(kernel_right(plan.params2, plan.ax2.coords[None, :],
                                plan.w2.coords[:, None]))
        data = qmatmul(kl, qmatmul(F.data, kr)) * F.cell_area
    else:
        data = qolct_inverse_batch(F.data, plan)
    return GridSignal2D(plan.ax1, plan.ax2, data)
