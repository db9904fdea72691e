"""Two-sided quaternion Fourier transform, and the package's fast engine.

The transform sandwiches the signal between an i-exponential on the left
and a j-exponential on the right:

    F(w) = sum_x  e^(-i w1 x1) f(x) e^(-j w2 x2) dx1 dx2

``mode="direct"`` evaluates that Riemann sum with explicit Hamilton
products (no FFT anywhere); it is the oracle that everything else in the
package is checked against.

``mode="fast"`` runs the split-channel engine, which every fast transform
in the package shares (the QOLCT and the ST-QOLCT row engine included).
It writes f = za + zb*j and transforms the channels p = za + i*zb and
m = za - i*zb: a left i-complex factor multiplies both channels as an
ordinary complex scalar, while a right j-complex factor reaches p as
itself and m as its conjugate.  A transform whose kernels are a 1-D head
profile, a Fourier phase and a 1-D tail profile per axis is then, per
channel, ``out * dft2(in * channel)``: two complex 2D DFTs with opposite
sign on the second axis between precomputed phase planes
(``_phase_planes``).  The planes fold in the profiles, the FFT twiddles
(exact for any reciprocal pair of affine grids, step_w * step_x * n =
2*pi) and the 1/2 of the channel join.  The QFT is the case with unit
profiles.

Both modes are pure functions and may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError
from .grid import Axis, GridSignal2D, frequency_axis
from .quaternion import qmatmul, qnorm, unit_exp

__all__ = ["QftPlan", "qft_forward", "qft_inverse", "qft_modulus", "component_modulus"]


def check_reciprocal(x: Axis, w: Axis, scale: float = 1.0):
    """Validate that (x, w) form a reciprocal centered pair."""
    if w.n != x.n:
        raise ShapeError(f"frequency axis has {w.n} samples, spatial axis {x.n}")
    target = 2.0 * np.pi * scale
    if abs(w.step * x.step * x.n - target) > 1e-9 * target:
        raise ParameterError(
            "frequency axis is not reciprocal to the spatial axis "
            f"(step_w*step_x*n = {w.step * x.step * x.n}, expected {target})"
        )
    if not w.is_symmetric():
        raise ParameterError("frequency axis must be centered about 0")


@dataclass(frozen=True)
class QftPlan:
    """Spatial axes paired with their reciprocal frequency axes."""

    ax1: Axis
    ax2: Axis
    w1: Axis
    w2: Axis

    def __post_init__(self):
        check_reciprocal(self.ax1, self.w1)
        check_reciprocal(self.ax2, self.w2)

    @classmethod
    def for_axes(cls, ax1, ax2):
        return cls(ax1, ax2, frequency_axis(ax1), frequency_axis(ax2))


def _twiddles(src: Axis, dst: Axis, sign):
    # sum_k exp(sign*i*dst_r*src_k) a_k src.step = post_r * DFT_sign(pre * a)_r
    k = np.arange(src.n)
    pre = np.exp(sign * 1j * dst.min * src.step * k)
    post = np.exp(sign * 1j * dst.coords * src.min) * src.step
    return pre, post


def _phase_planes(src, dst, signs, heads, tails):
    """Phase planes of a split-channel transform, one set per channel.

    ``src`` and ``dst`` are (axis1, axis2) grid pairs, reciprocal per
    axis; ``signs`` are the p channel's DFT exponent signs; ``heads`` and
    ``tails`` are the (left, right) 1-D input and output profiles, i- and
    j-complex factors in their complex form (scalars broadcast).  Returns
    ``((in_p, out_p, signs_p), (in_m, out_m, signs_m))``: channel c
    transforms as ``out_c * dft2(in_c * c, signs_c)``.  A right
    j-complex factor reaches the m channel conjugated, so the m channel
    takes the conjugate right profiles and the opposite second-axis sign.
    The out planes carry the FFT twiddles and the channel join's 1/2.
    """
    pre1, post1 = _twiddles(src[0], dst[0], signs[0])
    head1 = heads[0] * pre1
    tail1 = tails[0] * post1 / 2.0
    channels = []
    for sign2, head2, tail2 in ((signs[1], heads[1], tails[1]),
                                (-signs[1], np.conj(heads[1]), np.conj(tails[1]))):
        pre2, post2 = _twiddles(src[1], dst[1], sign2)
        channels.append((np.outer(head1, head2 * pre2), np.outer(tail1, tail2 * post2),
                         (signs[0], sign2)))
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


def _split_channels(data):
    """(p, m) = (za + i zb, za - i zb) of q = za + zb j, over the last axis."""
    p = np.empty(data.shape[:-1], dtype=complex)
    m = np.empty_like(p)
    q0, q1, q2, q3 = (data[..., c] for c in range(4))
    np.subtract(q0, q3, out=p.real)
    np.add(q1, q2, out=p.imag)
    np.add(q0, q3, out=m.real)
    np.subtract(q1, q2, out=m.imag)
    return p, m


def _join_channels(p, m, out=None):
    """q = za + zb j with za = p + m, zb = (p - m)/i: the channels carry the 1/2."""
    if out is None:
        out = np.empty(p.shape + (4,))
    np.add(p.real, m.real, out=out[..., 0])
    np.add(p.imag, m.imag, out=out[..., 1])
    np.subtract(p.imag, m.imag, out=out[..., 2])
    np.subtract(m.real, p.real, out=out[..., 3])
    return out


def _transform(data, planes):
    """The split-channel transform of an (n1, n2, 4) array through ``planes``."""
    channels = _split_channels(data)
    for c, (head, tail, signs) in zip(channels, planes):
        c *= head
        _dft2(c, signs)
        c *= tail
    # drop the planes before the joined output exists
    del planes, head, tail
    return _join_channels(*channels)


def _check_mode(mode):
    # the one mode check of every transform with a direct oracle
    if mode not in ("direct", "fast"):
        raise ParameterError(f"mode must be 'direct' or 'fast', got {mode!r}")


def _check_signal_axes(f, ax1, ax2, what):
    if f.ax1 != ax1 or f.ax2 != ax2:
        raise ShapeError(f"signal axes do not match the plan's {what} axes")


def qft_forward(f: GridSignal2D, plan: QftPlan | None = None, mode="fast") -> GridSignal2D:
    """Transform onto the plan's frequency grid."""
    _check_mode(mode)
    if plan is None:
        plan = QftPlan.for_axes(f.ax1, f.ax2)
    _check_signal_axes(f, plan.ax1, plan.ax2, "spatial")
    if mode == "direct":
        # the oracle: kernel quadrature with Hamilton products
        kl = unit_exp("i", -np.outer(plan.w1.coords, plan.ax1.coords))
        kr = unit_exp("j", -np.outer(plan.ax2.coords, plan.w2.coords))
        data = qmatmul(kl, qmatmul(f.data, kr)) * f.cell_area
    else:
        data = _transform(f.data, _phase_planes((plan.ax1, plan.ax2), (plan.w1, plan.w2),
                                                (-1, -1), (1.0, 1.0), (1.0, 1.0)))
    return GridSignal2D(plan.w1, plan.w2, data)


def qft_inverse(F: GridSignal2D, plan: QftPlan, mode="fast") -> GridSignal2D:
    """Inverse transform back onto the plan's spatial grid.

    Applies the conjugate kernel pair with weight dw1*dw2/(2*pi)^2; on a
    reciprocal grid pair this is the exact inverse of qft_forward.
    """
    _check_mode(mode)
    _check_signal_axes(F, plan.w1, plan.w2, "frequency")
    norm = 1.0 / (4.0 * np.pi**2)
    if mode == "direct":
        # the oracle: kernel quadrature with Hamilton products
        kl = unit_exp("i", np.outer(plan.ax1.coords, plan.w1.coords))
        kr = unit_exp("j", np.outer(plan.w2.coords, plan.ax2.coords))
        data = qmatmul(kl, qmatmul(F.data, kr)) * (F.cell_area * norm)
    else:
        data = _transform(F.data, _phase_planes((plan.w1, plan.w2), (plan.ax1, plan.ax2),
                                                (1, 1), (1.0, 1.0), (norm, 1.0)))
    return GridSignal2D(plan.ax1, plan.ax2, data)


def qft_modulus(F: GridSignal2D):
    """Pointwise quaternion modulus |F(w)| as a real (n1, n2) array."""
    return qnorm(F.data)


def component_modulus(f: GridSignal2D, plan: QftPlan | None = None, mode="fast"):
    """Diagnostic modulus sqrt(sum_m |QFT[f_m]|^2) over component transforms.

    Each real component f_m transforms separately; because those
    transforms are quaternion-valued, this generally differs from the
    pointwise modulus of the assembled transform (they coincide for real
    signals).  Exposed for comparison only.
    """
    if plan is None:
        plan = QftPlan.for_axes(f.ax1, f.ax2)
    total = np.zeros((plan.w1.n, plan.w2.n))
    for m in range(4):
        comp = np.zeros_like(f.data)
        comp[..., 0] = f.data[..., m]
        Fm = qft_forward(GridSignal2D(f.ax1, f.ax2, comp), plan, mode=mode)
        total += np.sum(Fm.data * Fm.data, axis=-1)
    return np.sqrt(total)
