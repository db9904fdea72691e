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
channel, ``tail * dft2(head * channel)``: two complex 2D DFTs with
opposite sign on the second axis.  The profiles (``_profiles``) fold in
the FFT twiddles (exact for any reciprocal pair of affine grids,
step_w * step_x * n = 2*pi) and the 1/2 of the channel join.  Each plan
computes its profiles once, on first use, and caches them; the engine
applies them as in-place broadcast multiplies, one per axis, so a
one-shot transform never allocates an n1 x n2 phase plane.  The QFT is
the case with unit profiles.

Both modes are pure functions and may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError
from .grid import Axis, GridSignal2D, _check_axes, frequency_axis
from .quaternion import qmatmul, qnorm, unit_exp

__all__ = ["QftPlan", "qft_forward", "qft_inverse", "qft_modulus"]

#: the evaluation modes of every transform with a direct oracle
_MODES = ("direct", "fast")

#: the inverse QFT weight 1/(2*pi)^2
_INVERSE_NORM = 1.0 / (4.0 * np.pi**2)


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

    # The fast engine's profiles, computed on first use.  The plan is
    # frozen, so they never go stale; a thread that races another here
    # computes the same arrays and stores them only once they are whole.
    @cached_property
    def _forward_profiles(self):
        return _profiles((self.ax1, self.ax2), (self.w1, self.w2), (-1, -1),
                         (1.0, 1.0), (1.0, 1.0))

    @cached_property
    def _inverse_profiles(self):
        return _profiles((self.w1, self.w2), (self.ax1, self.ax2), (1, 1),
                         (1.0, 1.0), (_INVERSE_NORM, 1.0))


def _twiddles(src: Axis, dst: Axis, sign):
    # sum_k exp(sign*i*dst_r*src_k) a_k src.step = post_r * DFT_sign(pre * a)_r
    k = np.arange(src.n)
    pre = np.exp(sign * 1j * dst.min * src.step * k)
    post = np.exp(sign * 1j * dst.coords * src.min) * src.step
    return pre, post


class _Channel(NamedTuple):
    """One channel's 1-D profiles: c -> tail1 x tail2 * dft2(head1 x head2 * c, signs)."""

    head1: np.ndarray
    head2: np.ndarray
    tail1: np.ndarray
    tail2: np.ndarray
    signs: tuple


def _frozen(profile):
    # cached profiles are shared by every caller of the plan
    profile.setflags(write=False)
    return profile


def _profiles(src, dst, signs, heads, tails):
    """The 1-D profiles of a split-channel transform, one ``_Channel`` per channel.

    ``src`` and ``dst`` are (axis1, axis2) grid pairs, reciprocal per
    axis; ``signs`` are the p channel's DFT exponent signs; ``heads`` and
    ``tails`` are the (left, right) 1-D input and output profiles, i- and
    j-complex factors in their complex form (scalars broadcast).  Returns
    ``(p, m)``.  A right j-complex factor reaches the m channel
    conjugated, so the m channel takes the conjugate right profiles and
    the opposite second-axis sign.  The tails carry the FFT twiddles and
    the channel join's 1/2.  Every array has one axis's length.
    """
    pre1, post1 = _twiddles(src[0], dst[0], signs[0])
    head1 = _frozen(heads[0] * pre1)
    tail1 = _frozen(tails[0] * post1 / 2.0)
    channels = []
    for sign2, head2, tail2 in ((signs[1], heads[1], tails[1]),
                                (-signs[1], np.conj(heads[1]), np.conj(tails[1]))):
        pre2, post2 = _twiddles(src[1], dst[1], sign2)
        channels.append(_Channel(head1, _frozen(head2 * pre2), tail1,
                                 _frozen(tail2 * post2), (signs[0], sign2)))
    return tuple(channels)


def _phase_planes(profiles):
    """Each channel's ``(in, out, signs)``, its profiles as n1 x n2 planes.

    For a multi-pass caller (the ST-QOLCT row engine and its
    reconstruction) that applies them to many blocks; a one-shot
    transform broadcasts the profiles instead (``_transform``).
    """
    return tuple((np.outer(ch.head1, ch.head2), np.outer(ch.tail1, ch.tail2), ch.signs)
                 for ch in profiles)


def _dft(x, axis, sign):
    """In-place unscaled DFT along one axis of a complex array.

    ``sign`` is the exponent sign: -1 is numpy's forward FFT, +1 its
    inverse without the 1/n.
    """
    if sign < 0:
        np.fft.fft(x, axis=axis, out=x)
    else:
        np.fft.ifft(x, axis=axis, norm="forward", out=x)
    return x


def _dft2(x, signs):
    """In-place unscaled DFT over the first two axes, ``signs`` for axes 0 and 1."""
    _dft(x, 1, signs[1])
    return _dft(x, 0, signs[0])


def _split_channels(data, out=None):
    """(p, m) = (za + i zb, za - i zb) of q = za + zb j, over the last axis.

    ``out`` is an optional (p, m) pair of complex arrays to write into.
    """
    z = np.ascontiguousarray(data, dtype=float).view(complex)
    za, zb = z[..., 0], z[..., 1]
    p, m = out if out is not None else (np.empty(za.shape, dtype=complex),
                                        np.empty(za.shape, dtype=complex))
    np.multiply(zb, 1j, out=m)
    np.add(za, m, out=p)
    np.subtract(za, m, out=m)
    return p, m


def _join_channels(p, m, out=None):
    """q = za + zb j with za = p + m, zb = (p - m)/i: the channels carry the 1/2."""
    if out is None:
        out = np.empty(p.shape + (4,))
    z = out.view(complex)
    np.add(p, m, out=z[..., 0])
    zb = np.subtract(m, p, out=z[..., 1])
    zb *= 1j
    return out


def _transform(data, profiles):
    """The split-channel transform of an (n1, n2, 4) array through ``profiles``."""
    channels = _split_channels(data)
    for c, ch in zip(channels, profiles):
        c *= ch.head1[:, None]
        c *= ch.head2
        _dft2(c, ch.signs)
        c *= ch.tail1[:, None]
        c *= ch.tail2
    return _join_channels(*channels)


def _check_choice(name, value, choices):
    """The one membership check of a transform choice, over ``_MODES`` or ``stqolct._ROUTES``."""
    if value not in choices:
        raise ParameterError(f"{name} must be one of {choices}, got {value!r}")


def qft_forward(f: GridSignal2D, plan: QftPlan, mode="fast") -> GridSignal2D:
    """Transform onto the plan's frequency grid."""
    _check_choice("mode", mode, _MODES)
    _check_axes(f, plan.ax1, plan.ax2, "signal axes do not match the plan's spatial axes")
    if mode == "direct":
        # the oracle: kernel quadrature with Hamilton products
        kl = unit_exp("i", -np.outer(plan.w1.coords, plan.ax1.coords))
        kr = unit_exp("j", -np.outer(plan.ax2.coords, plan.w2.coords))
        data = qmatmul(kl, qmatmul(f.data, kr)) * f.cell_area
    else:
        data = _transform(f.data, plan._forward_profiles)
    return GridSignal2D(plan.w1, plan.w2, data)


def qft_inverse(F: GridSignal2D, plan: QftPlan, mode="fast") -> GridSignal2D:
    """Inverse transform back onto the plan's spatial grid.

    Applies the conjugate kernel pair with weight dw1*dw2/(2*pi)^2; on a
    reciprocal grid pair this is the exact inverse of qft_forward.
    """
    _check_choice("mode", mode, _MODES)
    _check_axes(F, plan.w1, plan.w2, "signal axes do not match the plan's frequency axes")
    if mode == "direct":
        # the oracle: kernel quadrature with Hamilton products
        kl = unit_exp("i", np.outer(plan.ax1.coords, plan.w1.coords))
        kr = unit_exp("j", np.outer(plan.w2.coords, plan.ax2.coords))
        data = qmatmul(kl, qmatmul(F.data, kr)) * (F.cell_area * _INVERSE_NORM)
    else:
        data = _transform(F.data, plan._inverse_profiles)
    return GridSignal2D(plan.ax1, plan.ax2, data)


def qft_modulus(F: GridSignal2D):
    """Pointwise quaternion modulus |F(w)| as a real (n1, n2) array."""
    return qnorm(F.data)
