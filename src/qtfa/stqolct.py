"""Short-time (windowed) offset linear canonical transform.

For every window position u on a translation grid, the coefficient slice
S(., u) is the QOLCT of the modified signal f(x) * conj(phi(x - u)).  The
translation grid subsamples the spatial grid with an integer stride and
its nodes sit on integer multiples of the grid step, so every window
translation is an exact sample shift (no interpolation).

Three computation routes produce identical values (within roundoff):

* ``direct``      -- per-u kernel quadrature (the oracle; no FFT).
* ``via_qolct``   -- the row engine below (the fast route).
* ``via_qft``     -- reduction to the two-sided QFT: chirp-modulate the
                     modified signal, transform, read off the rescaled
                     frequency grid w/b, and apply the closed-form
                     output prefactors.

``direct`` and ``via_qft`` are deliberate second implementations: they are
the oracles the row engine is tested against, and they build each
modified signal with ``grid.translate_window``.

The row engine works in Cayley channel form throughout and computes the
field one u1 row at a time as a (nw1, nw2, nu2, 4) block.  It has two
window shapes:

* A factored window phi = q * a(x1) * b(x2), q a constant quaternion and
  a, b real (``_window_factors``; every Gaussian window, with a real or
  a quaternion amplitude).  Since f * conj(q a b) = (f * conj(q)) a b,
  q folds into the signal and each channel takes one real term.  The x2
  DFT commutes with a(x1 - u1), so ``_factored_engine`` builds, once per
  pass and channel, H(x1, w2, u2) = tail2 * DFT_x2[head1 head2
  b(x2 - u2) f'] (2 * n1 * n2 * nu2 complex: 1 MB at n=32, 8 MB at
  n=64, 67 MB at n=128, stride 1), and a row is one multiply by
  a(x1 - u1), one FFT along axis 0, the tail1 multiply and the join.
  The factor test takes the sample of largest modulus as the pivot: q is
  phi there, and a and b are the real coordinates of phi along q on the
  pivot's column and row.  The window counts as factored when q * a * b
  is within ``_FACTOR_ULPS`` (8) ulps of max |phi| of every sample; the
  misfit measured at most 1.8 ulps on sampled Gaussians (n = 8 to 128,
  real and quaternion amplitudes) and 2.6 on random rank-one windows.
* Any other window.  Signal and window are split once into their p/m
  channels; the product f * conj(phi) is then, per cell, a 2x2 complex
  matrix of window planes applied to the signal channels.  Only the
  planes that are not identically zero take part (``_window_terms``): a
  window without i and k parts, such as every real window, has a
  diagonal matrix and costs two plane products per row, a general
  quaternion window four.  The window planes are zero-padded once, so
  the planes of every translation are slices of one
  ``sliding_window_view``.  Per row, each channel then takes the QOLCT
  plan's profiles as phase planes built once per pass
  (``_phase_planes``), ``_dft2`` over both axes, and the channel join.

Both run the split-channel engine of ``qft`` on the QOLCT plan's cached
profiles.  The reconstruction (``_Reconstruction``) splits the same way:
a factored window takes one inverse FFT axis per row and the other once
per pass, any other window both axes per row.  The oracles run the same
code for both shapes.

Everything downstream consumes rows through one reducer protocol
(``_pass``): a reducer is a callable ``reducer(k, i1, buffers)`` that adds
row i1 (in ``buffers.block``) of chunk k into a partial sum of its own for
that chunk, or writes it into a slot of its own for that row.  A pass
cuts the u1 rows into ``_CHUNKS`` contiguous chunks, a count that does
not depend on the number of workers, and feeds each chunk's rows in
order.  A reducer adds its per-chunk sums in chunk order when its result
is read, so every sum is the same to the last bit whether the chunks run
on a pool or inline.  ``_pass`` alone decides which, from
the calling thread: on the main thread the chunks run on a pool of
``_max_workers()`` threads (``QTF_THREADS``); any other thread is
already a worker of some pool (verify's, or a caller's), so there they
run inline and pools never nest.  ``stqolct_forward`` copies the rows
into the dense (nw1, nw2, nu1, nu2, 4) field (about 540 MB at n=64,
stride 1).  The reducers (``_FieldSums`` for energy, sup modulus and the
w-marginal, ``_Reconstruction`` for the channel-native inverse)
accumulate over translations without a dense field, fed by the engine
(``_stream``); ``stqolct_reconstruct`` feeds ``_Reconstruction`` the rows
of a dense field (``_replay``).  A dense field's energy and w-marginal
need no pass: each (w1, w2) node's coefficients are one contiguous run,
reduced in place (``_dense_marginal``).  ``moyal_check`` builds its two
fields with ``stqolct_forward`` and takes their Gram sums as one matrix
product.  Identity checks (energy, Moyal, reconstruction) integrate over
all translations and therefore require stride 1.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError
from .grid import Axis, GridSignal2D, inner_product, l2_norm, translate_window
from .qft import (QftPlan, _check_mode, _check_signal_axes, _dft, _dft2, _join_channels,
                  _phase_planes, _split_channels, qft_forward)
from .qolct import OlctParams, QolctPlan, qolct_forward, qolct_inverse
from .quaternion import qconj, qmul, unit_exp

__all__ = [
    "StqolctPlan",
    "StqolctField",
    "MoyalResult",
    "modified_signal",
    "stqolct_forward",
    "stqolct_energy",
    "coefficient_slice",
    "moyal_check",
    "stqolct_reconstruct",
]

_ROUTES = ("direct", "via_qolct", "via_qft")

#: the u1 rows of a pass are cut into this many contiguous chunks whatever
#: the worker count, so sums added in chunk order do not depend on it
_CHUNKS = 8

#: a window is taken as q * a(x1) * b(x2) when that product is within this
#: many ulps of max |phi| of every sample (``_window_factors``)
_FACTOR_ULPS = 8


def _max_workers():
    """Worker count of verify's pool and of a main-thread row pass, from QTF_THREADS.

    A positive integer is the count; unset or 0 means the CPUs this
    process may run on, at most 4.
    """
    raw = os.environ.get("QTF_THREADS", "").strip()
    if raw and raw != "0":
        try:
            request = int(raw)
        except ValueError:
            raise ParameterError(f"QTF_THREADS must be an integer, got {raw!r}") from None
        if request < 0:
            raise ParameterError(f"QTF_THREADS must be nonnegative, got {request}")
        return max(1, request)
    if hasattr(os, "sched_getaffinity"):
        return min(4, len(os.sched_getaffinity(0)))
    return min(4, os.cpu_count() or 1)


def _chunks(n_rows):
    """The fixed contiguous u1 chunks of a pass; empty ones are skipped."""
    bounds = [n_rows * k // _CHUNKS for k in range(_CHUNKS + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _u_first(n, stride):
    """Sample shift of the first translation node, a multiple of the
    stride, so that node n // 2 // stride is u = 0."""
    return -(n // 2 // stride) * stride


def _u_axis(ax: Axis, stride: int) -> Axis:
    # Nodes at integer multiples of the spatial step (cell edges), so
    # every translation is sample-aligned; u = 0 is always on the grid.
    return Axis(ax.n // stride, _u_first(ax.n, stride) * ax.step, stride * ax.step)


@dataclass
class StqolctPlan:
    """Window, stride, and the underlying QOLCT plan."""

    qolct: QolctPlan
    window: GridSignal2D
    stride: int
    u1: Axis
    u2: Axis

    @classmethod
    def create(cls, params1, params2, ax1, ax2, window, stride=1):
        if window.ax1 != ax1 or window.ax2 != ax2:
            raise ShapeError("window must be sampled on the signal grid")
        if l2_norm(window) == 0.0:
            raise ParameterError("window must have nonzero norm")
        if not (isinstance(stride, int) and stride >= 1):
            raise ParameterError(f"stride must be a positive integer, got {stride!r}")
        if ax1.n % stride or ax2.n % stride:
            raise ParameterError(
                f"stride {stride} must divide the sample counts ({ax1.n}, {ax2.n})"
            )
        qplan = QolctPlan.for_axes(params1, params2, ax1, ax2)
        return cls(qplan, window.copy(), stride, _u_axis(ax1, stride), _u_axis(ax2, stride))

    @property
    def ax1(self):
        return self.qolct.ax1

    @property
    def ax2(self):
        return self.qolct.ax2

    def shift_counts(self, i1, i2):
        """Sample shifts of the window for translation-grid index (i1, i2)."""
        return (i1 * self.stride + _u_first(self.ax1.n, self.stride),
                i2 * self.stride + _u_first(self.ax2.n, self.stride))

    def translation(self, i1, i2):
        """The translation u at grid index (i1, i2)."""
        return self.u1.coords[i1], self.u2.coords[i2]


@dataclass
class StqolctField:
    """Dense coefficient stack indexed (w1, w2, u1, u2)."""

    w1: Axis
    w2: Axis
    u1: Axis
    u2: Axis
    params1: OlctParams
    params2: OlctParams
    data: np.ndarray = dataclass_field(repr=False)
    plan: StqolctPlan | None = None

    def __post_init__(self):
        expected = (self.w1.n, self.w2.n, self.u1.n, self.u2.n, 4)
        if self.data.shape != expected:
            raise ShapeError(f"field shape {self.data.shape}, expected {expected}")

    @property
    def cell_volume(self):
        return self.w1.step * self.w2.step * self.u1.step * self.u2.step


def modified_signal(f: GridSignal2D, window: GridSignal2D, u) -> GridSignal2D:
    """f(x) * conj(window(x - u)) for a grid-aligned translation u."""
    if not f.same_axes(window):
        raise ShapeError("signal and window are sampled on different grids")
    shifted = translate_window(window, u)
    return GridSignal2D(f.ax1, f.ax2, qmul(f.data, qconj(shifted.data)))


def _check_route(route):
    if route not in _ROUTES:
        raise ParameterError(f"route must be one of {_ROUTES}, got {route!r}")


def _window_terms(plan):
    """The nonzero planes of the per-cell 2x2 channel matrix of g = f * conj(phi).

    In channel form (p, m) of g is [[W_pp, W_pm], [W_mp, W_mm]] applied to
    the channels (f_p, f_m) of f; its conjugate transpose applies g * phi,
    which is what reconstruction needs.  Each nonzero plane is one term
    ``(out, in, plane)``: channel ``out`` (0 = p, 1 = m) of g gets
    ``plane * f_in``.  With phi = za + zb j, za = q0 + i q1 and
    zb = q2 + i q3, the off-diagonal planes are W_pm = Im zb - i Im za and
    W_mp = -conj(W_pm), so a window without i and k parts (every real
    window, and every window in span{1, j}) has only the two diagonal
    terms.  W_mm = conj(W_pp), and a nonzero window has a nonzero W_pp or
    W_pm, so each out channel gets at least one term.
    """
    phi_p, phi_m = _split_channels(plan.window.data)
    planes = np.stack([phi_m + phi_p.conj(), phi_m.conj() - phi_p,
                       phi_p.conj() - phi_m, phi_m.conj() + phi_p]) / 2.0
    return [(out, inp, plane) for (out, inp), plane in zip(((0, 0), (0, 1), (1, 0), (1, 1)),
                                                            planes)
            if plane.any()]


def _window_factors(plan):
    """(q, a, b) with phi = q * a(x1) * b(x2), q a quaternion and a, b real, or None.

    The pivot is the sample of largest modulus: q is phi there, r is each
    sample's real coordinate along q, <phi, q> / |q|^2, and a and b are
    r along the pivot's column and row, with b(pivot) = 1.  The window
    factors when q * a * b is within ``_FACTOR_ULPS`` ulps of max |phi|
    of every sample.
    """
    phi = plan.window.data
    sq = np.einsum("abc,abc->ab", phi, phi)
    k1, k2 = np.unravel_index(np.argmax(sq), sq.shape)
    q = phi[k1, k2]
    r = phi @ q / sq[k1, k2]
    a, b = r[:, k2], r[k1, :] / r[k1, k2]
    misfit = np.max(np.abs(phi - np.multiply.outer(np.outer(a, b), q)))
    if misfit > _FACTOR_ULPS * np.finfo(float).eps * math.sqrt(sq[k1, k2]):
        return None
    return q, a, b


def _translated(profile, stride, count):
    """(n, count): a 1-D profile at each of an axis's translations, zero outside.

    Column i is profile(x - u_i) for the shift ``_u_first + i * stride``
    of ``StqolctPlan.shift_counts``.
    """
    n = profile.shape[0]
    src = np.arange(n)[:, None] - (_u_first(n, stride) + stride * np.arange(count))
    return np.where((src >= 0) & (src < n), profile[src % n], 0.0)


class _Translations:
    """Planes over the spatial grid, zero-padded once so that their values
    at every window translation are slices of one sliding-window view."""

    def __init__(self, plan, planes):
        n1, n2 = plan.ax1.n, plan.ax2.n
        # Translation index i shifts by m = shift_counts(i) >= -(n//2)
        # samples; the shifted plane is pad[before - m : before - m + n].
        self._before = tuple(max(0, plan.shift_counts(plan.u1.n - 1, plan.u2.n - 1)[k])
                             for k in range(2))
        pad = np.zeros((len(planes), self._before[0] + n1 + n1 // 2,
                        self._before[1] + n2 + n2 // 2), dtype=complex)
        pad[:, self._before[0]:self._before[0] + n1,
            self._before[1]:self._before[1] + n2] = planes
        self._view = sliding_window_view(pad, (n1, n2), axis=(1, 2))
        self._plan = plan

    def row(self, i1):
        """Shape (planes, n1, n2, nu2): every plane at translations (i1, 0..nu2-1)."""
        plan = self._plan
        m1, m2 = plan.shift_counts(i1, 0)
        rows = self._view[:, self._before[0] - m1, self._before[1] - m2::-plan.stride]
        return rows[:, :plan.u2.n].transpose(0, 2, 3, 1)


class _Buffers:
    """One worker's scratch for a row pass, reused across its chunks.

    ``block`` holds the current (nw1, nw2, nu2, 4) row.  The row engine
    also uses the complex ``p``, ``m`` and ``tmp``; once the block is
    written, the reducers may use ``p``, ``m`` and the real ``sq``.
    """

    def __init__(self, shape):
        self.block = np.empty(shape + (4,))
        self.p, self.m, self.tmp = (np.empty(shape, dtype=complex) for _ in range(3))
        self.sq = np.empty(shape)


def _engine(f: GridSignal2D, plan: StqolctPlan):
    """The row engine of f: ``row(i1, buffers)`` computes translation row i1.

    A window that factors (``_window_factors``) runs ``_factored_engine``.
    For any other, the phase planes, the channel products and the window
    translations are built here, once per pass, and ``row`` only reads
    them.  Only the window's nonzero terms (``_window_terms``) are
    translated and applied: one multiply per term into its channel, so a
    real window costs two multiplies per row where a general quaternion
    window costs four and two adds.
    """
    _check_signal_axes(f, plan.ax1, plan.ax2, "spatial")
    factors = _window_factors(plan)
    if factors is not None:
        return _factored_engine(f, plan, *factors)
    planes = _phase_planes(plan.qolct._forward_profiles)
    terms = _window_terms(plan)
    f_chans = _split_channels(f.data[:, :, None])
    # per out channel, the (translation index, source product) of its
    # terms; the source of a term is in_out * f_in
    groups = ([], [])
    for k, (out, inp, _) in enumerate(terms):
        groups[out].append((k, planes[out][0][:, :, None] * f_chans[inp]))
    windows = _Translations(plan, np.stack([plane for _, _, plane in terms]))

    # Channels are laid out (w1, w2, u2) like the block, with the
    # translations of a row as the fastest axis.
    def row(i1, buffers):
        w = windows.row(i1)
        for chan, group, (_, tail, signs) in zip((buffers.p, buffers.m), groups, planes):
            (k, src), *rest = group
            np.multiply(w[k], src, out=chan)
            for k, src in rest:
                chan += np.multiply(w[k], src, out=buffers.tmp)
            _dft2(chan, signs)
            chan *= tail[:, :, None]
        _join_channels(buffers.p, buffers.m, out=buffers.block)

    return row


def _factored_engine(f: GridSignal2D, plan: StqolctPlan, q, a, b):
    """The row engine of f for the window q * a(x1) * b(x2), one FFT axis per row.

    f * conj(q a b) = (f * conj(q)) a b for real a and b, so q folds into
    the signal and each channel takes one real window term.  The x2 DFT
    commutes with a(x1 - u1), so per channel H(x1, w2, u2) = tail2 *
    DFT_x2[head1 head2 b(x2 - u2) f'] is built once per pass, and row
    i1 is tail1 * DFT_x1[a(x1 - u1) H]: one multiply, one FFT along
    axis 0, the tail1 multiply and the join.
    """
    a_rows = _translated(a, plan.stride, plan.u1.n)
    b_cols = _translated(b, plan.stride, plan.u2.n)
    profiles = plan.qolct._forward_profiles
    hs = []
    for chan, ch in zip(_split_channels(qmul(f.data, qconj(q))), profiles):
        h = (ch.head1[:, None] * ch.head2 * chan)[:, :, None] * b_cols
        _dft(h, 1, ch.signs[1])
        h *= ch.tail2[:, None]
        hs.append(h)
    # head1, tail1 and the first axis's sign are the same in both channels
    tail1, sign1 = profiles[0].tail1[:, None, None], profiles[0].signs[0]

    def row(i1, buffers):
        column = a_rows[:, i1, None, None]
        for chan, h in zip((buffers.p, buffers.m), hs):
            np.multiply(h, column, out=chan)
            _dft(chan, 0, sign1)
            chan *= tail1
        _join_channels(buffers.p, buffers.m, out=buffers.block)

    return row


def _pass(shape, row, *reducers):
    """Feed every u1 row of a (nw1, nw2, nu1, nu2) field to the reducers.

    ``row(i1, buffers)`` writes row i1 into ``buffers.block``; each
    reducer is then called as ``reducer(k, i1, buffers)``, where k is the
    index of i1's chunk in ``_chunks``.  Each chunk feeds its rows in
    order.  On the main thread the chunks run on a pool of
    ``_max_workers()`` threads; on any other thread, such as a task of
    verify's pool or of a caller's, they run inline, so pools never nest.
    A chunk runs on one worker at a time, so a reducer's sum for chunk k
    has one writer.  The calling thread allocates one ``_Buffers`` per
    worker; a worker takes a set from a queue for each chunk and puts it
    back.  (A buffer that a worker thread allocates and frees stays
    behind in that thread's malloc arena.)
    """
    chunks = _chunks(shape[2])
    workers = 1
    if threading.current_thread() is threading.main_thread():
        workers = min(_max_workers(), len(chunks))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as executor:
        free = queue.SimpleQueue()
        for _ in range(workers):
            free.put(_Buffers(shape[:2] + shape[3:]))

        def run(k):
            buffers = free.get()
            try:
                for i1 in chunks[k]:
                    row(i1, buffers)
                    for reducer in reducers:
                        reducer(k, i1, buffers)
            finally:
                free.put(buffers)

        # consuming the results re-raises a worker's exception here
        list((map if executor is None else executor.map)(run, range(len(chunks))))


def _field_shape(plan: StqolctPlan):
    return plan.qolct.w1.n, plan.qolct.w2.n, plan.u1.n, plan.u2.n


def _stream(f: GridSignal2D, plan: StqolctPlan, *reducers):
    """One pass of the row engine over f; no dense field is built."""
    _pass(_field_shape(plan), _engine(f, plan), *reducers)


def _replay(field: StqolctField, *reducers):
    """One pass over the rows of a dense field."""
    # One strided copy per row beats strided reads in every reducer.
    _pass(field.data.shape[:4],
          lambda i1, buffers: np.copyto(buffers.block, field.data[:, :, i1]), *reducers)


def _via_qft_single(g: GridSignal2D, qplan: QolctPlan, qft_plan: QftPlan):
    # An oracle, kept apart from the engine's profiles on purpose: the
    # reduction to the QFT in Hamilton form.  Chirp in x, transform,
    # rescale the frequency argument to w/b (reversing the nodes for
    # negative b), then the closed-form output phases.
    p1, p2 = qplan.params1, qplan.params2
    x1, x2 = qplan.ax1.coords, qplan.ax2.coords
    c1 = unit_exp("i", (p1.a * x1 * x1 / 2.0 + x1 * p1.p) / p1.b)
    c2 = unit_exp("j", (p2.a * x2 * x2 / 2.0 + x2 * p2.p) / p2.b)
    h = GridSignal2D(qplan.ax1, qplan.ax2,
                     qmul(c1[:, None, :], qmul(g.data, c2[None, :, :])))
    spectrum = qft_forward(h, qft_plan, mode="fast").data
    if p1.b < 0:
        spectrum = spectrum[::-1, :, :]
    if p2.b < 0:
        spectrum = spectrum[:, ::-1, :]
    w1v, w2v = qplan.w1.coords, qplan.w2.coords
    amp1 = 1.0 / math.sqrt(2.0 * math.pi * abs(p1.b))
    amp2 = 1.0 / math.sqrt(2.0 * math.pi * abs(p2.b))
    g1 = amp1 * unit_exp("i", -w1v * (p1.d * p1.p - p1.b * p1.q) / p1.b
                         + p1.d * (w1v * w1v + p1.p * p1.p) / (2.0 * p1.b)
                         - math.copysign(math.pi / 4.0, p1.b))
    g2 = amp2 * unit_exp("j", -w2v * (p2.d * p2.p - p2.b * p2.q) / p2.b
                         + p2.d * (w2v * w2v + p2.p * p2.p) / (2.0 * p2.b)
                         - math.copysign(math.pi / 4.0, p2.b))
    return qmul(g1[:, None, :], qmul(spectrum, g2[None, :, :]))


def stqolct_forward(f: GridSignal2D, plan: StqolctPlan, route="via_qolct") -> StqolctField:
    """Coefficient field S(w, u) over the full translation grid."""
    _check_route(route)
    _check_signal_axes(f, plan.ax1, plan.ax2, "spatial")
    qplan = plan.qolct
    out = np.empty(_field_shape(plan) + (4,))
    if route == "via_qolct":
        def keep(k, i1, buffers):
            out[:, :, i1] = buffers.block

        _stream(f, plan, keep)
    else:
        # the oracles: one modified signal and one transform per translation
        qft_plan = QftPlan.for_axes(plan.ax1, plan.ax2)
        for i1 in range(plan.u1.n):
            for i2 in range(plan.u2.n):
                g = modified_signal(f, plan.window, plan.translation(i1, i2))
                if route == "direct":
                    out[:, :, i1, i2] = qolct_forward(g, qplan, mode="direct").data
                else:
                    out[:, :, i1, i2] = _via_qft_single(g, qplan, qft_plan)
    return StqolctField(qplan.w1, qplan.w2, plan.u1, plan.u2,
                        qplan.params1, qplan.params2, out, plan)


class _FieldSums:
    """|S|^2 reductions of a streamed field, a ``_pass`` reducer.

    ``energy`` is the quadrature sum of |S|^2, ``sup`` the largest |S|,
    ``w_marginal`` the u-integrated |S|^2 on the (w1, w2) grid (cells of
    area ``w_cell``), and ``u_energy`` the w-summed |S|^2 per translation
    (no cell weights).  Only the marginal is summed over rows, so only it
    keeps one sum per chunk; the per-row sums and peaks go to disjoint
    rows.  A dense field needs no pass for its energy and marginal
    (``_dense_marginal``).
    """

    def __init__(self, plan: StqolctPlan):
        w1, w2, u1, u2 = plan.qolct.w1, plan.qolct.w2, plan.u1, plan.u2
        self.w_cell = w1.step * w2.step
        self._volume = self.w_cell * u1.step * u2.step
        self._du = u1.step * u2.step
        self._marginals = np.zeros((_CHUNKS, w1.n, w2.n))
        self.u_energy = np.zeros((u1.n, u2.n))
        self._peaks = np.zeros(u1.n)

    def __call__(self, k, i1, buffers):
        sq = np.einsum("abuc,abuc->abu", buffers.block, buffers.block, out=buffers.sq)
        self._marginals[k] += sq.sum(axis=2)
        self.u_energy[i1] = sq.sum(axis=(0, 1))
        self._peaks[i1] = sq.max()

    @property
    def energy(self):
        return float(np.sum(self.u_energy)) * self._volume

    @property
    def sup(self):
        return math.sqrt(float(self._peaks.max()))

    @property
    def w_marginal(self):
        return self._marginals.sum(axis=0) * self._du


def _dense_marginal(field: StqolctField):
    """Sum over translations of |S|^2 at each (w1, w2) node, no cell weights.

    The dense field is laid out (w1, w2, u1, u2, 4), so the coefficients
    of one node are one contiguous run and this is a single reduction
    over it: no row pass runs, and nothing depends on ``QTF_THREADS``.
    """
    flat = field.data.reshape(field.w1.n, field.w2.n, -1)
    return np.einsum("abk,abk->ab", flat, flat)


def stqolct_energy(field: StqolctField) -> float:
    """Quadrature sum of |S(w, u)|^2 over all four axes.

    With stride 1 this matches the signal/window energy product
    ||phi||^2 ||f||^2 up to boundary truncation of the window sum.
    """
    return float(np.sum(_dense_marginal(field))) * field.cell_volume


def coefficient_slice(field: StqolctField, i1, i2) -> GridSignal2D:
    """S(., u) at translation-grid index (i1, i2) as a frequency-domain signal."""
    return GridSignal2D(field.w1, field.w2, field.data[:, :, i1, i2, :].copy())


@dataclass
class MoyalResult:
    """Both sides of the windowed-transform inner product identity.

    ``lhs`` is the 4D quadrature inner product of the two coefficient
    fields.  The two products of signal and window inner products do not
    commute, so both orderings are reported; their scalar parts coincide
    with each other but, for general quaternion inputs, not necessarily
    with the scalar part of lhs.  Matching-pair specializations
    (phi == psi and/or f == g) are the asserted cases.
    """

    lhs: np.ndarray
    rhs: np.ndarray
    rhs_reversed: np.ndarray


def _conj_product_sum(gram):
    """sum a * conj(b) from the component sums gram[c, d] = sum a_c b_d."""
    g = gram
    return np.array([g[0, 0] + g[1, 1] + g[2, 2] + g[3, 3],
                     g[1, 0] - g[0, 1] + g[3, 2] - g[2, 3],
                     g[2, 0] - g[0, 2] + g[1, 3] - g[3, 1],
                     g[3, 0] - g[0, 3] + g[2, 1] - g[1, 2]])


def moyal_check(f, g, phi, psi, qplan: QolctPlan) -> MoyalResult:
    """Both sides of the Moyal identity for S_f^phi and S_g^psi.

    The left-hand side is the quadrature inner product sum S_f^phi
    conj(S_g^psi) dV of the two stride-1 fields, from their 4x4
    component sums taken as one matrix product.
    """
    fields = [stqolct_forward(sig, StqolctPlan.create(qplan.params1, qplan.params2,
                                                      qplan.ax1, qplan.ax2, win, stride=1))
              for sig, win in ((f, phi), (g, psi))]
    # both fields are contiguous, so the reshapes are views, not copies
    gram = fields[0].data.reshape(-1, 4).T @ fields[1].data.reshape(-1, 4)
    ip_fg = inner_product(f, g)
    ip_pp = inner_product(phi, psi)
    return MoyalResult(lhs=_conj_product_sum(gram) * fields[0].cell_volume,
                       rhs=qmul(ip_fg, ip_pp), rhs_reversed=qmul(ip_pp, ip_fg))


class _Reconstruction:
    """Channel-native inverse of the row engine, a ``_pass`` reducer.

    Each coefficient slice goes back through the inverse channel
    profiles; the result is weighted by the translated window (the
    conjugate transpose of the forward window matrix) and summed over
    translations.  The caller checks that the translation grid has
    stride 1.  The two window shapes of the row engine take two paths:

    * A factored window phi = q * a(x1) * b(x2) (``_window_factors``).
      Since sum g * phi = (sum a b g) * q for real a and b, q comes out
      of the sum on the right and each channel takes one real weight.
      Row i1 gets the inverse heads, one FFT along w2 and the
      contraction over u2 with tail2(x2) * b(x2 - u2); the result is
      column i1 of the channel's C(w1, x2, u1).  ``result`` then runs one
      FFT along w1 on C, contracts over u1 with a(x1 - u1), applies
      tail1, joins the channels and right-multiplies by q.  C holds
      2 * nw1 * n2 * nu1 complex: 3.5 MB at n=48, 8.4 MB at n=64 and
      67 MB at n=128.  Each row writes only its own column, so nothing
      is summed per chunk and the result does not depend on the worker
      count.
    * Any other window.  Each slice goes through both inverse FFT axes,
      and only the window's nonzero terms (``_window_terms``) are
      summed, each into one (n1, n2) sum per chunk.

    The profiles, planes and window translations are built once and only
    read by the calls.
    """

    def __init__(self, plan: StqolctPlan):
        self._plan = plan
        self._planes = _phase_planes(plan.qolct._inverse_profiles)
        self._factors = _window_factors(plan)
        if self._factors is not None:
            _, a, b = self._factors
            profiles = plan.qolct._inverse_profiles
            self._a_rows = _translated(a, plan.stride, plan.u1.n)
            b_cols = _translated(b, plan.stride, plan.u2.n)
            self._b_weights = [ch.tail2[:, None] * b_cols for ch in profiles]
            self._columns = np.empty((2, plan.qolct.w1.n, plan.ax2.n, plan.u1.n),
                                     dtype=complex)
            return
        terms = _window_terms(plan)
        self._windows = _Translations(plan, np.stack([plane.conj() for _, _, plane in terms]))
        self._terms = [(out, inp) for out, inp, _ in terms]
        self._sums = np.zeros((len(terms), _CHUNKS, plan.ax1.n, plan.ax2.n), dtype=complex)

    def __call__(self, k, i1, buffers):
        chans = _split_channels(buffers.block, out=(buffers.p, buffers.m))
        if self._factors is not None:
            for chan, (head, _, signs), weight, columns in zip(
                    chans, self._planes, self._b_weights, self._columns):
                chan *= head[:, :, None]
                _dft(chan, 1, signs[1])
                np.einsum("abu,bu->ab", chan, weight, out=columns[:, :, i1])
            return
        for chan, (head, _, signs) in zip(chans, self._planes):
            chan *= head[:, :, None]
            _dft2(chan, signs)
        w = self._windows.row(i1)
        for t, (out, _) in enumerate(self._terms):
            # term (out, in) sums chan_out * conj(W) over u
            self._sums[t, k] += np.einsum("klu,klu->kl", chans[out], w[t])

    def result(self) -> GridSignal2D:
        plan = self._plan
        # the translation average du / ||phi||^2
        scale = plan.u1.step * plan.u2.step / l2_norm(plan.window) ** 2
        if self._factors is not None:
            # tail1 and the first axis's sign are the same in both channels;
            # the FFT runs on a copy, so that the result can be read again
            ch = plan.qolct._inverse_profiles[0]
            p, m = (ch.tail1[:, None] * np.einsum("abu,au->ab",
                                                  _dft(columns.copy(), 0, ch.signs[0]),
                                                  self._a_rows)
                    for columns in self._columns)
            return GridSignal2D(plan.ax1, plan.ax2,
                                qmul(_join_channels(p, m), self._factors[0]) * scale)
        tails = [tail for _, tail, _ in self._planes]
        rec = np.zeros((2, plan.ax1.n, plan.ax2.n), dtype=complex)
        for (out, inp), sums in zip(self._terms, self._sums):
            rec[inp] += tails[out] * sums.sum(axis=0)
        return GridSignal2D(plan.ax1, plan.ax2, _join_channels(rec[0], rec[1]) * scale)


def stqolct_reconstruct(field: StqolctField, mode="fast") -> GridSignal2D:
    """Resynthesize the signal from a stride-1 coefficient field.

    Applies the conjugate kernels to every coefficient slice, weights by
    the translated window, and averages over translations with the
    window's squared norm.
    """
    _check_mode(mode)
    plan = field.plan
    if plan is None:
        raise ParameterError(
            "field carries no plan; reconstruction needs the window and spatial grid"
        )
    if plan.stride != 1:
        raise ParameterError("reconstruction requires a stride-1 translation grid")
    if mode == "fast":
        rec = _Reconstruction(plan)
        _replay(field, rec)
        return rec.result()
    # the oracle: direct inverse quadrature of every slice
    acc = np.zeros((plan.ax1.n, plan.ax2.n, 4))
    for i1 in range(field.u1.n):
        for i2 in range(field.u2.n):
            g = qolct_inverse(coefficient_slice(field, i1, i2), plan.qolct, mode="direct")
            acc += qmul(g.data, translate_window(plan.window, plan.translation(i1, i2)).data)
    return GridSignal2D(plan.ax1, plan.ax2, acc * (field.u1.step * field.u2.step
                                                 / l2_norm(plan.window) ** 2))
