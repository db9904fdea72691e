"""Short-time (windowed) offset linear canonical transform.

For every window position u on a translation grid, the coefficient slice
S(., u) is the QOLCT of the modified signal f(x) * conj(phi(x - u)).  The
translation grid subsamples the spatial grid with an integer stride and
its nodes sit on integer multiples of the grid step, so every window
translation is an exact sample shift (no interpolation).  On an axis of
n samples, translation i shifts by m_i = (i - n // 2 // stride) * stride
samples (``StqolctPlan.shift_counts``), so node n // 2 // stride is
u = 0.  The fast paths and the window cover read every translated array
from one helper, ``_translations``.

Three computation routes produce identical values (within roundoff):

* ``direct``      -- per-u kernel quadrature (the oracle; no FFT).
* ``via_qolct``   -- the row engine below (the fast route).
* ``via_qft``     -- reduction to the two-sided QFT: chirp-modulate the
                     modified signal, transform, read off the rescaled
                     frequency grid w/b, and apply the closed-form
                     output prefactors.

``direct`` and ``via_qft`` are deliberate second implementations: they are
the oracles the row engine is tested against, and they build each
modified signal with ``grid.translate_window``, a shift of their own.

The row engine works in Cayley channel form throughout and computes the
field one u1 row at a time as its two complex channels p and m, each
(nw1, nw2, nu2), with the join's 1/2 folded into the tails: the row is
their join (``qft._join_channels``).  It has two window shapes, told
apart once per plan by the plan's window analysis:

* A factored window phi = q * a(x1) * b(x2), q a constant quaternion and
  a, b real (``StqolctPlan._factors``; every Gaussian window, with a
  real or a quaternion amplitude).  Since f * conj(q a b) = (f * conj(q)) a b,
  q folds into the signal and each channel takes one real term.  The x2
  DFT commutes with a(x1 - u1), so ``_factored_engine`` builds, once per
  pass, both channels of H(x1, w2, u2) = tail2 * DFT_x2[head1 head2
  b(x2 - u2) f'] in one array (2 * n1 * n2 * nu2 complex: 1 MB at n=32,
  8 MB at n=64, 67 MB at n=128, stride 1), and a row is one multiply by
  a(x1 - u1), one FFT along x1 and the tail1 multiply.  This engine
  alone also runs in w2 slabs: slab j multiplies H's w2 column j by
  a(x1 - u1) at every u1 and yields (nw1, nu1, nu2) channels, each
  element through the same multiply, FFT lane and tail as in its row,
  so both orders give the same field to the last bit.
  The factor test takes the sample of largest modulus as the pivot: q is
  phi there, and a and b are the real coordinates of phi along q on the
  pivot's column and row.  The window counts as factored when q * a * b
  is within ``_FACTOR_ULPS`` (8) ulps of max |phi| of every sample; the
  misfit measured at most 1.8 ulps on sampled Gaussians (n = 8 to 128,
  real and quaternion amplitudes) and 2.6 on random rank-one windows.
* Any other window.  Signal and window are split once into their p/m
  channels; the product f * conj(phi) is then, per cell, a 2x2 complex
  matrix of window planes applied to the signal channels.  Only the
  planes that are not identically zero take part (``StqolctPlan._terms``): a
  window without i and k parts, such as every real window, has a
  diagonal matrix and costs two plane products per row, a general
  quaternion window four.  The planes of every translation are one
  view (``_translations``).  Per row, each channel then takes the QOLCT
  plan's profiles as phase planes built once per pass
  (``_phase_planes``), ``_dft2`` over both axes and the tail multiply.

Both run the split-channel engine of ``qft`` on the QOLCT plan's cached
profiles.  The reconstruction (``_Reconstruction``) splits the same way:
a factored window takes one inverse FFT axis per row and the other once
per pass, any other window both axes per row.  The oracles run the same
code for both shapes.

Everything downstream consumes rows through one reducer protocol
(``_pass``): a reducer is a callable ``reducer(i1, buffers)`` that reads
row i1 from ``buffers.p`` and ``buffers.m`` and writes it into a slot of
its own for that row and nothing else; a result that sums over rows adds
the slots in row order when it is read.  The channels are the one row
format of a pass, and only the dense field's boundary converts: the
dense path's keep reducer joins them into ``buffers.block`` and copies
that, and a replay of a dense field splits half of each row (the split
of a join is twice its channels).  No sum is split by worker, so every
result is the same to the last bit whatever the number of workers.
``_pass`` alone decides where the rows run, from the calling thread: on
the main thread, on a pool of ``_max_workers()`` threads
(``QTF_THREADS``) that take the next row from a shared counter; any
other thread is already a worker of some pool (verify's, or a caller's),
so there they run inline and pools never nest.  ``stqolct_forward``
joins the rows into the dense (nw1, nw2, nu1, nu2, 4) field (about 540
MB at n=64, stride 1).  For a factored window its pass runs in w2 slabs
instead (``_pass`` with ``slabs``): a u1 row lands in the field as nw1 *
nw2 runs of nu2 coefficients (1 KB at n=32), a w2 slab as nw1 runs of
nu1 * nu2 (32 KB).  The reducers (``_FieldSums`` for energy, sup modulus
and the w-marginal, ``_Reconstruction`` for the channel-native inverse)
accumulate over translations without a dense field, fed by the engine
(``_stream``); ``stqolct_reconstruct`` feeds ``_Reconstruction`` the
rows of a dense field (``_replay``).  A dense field's energy and
w-marginal need no pass: each (w1, w2) node's coefficients are one
contiguous run, reduced in place (``_dense_marginal``).  ``moyal_check``
builds its two fields with ``stqolct_forward`` and sums their Gram
products in chunks of ``_GRAM_ROWS`` rows, in row order, and takes its
grid-exact right side from the window cover (``_window_cover``).
Identity checks (energy, Moyal, reconstruction) integrate over all
translations and therefore require stride 1; ``_check_stride1`` is that
rule's one home, for ``stqolct_reconstruct`` and the uncertainty checks
alike.

Spare field arrays.  ``stqolct_forward`` takes its output array from
``_field_array``.  Two callers build dense fields only to reduce them
and hand the arrays back through ``_discard``: ``moyal_check`` after its
Gram sums, and the dense-field fallback of ``uncertainty._w_marginal``
after its marginal.  Off the main thread, an array of at least
``_SPARE_BYTES`` (32 MiB) is kept as a spare of that thread, and the
next field of the same shape built on it reuses the array.  glibc's
malloc maps every block of 32 MiB or more afresh and unmaps it when it
is freed (its mmap threshold stops rising there), so without a spare
each such field is zeroed and faulted in again page by page; a smaller
array comes back from malloc's own free lists and is not kept.  A
thread holds at most ``_MAX_SPARES`` (the two fields of one
``moyal_check``); a new array of ``_SPARE_BYTES`` or more that no spare
fits frees the thread's spares before it is allocated, so a thread
never holds a spare of one size while building a field of another.
Spares live as long as their thread: verify's pool threads end when
``run_verification`` returns, and their spares with them.  The main
thread keeps none, so a caller's fields there are allocated and freed
as before.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ParameterError, ShapeError
from .grid import Axis, GridSignal2D, _check_axes, _check_memory, l2_norm, translate_window
from .qft import (_MODES, QftPlan, _check_choice, _dft, _dft2, _join_channels, _phase_planes,
                  _split_channels, qft_forward)
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

#: the computation routes of ``stqolct_forward``
_ROUTES = ("direct", "via_qolct", "via_qft")

#: a window is taken as q * a(x1) * b(x2) when that product is within this
#: many ulps of max |phi| of every sample (``StqolctPlan._factors``)
_FACTOR_ULPS = 8

#: rows of (4) floats per chunk of the Moyal Gram sums: 512 KiB an operand
_GRAM_ROWS = 1 << 14

#: a discarded field array is kept as a spare from this size on
#: (``_discard``); smaller ones come back from malloc's free lists
_SPARE_BYTES = 32 << 20

#: the most spares one thread holds: the two fields of one ``moyal_check``
_MAX_SPARES = 2

#: this thread's spare field arrays (``_field_array``, ``_discard``)
_spares = threading.local()


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


def _u_first(n, stride):
    """Sample shift of the first translation node, a multiple of the
    stride, so that node n // 2 // stride is u = 0."""
    return -(n // 2 // stride) * stride


def _u_axis(ax: Axis, stride: int) -> Axis:
    # Nodes at integer multiples of the spatial step (cell edges), so
    # every translation is sample-aligned; u = 0 is always on the grid.
    return Axis(ax.n // stride, _u_first(ax.n, stride) * ax.step, stride * ax.step)


@dataclass(frozen=True)
class StqolctPlan:
    """Window, stride, and the underlying QOLCT plan.

    Frozen, with a read-only window, so its cached analysis cannot go stale.
    """

    qolct: QolctPlan
    window: GridSignal2D
    stride: int
    u1: Axis
    u2: Axis

    @classmethod
    def create(cls, params1, params2, ax1, ax2, window, stride=1):
        _check_axes(window, ax1, ax2, "window must be sampled on the signal grid")
        if l2_norm(window) == 0.0:
            raise ParameterError("window must have nonzero norm")
        if not (isinstance(stride, numbers.Integral) and not isinstance(stride, bool)
                and stride >= 1):
            raise ParameterError(f"stride must be a positive integer, got {stride!r}")
        stride = int(stride)
        if ax1.n % stride or ax2.n % stride:
            raise ParameterError(
                f"stride {stride} must divide the sample counts ({ax1.n}, {ax2.n})"
            )
        if min(ax1.n, ax2.n) < 2 * stride:
            raise ParameterError(
                f"stride {stride} leaves fewer than 2 translations on an axis of "
                f"n = {min(ax1.n, ax2.n)} samples"
            )
        qplan = QolctPlan.for_axes(params1, params2, ax1, ax2)
        window = window.copy()
        window.data.setflags(write=False)
        return cls(qplan, window, stride, _u_axis(ax1, stride), _u_axis(ax2, stride))

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

    @cached_property
    def _factors(self):
        """(q, a, b) with phi = q * a(x1) * b(x2), q a quaternion and a, b real, or None.

        The pivot is the sample of largest modulus: q is phi there, r is each
        sample's real coordinate along q, <phi, q> / |q|^2, and a and b are
        r along the pivot's column and row, with b(pivot) = 1, returned at
        every translation (``_translations``).  The window factors when
        q * a * b is within ``_FACTOR_ULPS`` ulps of max |phi| of every sample.
        """
        phi = self.window.data
        sq = np.einsum("abc,abc->ab", phi, phi)
        k1, k2 = np.unravel_index(np.argmax(sq), sq.shape)
        q = phi[k1, k2]
        r = phi @ q / sq[k1, k2]
        a, b = r[:, k2], r[k1, :] / r[k1, k2]
        misfit = np.max(np.abs(phi - np.multiply.outer(np.outer(a, b), q)))
        if misfit > _FACTOR_ULPS * np.finfo(float).eps * math.sqrt(sq[k1, k2]):
            return None
        return q, _translations(self, a, (0,)), _translations(self, b, (1,))

    @cached_property
    def _terms(self):
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
        W_pm, so each out channel gets at least one term.  Planes are read-only.
        """
        phi_p, phi_m = _split_channels(self.window.data)
        planes = np.stack([phi_m + phi_p.conj(), phi_m.conj() - phi_p,
                           phi_p.conj() - phi_m, phi_m.conj() + phi_p]) / 2.0
        planes.setflags(write=False)
        return [(out, inp, plane) for (out, inp), plane in zip(np.ndindex(2, 2), planes)
                if plane.any()]


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
    _check_axes(window, f.ax1, f.ax2, "signal and window are sampled on different grids")
    shifted = translate_window(window, u)
    return GridSignal2D(f.ax1, f.ax2, qmul(f.data, qconj(shifted.data)))


def _check_stride1(plan, what):
    """The one stride-1 rule: ``what`` integrates over every translation."""
    if plan.stride != 1:
        raise ParameterError(f"{what} integrates over all translations and requires a "
                             f"stride-1 plan, got stride {plan.stride}")


def _translations(plan, values, axes):
    """``values`` at every translation of the plan along the spatial ``axes``.

    The trailing ``len(axes)`` axes of ``values`` are sampled on the
    spatial axes ``axes`` (0 for x1, 1 for x2).  The result has shape
    ``values.shape + (nu_k for k in axes)``; element [..., x, i] is
    values[..., x - m_i], m_i the sample shift of translation i
    (``shift_counts``), and 0 where x - m_i is off the grid.  It is a
    read-only view of one zero-padded copy of ``values``.
    """
    d = len(axes)
    first = [plan.shift_counts(0, 0)[k] for k in axes]
    last = [plan.shift_counts(plan.u1.n - 1, plan.u2.n - 1)[k] for k in axes]
    sizes = values.shape[-d:]
    # first <= 0 <= last: the samples start at pad index last, so window s
    # of the view is values[x + s - last] and translation i is window
    # last - m_i
    pad = np.zeros(values.shape[:-d] + tuple(n + hi - lo for n, lo, hi in zip(sizes, first, last)),
                   dtype=values.dtype)
    pad[(..., *(slice(hi, hi + n) for n, hi in zip(sizes, last)))] = values
    windows = sliding_window_view(pad, sizes, axis=tuple(range(-d, 0)))
    picked = windows[(..., *(slice(hi - lo, None, -plan.stride) for lo, hi in zip(first, last)),
                      *(slice(None),) * d)]
    return np.moveaxis(picked, range(-2 * d, -d), range(-d, 0))


def _window_cover(plan, density):
    """Sum over the plan's translations u of density(x - u) du, grid-exact.

    ``density`` holds (..., n1, n2) planes on the spatial grid, zero
    outside it as the translated windows are.  The identity's
    translations, summed, give one 0/1 band matrix per axis, the sample
    pairs (x, s) with x - s a translation's shift: the cover is
    band1 @ density @ band2.T.
    """
    # in C order: matmul's sums, to the last bit, follow the operands' layout
    band1, band2 = (np.ascontiguousarray(_translations(plan, np.eye(n), (k,)).sum(axis=-1).T)
                    for k, n in enumerate((plan.ax1.n, plan.ax2.n)))
    return band1 @ density @ band2.T * (plan.u1.step * plan.u2.step)


class _Buffers:
    """One worker's scratch for a pass, reused across the rows it takes.

    The complex ``chans``, whose two halves are the channels ``p`` and
    ``m``, hold the current row: a (nw1, nw2, nu2) u1 row, or a
    (nw1, nu1, nu2) w2 slab when ``slabs`` is set.  The engine also uses
    ``tmp``; the reducers may use the real ``sq``.  ``block`` is the
    dense boundary's quaternion form of the row, (..., 4): the keep
    reducer of ``stqolct_forward`` joins the channels into it, and
    ``_replay`` reads a dense row through it.
    """

    def __init__(self, shape, slabs=False):
        self.slabs = slabs
        self.block = np.empty(shape + (4,))
        self.chans = np.empty((2,) + shape, dtype=complex)
        self.p, self.m = self.chans
        self.tmp = np.empty(shape, dtype=complex)
        self.sq = np.empty(shape)


def _engine(f: GridSignal2D, plan: StqolctPlan):
    """The row engine of f: ``row(i1, buffers)`` computes translation row i1.

    A window that factors (``StqolctPlan._factors``) runs ``_factored_engine``,
    whose ``row`` also computes w2 slabs in a slab pass (``_pass``).
    For any other, the phase planes, the channel products and the window
    translations are built here, once per pass, and ``row`` only reads
    them.  Only the window's nonzero terms (``StqolctPlan._terms``) are
    translated and applied: one multiply per term into its channel, so a
    real window costs two multiplies per row where a general quaternion
    window costs four and two adds.
    """
    _check_axes(f, plan.ax1, plan.ax2, "signal axes do not match the plan's spatial axes")
    if plan._factors is not None:
        return _factored_engine(f, plan, *plan._factors)
    planes = _phase_planes(plan.qolct._forward_profiles)
    terms = plan._terms
    f_chans = _split_channels(f.data[:, :, None])
    # per out channel, the (translation index, source product) of its
    # terms; the source of a term is in_out * f_in
    groups = ([], [])
    for k, (out, inp, _) in enumerate(terms):
        groups[out].append((k, planes[out][0][:, :, None] * f_chans[inp]))
    windows = _translations(plan, np.stack([plane for _, _, plane in terms]), (0, 1))

    # Channels are laid out (w1, w2, u2) like the field's row, with the
    # translations of a row as the fastest axis.
    def row(i1, buffers):
        w = windows[..., i1, :]
        for chan, group, (_, tail, signs) in zip((buffers.p, buffers.m), groups, planes):
            (k, src), *rest = group
            np.multiply(w[k], src, out=chan)
            for k, src in rest:
                chan += np.multiply(w[k], src, out=buffers.tmp)
            _dft2(chan, signs)
            chan *= tail[:, :, None]

    return row


def _factored_engine(f: GridSignal2D, plan: StqolctPlan, q, a_rows, b_cols):
    """The engine of f for the window q * a(x1) * b(x2), one FFT axis per row.

    f * conj(q a b) = (f * conj(q)) a b for real a and b, so q folds into
    the signal and each channel takes one real window term.  The x2 DFT
    commutes with a(x1 - u1), so H(x1, w2, u2) = tail2 * DFT_x2[head1
    head2 b(x2 - u2) f'] is built once per pass, both channels in one
    (2, n1, nw2, nu2) array.  Both channels of u1 row i1 are then
    tail1 * DFT_x1[a(x1 - u1) H]: one multiply, one FFT along x1 and the
    tail1 multiply.  In a slab pass (``buffers.slabs``) step j takes H's
    w2 slab j against every a(x1 - u1) instead, and each element goes
    through the same multiply, FFT lane and tail as in its row.
    """
    profiles = plan.qolct._forward_profiles
    h = np.empty((2,) + f.data.shape[:2] + b_cols.shape[1:], dtype=complex)
    for hc, chan, ch in zip(h, _split_channels(qmul(f.data, qconj(q))), profiles):
        np.multiply((ch.head1[:, None] * ch.head2 * chan)[:, :, None], b_cols, out=hc)
        _dft(hc, 1, ch.signs[1])
        hc *= ch.tail2[:, None]
    # head1, tail1 and the first axis's sign are the same in both channels
    tail1, sign1 = profiles[0].tail1[:, None, None], profiles[0].signs[0]

    def row(k, buffers):
        if buffers.slabs:
            np.multiply(h[:, :, k, None, :], a_rows[:, :, None], out=buffers.chans)
        else:
            np.multiply(h, a_rows[:, k, None, None], out=buffers.chans)
        _dft(buffers.chans, 1, sign1)
        buffers.chans *= tail1

    return row


def _pass(shape, row, *reducers, slabs=False):
    """Feed every row along axis 2 of a 4-axis field ``shape`` to the reducers.

    The rows are the u1 rows of a (nw1, nw2, nu1, nu2) field, or with
    ``slabs`` the w2 slabs of its (nw1, nu1, nw2, nu2) permutation, which
    only the factored engine computes.  ``row(k, buffers)`` writes row k
    into the channels ``buffers.p`` and ``buffers.m``; each reducer is then
    called as ``reducer(k, buffers)``, in order, and reads them.  A reducer
    that overwrites the channels (``_Reconstruction``) comes last.  On the
    main thread one task per worker runs on a pool of ``_max_workers()``
    threads; on any other thread, such as a task of verify's pool or of a
    caller's, one task runs inline, so pools never nest.  Each task holds
    one ``_Buffers``, allocated by the calling thread (a buffer that a
    worker thread allocates and frees stays behind in that thread's malloc
    arena), and takes the next row from a shared counter until none is left.
    """
    rows, lock = iter(range(shape[2])), threading.Lock()
    workers = 1
    if threading.current_thread() is threading.main_thread():
        workers = min(_max_workers(), shape[2])

    def run(buffers):
        while True:
            with lock:
                k = next(rows, None)
            if k is None:
                return
            row(k, buffers)
            for reducer in reducers:
                reducer(k, buffers)

    buffers = [_Buffers(shape[:2] + shape[3:], slabs) for _ in range(workers)]
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as executor:
        # consuming the results re-raises a worker's exception here
        list((map if executor is None else executor.map)(run, buffers))


def _field_shape(plan: StqolctPlan):
    return plan.qolct.w1.n, plan.qolct.w2.n, plan.u1.n, plan.u2.n


def _field_array(shape):
    """An uninitialised float array: this thread's spare of that shape, if any.

    A new array of ``_SPARE_BYTES`` or more frees the thread's spares
    first; one over the memory budget raises ParameterError instead.
    """
    spares = getattr(_spares, "arrays", [])
    # a generator, so that no loop variable holds a spare past the clear
    match = next((k for k, spare in enumerate(spares) if spare.shape == shape), None)
    if match is not None:
        return spares.pop(match)
    nbytes = math.prod(shape) * np.dtype(float).itemsize
    if nbytes >= _SPARE_BYTES:
        spares.clear()
    _check_memory(nbytes, f"a dense ST-QOLCT field of shape {shape[:4]}")
    return np.empty(shape)


def _discard(*fields):
    """Hand back the arrays of fields that no one reads again.

    Off the main thread, each array of ``_SPARE_BYTES`` or more becomes
    one of the thread's spares, the newest ``_MAX_SPARES`` kept.
    """
    if threading.current_thread() is threading.main_thread():
        return
    spares = _spares.__dict__.setdefault("arrays", [])
    spares.extend(fld.data for fld in fields if fld.data.nbytes >= _SPARE_BYTES)
    del spares[:-_MAX_SPARES]


def _stream(f: GridSignal2D, plan: StqolctPlan, *reducers):
    """One pass of the row engine over f; no dense field is built."""
    _pass(_field_shape(plan), _engine(f, plan), *reducers)


def _replay(field: StqolctField, *reducers):
    """One pass over the rows of a dense field."""
    # One strided read per row, halved into the block (a join carries the
    # channels' 1/2, so the split of S/2 is the engine's channels), then
    # the split in place.
    _pass(field.data.shape[:4],
          lambda i1, buffers: _split_channels(
              np.multiply(field.data[:, :, i1], 0.5, out=buffers.block),
              out=(buffers.p, buffers.m)), *reducers)


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
    """Coefficient field S(w, u) over the full translation grid.

    A field over the memory budget raises ParameterError before it is
    allocated.
    """
    _check_choice("route", route, _ROUTES)
    _check_axes(f, plan.ax1, plan.ax2, "signal axes do not match the plan's spatial axes")
    qplan = plan.qolct
    out = _field_array(_field_shape(plan) + (4,))
    if route == "via_qolct":
        # a factored window's pass runs in w2 slabs, on axis 2 of ``rows``:
        # a slab lands in the field in runs nu1 times a u1 row's
        slabs = plan._factors is not None
        rows = np.moveaxis(out, 1, 2) if slabs else out

        def keep(k, buffers):
            rows[:, :, k] = _join_channels(buffers.p, buffers.m, out=buffers.block)

        _pass(rows.shape[:4], _engine(f, plan), keep, slabs=slabs)
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
    (no cell weights).  A row's |S|^2 is 2 (|p|^2 + |m|^2), read from its
    channels and not written to them.  Each row writes only its own
    slots: its u-summed |S|^2 on the (w1, w2) grid (nu1 * nw1 * nw2
    floats: 2 MB at n=64 and 16.8 MB at n=128, stride 1), its row of
    ``u_energy`` and its peak; ``w_marginal`` adds the marginal slots in
    row order.  A dense field needs no pass for its energy and marginal
    (``_dense_marginal``).
    """

    def __init__(self, plan: StqolctPlan):
        w1, w2, u1, u2 = plan.qolct.w1, plan.qolct.w2, plan.u1, plan.u2
        self.w_cell = w1.step * w2.step
        self._volume = self.w_cell * u1.step * u2.step
        self._du = u1.step * u2.step
        self._marginals = np.zeros((u1.n, w1.n, w2.n))
        self.u_energy = np.zeros((u1.n, u2.n))
        self._peaks = np.zeros(u1.n)

    def __call__(self, i1, buffers):
        # |S|^2 = |za|^2 + |zb|^2 = |p + m|^2 + |p - m|^2 = 2 (|p|^2 + |m|^2)
        z = buffers.chans.view(float).reshape(buffers.chans.shape + (2,))
        sq = np.einsum("cabuz,cabuz->abu", z, z, out=buffers.sq)
        sq *= 2.0
        sq.sum(axis=2, out=self._marginals[i1])
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
    fields, and ``rhs`` is R = sum f(x) C(x) conj(g(x)) dA with the
    window cover C(x) = sum_u conj(phi(x - u)) psi(x - u) du.  On the
    grid the 1 and i components of lhs equal those of R for any
    quaternion f, g, phi and psi; the j and k components do not follow
    from the identity (``moyal_check``).
    """

    lhs: np.ndarray
    rhs: np.ndarray


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
    component sums: one matrix product per chunk of ``_GRAM_ROWS``
    coefficients, which stays in cache, added in order.  Summed over w2, the
    right kernels of a translation give a delta on the grid; summed over
    w1, the left i-complex kernels do the same for the span{1, i} part
    of the product between them, but not for its j and k parts.  So the
    1 and i components of lhs are those of R = sum f C conj(g) dA, where
    C(x) = sum_u conj(phi(x - u)) psi(x - u) du is one band-matrix sum
    per component (``_window_cover``).
    """
    plans = [StqolctPlan.create(qplan.params1, qplan.params2, qplan.ax1, qplan.ax2, win,
                                stride=1) for win in (phi, psi)]
    fields = [stqolct_forward(sig, plan) for sig, plan in zip((f, g), plans)]
    # both fields are contiguous, so the reshapes are views, not copies
    a, b = (fld.data.reshape(-1, 4) for fld in fields)
    gram = sum(a[k:k + _GRAM_ROWS].T @ b[k:k + _GRAM_ROWS]
               for k in range(0, len(a), _GRAM_ROWS))
    _discard(*fields)
    density = np.moveaxis(qmul(qconj(phi.data), psi.data), -1, 0)
    cover = np.moveaxis(_window_cover(plans[0], density), 0, -1)
    rhs = np.sum(qmul(qmul(f.data, cover), qconj(g.data)), axis=(0, 1)) * f.cell_area
    return MoyalResult(lhs=_conj_product_sum(gram) * fields[0].cell_volume, rhs=rhs)


class _Reconstruction:
    """Channel-native inverse of the row engine, a ``_pass`` reducer.

    Each coefficient slice goes back through the inverse channel
    profiles; the result is weighted by the translated window (the
    conjugate transpose of the forward window matrix) and summed over
    translations.  The caller checks that the translation grid has
    stride 1.  Each call transforms the row's channels in place, so it
    is the last reducer of its pass; the inverse profiles carry the 1/2
    of a split of S, twice the channels, so ``result`` scales by 2.  The
    two window shapes of the row engine take two paths:

    * A factored window phi = q * a(x1) * b(x2) (``StqolctPlan._factors``).
      Since sum g * phi = (sum a b g) * q for real a and b, q comes out
      of the sum on the right and each channel takes one real weight.
      Row i1 gets the inverse heads, one FFT along w2 and the
      contraction over u2 with tail2(x2) * b(x2 - u2); the result is
      column i1 of the channel's C(w1, x2, u1).  ``result`` then runs one
      FFT along w1 on C, contracts over u1 with a(x1 - u1), applies
      tail1, joins the channels and right-multiplies by q.  C holds
      2 * nw1 * n2 * nu1 complex: 3.5 MB at n=48, 8.4 MB at n=64 and
      67 MB at n=128.  Column i1 is row i1's slot.
    * Any other window.  Each slice goes through both inverse FFT axes;
      each of the window's nonzero terms (``StqolctPlan._terms``) is summed
      over u2, weighted by its tail and added into row i1's slot, one
      (n1, n2) plane per channel (2 * nu1 * n1 * n2 complex: 67 MB at
      n=128, stride 1).  ``result`` adds the slots in row order.

    The profiles, planes and window translations are built once and only
    read by the calls; the window analysis is the plan's.
    """

    def __init__(self, plan: StqolctPlan):
        self._plan = plan
        self._planes = _phase_planes(plan.qolct._inverse_profiles)
        self._factors = plan._factors
        if self._factors is not None:
            b_cols = self._factors[2]
            self._b_weights = [ch.tail2[:, None] * b_cols for ch in plan.qolct._inverse_profiles]
            self._columns = np.empty((2, plan.qolct.w1.n, plan.ax2.n, plan.u1.n),
                                     dtype=complex)
            return
        terms = plan._terms
        self._windows = _translations(plan, np.stack([plane.conj() for _, _, plane in terms]),
                                      (0, 1))
        self._terms = [(out, inp) for out, inp, _ in terms]
        self._slots = np.empty((plan.u1.n, 2, plan.ax1.n, plan.ax2.n), dtype=complex)

    def __call__(self, i1, buffers):
        chans = buffers.p, buffers.m
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
        w = self._windows[..., i1, :]
        slot = self._slots[i1]
        slot.fill(0)
        for t, (out, inp) in enumerate(self._terms):
            # term (out, in) adds tail_out * sum over u of chan_out * conj(W)
            # to channel in
            slot[inp] += self._planes[out][1] * np.einsum("klu,klu->kl", chans[out], w[t])

    def result(self) -> GridSignal2D:
        plan = self._plan
        # the translation average du / ||phi||^2, times 2: the inverse
        # profiles carry the 1/2 of a split of S, which is twice the channels
        scale = 2.0 * plan.u1.step * plan.u2.step / l2_norm(plan.window) ** 2
        if self._factors is not None:
            # tail1 and the first axis's sign are the same in both channels;
            # the FFT runs on a copy, so that the result can be read again
            q, a_rows, _ = self._factors
            ch = plan.qolct._inverse_profiles[0]
            p, m = (ch.tail1[:, None] * np.einsum("abu,au->ab",
                                                  _dft(columns.copy(), 0, ch.signs[0]), a_rows)
                    for columns in self._columns)
            return GridSignal2D(plan.ax1, plan.ax2, qmul(_join_channels(p, m), q) * scale)
        p, m = self._slots.sum(axis=0)
        return GridSignal2D(plan.ax1, plan.ax2, _join_channels(p, m) * scale)


def stqolct_reconstruct(field: StqolctField, mode="fast") -> GridSignal2D:
    """Resynthesize the signal from a stride-1 coefficient field.

    Applies the conjugate kernels to every coefficient slice, weights by
    the translated window, and averages over translations with the
    window's squared norm.
    """
    _check_choice("mode", mode, _MODES)
    plan = field.plan
    if plan is None:
        raise ParameterError(
            "field carries no plan; reconstruction needs the window and spatial grid"
        )
    _check_stride1(plan, "reconstruction")
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
