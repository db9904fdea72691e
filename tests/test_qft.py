import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_signal, rectangular_axes
from qtfa import (Axis, GridSignal2D, OlctParams, QftPlan, QolctPlan, gaussian_signal,
                  chirp_signal, impulse_signal, l2_norm, pointwise_mul, qconj, qft_forward,
                  qft_inverse, qft_modulus, qmul, qolct_forward, qolct_inverse, quat,
                  unit_exp)
from qtfa.errors import ParameterError, ShapeError
from qtfa.qft import _join_channels, _split_channels


def quadruple_loop_qft(f, plan):
    """Literal four-nested-loop Riemann sum; the definitive oracle."""
    out = np.zeros((plan.w1.n, plan.w2.n, 4))
    for r, w1 in enumerate(plan.w1.coords):
        for s, w2 in enumerate(plan.w2.coords):
            acc = np.zeros(4)
            for k, x1 in enumerate(plan.ax1.coords):
                for l, x2 in enumerate(plan.ax2.coords):
                    term = qmul(unit_exp("i", -w1 * x1),
                                qmul(f.data[k, l], unit_exp("j", -w2 * x2)))
                    acc = acc + term
            out[r, s] = acc * f.cell_area
    return out


class TestForward:
    def test_direct_matches_quadruple_loop(self):
        ax = Axis.centered(8, 4.0)
        plan = QftPlan.for_axes(ax, ax)
        f = random_signal(ax, ax, seed=100)
        oracle = quadruple_loop_qft(f, plan)
        assert np.max(np.abs(qft_forward(f, plan, "direct").data - oracle)) < 1e-12
        assert np.max(np.abs(qft_forward(f, plan, "fast").data - oracle)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_fast_matches_direct(self, small_axes, seed):
        ax1, ax2 = small_axes
        plan = QftPlan.for_axes(ax1, ax2)
        f = random_signal(ax1, ax2, seed=seed)
        diff = np.max(np.abs(qft_forward(f, plan, "fast").data
                             - qft_forward(f, plan, "direct").data))
        assert diff < 1e-9

    def test_impulse_spectrum(self, small_axes):
        ax1, ax2 = small_axes
        plan = QftPlan.for_axes(ax1, ax2)
        k1, k2 = 3, 11
        F = qft_forward(impulse_signal(ax1, ax2, k1, k2), plan, "direct")
        assert np.max(np.abs(qft_modulus(F) - 1.0)) < 1e-12
        x1, x2 = ax1.coords[k1], ax2.coords[k2]
        expected = qmul(unit_exp("i", -plan.w1.coords * x1)[:, None, :],
                        unit_exp("j", -plan.w2.coords * x2)[None, :, :])
        assert np.max(np.abs(F.data - expected)) < 1e-12

    def test_gaussian_closed_form(self):
        # for exp(-|x|^2/2) the transform is 2*pi*exp(-|w|^2/2)
        ax = Axis.centered(128, 8.0)
        plan = QftPlan.for_axes(ax, ax)
        F = qft_forward(gaussian_signal(ax, ax, 0.5), plan)
        r_sq = plan.w1.coords[:, None] ** 2 + plan.w2.coords[None, :] ** 2
        expected = 2 * np.pi * np.exp(-r_sq / 2)
        mask = r_sq <= 16.0
        rel = np.abs(F.data[..., 0][mask] - expected[mask]) / expected[mask]
        assert np.max(rel) < 1e-6
        assert np.max(np.abs(F.data[..., 1:])) < 1e-9

    def test_mode_and_axis_validation(self, small_axes):
        ax1, ax2 = small_axes
        plan = QftPlan.for_axes(ax1, ax2)
        f = random_signal(ax1, ax2, seed=5)
        with pytest.raises(ParameterError):
            qft_forward(f, plan, mode="magic")
        other = Axis.centered(16, 2.0)
        with pytest.raises(ShapeError):
            qft_forward(random_signal(other, other, seed=5), plan)


class TestInverse:
    @pytest.mark.parametrize("alpha", [1.0])
    def test_gaussian_roundtrip(self, alpha):
        ax = Axis.centered(128, 8.0)
        plan = QftPlan.for_axes(ax, ax)
        f = gaussian_signal(ax, ax, alpha)
        back = qft_inverse(qft_forward(f, plan), plan)
        rel = np.sqrt(np.sum((back.data - f.data) ** 2) / np.sum(f.data**2))
        assert rel < 1e-8

    def test_chirp_roundtrip(self):
        ax = Axis.centered(128, 8.0)
        plan = QftPlan.for_axes(ax, ax)
        f = chirp_signal(ax, ax, rate1=0.25, rate2=0.25)
        back = qft_inverse(qft_forward(f, plan), plan)
        rel = np.sqrt(np.sum((back.data - f.data) ** 2) / np.sum(f.data**2))
        assert rel < 1e-6

    def test_zero_maps_to_zero(self, small_axes):
        ax1, ax2 = small_axes
        plan = QftPlan.for_axes(ax1, ax2)
        F = GridSignal2D(plan.w1, plan.w2, np.zeros((16, 16, 4)))
        assert np.array_equal(qft_inverse(F, plan).data, np.zeros((16, 16, 4)))

    def test_direct_inverse_matches_fast(self, small_axes):
        ax1, ax2 = small_axes
        plan = QftPlan.for_axes(ax1, ax2)
        F = qft_forward(random_signal(ax1, ax2, seed=77), plan)
        diff = np.max(np.abs(qft_inverse(F, plan, "direct").data
                             - qft_inverse(F, plan, "fast").data))
        assert diff < 1e-9


class TestPlancherel:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_gaussians(self, alpha):
        ax = Axis.centered(128, 8.0)
        plan = QftPlan.for_axes(ax, ax)
        f = gaussian_signal(ax, ax, alpha)
        F = qft_forward(f, plan)
        ratio = (np.sum(qft_modulus(F) ** 2) * F.cell_area
                 / (4 * np.pi**2 * l2_norm(f) ** 2))
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_chirp_gaussian_product(self):
        ax = Axis.centered(128, 8.0)
        plan = QftPlan.for_axes(ax, ax)
        f = pointwise_mul(chirp_signal(ax, ax, 0.4, -0.3, 1.0, 2.0),
                          gaussian_signal(ax, ax, 1.0))
        F = qft_forward(f, plan)
        ratio = (np.sum(qft_modulus(F) ** 2) * F.cell_area
                 / (4 * np.pi**2 * l2_norm(f) ** 2))
        assert ratio == pytest.approx(1.0, rel=1e-3)


def test_dilation_property():
    # shrinking the sampling grid by k while widening the gaussian by k^2
    # samples f(k x); transform values land on the same node indices
    n, extent, k = 128, 8.0, 2.0
    ax = Axis.centered(n, extent)
    ax_scaled = Axis.centered(n, extent / k)
    plan = QftPlan.for_axes(ax, ax)
    plan_scaled = QftPlan.for_axes(ax_scaled, ax_scaled)
    assert np.allclose(plan_scaled.w1.coords, k * plan.w1.coords, rtol=1e-12)
    F = qft_forward(gaussian_signal(ax, ax, 1.0), plan)
    G = qft_forward(gaussian_signal(ax_scaled, ax_scaled, k * k), plan_scaled)
    diff = k * k * G.data - F.data
    rel = np.sqrt(np.sum(diff**2) / np.sum(F.data**2))
    assert rel < 1e-5


def test_linearity_over_left_complex_constants(small_axes):
    ax1, ax2 = small_axes
    plan = QftPlan.for_axes(ax1, ax2)
    f = random_signal(ax1, ax2, seed=21)
    lam = quat(0.7, -1.3)  # a + i b commutes with the left kernel
    scaled = GridSignal2D(ax1, ax2, qmul(lam, f.data))
    lhs = qft_forward(scaled, plan).data
    rhs = qmul(lam, qft_forward(f, plan).data)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_real_linearity(small_axes):
    ax1, ax2 = small_axes
    plan = QftPlan.for_axes(ax1, ax2)
    f = random_signal(ax1, ax2, seed=22)
    g = random_signal(ax1, ax2, seed=23)
    combo = GridSignal2D(ax1, ax2, 0.3 * f.data - 1.7 * g.data)
    lhs = qft_forward(combo, plan).data
    rhs = 0.3 * qft_forward(f, plan).data - 1.7 * qft_forward(g, plan).data
    assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestChannels:
    """The engine's channel form: q = za + zb j as p = za + i zb, m = za - i zb."""

    def test_roundtrip(self, rng):
        q = rng.standard_normal((1000, 4))
        p, m = _split_channels(q)
        # the join expects channels that carry the 1/2
        assert np.max(np.abs(_join_channels(p / 2, m / 2) - q)) < 1e-14

    def test_za_j_commutation(self, rng):
        # za * j = j * conj(za) for i-complex za: why a right j-complex
        # factor reaches the m channel conjugated
        za = rng.standard_normal(4)
        z = quat(za[0], za[1])
        J = quat(0, 0, 1)
        assert np.allclose(qmul(z, J), qmul(J, qconj(z)), atol=1e-15)

    def test_product_rule_matches_qmul(self, rng):
        # (q w)_p = (q_p (w_p + conj w_m) + q_m (w_p - conj w_m)) / 2
        # (q w)_m = (q_p (w_m - conj w_p) + q_m (w_m + conj w_p)) / 2
        q, w = rng.standard_normal((2, 1000, 4))
        q_p, q_m = _split_channels(q)
        w_p, w_m = _split_channels(w)
        r_p = (q_p * (w_p + w_m.conj()) + q_m * (w_p - w_m.conj())) / 2
        r_m = (q_p * (w_m - w_p.conj()) + q_m * (w_m + w_p.conj())) / 2
        assert np.max(np.abs(_join_channels(r_p / 2, r_m / 2) - qmul(q, w))) < 1e-14


def _fresh_plans(n):
    ax = Axis.centered(n, 8.0)
    sextet = OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2)
    negative_b = OlctParams(0, -1, 1, 0, 0.0, 0.3)
    return ((QftPlan.for_axes(ax, ax), qft_forward, qft_inverse),
            (QolctPlan.for_axes(sextet, negative_b, ax, ax), qolct_forward, qolct_inverse))


def _cached_arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, dict):
        yield from _cached_arrays(list(value.values()))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _cached_arrays(item)


class TestProfileCache:
    """Plans cache the fast engine's 1-D profiles on first use."""

    def test_first_calls_from_threads_match_serial(self):
        # verify's pool runs transforms concurrently, so the first calls
        # on a plan may race to fill its cache.  A barrier lines the
        # threads up and a short switch interval interleaves them.
        ax = Axis.centered(32, 8.0)
        f = random_signal(ax, ax, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for (plan, forward, inverse), (serial_plan, _, _) in zip(_fresh_plans(32),
                                                                     _fresh_plans(32)):
                F = forward(f, serial_plan)
                back = inverse(F, serial_plan)
                start = threading.Barrier(8)

                def pair(_):
                    start.wait(timeout=30)
                    return forward(f, plan).data, inverse(F, plan).data

                with ThreadPoolExecutor(8) as pool:
                    results = list(pool.map(pair, range(8), timeout=60))
                assert len(results) == 8
                for got_F, got_back in results:
                    assert np.array_equal(got_F, F.data)
                    assert np.array_equal(got_back, back.data)
        finally:
            sys.setswitchinterval(interval)

    def test_cache_holds_only_one_axis_profiles(self):
        ax1, ax2 = Axis.centered(24, 8.0), Axis.centered(40, 6.0)
        f = random_signal(ax1, ax2, seed=6)
        sextet = OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2)
        for plan, forward, inverse in ((QftPlan.for_axes(ax1, ax2), qft_forward, qft_inverse),
                                       (QolctPlan.for_axes(sextet, sextet, ax1, ax2),
                                        qolct_forward, qolct_inverse)):
            inverse(forward(f, plan), plan)
            cached = list(_cached_arrays(vars(plan)))
            assert len(cached) >= 4
            assert max(a.size for a in cached) <= max(ax1.n, ax2.n)
            assert not any(a.flags.writeable for a in cached)


def test_plan_rejects_non_reciprocal_axes(small_axes):
    ax1, ax2 = small_axes
    with pytest.raises(ParameterError):
        QftPlan(ax1, ax2, Axis(16, -1.0, 0.125), Axis(16, -1.0, 0.125))


def test_rectangular_grid():
    ax1, ax2 = Axis.centered(8, 4.0), Axis.centered(12, 6.0)
    plan = QftPlan.for_axes(ax1, ax2)
    f = random_signal(ax1, ax2, seed=99)
    direct = qft_forward(f, plan, "direct")
    fast = qft_forward(f, plan, "fast")
    assert np.max(np.abs(direct.data - fast.data)) < 1e-12
    back = qft_inverse(fast, plan)
    assert np.max(np.abs(back.data - f.data)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(axes=rectangular_axes(), seed=st.integers(0, 2**32 - 2))
def test_fast_matches_direct_property(axes, seed):
    plan = QftPlan.for_axes(*axes)
    f = random_signal(*axes, seed=seed)
    F = random_signal(plan.w1, plan.w2, seed=seed + 1)
    assert np.max(np.abs(qft_forward(f, plan, "fast").data
                         - qft_forward(f, plan, "direct").data)) < 1e-9
    assert np.max(np.abs(qft_inverse(F, plan, "fast").data
                         - qft_inverse(F, plan, "direct").data)) < 1e-9
