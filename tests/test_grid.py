import os

import numpy as np
import pytest

from conftest import random_signal
from qtfa import (Axis, GridSignal2D, chirp_signal, gaussian_signal, grid,
                  impulse_signal, inner_product, l2_norm, pointwise_mul, qconj,
                  qmul, qnorm, quat, translate_window, unit_exp)
from qtfa.errors import ParameterError, ShapeError


class TestAxis:
    def test_coords(self):
        ax = Axis(4, -1.0, 0.5)
        assert np.allclose(ax.coords, [-1.0, -0.5, 0.0, 0.5])

    def test_centered_half_bin(self):
        ax = Axis.centered(8, 4.0)
        assert ax.step == pytest.approx(1.0)
        assert ax.min == pytest.approx(-3.5)
        assert np.all(ax.coords != 0.0)
        assert ax.is_symmetric()

    def test_invalid(self):
        with pytest.raises(ParameterError):
            Axis(1, 0.0, 1.0)
        with pytest.raises(ParameterError):
            Axis(8, 0.0, -1.0)

    @pytest.mark.parametrize("n, amin, step, message", [
        (4.5, 0.0, 1.0, "integer count"),       # used to have 5 coordinates
        (4.0, 0.0, 1.0, "integer count"),
        (4, float("nan"), 1.0, "min must be finite"),
        (4, float("-inf"), 1.0, "min must be finite"),
        (4, 0.0, float("inf"), "step must be positive and finite"),
        (4, 0.0, float("nan"), "step must be positive and finite"),
    ])
    def test_rejects_a_non_integral_count_and_non_finite_coordinates(self, n, amin, step,
                                                                     message):
        with pytest.raises(ParameterError, match=message):
            Axis(n, amin, step)

    @pytest.mark.parametrize("n, extent, message", [
        (0, 8.0, "got 0"),                      # used to divide by zero
        (1, 8.0, "got 1"),
        (16, float("inf"), "extent must be positive and finite, got inf"),
        (16, float("nan"), "extent must be positive and finite, got nan"),
        (16, 0.0, "extent must be positive and finite, got 0.0"),
        (16, 1e308, r"extent 1e\+308 is too large"),  # 2*extent overflows
    ])
    def test_centered_checks_count_and_extent_first(self, n, extent, message):
        with pytest.raises(ParameterError, match=message):
            Axis.centered(n, extent)


class TestInnerProduct:
    def test_self_inner_product_is_norm_squared(self, small_axes):
        f = random_signal(*small_axes, seed=1)
        ip = inner_product(f, f)
        assert np.max(np.abs(ip[1:])) < 1e-12 * ip[0]
        assert ip[0] == pytest.approx(l2_norm(f) ** 2, rel=1e-13)

    def test_disjoint_supports_vanish(self, small_axes):
        ax1, ax2 = small_axes
        a = np.zeros((16, 16, 4))
        b = np.zeros((16, 16, 4))
        a[:8] = 1.0
        b[8:] = 2.0
        assert np.array_equal(
            inner_product(GridSignal2D(ax1, ax2, a), GridSignal2D(ax1, ax2, b)),
            np.zeros(4))

    def test_cauchy_schwarz(self, small_axes):
        for seed in range(100):
            f = random_signal(*small_axes, seed=2 * seed)
            g = random_signal(*small_axes, seed=2 * seed + 1)
            lhs = qnorm(inner_product(f, g)) ** 2
            assert lhs <= l2_norm(f) ** 2 * l2_norm(g) ** 2 * (1 + 1e-12)

    def test_cauchy_schwarz_equality_for_left_multiple(self, small_axes):
        f = random_signal(*small_axes, seed=7)
        lam = quat(0.3, -1.2, 0.5, 2.0)
        g = GridSignal2D(f.ax1, f.ax2, qmul(lam, f.data))
        lhs = qnorm(inner_product(f, g)) ** 2
        rhs = l2_norm(f) ** 2 * l2_norm(g) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_conjugate_symmetry(self, small_axes):
        f = random_signal(*small_axes, seed=8)
        g = random_signal(*small_axes, seed=9)
        assert np.max(np.abs(inner_product(f, g) - qconj(inner_product(g, f)))) < 1e-13

    def test_axis_mismatch(self, small_axes):
        f = random_signal(*small_axes, seed=3)
        other = Axis.centered(16, 4.0)
        g = random_signal(other, other, seed=4)
        with pytest.raises(ShapeError):
            inner_product(f, g)

    def test_norm_zero_iff_zero(self, small_axes):
        ax1, ax2 = small_axes
        z = GridSignal2D(ax1, ax2, np.zeros((16, 16, 4)))
        assert l2_norm(z) == 0.0
        z.data[3, 3, 2] = 1e-150
        assert l2_norm(GridSignal2D(ax1, ax2, z.data)) > 0.0


class TestGaussian:
    def test_value_near_origin(self):
        ax = Axis.centered(8, 4.0)
        f = gaussian_signal(ax, ax, 1.0)
        h = ax.step
        k = 4  # coordinate h/2
        assert ax.coords[k] == pytest.approx(h / 2)
        assert f.data[k, k, 0] == pytest.approx(np.exp(-h * h / 2), rel=1e-14)

    def test_energy_closed_form(self):
        # integral of exp(-2|x|^2) over the plane is pi/2
        ax = Axis.centered(128, 8.0)
        f = gaussian_signal(ax, ax, 1.0)
        assert l2_norm(f) ** 2 == pytest.approx(np.pi / 2, rel=1e-6)

    def test_quaternion_amplitude_scales_components(self):
        ax = Axis.centered(16, 4.0)
        amp = quat(0, 1, 1, 0)
        f = gaussian_signal(ax, ax, 1.5, amp)
        envelope = gaussian_signal(ax, ax, 1.5).data[..., 0]
        assert np.array_equal(f.data[..., 1], envelope)
        assert np.array_equal(f.data[..., 2], envelope)
        assert np.all(f.data[..., 0] == 0) and np.all(f.data[..., 3] == 0)

    def test_rejects_nonpositive_width(self, small_axes):
        with pytest.raises(ParameterError):
            gaussian_signal(*small_axes, alpha=0.0)

    @pytest.mark.parametrize("alpha, amplitude, message", [
        (float("inf"), None, "alpha must be positive and finite, got inf"),
        (float("nan"), None, "alpha must be positive and finite, got nan"),
        (1.0, [1.0, float("inf"), 0.0, 0.0], r"amplitude must be finite, got \[1.0, inf"),
    ])
    def test_rejects_non_finite_width_and_amplitude(self, small_axes, alpha, amplitude,
                                                    message):
        with pytest.raises(ParameterError, match=message):
            gaussian_signal(*small_axes, alpha, amplitude)


class TestChirp:
    def test_zero_parameters_give_constant_one(self, small_axes):
        f = chirp_signal(*small_axes)
        assert np.array_equal(f.data[..., 0], np.ones((16, 16)))
        assert np.all(f.data[..., 1:] == 0)

    def test_unit_modulus(self, small_axes):
        f = chirp_signal(*small_axes, rate1=0.5, rate2=-0.3, freq1=2.0, freq2=1.0)
        assert np.max(np.abs(qnorm(f.data) - 1.0)) < 1e-14

    def test_sample_values_match_phase_product(self):
        # axis chosen so x = 1 is a sample point
        ax = Axis(3, 0.0, 1.0)
        f = chirp_signal(ax, ax, rate1=0.5, rate2=0.0, freq1=0.0, freq2=np.pi)
        expect = qmul(unit_exp("i", 0.5), unit_exp("j", np.pi))
        assert np.allclose(f.data[1, 1], expect, atol=1e-15)

    def test_every_sample_matches_oracle(self, small_axes):
        ax1, ax2 = small_axes
        r1, r2, q1, q2 = 0.3, -0.7, 1.1, 0.4
        f = chirp_signal(ax1, ax2, r1, r2, q1, q2)
        left = unit_exp("i", r1 * ax1.coords**2 + q1 * ax1.coords)
        right = unit_exp("j", r2 * ax2.coords**2 + q2 * ax2.coords)
        expect = qmul(left[:, None, :], right[None, :, :])
        assert np.max(np.abs(f.data - expect)) < 1e-14


class TestImpulse:
    def test_single_cell(self):
        ax = Axis.centered(4, 2.0)
        f = impulse_signal(ax, ax, 0, 0)
        assert np.count_nonzero(f.data) == 1
        assert f.data[0, 0, 0] == pytest.approx(1.0 / f.cell_area)

    def test_sifting(self, small_axes):
        ax1, ax2 = small_axes
        g = random_signal(ax1, ax2, seed=11)
        imp = impulse_signal(ax1, ax2, 5, 9)
        assert np.allclose(inner_product(imp, g), qconj(g.data[5, 9]), atol=1e-13)

    def test_distinct_impulses_orthogonal(self, small_axes):
        a = impulse_signal(*small_axes, k1=1, k2=2)
        b = impulse_signal(*small_axes, k1=3, k2=2)
        assert np.array_equal(inner_product(a, b), np.zeros(4))

    def test_out_of_range(self, small_axes):
        with pytest.raises(ParameterError):
            impulse_signal(*small_axes, k1=16, k2=0)


class TestTranslate:
    def test_zero_offset_is_identity(self, small_axes):
        f = random_signal(*small_axes, seed=12)
        assert np.array_equal(translate_window(f, (0.0, 0.0)).data, f.data)

    def test_impulse_shifts_by_one_cell(self, small_axes):
        ax1, ax2 = small_axes
        f = impulse_signal(ax1, ax2, 4, 6)
        g = translate_window(f, (ax1.step, 0.0))
        expect = impulse_signal(ax1, ax2, 5, 6)
        assert np.array_equal(g.data, expect.data)

    def test_norm_never_grows(self, small_axes):
        ax1, ax2 = small_axes
        f = random_signal(ax1, ax2, seed=13)
        for m in (0, 3, 15, 40):
            shifted = translate_window(f, (m * ax1.step, -m * ax2.step))
            assert l2_norm(shifted) <= l2_norm(f) + 1e-12
        inside = translate_window(gaussian_signal(ax1, ax2, 4.0), (ax1.step, ax2.step))
        assert l2_norm(inside) == pytest.approx(
            l2_norm(gaussian_signal(ax1, ax2, 4.0)), rel=1e-10)

    def test_rejects_unaligned_offset(self, small_axes):
        f = random_signal(*small_axes, seed=14)
        with pytest.raises(ParameterError):
            translate_window(f, (0.3 * f.ax1.step, 0.0))


def test_pointwise_mul_modulus(small_axes):
    f = random_signal(*small_axes, seed=15)
    g = random_signal(*small_axes, seed=16)
    prod = pointwise_mul(f, g)
    assert np.allclose(qnorm(prod.data), qnorm(f.data) * qnorm(g.data), rtol=1e-12)


def test_signal_rejects_non_finite(small_axes):
    ax1, ax2 = small_axes
    data = np.zeros((16, 16, 4))
    data[0, 0, 0] = np.nan
    with pytest.raises(ParameterError):
        GridSignal2D(ax1, ax2, data)


class TestMemoryBudget:
    def test_the_budget_is_memavailable_where_it_can_be_read(self):
        budget = grid._memory_budget()
        if os.path.exists("/proc/meminfo"):
            assert budget > 0
        else:
            assert budget is None

    def test_without_meminfo_there_is_no_budget_and_no_check(self, monkeypatch):
        def missing(*args, **kwargs):
            raise FileNotFoundError("/proc/meminfo")

        monkeypatch.setattr(grid, "open", missing, raising=False)
        assert grid._memory_budget() is None
        grid._check_memory(1 << 60, "an array")

    def test_a_request_over_the_budget_names_both(self, monkeypatch):
        monkeypatch.setattr(grid, "_memory_budget", lambda: 1000)
        grid._check_memory(1000, "an array")
        with pytest.raises(ParameterError, match="an array needs 1001 bytes, over the memory "
                                                 "budget of 1000 bytes"):
            grid._check_memory(1001, "an array")
