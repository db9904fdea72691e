import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_signal, rectangular_axes, sextets
from qtfa import (Axis, GridSignal2D, OlctParams, QftPlan, QolctPlan,
                  gaussian_signal, impulse_signal, kernel_left, kernel_right,
                  l2_norm, qft_forward, qmul, qnorm, qolct_forward, qolct_inverse,
                  quat, unit_exp)
from qtfa.errors import ParameterError, ShapeError

FOURIER = OlctParams(0, 1, -1, 0, 0, 0)
MIXED = OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2)
SHEAR = OlctParams(1, 1, 0, 1, 0, 0)
NEG_B = OlctParams(0, -1, 1, 0, 0.2, -0.1)

PARAM_SETS = [SHEAR, MIXED, NEG_B]


def quadruple_loop_qolct(f, plan):
    """Literal kernel-sandwich Riemann sum."""
    out = np.zeros((plan.w1.n, plan.w2.n, 4))
    for r, w1 in enumerate(plan.w1.coords):
        for s, w2 in enumerate(plan.w2.coords):
            acc = np.zeros(4)
            for k, x1 in enumerate(plan.ax1.coords):
                for l, x2 in enumerate(plan.ax2.coords):
                    acc = acc + qmul(kernel_left(plan.params1, x1, w1),
                                     qmul(f.data[k, l],
                                          kernel_right(plan.params2, x2, w2)))
            out[r, s] = acc * f.cell_area
    return out


class TestParams:
    def test_det_must_be_one(self):
        with pytest.raises(ParameterError):
            OlctParams(1, 1, 0, 1 + 1e-6)

    def test_b_must_be_nonzero(self):
        with pytest.raises(ParameterError):
            OlctParams(1, 0, 0, 1)

    def test_text_roundtrip(self):
        text = MIXED.to_text()
        assert OlctParams.from_text(text) == MIXED
        with pytest.raises(ParameterError):
            OlctParams.from_text("1,2,3")


class TestKernels:
    def test_unit_scaled_modulus(self, rng):
        x = rng.uniform(-5, 5, 1000)
        w = rng.uniform(-5, 5, 1000)
        for params in PARAM_SETS:
            expect = 1.0 / np.sqrt(2 * np.pi * abs(params.b))
            assert np.max(np.abs(qnorm(kernel_left(params, x, w)) - expect)) < 1e-14
            assert np.max(np.abs(qnorm(kernel_right(params, x, w)) - expect)) < 1e-14

    def test_fourier_parameters_give_fourier_kernel(self, rng):
        x = rng.uniform(-5, 5, 200)
        w = rng.uniform(-5, 5, 200)
        got = kernel_left(FOURIER, x, w)
        expect = qmul(unit_exp("i", np.full_like(x, -np.pi / 4)),
                      unit_exp("i", -x * w)) / np.sqrt(2 * np.pi)
        assert np.max(np.abs(got - expect)) < 1e-14

    def test_zero_phase_point(self):
        # x = w = 0 with p = 0 leaves only the principal-branch constant
        for params in (SHEAR, NEG_B):
            got_l = kernel_left(params, 0.0, 0.0)
            got_r = kernel_right(params, 0.0, 0.0)
            amp = 1.0 / np.sqrt(2 * np.pi * abs(params.b))
            sign = np.sign(params.b)
            assert np.allclose(got_l, amp * unit_exp("i", -sign * np.pi / 4), atol=1e-15)
            assert np.allclose(got_r, amp * unit_exp("j", -sign * np.pi / 4), atol=1e-15)

    def test_plain_lct_kernel_at_zero_offsets(self, rng):
        # with p = q = 0 the phase collapses to a x^2/(2b) - xw/b + d w^2/(2b)
        params = OlctParams(0.6, 0.5, -0.8, 1.0)
        x = rng.uniform(-3, 3, 200)
        w = rng.uniform(-3, 3, 200)
        phase = (params.a * x**2 / (2 * params.b) - x * w / params.b
                 + params.d * w**2 / (2 * params.b))
        expect = (unit_exp("i", phase - np.pi / 4)
                  / np.sqrt(2 * np.pi * abs(params.b)))
        assert np.max(np.abs(kernel_left(params, x, w) - expect)) < 1e-14


class TestForward:
    def test_direct_matches_quadruple_loop(self):
        ax = Axis.centered(8, 4.0)
        plan = QolctPlan.for_axes(MIXED, NEG_B, ax, ax)
        f = random_signal(ax, ax, seed=200)
        oracle = quadruple_loop_qolct(f, plan)
        assert np.max(np.abs(qolct_forward(f, plan, "direct").data - oracle)) < 1e-12
        assert np.max(np.abs(qolct_forward(f, plan, "fast").data - oracle)) < 1e-12

    @pytest.mark.parametrize("params", PARAM_SETS)
    @pytest.mark.parametrize("seed", range(5))
    def test_fast_matches_direct(self, small_axes, params, seed):
        ax1, ax2 = small_axes
        plan = QolctPlan.for_axes(params, params, ax1, ax2)
        f = random_signal(ax1, ax2, seed=seed)
        diff = np.max(np.abs(qolct_forward(f, plan, "fast").data
                             - qolct_forward(f, plan, "direct").data))
        assert diff < 1e-9

    def test_fourier_case_reduces_to_qft(self, small_axes):
        ax1, ax2 = small_axes
        plan = QolctPlan.for_axes(FOURIER, FOURIER, ax1, ax2)
        f = random_signal(ax1, ax2, seed=31)
        got = qolct_forward(f, plan, "direct")
        F = qft_forward(f, QftPlan.for_axes(ax1, ax2), "direct")
        c = 1.0 / np.sqrt(2 * np.pi)
        expect = qmul(c * unit_exp("i", -np.pi / 4),
                      qmul(F.data, c * unit_exp("j", -np.pi / 4)))
        assert np.max(np.abs(got.data - expect)) < 1e-9

    @pytest.mark.parametrize("params", [SHEAR, MIXED])
    def test_norm_preserved_on_gaussian(self, params):
        ax = Axis.centered(128, 8.0)
        plan = QolctPlan.for_axes(params, params, ax, ax)
        f = gaussian_signal(ax, ax, 1.0)
        assert l2_norm(qolct_forward(f, plan)) / l2_norm(f) == pytest.approx(
            1.0, rel=1e-4)

    @pytest.mark.parametrize("params", PARAM_SETS)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_plancherel_all_sets(self, params, alpha):
        ax = Axis.centered(64, 8.0)
        plan = QolctPlan.for_axes(params, params, ax, ax)
        f = gaussian_signal(ax, ax, alpha)
        assert l2_norm(qolct_forward(f, plan)) / l2_norm(f) == pytest.approx(
            1.0, rel=1e-4)

    def test_axis_mismatch(self, small_axes):
        ax1, ax2 = small_axes
        plan = QolctPlan.for_axes(MIXED, MIXED, ax1, ax2)
        other = Axis.centered(16, 2.0)
        with pytest.raises(ShapeError):
            qolct_forward(random_signal(other, other, seed=1), plan)


class TestInverse:
    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_gaussian_roundtrip(self, params):
        ax = Axis.centered(128, 8.0)
        plan = QolctPlan.for_axes(params, params, ax, ax)
        f = gaussian_signal(ax, ax, 1.0)
        back = qolct_inverse(qolct_forward(f, plan), plan)
        rel = np.sqrt(np.sum((back.data - f.data) ** 2) / np.sum(f.data**2))
        assert rel < 1e-6

    def test_impulse_sum_roundtrip(self):
        ax = Axis.centered(32, 8.0)
        plan = QolctPlan.for_axes(MIXED, NEG_B, ax, ax)
        data = (impulse_signal(ax, ax, 5, 7).data
                + qmul(impulse_signal(ax, ax, 20, 11).data, quat(0, 1, 0, 0))
                + qmul(impulse_signal(ax, ax, 13, 28).data, quat(0, 0, 0.5, 0.5)))
        f = GridSignal2D(ax, ax, data)
        back = qolct_inverse(qolct_forward(f, plan), plan)
        rel = np.sqrt(np.sum((back.data - f.data) ** 2) / np.sum(f.data**2))
        assert rel < 1e-4

    def test_zero(self, small_axes):
        ax1, ax2 = small_axes
        plan = QolctPlan.for_axes(MIXED, MIXED, ax1, ax2)
        F = GridSignal2D(plan.w1, plan.w2, np.zeros((16, 16, 4)))
        assert np.array_equal(qolct_inverse(F, plan).data, np.zeros((16, 16, 4)))

    def test_direct_inverse_matches_fast(self, small_axes):
        ax1, ax2 = small_axes
        plan = QolctPlan.for_axes(NEG_B, MIXED, ax1, ax2)
        F = qolct_forward(random_signal(ax1, ax2, seed=88), plan)
        diff = np.max(np.abs(qolct_inverse(F, plan, "direct").data
                             - qolct_inverse(F, plan, "fast").data))
        assert diff < 1e-9


def test_rectangular_grid():
    ax1, ax2 = Axis.centered(8, 4.0), Axis.centered(12, 6.0)
    plan = QolctPlan.for_axes(MIXED, NEG_B, ax1, ax2)
    f = random_signal(ax1, ax2, seed=98)
    direct = qolct_forward(f, plan, "direct")
    fast = qolct_forward(f, plan, "fast")
    assert np.max(np.abs(direct.data - fast.data)) < 1e-12
    back = qolct_inverse(fast, plan)
    assert np.max(np.abs(back.data - f.data)) < 1e-12


def test_output_axes_use_scaled_reciprocity(small_axes):
    ax1, ax2 = small_axes
    plan = QolctPlan.for_axes(MIXED, NEG_B, ax1, ax2)
    assert plan.w1.step * ax1.step * ax1.n == pytest.approx(
        2 * np.pi * abs(MIXED.b), rel=1e-12)
    assert plan.w2.step * ax2.step * ax2.n == pytest.approx(
        2 * np.pi * abs(NEG_B.b), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(params1=sextets(), params2=sextets(), axes=rectangular_axes(),
       seed=st.integers(0, 2**32 - 2))
def test_fast_matches_direct_property(params1, params2, axes, seed):
    # b < 0, |b| down to 0.05, rectangular and uncentered grids
    plan = QolctPlan.for_axes(params1, params2, *axes)
    f = random_signal(*axes, seed=seed)
    F = random_signal(plan.w1, plan.w2, seed=seed + 1)
    assert np.max(np.abs(qolct_forward(f, plan, "fast").data
                         - qolct_forward(f, plan, "direct").data)) < 1e-9
    assert np.max(np.abs(qolct_inverse(F, plan, "fast").data
                         - qolct_inverse(F, plan, "direct").data)) < 1e-9
