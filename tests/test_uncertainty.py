import math
from itertools import combinations

import numpy as np
import pytest

from conftest import random_signal
from qtfa import (Axis, CellSet, EnergyMap, GridSignal2D, OlctParams, QftPlan,
                  StqolctPlan, beurling_integral, chirp_signal, donoho_stark_check,
                  epsilon_concentration, essential_support, field_w_energy_map,
                  gaussian_signal, hardy_decay_fit, impulse_signal, l2_norm,
                  log_up_check, log_up_constant, pitt_check, pitt_constant,
                  qft_forward, qft_modulus, signal_energy_map, stqolct_forward)
from qtfa.errors import ParameterError, ShapeError
from qtfa.verify import RunConfig, _field_inputs, default_config_dict

EULER_GAMMA = 0.5772156649015329
UNIT_B = OlctParams(1, 1, 0, 1, 0.2, -0.4)
MIXED = OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2)
CORPUS32 = RunConfig.from_dict({**default_config_dict(), "n": 32})


def cells_from_indices(f, pairs):
    return CellSet("space", (f.ax1.n, f.ax2.n), f.cell_area,
                   np.array(sorted(pairs), dtype=int).reshape(-1, 2))


@pytest.fixture
def plan32():
    ax = Axis.centered(32, 8.0)
    window = gaussian_signal(ax, ax, 2.0)
    return StqolctPlan.create(UNIT_B, UNIT_B, ax, ax, window, stride=1)


@pytest.fixture
def field32(plan32):
    f = gaussian_signal(plan32.ax1, plan32.ax2, 1.0)
    return f, stqolct_forward(f, plan32)


@pytest.fixture
def marginal32(field32):
    f, field = field32
    return f, field_w_energy_map(field)


class TestEpsilonConcentration:
    def test_full_support_gives_zero(self, small_axes):
        f = gaussian_signal(*small_axes, alpha=1.0)
        all_cells = cells_from_indices(
            f, [(i, j) for i in range(16) for j in range(16)])
        assert epsilon_concentration(f, all_cells) == 0.0

    def test_empty_set_gives_one(self, small_axes):
        f = gaussian_signal(*small_axes, alpha=1.0)
        empty = cells_from_indices(f, [])
        assert epsilon_concentration(f, empty) == 1.0

    def test_two_impulses_half_covered(self, small_axes):
        ax1, ax2 = small_axes
        data = impulse_signal(ax1, ax2, 2, 2).data + impulse_signal(ax1, ax2, 9, 9).data
        f = GridSignal2D(ax1, ax2, data)
        half = cells_from_indices(f, [(2, 2)])
        assert epsilon_concentration(f, half) == pytest.approx(1 / math.sqrt(2),
                                                               rel=1e-12)

    def test_monotone_in_set(self, small_axes):
        f = random_signal(*small_axes, seed=400)
        small = cells_from_indices(f, [(i, j) for i in range(4) for j in range(4)])
        big = cells_from_indices(f, [(i, j) for i in range(8) for j in range(8)])
        assert epsilon_concentration(f, big) <= epsilon_concentration(f, small)

    def test_zero_signal_rejected(self, small_axes):
        ax1, ax2 = small_axes
        z = GridSignal2D(ax1, ax2, np.zeros((16, 16, 4)))
        with pytest.raises(ParameterError):
            epsilon_concentration(z, cells_from_indices(z, []))

    def test_shape_mismatch(self, small_axes):
        f = gaussian_signal(*small_axes, alpha=1.0)
        wrong = CellSet("space", (8, 8), 1.0, np.zeros((0, 2), dtype=int))
        with pytest.raises(ShapeError):
            epsilon_concentration(f, wrong)

    def test_domain_mismatch(self, marginal32):
        # a frequency cell set of the signal's shape used to give 0.0 for f
        f, marginal = marginal32
        cells = essential_support(marginal, 0.1)
        assert cells.shape == f.data.shape[:2]
        assert epsilon_concentration(marginal, cells) <= 0.1
        with pytest.raises(ShapeError, match="frequency"):
            epsilon_concentration(f, cells)


class TestEssentialSupport:
    def test_exact_support_at_zero_eps(self, small_axes):
        ax1, ax2 = small_axes
        data = np.zeros((16, 16, 4))
        for k, (i, j) in enumerate([(0, 0), (3, 5), (9, 2), (15, 15)]):
            data[i, j, k % 4] = 1.0 + k
        f = GridSignal2D(ax1, ax2, data)
        cells = essential_support(f, 0.0)
        assert sorted(map(tuple, cells.indices)) == [(0, 0), (3, 5), (9, 2), (15, 15)]

    def test_eps_one_gives_empty_set(self, small_axes):
        f = gaussian_signal(*small_axes, alpha=1.0)
        assert essential_support(f, 1.0).count == 0

    def test_greedy_matches_brute_force(self, small_axes):
        ax1, ax2 = small_axes
        rng = np.random.default_rng(401)
        for trial in range(8):
            data = np.zeros((16, 16, 4))
            flat = rng.choice(256, size=rng.integers(3, 11), replace=False)
            for idx in flat:
                data[idx // 16, idx % 16] = rng.standard_normal(4)
            f = GridSignal2D(ax1, ax2, data)
            energies = np.sum(data**2, axis=-1)
            nonzero = [tuple(ij) for ij in np.argwhere(energies > 0)]
            total = energies.sum()
            for eps in (0.0, 0.3, 0.55):
                target = eps * eps * total + 1e-12 * total
                best = None
                for r in range(len(nonzero) + 1):
                    for combo in combinations(nonzero, r):
                        if total - sum(energies[c] for c in combo) <= target:
                            best = r
                            break
                    if best is not None:
                        break
                assert essential_support(f, eps).count == best

    def test_rejects_out_of_range_eps(self, small_axes):
        f = gaussian_signal(*small_axes, alpha=1.0)
        with pytest.raises(ParameterError):
            essential_support(f, -0.1)
        with pytest.raises(ParameterError):
            essential_support(f, 1.5)

    def test_measure_uses_cell_area(self, small_axes):
        f = gaussian_signal(*small_axes, alpha=1.0)
        cells = essential_support(f, 0.5)
        assert cells.measure == pytest.approx(cells.count * f.cell_area)


class TestDonohoStark:
    def test_gaussian_passes_with_margin(self, plan32, marginal32):
        f, marginal = marginal32
        res = donoho_stark_check(f, plan32, 0.1, 0.1, marginal=marginal)
        assert res.passed and res.margin > 0

    def test_exact_support_case(self, plan32):
        ax = plan32.ax1
        f = gaussian_signal(ax, ax, 1.0)
        radii = np.hypot(ax.coords[:, None], ax.coords[None, :])
        data = f.data.copy()
        data[radii > 4.0] = 0.0
        truncated = GridSignal2D(ax, ax, data)
        res = donoho_stark_check(truncated, plan32, 0.0, 0.0)
        b1b2 = abs(UNIT_B.b * UNIT_B.b)
        assert res.passed
        assert res.lhs >= 2 * math.pi * b1b2

    def test_margin_decreases_as_gaussian_narrows(self):
        ax = Axis.centered(48, 8.0)
        window = gaussian_signal(ax, ax, 8.0)
        plan = StqolctPlan.create(OlctParams(1, 1, 0, 1), OlctParams(1, 1, 0, 1),
                                  ax, ax, window, stride=1)
        margins = []
        for alpha in (1.0, 2.0, 4.0, 8.0, 16.0):
            f = gaussian_signal(ax, ax, alpha)
            res = donoho_stark_check(f, plan, 0.1, 0.1)
            margins.append(res.margin)
        assert all(a > b for a, b in zip(margins, margins[1:]))

    def test_eps_preconditions(self, plan32, marginal32):
        f, marginal = marginal32
        with pytest.raises(ParameterError):
            donoho_stark_check(f, plan32, 0.6, 0.5, marginal=marginal)
        with pytest.raises(ParameterError):
            donoho_stark_check(f, plan32, -0.1, 0.0, marginal=marginal)

    def test_requires_stride1(self, small_axes):
        ax1, ax2 = small_axes
        window = gaussian_signal(ax1, ax2, 2.0)
        plan = StqolctPlan.create(UNIT_B, UNIT_B, ax1, ax2, window, stride=4)
        f = gaussian_signal(ax1, ax2, 1.0)
        with pytest.raises(ParameterError):
            donoho_stark_check(f, plan, 0.1, 0.1)


class TestPittConstant:
    def test_alpha_zero(self):
        assert pitt_constant(0.0) == pytest.approx(4 * math.pi**2, rel=1e-15)

    def test_alpha_one_frozen_value(self):
        # 2*pi^2*(Gamma(1/4)/Gamma(3/4))^2 with the tabulated Gamma values
        expect = 2 * math.pi**2 * (3.6256099082219083 / 1.2254167024651776) ** 2
        assert pitt_constant(1.0) == pytest.approx(expect, rel=1e-12)
        assert pitt_constant(1.0) == pytest.approx(172.79, rel=1e-4)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 1.9])
    def test_matches_stdlib_gamma_oracle(self, alpha):
        expect = (4 * math.pi**2 / 2**alpha
                  * (math.gamma((2 - alpha) / 4) / math.gamma((2 + alpha) / 4)) ** 2)
        assert pitt_constant(alpha) == pytest.approx(expect, rel=1e-9)

    def test_continuity_toward_half(self):
        # the increment shrinks linearly with h (local slope ~ 107.5)
        d4 = abs(pitt_constant(0.5 + 1e-4) - pitt_constant(0.5))
        d5 = abs(pitt_constant(0.5 + 1e-5) - pitt_constant(0.5))
        assert d4 < 2e-2
        assert d5 < 2e-3

    def test_domain(self):
        with pytest.raises(ParameterError):
            pitt_constant(2.0)
        with pytest.raises(ParameterError):
            pitt_constant(-0.5)


class TestPittCheck:
    def test_alpha_zero_is_equality(self, plan32, marginal32):
        f, marginal = marginal32
        res = pitt_check(f, plan32, 0.0, marginal=marginal)
        assert res.passed
        assert res.lhs == pytest.approx(res.rhs, rel=1e-3)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5])
    def test_gaussian_sweep_passes(self, plan32, marginal32, alpha):
        f, marginal = marginal32
        res = pitt_check(f, plan32, alpha, marginal=marginal)
        assert res.passed

    def test_chirp_gaussian_sweep(self):
        ax = Axis.centered(32, 8.0)
        window = gaussian_signal(ax, ax, 2.0)
        plan = StqolctPlan.create(MIXED, MIXED, ax, ax, window, stride=1)
        from qtfa import pointwise_mul
        f = pointwise_mul(chirp_signal(ax, ax, 0.4, -0.3, 1.0, 2.0),
                          gaussian_signal(ax, ax, 1.0))
        field = stqolct_forward(f, plan)
        marginal = field_w_energy_map(field)
        for alpha in (0.25, 0.5, 1.0, 1.5):
            res = pitt_check(f, plan, alpha, marginal=marginal)
            assert res.passed, f"alpha={alpha}: lhs={res.lhs} rhs={res.rhs}"


class TestLogUp:
    def test_constant_value(self):
        expect = -EULER_GAMMA - math.log(2)
        assert log_up_constant() == pytest.approx(expect, abs=1e-9)
        assert log_up_constant() == pytest.approx(-1.2703628, abs=1e-6)

    @pytest.mark.parametrize("pset", CORPUS32.param_sets, ids=lambda pset: pset[0])
    def test_margin_is_the_pitt_margins_slope_at_zero(self, pset):
        # the closed form against a difference quotient of pitt margins,
        # whose alpha = 0 residual cancels; offset-mixed, the one set with
        # |b1 b2| != 1, pins the sign of ln|b1 b2|
        plan, f = _field_inputs(CORPUS32, pset)
        marginal = field_w_energy_map(stqolct_forward(f, plan))
        h = 1e-4
        slope = (pitt_check(f, plan, h, marginal=marginal).margin
                 - pitt_check(f, plan, 0.0, marginal=marginal).margin) / h
        res = log_up_check(f, plan, marginal=marginal)
        assert res.passed
        assert res.margin == pytest.approx(slope, rel=1e-3)

    @pytest.mark.parametrize("signal_rate", [0.05, 1.0, 16.0])
    @pytest.mark.parametrize("window_rate", [0.05, 1.0, 16.0])
    def test_passes_under_joint_dilation(self, signal_rate, window_rate):
        # the printed form with weight 1/4 pi^2 on the x-term failed at
        # 0.05 / 0.05 (-935 against -31.7); this one is scale-free
        ax = Axis.centered(32, 8.0)
        fourier = OlctParams(0, 1, -1, 0, 0, 0)
        plan = StqolctPlan.create(fourier, fourier, ax, ax,
                                  gaussian_signal(ax, ax, window_rate), stride=1)
        res = log_up_check(gaussian_signal(ax, ax, signal_rate), plan)
        assert res.passed, f"lhs={res.lhs} rhs={res.rhs}"

    def test_fails_on_a_marginal_at_the_origin(self, plan32, marginal32):
        # the whole total in the cell nearest w = 0: ln|w| is at its least
        # there, and the margin reads -0.59 E
        f, marginal = marginal32
        w_r = np.hypot(plan32.qolct.w1.coords[:, None], plan32.qolct.w2.coords[None, :])
        values = np.zeros_like(marginal.values)
        values[np.unravel_index(np.argmin(w_r), w_r.shape)] = (marginal.total
                                                               / marginal.cell_area)
        res = log_up_check(f, plan32, marginal=EnergyMap("frequency", values,
                                                         marginal.cell_area))
        assert not res.passed
        assert res.margin < -0.5 * marginal.total


def _off_grid_marginal(plan32, kind):
    """The marginal of a Gaussian on a grid other than plan32's: of another
    shape (16 points), or of its shape but another cell area (|b| = 2)."""
    if kind == "shape":
        ax = Axis.centered(16, 8.0)
        plan = StqolctPlan.create(UNIT_B, UNIT_B, ax, ax, gaussian_signal(ax, ax, 2.0),
                                  stride=1)
    else:
        wide_b = OlctParams(1, 2, 0, 1, 0.2, -0.4)
        plan = StqolctPlan.create(wide_b, wide_b, plan32.ax1, plan32.ax2,
                                  plan32.window, stride=1)
    f = gaussian_signal(plan.ax1, plan.ax2, 1.0)
    return field_w_energy_map(stqolct_forward(f, plan))


class TestMarginalGrid:
    """A marginal off the plan's frequency grid is rejected, not broadcast
    or silently used."""

    CHECKS = {
        "donoho-stark": lambda f, plan, m: donoho_stark_check(f, plan, 0.1, 0.1,
                                                              marginal=m),
        "pitt": lambda f, plan, m: pitt_check(f, plan, 0.5, marginal=m),
        "log-up": lambda f, plan, m: log_up_check(f, plan, marginal=m),
    }

    @pytest.mark.parametrize("kind", ["shape", "cell-area"])
    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_off_grid_marginal_raises(self, plan32, marginal32, check, kind):
        f, on_grid = marginal32
        marginal = _off_grid_marginal(plan32, kind)
        assert (marginal.values.shape == on_grid.values.shape) == (kind == "cell-area")
        with pytest.raises(ShapeError, match="frequency grid"):
            self.CHECKS[check](f, plan32, marginal)


class TestHardyFit:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    def test_gaussian_decay_rate(self, alpha):
        ax = Axis.centered(128, 8.0)
        plan = QftPlan.for_axes(ax, ax)
        F = qft_forward(gaussian_signal(ax, ax, alpha), plan)
        fit = hardy_decay_fit(qft_modulus(F), plan.w1.coords, plan.w2.coords, 3.0)
        assert abs(4 * alpha * fit.beta - 1.0) < 0.02
        assert fit.r2 > 0.999

    def test_chirp_flags_low_r2(self):
        ax = Axis.centered(64, 8.0)
        plan = QftPlan.for_axes(ax, ax)
        F = qft_forward(chirp_signal(ax, ax, 0.25, -0.2, 1.0, -0.5), plan)
        fit = hardy_decay_fit(qft_modulus(F), plan.w1.coords, plan.w2.coords, 3.0)
        assert fit.r2 < 0.9

    def test_rejects_nonpositive_magnitudes(self, small_axes):
        ax1, ax2 = small_axes
        mag = np.zeros((16, 16))
        with pytest.raises(ParameterError):
            hardy_decay_fit(mag, ax1.coords, ax2.coords, 3.0)


class TestBeurling:
    @pytest.fixture
    def plan4(self):
        ax = Axis.centered(16, 4.0)
        window = gaussian_signal(ax, ax, 2.0)
        return StqolctPlan.create(UNIT_B, UNIT_B, ax, ax, window, stride=1)

    def test_zero_signal(self, plan4):
        z = GridSignal2D(plan4.ax1, plan4.ax2, np.zeros((16, 16, 4)))
        res = beurling_integral(z, plan4, 2.0)
        assert res.value == 0.0 and not res.saturated

    def test_monotone_in_d(self, plan4):
        f = gaussian_signal(plan4.ax1, plan4.ax2, 1.0)
        v2 = beurling_integral(f, plan4, 2.0)
        v4 = beurling_integral(f, plan4, 4.0)
        assert v4.value <= v2.value

    def test_pinned_baseline(self, plan4):
        # regression anchor, frozen from the first verified run
        f = gaussian_signal(plan4.ax1, plan4.ax2, 1.0)
        res = beurling_integral(f, plan4, 2.0)
        assert not res.saturated
        assert res.value == pytest.approx(3.0234274647384103, rel=1e-9)

    def test_saturation_flag(self, plan4):
        # huge amplitudes push terms past the double range; the value
        # saturates and the flag reports it instead of raising
        f = gaussian_signal(plan4.ax1, plan4.ax2, 1.0)
        big = GridSignal2D(plan4.ax1, plan4.ax2, 1e160 * f.data)
        res = beurling_integral(big, plan4, 0.0)
        assert res.saturated
        assert math.isinf(res.value)

    def test_rejects_negative_d(self, plan4):
        f = gaussian_signal(plan4.ax1, plan4.ax2, 1.0)
        with pytest.raises(ParameterError):
            beurling_integral(f, plan4, -1.0)

    @pytest.mark.parametrize("d", [math.nan, math.inf])
    def test_rejects_non_finite_d(self, plan4, d):
        # d = nan used to give value 0.0, not saturated
        f = gaussian_signal(plan4.ax1, plan4.ax2, 1.0)
        with pytest.raises(ParameterError, match="finite and nonnegative"):
            beurling_integral(f, plan4, d)


def test_field_marginal_matches_direct_sum(field32):
    _, field = field32
    emap = field_w_energy_map(field)
    direct = np.sum(field.data**2, axis=(2, 3, 4)) * field.u1.step * field.u2.step
    assert np.allclose(emap.values, direct, rtol=1e-12)


def test_signal_energy_map_total(small_axes):
    f = gaussian_signal(*small_axes, alpha=1.0)
    assert signal_energy_map(f).total == pytest.approx(l2_norm(f) ** 2, rel=1e-13)
