import gc
import os
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_signal, sextets
from qtfa import (Axis, GridSignal2D, OlctParams, QolctPlan, StqolctPlan,
                  chirp_signal, coefficient_slice, gaussian_signal,
                  impulse_signal, inner_product, l2_norm, modified_signal,
                  moyal_check, qconj, qmul, qnorm, qolct_forward, qolct_inverse,
                  quat, stqolct_energy, stqolct_forward, stqolct_reconstruct,
                  translate_window)
from qtfa import stqolct, uncertainty
from qtfa.errors import ParameterError, ShapeError
from qtfa.grid import _memory_budget
from qtfa.qft import _join_channels, _split_channels
from qtfa.stqolct import (_discard, _FieldSums, _max_workers, _pass, _Reconstruction,
                          _replay, _stream)
from qtfa.uncertainty import donoho_stark_check, field_w_energy_map
from qtfa.verify import RunConfig, default_config_dict, run_verification

MIXED = OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2)
SHEAR = OlctParams(1, 1, 0, 1, 0, 0)
NEG_B = OlctParams(0, -1, 1, 0, 0.2, -0.1)
UNIT_B = OlctParams(1, 1, 0, 1, 0.2, -0.4)

ROUTES = ("direct", "via_qolct", "via_qft")

#: window shapes by the components (q0, q1, q2, q3) they keep, and the
#: number of nonzero window-matrix terms each must take in the row engine;
#: "real-one-i" is a real window with one nonzero i sample
WINDOW_MASKS = {"full": (1, 1, 1, 1), "span-1-j": (1, 0, 1, 0), "real": (1, 0, 0, 0),
                "real-one-i": (1, 0, 0, 0)}
WINDOW_TERMS = {"full": 4, "span-1-j": 2, "real": 2, "real-one-i": 4}


def make_plan(ax1, ax2, params1=MIXED, params2=NEG_B, window_alpha=2.0, stride=1):
    window = gaussian_signal(ax1, ax2, window_alpha)
    return StqolctPlan.create(params1, params2, ax1, ax2, window, stride=stride)


def factored_window(ax1, ax2, seed):
    """q * a(x1) * b(x2) with a random quaternion q and real a and b that
    change sign and are zero at the edge samples."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(ax1.n), rng.standard_normal(ax2.n)
    for profile in (a, b):
        profile[[0, -1]] = 0.0
        profile[1:3] = abs(profile[1]), -abs(profile[2])
    return GridSignal2D(ax1, ax2, np.multiply.outer(np.outer(a, b), rng.standard_normal(4)))


def shaped_window(ax1, ax2, shape, seed):
    """A random window with only the components of ``WINDOW_MASKS[shape]``."""
    data = random_signal(ax1, ax2, seed=seed).data * WINDOW_MASKS[shape]
    if shape == "real-one-i":
        data[ax1.n // 3, ax2.n // 2, 1] = 0.7
    return GridSignal2D(ax1, ax2, data)


class TestPlan:
    def test_u_grid_nodes_are_step_multiples(self, small_axes):
        plan = make_plan(*small_axes, stride=4)
        assert plan.u1.n == 4
        ratio = plan.u1.coords / plan.ax1.step
        assert np.allclose(ratio, np.round(ratio), atol=1e-12)
        assert 0.0 in np.round(plan.u1.coords / plan.ax1.step) * plan.ax1.step

    @pytest.mark.parametrize("n, stride", [(12, 4), (20, 4), (6, 2)])
    def test_u_zero_is_on_the_grid_when_the_stride_does_not_divide_n_half(self, n, stride):
        ax = Axis.centered(n, 6.0)
        plan = make_plan(ax, ax, stride=stride)
        centre = n // 2 // stride
        assert plan.translation(centre, centre) == (0.0, 0.0)
        f = random_signal(ax, ax, seed=300 + n)
        fast = stqolct_forward(f, plan, "via_qolct").data
        direct = stqolct_forward(f, plan, "direct").data
        assert np.max(np.abs(fast - direct)) < 1e-9

    @pytest.mark.parametrize("route", ROUTES)
    def test_an_over_budget_field_raises_before_it_is_allocated(self, monkeypatch, route):
        # stride 1 at n = 512: 512**4 * 4 float64, a 2.2 TB field
        if _memory_budget() is None:
            pytest.skip("no MemAvailable to check against")
        ax = Axis.centered(512, 8.0)
        plan = make_plan(ax, ax)
        f = gaussian_signal(ax, ax, 1.0)
        empty = np.empty

        def small_only(shape, *args, **kwargs):
            assert np.prod(shape) < 1 << 27, f"allocated {shape}"
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", small_only)
        with pytest.raises(ParameterError, match=r"\(512, 512, 512, 512\) needs 2199023255552 "
                                                 r"bytes, over the memory budget of \d+ bytes"):
            stqolct_forward(f, plan, route)

    def test_a_plan_and_its_window_analysis_are_read_only(self, small_axes):
        # the window the caller passed stays theirs and writable
        window = random_signal(*small_axes, seed=301)
        plan = StqolctPlan.create(MIXED, NEG_B, *small_axes, window)
        with pytest.raises(FrozenInstanceError):
            plan.stride = 2
        with pytest.raises(FrozenInstanceError):
            plan.window = window
        with pytest.raises(ValueError, match="read-only"):
            plan.window.data[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            plan._terms[0][2][0, 0] = 1.0
        window.data[0, 0, 0] = 1.0
        q, a_rows, b_cols = make_plan(*small_axes)._factors
        for array in (q, a_rows, b_cols):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_stride_must_divide(self, small_axes):
        with pytest.raises(ParameterError):
            make_plan(*small_axes, stride=3)

    @pytest.mark.parametrize("stride", [True, np.int64(2), 2.0])
    def test_a_stride_is_any_integer_but_a_bool(self, small_axes, stride):
        # the count rule of Axis, less bool: True is no stride of 1
        if isinstance(stride, np.integer):
            plan = make_plan(*small_axes, stride=stride)
            assert type(plan.stride) is int and plan.stride == 2
        else:
            with pytest.raises(ParameterError, match="stride must be a positive integer"):
                make_plan(*small_axes, stride=stride)

    @pytest.mark.parametrize("n1, n2", [(16, 16), (32, 16), (16, 32)])
    def test_a_stride_leaving_one_translation_names_stride_and_n(self, n1, n2):
        with pytest.raises(ParameterError, match="stride 16 .* n = 16 samples"):
            make_plan(Axis.centered(n1, 8.0), Axis.centered(n2, 8.0), stride=16)

    def test_zero_window_rejected(self, small_axes):
        ax1, ax2 = small_axes
        window = GridSignal2D(ax1, ax2, np.zeros((16, 16, 4)))
        with pytest.raises(ParameterError):
            StqolctPlan.create(MIXED, MIXED, ax1, ax2, window)

    def test_window_grid_must_match(self, small_axes):
        ax1, ax2 = small_axes
        other = Axis.centered(16, 2.0)
        window = gaussian_signal(other, other, 1.0)
        with pytest.raises(ShapeError):
            StqolctPlan.create(MIXED, MIXED, ax1, ax2, window)


class TestModifiedSignal:
    def test_constant_window_is_identity(self, small_axes):
        ax1, ax2 = small_axes
        f = random_signal(ax1, ax2, seed=300)
        ones = chirp_signal(ax1, ax2)  # all-phase-zero chirp == constant 1
        g = modified_signal(f, ones, (0.0, 0.0))
        assert np.array_equal(g.data, f.data)

    def test_impulse_times_window(self, small_axes):
        ax1, ax2 = small_axes
        f = impulse_signal(ax1, ax2, 6, 6)
        window = gaussian_signal(ax1, ax2, 1.0, amplitude=quat(0.5, 0.5, 0, 0))
        g = modified_signal(f, window, (0.0, 0.0))
        expect = qmul(f.data[6, 6], qconj(window.data[6, 6]))
        assert np.allclose(g.data[6, 6], expect, atol=1e-13)
        assert np.count_nonzero(g.data) == np.count_nonzero(expect)

    def test_modulus_multiplies(self, small_axes):
        ax1, ax2 = small_axes
        f = random_signal(ax1, ax2, seed=301)
        window = random_signal(ax1, ax2, seed=302)
        u = (2 * ax1.step, -3 * ax2.step)
        g = modified_signal(f, window, u)
        from qtfa import translate_window
        shifted = translate_window(window, u)
        assert np.max(np.abs(qnorm(g.data)
                             - qnorm(f.data) * qnorm(shifted.data))) < 1e-13


class TestRoutes:
    @pytest.mark.parametrize("params", [MIXED, NEG_B, UNIT_B])
    def test_all_routes_agree(self, small_axes, params):
        ax1, ax2 = small_axes
        plan = make_plan(ax1, ax2, params1=params, params2=params, stride=4)
        f = random_signal(ax1, ax2, seed=303)
        fields = [stqolct_forward(f, plan, route).data for route in ROUTES]
        assert np.max(np.abs(fields[0] - fields[1])) < 1e-9
        assert np.max(np.abs(fields[0] - fields[2])) < 1e-9

    def test_slice_is_qolct_of_modified_signal(self, small_axes):
        ax1, ax2 = small_axes
        plan = make_plan(ax1, ax2, stride=4)
        f = random_signal(ax1, ax2, seed=304)
        field = stqolct_forward(f, plan, "via_qolct")
        i1, i2 = 1, 3
        u = (plan.u1.coords[i1], plan.u2.coords[i2])
        expect = qolct_forward(modified_signal(f, plan.window, u), plan.qolct)
        assert np.max(np.abs(field.data[:, :, i1, i2] - expect.data)) < 1e-12

    def test_constant_window_reduces_to_qolct(self, small_axes):
        ax1, ax2 = small_axes
        ones = chirp_signal(ax1, ax2)
        plan = StqolctPlan.create(UNIT_B, UNIT_B, ax1, ax2, ones, stride=8)
        f = random_signal(ax1, ax2, seed=305)
        field = stqolct_forward(f, plan, "direct")
        i0 = int(np.argmin(np.abs(plan.u1.coords)))
        assert plan.u1.coords[i0] == 0.0
        expect = qolct_forward(f, plan.qolct, "direct")
        assert np.max(np.abs(field.data[:, :, i0, i0] - expect.data)) < 1e-9

    def test_invalid_route(self, small_axes):
        plan = make_plan(*small_axes, stride=4)
        f = random_signal(*small_axes, seed=306)
        with pytest.raises(ParameterError):
            stqolct_forward(f, plan, "warp")


class TestBoundedness:
    @pytest.mark.parametrize("params", [UNIT_B, MIXED, NEG_B])
    def test_sup_bound(self, params):
        ax = Axis.centered(32, 8.0)
        plan = make_plan(ax, ax, params1=params, params2=params)
        f = gaussian_signal(ax, ax, 1.0)
        field = stqolct_forward(f, plan)
        bound = (l2_norm(f) * l2_norm(plan.window)
                 / (2 * np.pi * np.sqrt(abs(params.b ** 2))))
        assert float(np.max(qnorm(field.data))) <= bound + 1e-9

    def test_normalized_bound_is_inverse_two_pi(self):
        ax = Axis.centered(32, 8.0)
        f = gaussian_signal(ax, ax, 1.0)
        f = GridSignal2D(ax, ax, f.data / l2_norm(f))
        window = gaussian_signal(ax, ax, 2.0)
        window = GridSignal2D(ax, ax, window.data / l2_norm(window))
        plan = StqolctPlan.create(UNIT_B, UNIT_B, ax, ax, window)
        field = stqolct_forward(f, plan)
        assert float(np.max(qnorm(field.data))) <= 1 / (2 * np.pi) + 1e-9


class TestRealLinearity:
    def test_forward_is_real_linear(self, small_axes):
        plan = make_plan(*small_axes, stride=4)
        f = random_signal(*small_axes, seed=307)
        g = random_signal(*small_axes, seed=308)
        combo = GridSignal2D(f.ax1, f.ax2, 1.25 * f.data - 0.5 * g.data)
        lhs = stqolct_forward(combo, plan, "via_qolct").data
        rhs = (1.25 * stqolct_forward(f, plan, "via_qolct").data
               - 0.5 * stqolct_forward(g, plan, "via_qolct").data)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEnergy:
    def test_energy_identity_stride1(self):
        ax = Axis.centered(64, 8.0)
        plan = make_plan(ax, ax, params1=UNIT_B, params2=MIXED, window_alpha=2.0)
        f = gaussian_signal(ax, ax, 1.0)
        field = stqolct_forward(f, plan)
        expect = l2_norm(plan.window) ** 2 * l2_norm(f) ** 2
        assert stqolct_energy(field) == pytest.approx(expect, rel=1e-3)

    def test_zero_signal(self, small_axes):
        plan = make_plan(*small_axes)
        z = GridSignal2D(plan.ax1, plan.ax2, np.zeros((16, 16, 4)))
        assert stqolct_energy(stqolct_forward(z, plan)) == 0.0

    def test_unit_window_isometry(self):
        ax = Axis.centered(32, 8.0)
        window = gaussian_signal(ax, ax, 2.0)
        window = GridSignal2D(ax, ax, window.data / l2_norm(window))
        plan = StqolctPlan.create(UNIT_B, UNIT_B, ax, ax, window)
        f = gaussian_signal(ax, ax, 1.0)
        field = stqolct_forward(f, plan)
        assert stqolct_energy(field) == pytest.approx(l2_norm(f) ** 2, rel=1e-3)


class TestMoyal:
    @pytest.fixture
    def grid(self):
        ax = Axis.centered(32, 8.0)
        return ax, QolctPlan.for_axes(UNIT_B, MIXED, ax, ax)

    def test_matching_pair_gives_energy(self, grid):
        ax, qplan = grid
        f = gaussian_signal(ax, ax, 1.0)
        phi = gaussian_signal(ax, ax, 2.0)
        res = moyal_check(f, f, phi, phi, qplan)
        expect = l2_norm(phi) ** 2 * l2_norm(f) ** 2
        assert res.lhs[0] == pytest.approx(expect, rel=1e-3)
        assert np.max(np.abs(res.lhs[1:])) < 1e-9 * expect

    @staticmethod
    def _one_and_i_residual(res):
        return np.max(np.abs(res.lhs[:2] - res.rhs[:2])) / qnorm(res.rhs)

    def test_shared_window_scalar_part(self, grid):
        ax, qplan = grid
        f = gaussian_signal(ax, ax, 1.0, amplitude=quat(1.0, 0.2, -0.1, 0.4))
        g = GridSignal2D(ax, ax, qmul(chirp_signal(ax, ax, 0.3, -0.2).data,
                                      gaussian_signal(ax, ax, 0.75).data))
        phi = gaussian_signal(ax, ax, 2.0)
        res = moyal_check(f, g, phi, phi, qplan)
        assert self._one_and_i_residual(res) < 1e-12

    def test_shared_signal_scalar_part(self, grid):
        ax, qplan = grid
        f = gaussian_signal(ax, ax, 1.0, amplitude=quat(1.0, 0.2, -0.1, 0.4))
        phi = gaussian_signal(ax, ax, 2.0)
        psi = gaussian_signal(ax, ax, 1.5, amplitude=quat(0.7, 0.0, 0.3, -0.2))
        res = moyal_check(f, f, phi, psi, qplan)
        assert self._one_and_i_residual(res) < 1e-12

    def test_random_quaternion_inputs_one_and_i_parts(self):
        # the identity holds for any f, g, phi, psi, windows that reach
        # the grid's edge included; the j and k parts are not part of it
        ax = Axis.centered(12, 4.0)
        qplan = QolctPlan.for_axes(MIXED, NEG_B, ax, ax)
        f, g, phi, psi = (random_signal(ax, ax, seed=seed) for seed in range(600, 604))
        res = moyal_check(f, g, phi, psi, qplan)
        assert self._one_and_i_residual(res) < 1e-12
        assert np.max(np.abs(res.lhs[2:] - res.rhs[2:])) > 1e-3 * qnorm(res.rhs)

    def test_rhs_is_the_sum_over_translated_windows(self):
        ax = Axis.centered(8, 4.0)
        qplan = QolctPlan.for_axes(UNIT_B, MIXED, ax, ax)
        f, g, phi, psi = (random_signal(ax, ax, seed=seed) for seed in range(610, 614))
        plan = StqolctPlan.create(UNIT_B, MIXED, ax, ax, phi, stride=1)
        expect = np.zeros(4)
        for i1 in range(plan.u1.n):
            for i2 in range(plan.u2.n):
                u = plan.translation(i1, i2)
                h_f = modified_signal(f, phi, u).data
                h_g = modified_signal(g, psi, u).data
                expect += np.sum(qmul(h_f, qconj(h_g)), axis=(0, 1))
        expect *= f.cell_area * plan.u1.step * plan.u2.step
        res = moyal_check(f, g, phi, psi, qplan)
        np.testing.assert_allclose(res.rhs, expect, rtol=0, atol=1e-12 * qnorm(expect))

    def test_orthogonal_signals_shared_window(self, grid):
        ax, qplan = grid
        left = np.zeros((32, 32, 4))
        right = np.zeros((32, 32, 4))
        left[:16, :, 0] = gaussian_signal(ax, ax, 1.0).data[:16, :, 0]
        right[16:, :, 1] = gaussian_signal(ax, ax, 1.0).data[16:, :, 0]
        f = GridSignal2D(ax, ax, left)
        g = GridSignal2D(ax, ax, right)
        phi = gaussian_signal(ax, ax, 2.0)
        res = moyal_check(f, g, phi, phi, qplan)
        assert abs(res.lhs[0]) < 1e-3 * l2_norm(phi) ** 2 * l2_norm(f) * l2_norm(g)

    def test_general_case_scalar_parts_can_disagree(self):
        # one-cell counterexample: the printed product <f, g> <phi, psi>
        # has the opposite sign of lhs for genuinely quaternion data,
        # while R = sum f C conj(g) dA matches it
        ax = Axis.centered(8, 4.0)
        qplan = QolctPlan.for_axes(UNIT_B, UNIT_B, ax, ax)
        cell = 1.0 / (ax.step * ax.step)
        def one_cell(component):
            data = np.zeros((8, 8, 4))
            data[4, 4, component] = cell
            return GridSignal2D(ax, ax, data)
        f, g = one_cell(1), one_cell(2)
        phi, psi = one_cell(1), one_cell(2)
        res = moyal_check(f, g, phi, psi, qplan)
        np.testing.assert_allclose(res.lhs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(res.rhs, [1.0, 0.0, 0.0, 0.0], atol=1e-12)
        for product in (qmul(inner_product(f, g), inner_product(phi, psi)),
                        qmul(inner_product(phi, psi), inner_product(f, g))):
            assert product[0] == pytest.approx(-1.0, rel=1e-12)


class TestReconstruction:
    def test_gaussian_roundtrip(self):
        ax = Axis.centered(64, 8.0)
        plan = make_plan(ax, ax, params1=UNIT_B, params2=MIXED)
        f = gaussian_signal(ax, ax, 1.0)
        field = stqolct_forward(f, plan)
        rec = stqolct_reconstruct(field)
        rel = np.sqrt(np.sum((rec.data - f.data) ** 2) / np.sum(f.data**2))
        assert rel < 1e-3

    def test_zero_field(self, small_axes):
        plan = make_plan(*small_axes)
        z = GridSignal2D(plan.ax1, plan.ax2, np.zeros((16, 16, 4)))
        rec = stqolct_reconstruct(stqolct_forward(z, plan))
        assert np.array_equal(rec.data, np.zeros((16, 16, 4)))

    def test_scaling_linearity(self, small_axes):
        plan = make_plan(*small_axes)
        f = random_signal(*small_axes, seed=310)
        doubled = GridSignal2D(f.ax1, f.ax2, 2.0 * f.data)
        rec1 = stqolct_reconstruct(stqolct_forward(f, plan))
        rec2 = stqolct_reconstruct(stqolct_forward(doubled, plan))
        assert np.max(np.abs(rec2.data - 2.0 * rec1.data)) < 1e-12

    def test_requires_stride1(self, small_axes):
        plan = make_plan(*small_axes, stride=4)
        f = random_signal(*small_axes, seed=311)
        field = stqolct_forward(f, plan)
        # both modes: the direct oracle integrates over every translation too
        for mode in ("fast", "direct"):
            with pytest.raises(ParameterError, match="stride-1 plan, got stride 4"):
                stqolct_reconstruct(field, mode=mode)

    def test_requires_plan(self, small_axes):
        plan = make_plan(*small_axes)
        f = random_signal(*small_axes, seed=312)
        field = stqolct_forward(f, plan)
        field.plan = None
        with pytest.raises(ParameterError):
            stqolct_reconstruct(field)

    @pytest.mark.parametrize("shape", ["real", "span-1-j", "real-one-i"])
    def test_direct_mode_matches_fast_for_each_window_shape(self, shape):
        ax1, ax2 = Axis.centered(12, 6.0), Axis.centered(10, 5.0)
        window = shaped_window(ax1, ax2, shape, seed=315)
        plan = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, window)
        assert len(plan._terms) == WINDOW_TERMS[shape]
        field = stqolct_forward(random_signal(ax1, ax2, seed=316), plan)
        rec_fast = stqolct_reconstruct(field, mode="fast")
        rec_direct = stqolct_reconstruct(field, mode="direct")
        assert np.max(np.abs(rec_fast.data - rec_direct.data)) < 1e-9

    def test_direct_mode_matches_fast(self, small_axes):
        plan = make_plan(*small_axes)
        f = random_signal(*small_axes, seed=313)
        field = stqolct_forward(f, plan)
        rec_fast = stqolct_reconstruct(field, mode="fast")
        rec_direct = stqolct_reconstruct(field, mode="direct")
        assert np.max(np.abs(rec_fast.data - rec_direct.data)) < 1e-9


def test_rectangular_grid_routes_and_energy():
    ax1, ax2 = Axis.centered(8, 4.0), Axis.centered(12, 6.0)
    window = gaussian_signal(ax1, ax2, 2.0)
    plan = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, window, stride=2)
    f = random_signal(ax1, ax2, seed=97)
    fields = [stqolct_forward(f, plan, route).data for route in ROUTES]
    assert np.max(np.abs(fields[0] - fields[1])) < 1e-12
    assert np.max(np.abs(fields[0] - fields[2])) < 1e-12
    plan1 = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, window, stride=1)
    g = gaussian_signal(ax1, ax2, 1.0)
    field = stqolct_forward(g, plan1)
    expect = l2_norm(window) ** 2 * l2_norm(g) ** 2
    assert stqolct_energy(field) == pytest.approx(expect, rel=1e-3)


def test_inversion_consistency_per_slice():
    # the inverse transform of each coefficient slice recovers the
    # windowed signal at that translation
    ax = Axis.centered(32, 8.0)
    plan = make_plan(ax, ax, params1=MIXED, params2=UNIT_B)
    f = gaussian_signal(ax, ax, 1.0, amplitude=quat(0.5, 0.5, -0.5, 0.5))
    field = stqolct_forward(f, plan)
    for i1, i2 in ((16, 16), (10, 20), (0, 5)):
        u = (plan.u1.coords[i1], plan.u2.coords[i2])
        expect = modified_signal(f, plan.window, u)
        got = qolct_inverse(coefficient_slice(field, i1, i2), plan.qolct)
        num = np.sqrt(np.sum((got.data - expect.data) ** 2))
        den = max(np.sqrt(np.sum(expect.data**2)), 1e-300)
        assert num / den < 1e-6


# -- the row engine ---------------------------------------------------------

@st.composite
def rectangular_grids(draw, strides=(1, 2, 4)):
    # n1 != n2, both multiples of the stride with at least 2 translations
    stride = draw(st.sampled_from(strides))
    sizes = [n for n in (4, 6, 8, 12, 16) if n % stride == 0 and n // stride >= 2]
    n1, n2 = draw(st.lists(st.sampled_from(sizes), min_size=2, max_size=2, unique=True))
    extent = draw(st.floats(2.0, 8.0))
    return Axis.centered(n1, extent), Axis.centered(n2, extent / 2), stride


def _translate_planes(planes, ax1, ax2, u):
    """grid.translate_window of (4, n1, n2) planes, carried as quaternion parts."""
    shifted = translate_window(GridSignal2D(ax1, ax2, np.moveaxis(planes, 0, -1)), u)
    return np.moveaxis(shifted.data, -1, 0)


@settings(max_examples=40, deadline=None)
@given(grid=rectangular_grids(), seed=st.integers(0, 2**32 - 2))
def test_translations_match_translate_window_at_every_translation(grid, seed):
    # the fast paths' shift against the oracles' own, for 2-D planes along
    # both axes and 1-D profiles along either
    ax1, ax2, stride = grid
    plan = make_plan(ax1, ax2, stride=stride)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((4, ax1.n, ax2.n))
    a, b = rng.standard_normal(ax1.n), rng.standard_normal(ax2.n)
    both = stqolct._translations(plan, planes, (0, 1))
    a_rows, b_cols = stqolct._translations(plan, a, (0,)), stqolct._translations(plan, b, (1,))
    assert both.shape == planes.shape + (plan.u1.n, plan.u2.n)
    assert a_rows.shape == (ax1.n, plan.u1.n) and b_cols.shape == (ax2.n, plan.u2.n)
    for i1 in range(plan.u1.n):
        for i2 in range(plan.u2.n):
            expect = _translate_planes(planes, ax1, ax2, plan.translation(i1, i2))
            assert np.array_equal(both[..., i1, i2], expect)
    profiles = np.zeros_like(planes)
    profiles[0], profiles[1] = a[:, None], b
    for i1, u1 in enumerate(plan.u1.coords):
        expect = _translate_planes(profiles, ax1, ax2, (u1, 0.0))
        assert np.array_equal(a_rows[:, i1], expect[0, :, 0])
    for i2, u2 in enumerate(plan.u2.coords):
        expect = _translate_planes(profiles, ax1, ax2, (0.0, u2))
        assert np.array_equal(b_cols[:, i2], expect[1, 0])


@settings(max_examples=30, deadline=None)
@given(grid=rectangular_grids(), seed=st.integers(0, 2**32 - 2))
def test_window_cover_is_the_sum_of_translated_densities(grid, seed):
    # integer densities, so that both sums are exact in any order
    ax1, ax2, stride = grid
    plan = make_plan(ax1, ax2, stride=stride)
    density = np.random.default_rng(seed).integers(-8, 9, (4, ax1.n, ax2.n)).astype(float)
    expect = sum(_translate_planes(density, ax1, ax2, plan.translation(i1, i2))
                 for i1 in range(plan.u1.n) for i2 in range(plan.u2.n))
    cover = stqolct._window_cover(plan, density)
    assert np.array_equal(cover, expect * (plan.u1.step * plan.u2.step))


@settings(max_examples=30, deadline=None)
@given(params1=sextets(), params2=sextets(), grid=rectangular_grids(),
       seed=st.integers(0, 2**32 - 2), shape=st.sampled_from(sorted(WINDOW_MASKS)))
def test_row_engine_matches_direct(params1, params2, grid, seed, shape):
    _check_row_engine_against_direct(params1, params2, grid, seed, shape)


def test_row_engine_matches_direct_on_two_threads(monkeypatch):
    monkeypatch.setenv("QTF_THREADS", "2")
    grid = (Axis.centered(12, 6.0), Axis.centered(8, 3.0), 1)
    _check_row_engine_against_direct(MIXED, NEG_B, grid, seed=404)


def _check_row_engine_against_direct(params1, params2, grid, seed, shape="full"):
    ax1, ax2, stride = grid
    window = shaped_window(ax1, ax2, shape, seed=seed)
    plan = StqolctPlan.create(params1, params2, ax1, ax2, window, stride=stride)
    assert len(plan._terms) == WINDOW_TERMS[shape]
    assert plan._factors is None
    _check_fast_against_direct(plan, seed + 1)


def _check_fast_against_direct(plan, seed):
    f = random_signal(plan.ax1, plan.ax2, seed=seed)
    fast = stqolct_forward(f, plan, "via_qolct").data
    direct = stqolct_forward(f, plan, "direct").data
    assert np.max(np.abs(fast - direct)) < 1e-9


@settings(max_examples=30, deadline=None)
@given(params1=sextets(), params2=sextets(), grid=rectangular_grids(),
       seed=st.integers(0, 2**32 - 2))
def test_factored_row_engine_matches_direct(params1, params2, grid, seed):
    ax1, ax2, stride = grid
    window = factored_window(ax1, ax2, seed)
    plan = StqolctPlan.create(params1, params2, ax1, ax2, window, stride=stride)
    assert plan._factors is not None
    _check_fast_against_direct(plan, seed + 1)


@settings(max_examples=30, deadline=None)
@given(params1=sextets(), params2=sextets(), grid=rectangular_grids(strides=(1,)),
       seed=st.integers(0, 2**32 - 2))
def test_factored_reconstruction_matches_direct(params1, params2, grid, seed):
    ax1, ax2, _ = grid
    window = factored_window(ax1, ax2, seed)
    plan = StqolctPlan.create(params1, params2, ax1, ax2, window)
    assert plan._factors is not None
    _check_reconstruction_against_direct(plan, seed + 1)


def _check_reconstruction_against_direct(plan, seed):
    # the dense and the streamed reconstruction, each against the direct
    # inverse quadrature of the same field
    f = random_signal(plan.ax1, plan.ax2, seed=seed)
    field = stqolct_forward(f, plan)
    direct = stqolct_reconstruct(field, mode="direct").data
    rec = _Reconstruction(plan)
    _stream(f, plan, rec)
    for fast in (stqolct_reconstruct(field).data, rec.result().data):
        assert np.max(np.abs(fast - direct)) < 1e-9


@pytest.mark.parametrize("amplitude", [None, quat(0.8, 0.3, 0.0, 0.1)])
def test_a_gaussian_factors_and_one_off_by_1e_9_at_a_sample_does_not(amplitude):
    ax1, ax2 = Axis.centered(12, 6.0), Axis.centered(10, 5.0)
    window = gaussian_signal(ax1, ax2, 2.0, amplitude=amplitude)
    plan = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, window)
    assert plan._factors is not None
    _check_fast_against_direct(plan, seed=420)
    _check_reconstruction_against_direct(plan, seed=421)
    window.data[7, 3, 0] += 1e-9 * np.max(qnorm(window.data))
    plan = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, window)
    assert plan._factors is None
    _check_fast_against_direct(plan, seed=420)
    _check_reconstruction_against_direct(plan, seed=421)


@pytest.mark.parametrize("window", ["factored", "two-axis"])
def test_a_plan_analyses_its_window_once(monkeypatch, window):
    # one streamed pass with both reducers, then a dense field and its
    # reconstruction, all on one plan: each analysis runs at most once,
    # and the term split only for a window that does not factor
    monkeypatch.setenv("QTF_THREADS", "2")
    ax1, ax2 = Axis.centered(12, 6.0), Axis.centered(10, 5.0)
    phi = (gaussian_signal(ax1, ax2, 1.5, amplitude=quat(0.8, 0.3, 0.0, 0.1))
           if window == "factored" else random_signal(ax1, ax2, seed=422))
    plan = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, phi)
    runs = Counter()
    for name in ("_factors", "_terms"):
        analysis = getattr(StqolctPlan, name)

        def counting(plan, name=name, func=analysis.func):
            runs[name] += 1
            return func(plan)

        monkeypatch.setattr(analysis, "func", counting)
    f = random_signal(ax1, ax2, seed=423)
    _stream(f, plan, _FieldSums(plan), _Reconstruction(plan))
    stqolct_reconstruct(stqolct_forward(f, plan))
    factors = plan._factors
    assert runs == ({"_factors": 1} if window == "factored" else {"_factors": 1, "_terms": 1})
    assert (factors is None) == (window == "two-axis")
    assert plan._factors is factors


def _rel(a, b):
    return float(np.linalg.norm(np.ravel(a - b)) / np.linalg.norm(np.ravel(b)))


@pytest.mark.parametrize("params", [(MIXED, NEG_B), (NEG_B, UNIT_B)])
def test_streamed_reducers_match_dense_reductions(params):
    ax1, ax2 = Axis.centered(16, 8.0), Axis.centered(12, 6.0)
    f = random_signal(ax1, ax2, seed=400)
    g = random_signal(ax1, ax2, seed=401)
    phi = random_signal(ax1, ax2, seed=402)
    psi = random_signal(ax1, ax2, seed=403)
    plan = StqolctPlan.create(*params, ax1, ax2, phi, stride=1)

    sums = _FieldSums(plan)
    rec = _Reconstruction(plan)
    _stream(f, plan, sums, rec)

    field = stqolct_forward(f, plan)
    sq = np.sum(field.data ** 2, axis=-1)
    du = plan.u1.step * plan.u2.step
    assert _rel(sums.energy, float(np.sum(sq)) * field.cell_volume) < 1e-12
    assert _rel(sums.w_marginal, np.sum(sq, axis=(2, 3)) * du) < 1e-12
    assert _rel(sums.sup, float(np.sqrt(np.max(sq)))) < 1e-12

    expect = np.zeros((16, 12, 4))
    for i1 in range(plan.u1.n):
        for i2 in range(plan.u2.n):
            g_u = qolct_inverse(coefficient_slice(field, i1, i2), plan.qolct)
            shifted = translate_window(phi, plan.translation(i1, i2))
            expect += qmul(g_u.data, shifted.data)
    expect *= du / l2_norm(phi) ** 2
    assert _rel(rec.result().data, expect) < 1e-12

    assert _rel(sums.u_energy, np.sum(sq, axis=(0, 1))) < 1e-12

    qplan = plan.qolct
    cases = [(f, g, phi, phi), (f, f, phi, psi), (f, g, phi, psi)]
    dense = {(id(s), id(w)): stqolct_forward(
        s, StqolctPlan.create(*params, ax1, ax2, w, stride=1)).data
        for s, w in ((f, phi), (g, phi), (f, psi), (g, psi))}
    for a, b, wa, wb in cases:
        res = moyal_check(a, b, wa, wb, qplan)
        lhs = np.sum(qmul(dense[id(a), id(wa)], qconj(dense[id(b), id(wb)])),
                     axis=(0, 1, 2, 3)) * field.cell_volume
        assert _rel(res.lhs, lhs) < 1e-12


# -- row passes ------------------------------------------------------------

def named_window(ax1, ax2, name):
    """The windows of the pass tests: three that factor and one that does not."""
    return {"real-gaussian": lambda: gaussian_signal(ax1, ax2, 2.0),
            "quaternion-gaussian": lambda: gaussian_signal(ax1, ax2, 1.5,
                                                           amplitude=quat(0.8, 0.3, 0.0, 0.1)),
            "rank-one": lambda: factored_window(ax1, ax2, seed=416),
            "random": lambda: random_signal(ax1, ax2, seed=416)}[name]()


def _pass_outputs(f, plan):
    """Every row-pass result for one signal and plan, as a dict of arrays."""
    field = stqolct_forward(f, plan)
    out = {"forward": field.data, "energy": stqolct_energy(field),
           "marginal": field_w_energy_map(field).values}
    sums = _FieldSums(plan)
    reducers = [sums]
    if plan.stride == 1:
        out["reconstruct"] = stqolct_reconstruct(field).data
        reducers.append(_Reconstruction(plan))
    _stream(f, plan, *reducers)
    out.update(stream_energy=sums.energy, stream_sup=sums.sup,
               stream_marginal=sums.w_marginal, stream_u_energy=sums.u_energy)
    if plan.stride == 1:
        out["stream_reconstruct"] = reducers[1].result().data
    return out


@pytest.mark.parametrize("window", ["real-gaussian", "quaternion-gaussian", "rank-one",
                                    "random"])
@pytest.mark.parametrize("n1, n2, stride", [(12, 10, 1), (16, 16, 4)])
def test_each_engine_is_bit_identical_at_1_2_and_3_threads(monkeypatch, window, n1, n2,
                                                           stride):
    # stride 1 also runs both reconstructions; stride 4 leaves 4 rows for
    # up to 3 workers
    ax1, ax2 = Axis.centered(n1, 6.0), Axis.centered(n2, 5.0)
    plan = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, named_window(ax1, ax2, window),
                              stride=stride)
    assert (plan._factors is None) == (window == "random")
    f = random_signal(plan.ax1, plan.ax2, seed=417)
    runs = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("QTF_THREADS", threads)
        runs.append(_pass_outputs(f, plan))
    for run in runs[1:]:
        assert run.keys() == runs[0].keys()
        for key, value in run.items():
            assert np.array_equal(value, runs[0][key]), key


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("stride", [1, 2, 4])
@pytest.mark.parametrize("window", ["real-gaussian", "quaternion-gaussian", "rank-one"])
def test_a_slab_built_field_equals_the_streamed_rows(monkeypatch, window, stride, threads):
    # stqolct_forward builds a factored window's field one w2 slab at a
    # time; the streamed reducers take it one u1 row at a time, and both
    # orders must give every coefficient to the last bit once joined
    monkeypatch.setenv("QTF_THREADS", threads)
    ax1, ax2 = Axis.centered(24, 6.0), Axis.centered(20, 5.0)
    plan = StqolctPlan.create(MIXED, NEG_B, ax1, ax2, named_window(ax1, ax2, window),
                              stride=stride)
    assert plan._factors is not None
    f = random_signal(ax1, ax2, seed=419)
    rows = np.full(stqolct._field_shape(plan) + (4,), np.nan)

    def keep(i1, buffers):
        rows[:, :, i1] = _join_channels(buffers.p, buffers.m)

    _stream(f, plan, keep)
    assert np.array_equal(stqolct_forward(f, plan).data, rows)


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("n1, n2, stride", [(12, 10, 1), (16, 16, 4)])
def test_a_pass_feeds_each_row_once_in_chunk_order(monkeypatch, threads, n1, n2, stride):
    # every row comes once, with the dense field's values: the engine's
    # channels join to the field's row, and a replayed row's channels are
    # the split of half of it; the workers take rows from one counter, so
    # each worker's rows come in order
    monkeypatch.setenv("QTF_THREADS", threads)
    ax1, ax2 = Axis.centered(n1, 6.0), Axis.centered(n2, 5.0)
    plan = make_plan(ax1, ax2, stride=stride)
    f = random_signal(ax1, ax2, seed=415)
    field = stqolct_forward(f, plan)
    def streamed(i1, buffers):
        return np.array_equal(_join_channels(buffers.p, buffers.m), field.data[:, :, i1])

    def replayed(i1, buffers):
        return all(np.array_equal(chan, expect) for chan, expect in
                   zip((buffers.p, buffers.m), _split_channels(0.5 * field.data[:, :, i1])))

    for feed, row_matches in ((lambda reducer: _stream(f, plan, reducer), streamed),
                              (lambda reducer: _replay(field, reducer), replayed)):
        calls = []

        def record(i1, buffers):
            calls.append((threading.get_ident(), i1, row_matches(i1, buffers)))

        feed(record)
        assert sorted(i1 for _, i1, _ in calls) == list(range(plan.u1.n))
        assert all(row_ok for _, _, row_ok in calls)
        for worker in {ident for ident, _, _ in calls}:
            rows = [i1 for ident, i1, _ in calls if ident == worker]
            assert rows == sorted(rows)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_a_reducer_raising_on_one_row_makes_the_pass_raise(monkeypatch, threads):
    monkeypatch.setenv("QTF_THREADS", threads)
    ax1, ax2 = Axis.centered(12, 6.0), Axis.centered(10, 5.0)
    plan = make_plan(ax1, ax2)

    def faulty(i1, buffers):
        if i1 == 7:
            raise ArithmeticError(f"row {i1}")

    with pytest.raises(ArithmeticError, match="row 7"):
        _stream(random_signal(ax1, ax2, seed=418), plan, faulty)


def test_workers_take_each_row_once_under_contention(monkeypatch):
    # more workers than cores and a short switch interval, so the workers
    # race for the shared row counter; a lost update repeats or skips a row
    monkeypatch.setenv("QTF_THREADS", "5")
    rows = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _pass((1, 1, 2000, 1), lambda i1, buffers: None, lambda i1, buffers: rows.append(i1))
    finally:
        sys.setswitchinterval(interval)
    assert Counter(rows) == Counter(range(2000))


class TestRowPool:
    def test_bad_thread_env_rejected_by_a_direct_pass(self, monkeypatch, small_axes):
        monkeypatch.setenv("QTF_THREADS", "many")
        plan = make_plan(*small_axes, stride=4)
        with pytest.raises(ParameterError):
            stqolct_forward(random_signal(*small_axes, seed=411), plan)

    def test_auto_workers_follow_the_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("QTF_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _max_workers() == 1

    def test_one_pool_per_direct_call(self, monkeypatch, row_pools, small_axes):
        monkeypatch.setenv("QTF_THREADS", "2")
        plan = make_plan(*small_axes)
        f = random_signal(*small_axes, seed=412)
        field = stqolct_forward(f, plan)
        assert len(row_pools) == 1
        stqolct_reconstruct(field)
        assert len(row_pools) == 2
        # one pool per pass: two forwards, then one forward whose marginal
        # is reduced without a pass
        moyal_check(f, f, plan.window, plan.window, plan.qolct)
        assert len(row_pools) == 4
        donoho_stark_check(f, plan, 0.1, 0.1)
        assert len(row_pools) == 5

    @pytest.mark.parametrize("launch", ["thread", "caller-pool"])
    def test_passes_off_the_main_thread_run_inline(self, monkeypatch, row_pools, launch):
        monkeypatch.setenv("QTF_THREADS", "2")
        ax1, ax2 = Axis.centered(12, 6.0), Axis.centered(10, 5.0)
        plan = make_plan(ax1, ax2)
        f = random_signal(ax1, ax2, seed=414)
        main = _pass_outputs(f, plan)
        # one per pass: forward, reconstruction, stream; the dense energy
        # and marginal run no pass
        assert len(row_pools) == 3
        del row_pools[:]
        if launch == "thread":
            outs = []
            worker = threading.Thread(target=lambda: outs.append(_pass_outputs(f, plan)))
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
        else:
            # two at once, as a caller's own 2-worker pool would run them
            with ThreadPoolExecutor(2) as pool:
                futures = [pool.submit(_pass_outputs, f, plan) for _ in range(2)]
                outs = [future.result(timeout=60) for future in futures]
        assert row_pools == []
        assert outs
        for out in outs:
            assert out.keys() == main.keys()
            for key, value in out.items():
                assert np.array_equal(value, main[key]), key

    def test_no_pool_on_one_thread(self, monkeypatch, row_pools, small_axes):
        monkeypatch.setenv("QTF_THREADS", "1")
        plan = make_plan(*small_axes)
        f = random_signal(*small_axes, seed=413)
        stqolct_reconstruct(stqolct_forward(f, plan))
        moyal_check(f, f, plan.window, plan.window, plan.qolct)
        assert row_pools == []


class TestSpares:
    """Dense fields handed back by ``_discard`` and reused by ``_field_array``.

    ``_SPARE_BYTES`` is lowered to 1 byte, so that the small fields here
    are kept as the 32 MiB ones are.
    """

    @pytest.fixture(autouse=True)
    def keep_every_size(self, monkeypatch):
        monkeypatch.setattr(stqolct, "_SPARE_BYTES", 1)

    @staticmethod
    def moyal_inputs(n=8):
        ax = Axis.centered(n, 4.0)
        f = gaussian_signal(ax, ax, 1.0)
        g = GridSignal2D(ax, ax, qmul(chirp_signal(ax, ax, 0.3, -0.2).data, f.data))
        phi = gaussian_signal(ax, ax, 2.0)
        psi = gaussian_signal(ax, ax, 1.5, amplitude=quat(0.8, 0.3, 0.0, 0.1))
        return f, g, phi, psi, QolctPlan.for_axes(UNIT_B, MIXED, ax, ax)

    @staticmethod
    def on_one_worker(*calls):
        """Run the calls in order on one worker thread; their results."""
        with ThreadPoolExecutor(1) as pool:
            return [pool.submit(call).result(timeout=60) for call in calls]

    @staticmethod
    def built_arrays(monkeypatch):
        """The data arrays of the fields stqolct_forward returns, in order."""
        arrays = []
        forward = stqolct.stqolct_forward

        def recorded(*args, **kwargs):
            field = forward(*args, **kwargs)
            arrays.append(field.data)
            return field

        monkeypatch.setattr(stqolct, "stqolct_forward", recorded)
        monkeypatch.setattr(uncertainty, "stqolct_forward", recorded)
        return arrays

    def test_a_second_moyal_check_on_a_worker_reuses_the_first_ones_arrays(self,
                                                                          monkeypatch):
        f, g, phi, psi, qplan = self.moyal_inputs()
        arrays = self.built_arrays(monkeypatch)
        # the second call pairs other signals and windows, so every value
        # it reads from a reused array must have been written again
        first, second = self.on_one_worker(lambda: moyal_check(f, g, phi, psi, qplan),
                                           lambda: moyal_check(g, f, psi, phi, qplan))
        assert len(arrays) == 4
        assert np.shares_memory(arrays[2], arrays[0])
        assert np.shares_memory(arrays[3], arrays[1])
        fresh = moyal_check(g, f, psi, phi, qplan)
        assert np.array_equal(second.lhs, fresh.lhs)
        assert np.array_equal(second.rhs, fresh.rhs)
        assert np.array_equal(first.lhs, moyal_check(f, g, phi, psi, qplan).lhs)

    def test_the_main_thread_keeps_no_spare(self, monkeypatch):
        f, g, phi, psi, qplan = self.moyal_inputs()
        arrays = self.built_arrays(monkeypatch)
        moyal_check(f, g, phi, psi, qplan)
        plan = StqolctPlan.create(UNIT_B, MIXED, f.ax1, f.ax2, phi, stride=1)
        donoho_stark_check(f, plan, 0.1, 0.1)
        moyal_check(f, g, phi, psi, qplan)
        assert getattr(stqolct._spares, "arrays", []) == []
        assert len(arrays) == 5
        assert not any(np.shares_memory(a, b) for k, a in enumerate(arrays)
                       for b in arrays[:k])

    def test_a_large_field_of_another_shape_frees_the_spares_first(self, monkeypatch):
        f, g, phi, psi, qplan = self.moyal_inputs(8)
        big = gaussian_signal(Axis.centered(12, 4.0), Axis.centered(12, 4.0), 1.0)
        plan = StqolctPlan.create(UNIT_B, MIXED, big.ax1, big.ax2, big, stride=1)
        shape = stqolct._field_shape(plan) + (4,)
        empty, alive = np.empty, []

        def watched(*args, **kwargs):
            if args and args[0] == shape:
                alive.append(sum(ref() is not None for ref in refs))
            return empty(*args, **kwargs)

        def spares_then_big():
            moyal_check(f, g, phi, psi, qplan)
            refs.extend(weakref.ref(a) for a in stqolct._spares.arrays)
            monkeypatch.setattr(np, "empty", watched)
            stqolct_forward(big, plan)
            return len(stqolct._spares.arrays)

        refs = []
        assert self.on_one_worker(spares_then_big) == [0]
        assert len(refs) == 2
        # the two 8-point spares were freed before the 12-point field was
        # allocated, not after
        assert alive == [0]

    def test_a_thread_never_holds_more_than_two_spares(self):
        f, g, phi, psi, qplan = self.moyal_inputs()
        plan = StqolctPlan.create(UNIT_B, MIXED, f.ax1, f.ax2, phi, stride=1)
        held = []

        def count():
            held.append(len(stqolct._spares.arrays))

        self.on_one_worker(lambda: moyal_check(f, g, phi, psi, qplan), count,
                           lambda: donoho_stark_check(f, plan, 0.1, 0.1), count,
                           lambda: _discard(*(stqolct_forward(f, plan) for _ in range(3))),
                           count)
        assert held == [2, 2, 2]

    def test_no_spare_is_alive_after_run_verification(self, monkeypatch):
        monkeypatch.setenv("QTF_THREADS", "2")
        refs, reused = [], []
        field_array = stqolct._field_array

        def recorded(shape):
            array = field_array(shape)
            reused.append(any(ref() is array for ref in refs))
            refs.append(weakref.ref(array))
            return array

        monkeypatch.setattr(stqolct, "_field_array", recorded)
        config = RunConfig.from_dict({**default_config_dict(), "n": 16})
        results = run_verification(config, only=["moyal-shared-window", "moyal-general",
                                                 "donoho-stark-support"])
        assert len(results) == 9
        assert any(reused)
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
