"""Acceptance criteria, one test per criterion, each printing a verdict line.

The expensive stride-1 coefficient stacks are built once per module and
shared; everything else runs at the grid scales stated with each
criterion.
"""

import math

import numpy as np
import pytest

from conftest import random_signal
from qtfa import (Axis, GridSignal2D, OlctParams, QftPlan, QolctPlan,
                  StqolctPlan, chirp_signal, donoho_stark_check,
                  essential_support, field_w_energy_map, gaussian_signal,
                  hardy_decay_fit, l2_norm, load_signal, log_up_check,
                  log_up_constant, moyal_check, pitt_check, pitt_constant,
                  pointwise_mul, qconj, qft_forward, qft_inverse, qft_modulus,
                  qmul, qnorm, qolct_forward, qolct_inverse, quat, save_signal,
                  stqolct_energy, stqolct_forward, stqolct_reconstruct)
from qtfa.cli import main as cli_main

EULER_GAMMA = 0.5772156649015329

MIXED = OlctParams(0.6, 0.5, -0.8, 1.0, 0.3, -0.2)
OFFSET_SHEAR = OlctParams(1.0, 0.8, 0.0, 1.0, -0.4, 0.25)
UNIT_B = OlctParams(1, 1, 0, 1, 0.2, -0.4)
NEG_B = OlctParams(0, -1, 1, 0, 0.2, -0.1)
PARAM_PAIRS = [(MIXED, OFFSET_SHEAR), (UNIT_B, UNIT_B), (NEG_B, NEG_B)]


def verdict(number, name, ok, detail):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {name:38s} {state}  ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def corpus():
    """Three stride-1 coefficient stacks over distinct parameter pairs."""
    entries = []
    ax64 = Axis.centered(64, 8.0)
    f = gaussian_signal(ax64, ax64, 1.0)
    window = gaussian_signal(ax64, ax64, 2.0)
    plan = StqolctPlan.create(MIXED, OFFSET_SHEAR, ax64, ax64, window, stride=1)
    entries.append(("n64-mixed", f, plan, stqolct_forward(f, plan)))

    ax32 = Axis.centered(32, 8.0)
    f2 = gaussian_signal(ax32, ax32, 0.5)
    w2 = gaussian_signal(ax32, ax32, 1.0)
    plan2 = StqolctPlan.create(UNIT_B, UNIT_B, ax32, ax32, w2, stride=1)
    entries.append(("n32-unit-b", f2, plan2, stqolct_forward(f2, plan2)))

    f3 = pointwise_mul(chirp_signal(ax32, ax32, 0.25, -0.2, 1.0, -0.5),
                       gaussian_signal(ax32, ax32, 1.0))
    w3 = gaussian_signal(ax32, ax32, 2.0)
    plan3 = StqolctPlan.create(NEG_B, NEG_B, ax32, ax32, w3, stride=1)
    entries.append(("n32-neg-b", f3, plan3, stqolct_forward(f3, plan3)))
    return entries


def test_criterion_01_oracle_equivalence():
    ax = Axis.centered(16, 8.0)
    qft_plan = QftPlan.for_axes(ax, ax)
    qolct_plan = QolctPlan.for_axes(MIXED, NEG_B, ax, ax)
    worst = 0.0
    for seed in range(100):
        f = random_signal(ax, ax, seed=seed)
        worst = max(worst, float(np.max(np.abs(
            qft_forward(f, qft_plan, "fast").data
            - qft_forward(f, qft_plan, "direct").data))))
        worst = max(worst, float(np.max(np.abs(
            qolct_forward(f, qolct_plan, "fast").data
            - qolct_forward(f, qolct_plan, "direct").data))))
    # tie the chain to the literal four-nested-loop sum once at this size
    from test_qft import quadruple_loop_qft
    from test_qolct import quadruple_loop_qolct
    f = random_signal(ax, ax, seed=0)
    loop_dev = max(
        float(np.max(np.abs(qft_forward(f, qft_plan, "direct").data
                            - quadruple_loop_qft(f, qft_plan)))),
        float(np.max(np.abs(qolct_forward(f, qolct_plan, "direct").data
                            - quadruple_loop_qolct(f, qolct_plan)))))
    ok = worst < 1e-9 and loop_dev < 1e-9
    verdict(1, "fast vs direct oracle (100 seeds)", ok,
            f"max abs diff {worst:.3g} < 1e-9, literal-loop tie-in {loop_dev:.3g}")


def test_criterion_02_roundtrips(corpus):
    ax = Axis.centered(128, 8.0)
    qft_plan = QftPlan.for_axes(ax, ax)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        f = gaussian_signal(ax, ax, alpha)
        back = qft_inverse(qft_forward(f, qft_plan), qft_plan)
        worst = max(worst, np.sqrt(np.sum((back.data - f.data) ** 2)
                                   / np.sum(f.data ** 2)))
        for p1, p2 in PARAM_PAIRS:
            plan = QolctPlan.for_axes(p1, p2, ax, ax)
            back = qolct_inverse(qolct_forward(f, plan), plan)
            worst = max(worst, np.sqrt(np.sum((back.data - f.data) ** 2)
                                       / np.sum(f.data ** 2)))
    name, f64, plan64, field64 = corpus[0]
    rec = stqolct_reconstruct(field64)
    rec_err = np.sqrt(np.sum((rec.data - f64.data) ** 2) / np.sum(f64.data ** 2))
    ok = worst < 1e-6 and rec_err < 1e-3
    verdict(2, "transform roundtrips + reconstruction", ok,
            f"qft/qolct {worst:.3g} < 1e-6, stqolct n=64 {rec_err:.3g} < 1e-3")


def test_criterion_03_plancherel():
    ax = Axis.centered(128, 8.0)
    qft_plan = QftPlan.for_axes(ax, ax)
    worst_qft = 0.0
    worst_qolct = 0.0
    for alpha in (0.5, 1.0, 2.0):
        f = gaussian_signal(ax, ax, alpha)
        F = qft_forward(f, qft_plan)
        ratio = (np.sum(qft_modulus(F) ** 2) * F.cell_area
                 / (4 * np.pi ** 2 * l2_norm(f) ** 2))
        worst_qft = max(worst_qft, abs(ratio - 1.0))
        for p1, p2 in PARAM_PAIRS:
            plan = QolctPlan.for_axes(p1, p2, ax, ax)
            worst_qolct = max(worst_qolct,
                              abs(l2_norm(qolct_forward(f, plan)) / l2_norm(f) - 1.0))
    ok = worst_qft < 1e-6 and worst_qolct < 1e-4
    verdict(3, "energy preservation (incl. b<0)", ok,
            f"qft ratio dev {worst_qft:.3g} < 1e-6, qolct dev {worst_qolct:.3g} < 1e-4")


def test_criterion_04_energy_and_moyal(corpus):
    name, f, plan, field = corpus[0]
    expect = l2_norm(plan.window) ** 2 * l2_norm(f) ** 2
    energy_dev = abs(stqolct_energy(field) - expect) / expect

    ax = Axis.centered(32, 8.0)
    qplan = QolctPlan.for_axes(UNIT_B, MIXED, ax, ax)
    fa = gaussian_signal(ax, ax, 1.0, amplitude=quat(1.0, 0.2, -0.1, 0.4))
    g = pointwise_mul(chirp_signal(ax, ax, 0.3, -0.2), gaussian_signal(ax, ax, 0.75))
    phi = gaussian_signal(ax, ax, 2.0)
    psi = gaussian_signal(ax, ax, 1.5, amplitude=quat(0.7, 0.0, 0.3, -0.2))
    shared_window = moyal_check(fa, g, phi, phi, qplan)
    dev_w = (abs(shared_window.lhs[0] - shared_window.rhs[0])
             / (l2_norm(phi) ** 2 * l2_norm(fa) * l2_norm(g)))
    shared_signal = moyal_check(fa, fa, phi, psi, qplan)
    dev_s = (abs(shared_signal.lhs[0] - shared_signal.rhs[0])
             / (l2_norm(fa) ** 2 * l2_norm(phi) * l2_norm(psi)))
    ok = energy_dev < 1e-3 and dev_w < 1e-3 and dev_s < 1e-3
    verdict(4, "energy identity + inner-product rules", ok,
            f"energy {energy_dev:.3g}, shared-window {dev_w:.3g}, "
            f"shared-signal {dev_s:.3g}, all < 1e-3")


def test_criterion_05_boundedness(corpus):
    margins = []
    ok = True
    for name, f, plan, field in corpus:
        p1, p2 = plan.qolct.params1, plan.qolct.params2
        bound = (l2_norm(f) * l2_norm(plan.window)
                 / (2 * math.pi * math.sqrt(abs(p1.b * p2.b))))
        sup = float(np.max(qnorm(field.data)))
        margins.append(bound - sup)
        ok = ok and sup <= bound + 1e-9
    verdict(5, "coefficient sup bound", ok,
            "margins " + ", ".join(f"{m:.3g}" for m in margins))


def test_criterion_06_donoho_stark(corpus):
    ok = True
    details = []
    for name, f, plan, field in corpus:
        marginal = field_w_energy_map(field)
        for eps in (0.0, 0.1, 0.25):
            res = donoho_stark_check(f, plan, eps, eps, marginal=marginal)
            ok = ok and res.passed
            details.append(f"{name} eps={eps}: margin {res.margin:.3g}")
    # greedy support equals the exhaustive optimum on sparse signals
    from itertools import combinations
    ax = Axis.centered(16, 8.0)
    rng = np.random.default_rng(606)
    greedy_ok = True
    for trial in range(5):
        data = np.zeros((16, 16, 4))
        for idx in rng.choice(256, size=10, replace=False):
            data[idx // 16, idx % 16] = rng.standard_normal(4)
        f = GridSignal2D(ax, ax, data)
        energies = np.sum(data ** 2, axis=-1)
        nonzero = [tuple(ij) for ij in np.argwhere(energies > 0)]
        total = energies.sum()
        for eps in (0.0, 0.2, 0.4):
            target = eps * eps * total + 1e-12 * total
            best = None
            for r in range(len(nonzero) + 1):
                if any(total - sum(energies[c] for c in combo) <= target
                       for combo in combinations(nonzero, r)):
                    best = r
                    break
            greedy_ok = greedy_ok and essential_support(f, eps).count == best
    ok = ok and greedy_ok
    verdict(6, "support-area product bound", ok,
            f"{len(details)} checks all passed, greedy=brute-force: {greedy_ok}")


def test_criterion_07_pitt(corpus):
    worst_const = max(
        abs(pitt_constant(a)
            - 4 * math.pi ** 2 / 2 ** a
            * (math.gamma((2 - a) / 4) / math.gamma((2 + a) / 4)) ** 2)
        / pitt_constant(a)
        for a in (0.0, 0.5, 1.0, 1.5, 1.9))
    name, f, plan, field = corpus[0]
    marginal = field_w_energy_map(field)
    sweep_ok = all(pitt_check(f, plan, a, marginal=marginal).passed
                   for a in (0.25, 0.5, 1.0, 1.5))
    res0 = pitt_check(f, plan, 0.0, marginal=marginal)
    eq_dev = abs(res0.lhs - res0.rhs) / res0.rhs
    ok = worst_const < 1e-9 and sweep_ok and eq_dev < 1e-3
    verdict(7, "weighted-norm inequality", ok,
            f"constant oracle dev {worst_const:.3g} < 1e-9, sweep pass, "
            f"alpha=0 equality dev {eq_dev:.3g} < 1e-3")


def test_criterion_08_log_up(corpus):
    const_dev = abs(log_up_constant() - (-EULER_GAMMA - math.log(2.0)))
    margins = []
    ok = const_dev < 1e-9
    for name, f, plan, field in corpus:
        res = log_up_check(f, plan, marginal=field_w_energy_map(field))
        margins.append(res.margin)
        ok = ok and res.passed
    verdict(8, "logarithmic bound (Pitt's derivative at alpha = 0)", ok,
            f"constant dev {const_dev:.3g} < 1e-9, margins "
            + ", ".join(f"{m:.3g}" for m in margins))


def test_criterion_09_hardy_equality_case():
    ax = Axis.centered(128, 8.0)
    plan = QftPlan.for_axes(ax, ax)
    worst = 0.0
    for alpha in (0.25, 0.5, 1.0, 2.0):
        F = qft_forward(gaussian_signal(ax, ax, alpha), plan)
        fit = hardy_decay_fit(qft_modulus(F), plan.w1.coords, plan.w2.coords, 3.0)
        worst = max(worst, abs(4 * alpha * fit.beta - 1.0))
    verdict(9, "Gaussian decay-rate recovery", worst < 0.02,
            f"max |4*alpha*beta - 1| = {worst:.3g} < 0.02")


def test_criterion_10_quaternion_algebra(rng):
    p, q, l = rng.standard_normal((3, 1000, 4))
    units = {"1": quat(1), "i": quat(0, 1), "j": quat(0, 0, 1), "k": quat(0, 0, 0, 1)}
    table = {("i", "j"): units["k"], ("j", "k"): units["i"], ("k", "i"): units["j"],
             ("j", "i"): -units["k"], ("k", "j"): -units["i"], ("i", "k"): -units["j"],
             ("i", "i"): -units["1"], ("j", "j"): -units["1"], ("k", "k"): -units["1"]}
    table_err = max(float(np.max(np.abs(qmul(units[a], units[b]) - want)))
                    for (a, b), want in table.items())
    norm_err = float(np.max(np.abs(qnorm(qmul(p, q)) - qnorm(p) * qnorm(q))
                            / (qnorm(p) * qnorm(q))))
    conj_err = float(np.max(np.abs(qconj(qmul(p, q)) - qmul(qconj(q), qconj(p)))))
    cyc_err = float(np.max(np.abs(qmul(qmul(p, q), l)[:, 0]
                                  - qmul(qmul(q, l), p)[:, 0])))
    worst = max(table_err, norm_err, conj_err, cyc_err)
    verdict(10, "quaternion algebra laws", worst < 1e-12,
            f"max deviation {worst:.3g} < 1e-12 on 1000 triples")


def test_criterion_11_file_formats(tmp_path, corpus):
    ax = Axis.centered(16, 8.0)
    f = random_signal(ax, ax, seed=1111)
    sig_path = tmp_path / "f.qs2d"
    save_signal(f, sig_path)
    bits_ok = np.array_equal(load_signal(sig_path).data, f.data)

    from qtfa import load_field, save_field
    name, _, plan32, field32 = corpus[1]
    field_path = tmp_path / "s.qtf4"
    save_field(field32, field_path)
    back = load_field(field_path)
    bits_ok = bits_ok and np.array_equal(back.data, field32.data)

    bad = tmp_path / "bad.qs2d"
    bad.write_bytes(b"JUNK" + bytes(60))
    code_bad_file = cli_main(["transform", "qft", "-i", str(bad),
                              "-o", str(tmp_path / "o.qs2d")])
    code_bad_config = cli_main(["transform", "qolct", "--A1", "1,1,0,2,0,0",
                                "--A2", "1,1,0,1,0,0", "-i", str(sig_path),
                                "-o", str(tmp_path / "o2.qs2d")])
    ok = bits_ok and code_bad_file == 2 and code_bad_config == 2
    verdict(11, "file formats + exit codes", ok,
            f"bit-identical roundtrips: {bits_ok}, malformed exit codes "
            f"{code_bad_file}/{code_bad_config} == 2/2")
