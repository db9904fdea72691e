"""Verification corpus: fixed checks over signals, transforms, and bounds.

``run_verification`` builds a corpus of test signals, windows, and
parameter sets and returns InequalityResult records (one JSON object per
line in report files).  A RunConfig sets only the grid size ``n``, the
``seed`` of the random signals and the ``param_sets`` under
certification; the rest of the corpus is the module constants below.
All margins are oriented so that nonnegative (within the recorded
tolerance) means pass, and every record gates the exit status.

One table, ``_CHECKS``, gives each pool task its check and the record
names it emits.  Tasks are independent and run on a small thread pool
(capped by the QTF_THREADS environment variable); the row passes inside a
task run their rows inline.  Each parameter set is seven tasks, queued in
report order: its ``params`` records (the QOLCT and the windowed
transform's routes against their oracles), ``reconstruction-exact`` and
``energy-exact`` (one streamed pass of a random signal per window), the
``field`` records (one streamed pass with its sums and its reconstruction
together), the exact-support corollary (its own dense field) and one task
per Moyal record (one ``moyal_check`` call each).  So each costly input
of a set is a task of its own, and a selection (``only``) picks tasks
alone: a task runs when it emits a selected name, computes all its
records, and one name filter at the end keeps the selected ones.  Each
check is deterministic for a fixed config, so results do not depend on
the degree of parallelism.  Before any task runs, the dense fields that
the pool's workers may hold at once are checked against the memory
budget (``_check_dense_fields``).
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import FormatError, ParameterError
from .grid import Axis, GridSignal2D, _check_memory, chirp_signal, gaussian_signal, l2_norm
from .qft import QftPlan, qft_forward, qft_inverse, qft_modulus
from .qolct import OlctParams, QolctPlan, qolct_forward, qolct_inverse
from .quaternion import qconj, qmul, qnorm, quat
from .stqolct import (StqolctPlan, _FieldSums, _max_workers, _Reconstruction, _stream,
                      _translations, _window_cover, moyal_check, stqolct_forward)
from .uncertainty import (InequalityResult, _marginal_map, donoho_stark_check,
                          hardy_decay_fit, log_up_check, log_up_constant, pitt_check,
                          pitt_constant)

__all__ = ["RunConfig", "default_config_dict", "run_verification", "write_report",
           "load_report", "format_report_table", "gated_failures"]

#: the amplitude of the quaternion windows: psi, and one window of stqolct-routes
_PSI_AMPLITUDE = quat(0.8, 0.3, 0.0, 0.1)

#: the corpus: every grid's half-width, the field window's Gaussian rate,
#: the signals' Gaussian rates and chirp, and each check's levels
_EXTENT = 8.0
_WINDOW_ALPHA = 2.0
_GAUSSIAN_ALPHAS = (0.5, 1.0, 2.0)
_CHIRP = {"rate1": 0.25, "rate2": -0.2, "freq1": 1.0, "freq2": -0.5}
_EPS = (0.0, 0.1, 0.25)
_PITT_ALPHAS = (0.0, 0.5, 1.0, 1.5)
_HARDY_ALPHAS = (0.25, 0.5, 1.0, 2.0)
_HARDY_RADIUS = 3.0
_HARDY_N = 128
#: the oracle grid, a multiple of 4: stqolct-routes takes stride 4 on it
_ORACLE_N = 16
_ORACLE_TRIALS = 5
#: the Moyal records' largest grid: their two dense fields are 64 n^4 bytes
_MOYAL_N = 48


def default_config_dict():
    return {
        "n": 64,
        "param_sets": [
            {"name": "fourier", "A1": [0, 1, -1, 0, 0, 0], "A2": [0, 1, -1, 0, 0, 0]},
            {"name": "offset-mixed", "A1": [0.6, 0.5, -0.8, 1.0, 0.3, -0.2],
             "A2": [1.0, 0.8, 0.0, 1.0, -0.4, 0.25]},
            {"name": "negative-b", "A1": [0, -1, 1, 0, 0.2, -0.1],
             "A2": [0, -1, 1, 0, 0.0, 0.3]},
        ],
        "seed": 0,
    }


@dataclass
class RunConfig:
    n: int
    param_sets: list  # [(name, OlctParams, OlctParams)]
    seed: int

    @classmethod
    def from_dict(cls, raw):
        base = default_config_dict()
        unknown = set(raw) - set(base)
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        merged = {**base, **raw}
        if not isinstance(merged["param_sets"], list):
            raise ParameterError(f"param_sets must be a list, got {merged['param_sets']!r}")
        param_sets = []
        for entry in merged["param_sets"]:
            if not isinstance(entry, dict) or "A1" not in entry or "A2" not in entry:
                raise ParameterError(f"param set needs 'A1' and 'A2' sextets: {entry}")
            name = str(entry.get("name", f"set{len(param_sets)}"))
            # records and pool tasks are told apart by the set's name
            if any(name == other for other, _, _ in param_sets):
                raise ParameterError(f"parameter set name {name!r} is used twice")
            a1 = OlctParams(*_sextet(f"{name} A1", entry["A1"]))
            a2 = OlctParams(*_sextet(f"{name} A2", entry["A2"]))
            param_sets.append((name, a1, a2))
        if not param_sets:
            raise ParameterError("config needs at least one parameter set")
        config = cls(n=_integer("n", merged["n"]), param_sets=param_sets,
                     seed=_integer("seed", merged["seed"]))
        if config.n < 4 or config.n % 2:
            raise ParameterError(f"n must be even and at least 4, got {config.n}")
        if config.seed < 0:
            raise ParameterError(f"seed must be nonnegative, got {config.seed}")
        return config


def _axes(n):
    """The corpus grid of n samples per axis."""
    return Axis.centered(n, _EXTENT), Axis.centered(n, _EXTENT)


def _number(key, value):
    """A config value that must be a finite number, as a float."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ParameterError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(key, value):
    """A config value that must be integral, as an int."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer()):
        raise ParameterError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _sextet(key, value):
    """A config value that must be a list of 6 finite numbers."""
    if not isinstance(value, list) or len(value) != 6:
        raise ParameterError(f"{key} must be a list of 6 numbers, got {value!r}")
    return [_number(key, v) for v in value]


def _close(name, params, value, reference, tol):
    """Record for a 'value matches reference within relative tol' check."""
    scale = max(abs(reference), 1e-300)
    err = abs(value - reference) / scale
    return InequalityResult(name=name, params=params, lhs=value, rhs=reference,
                            margin=tol - err, tolerance=tol, passed=bool(err <= tol))


def _below(name, params, value, bound, tol):
    """Record for a 'value stays below bound within tol' check."""
    return InequalityResult(name=name, params=params, lhs=value, rhs=bound,
                            margin=bound + tol - value, tolerance=tol,
                            passed=bool(value <= bound + tol))


def _rand_signal(ax1, ax2, rng):
    return GridSignal2D(ax1, ax2, rng.standard_normal((ax1.n, ax2.n, 4)))


def _rel_l2(f, g):
    diff = float(np.sqrt(np.sum((f.data - g.data) ** 2)))
    ref = float(np.sqrt(np.sum(g.data ** 2)))
    return diff / max(ref, 1e-300)


def _max_abs(a, b):
    return float(np.max(np.abs(a - b)))


def _check_quat_algebra(config):
    rng = np.random.default_rng(config.seed)
    p, q, l = (rng.standard_normal((1000, 4)) for _ in range(3))
    results = []
    units = {"1": quat(1), "i": quat(0, 1), "j": quat(0, 0, 1), "k": quat(0, 0, 0, 1)}
    table = {
        ("i", "i"): -units["1"], ("j", "j"): -units["1"], ("k", "k"): -units["1"],
        ("i", "j"): units["k"], ("j", "i"): -units["k"],
        ("j", "k"): units["i"], ("k", "j"): -units["i"],
        ("k", "i"): units["j"], ("i", "k"): -units["j"],
    }
    worst = max(float(np.max(np.abs(qmul(units[a], units[b]) - expect)))
                for (a, b), expect in table.items())
    results.append(_below("quat-table", {}, worst, 0.0, 0.0))
    norm_err = float(np.max(np.abs(qnorm(qmul(p, q)) - qnorm(p) * qnorm(q))
                            / (qnorm(p) * qnorm(q))))
    results.append(_below("quat-norm-multiplicative", {"trials": 1000}, norm_err,
                          0.0, 1e-12))
    conj_err = float(np.max(np.abs(qconj(qmul(p, q)) - qmul(qconj(q), qconj(p)))))
    results.append(_below("quat-conj-antiautomorphism", {"trials": 1000}, conj_err,
                          0.0, 1e-13))
    s1 = qmul(qmul(p, q), l)[:, 0]
    s2 = qmul(qmul(q, l), p)[:, 0]
    s3 = qmul(qmul(l, p), q)[:, 0]
    cyc_err = float(max(np.max(np.abs(s1 - s2)), np.max(np.abs(s1 - s3))))
    results.append(_below("quat-scalar-cyclic", {"trials": 1000}, cyc_err, 0.0, 1e-12))
    return results


def _check_special_fn(config):
    # The logarithmic bound is the derivative of Pitt's at alpha = 0
    # (W. Beckner, Proc. AMS 123 (1995) 1897-1905), so the log-slope of
    # Pitt's constant there is -log_up_constant() = g + ln 2.  ln C(a) +
    # a ln 2 - ln C(0) is odd in a, so the one-sided quotient errs by
    # O(h^2): 1.4e-9 relative at h = 1e-4, against formula errors of order 1
    h = 1e-4
    slope = (math.log(pitt_constant(h)) - math.log(pitt_constant(0.0))) / h
    return [_close("pitt-constant-zero", {}, pitt_constant(0.0), 4.0 * math.pi**2, 1e-12),
            _close("pitt-log-slope", {"h": h}, slope, -log_up_constant(), 1e-6)]


def _check_qft(config):
    results = []
    ax1, ax2 = _axes(config.n)
    plan = QftPlan.for_axes(ax1, ax2)
    for alpha in _GAUSSIAN_ALPHAS:
        f = gaussian_signal(ax1, ax2, alpha)
        F = qft_forward(f, plan)
        ratio = (float(np.sum(qft_modulus(F) ** 2)) * F.cell_area
                 / (4 * math.pi**2 * l2_norm(f) ** 2))
        results.append(_close("qft-plancherel", {"alpha": alpha}, ratio, 1.0, 1e-6))
        back = qft_inverse(F, plan)
        results.append(_below("qft-roundtrip", {"alpha": alpha},
                              _rel_l2(back, f), 0.0, 1e-6))
    cg = GridSignal2D(ax1, ax2, qmul(chirp_signal(ax1, ax2, **_CHIRP).data,
                                     gaussian_signal(ax1, ax2, 1.0).data))
    Fc = qft_forward(cg, plan)
    ratio = (float(np.sum(qft_modulus(Fc) ** 2)) * Fc.cell_area
             / (4 * math.pi**2 * l2_norm(cg) ** 2))
    results.append(_close("qft-plancherel", {"signal": "chirp-gauss"}, ratio, 1.0, 1e-3))

    oax1, oax2 = _axes(_ORACLE_N)
    oplan = QftPlan.for_axes(oax1, oax2)
    worst = 0.0
    for trial in range(_ORACLE_TRIALS):
        rng = np.random.default_rng(config.seed + 1000 + trial)
        f = _rand_signal(oax1, oax2, rng)
        worst = max(worst, _max_abs(qft_forward(f, oplan, "fast").data,
                                    qft_forward(f, oplan, "direct").data))
    results.append(_below("qft-oracle", {"n": _ORACLE_N, "trials": _ORACLE_TRIALS},
                          worst, 0.0, 1e-9))
    return results


def _check_hardy(config):
    results = []
    ax1, ax2 = _axes(_HARDY_N)
    plan = QftPlan.for_axes(ax1, ax2)
    for alpha in _HARDY_ALPHAS:
        F = qft_forward(gaussian_signal(ax1, ax2, alpha), plan)
        fit = hardy_decay_fit(qft_modulus(F), plan.w1.coords, plan.w2.coords,
                              _HARDY_RADIUS)
        results.append(_close("hardy-qft", {"alpha": alpha, "r2": fit.r2},
                              4.0 * alpha * fit.beta, 1.0, 0.02))
    return results


def _check_params(config, pset):
    name, a1, a2 = pset
    results = []
    ax1, ax2 = _axes(config.n)
    plan = QolctPlan.for_axes(a1, a2, ax1, ax2)
    for alpha in _GAUSSIAN_ALPHAS:
        f = gaussian_signal(ax1, ax2, alpha)
        F = qolct_forward(f, plan)
        results.append(_close("qolct-plancherel", {"set": name, "alpha": alpha},
                              l2_norm(F) / l2_norm(f), 1.0, 1e-4))
        results.append(_below("qolct-roundtrip", {"set": name, "alpha": alpha},
                              _rel_l2(qolct_inverse(F, plan), f), 0.0, 1e-6))

    oax1, oax2 = _axes(_ORACLE_N)
    oplan = QolctPlan.for_axes(a1, a2, oax1, oax2)
    worst = 0.0
    for trial in range(_ORACLE_TRIALS):
        rng = np.random.default_rng(config.seed + 2000 + trial)
        f = _rand_signal(oax1, oax2, rng)
        worst = max(worst, _max_abs(qolct_forward(f, oplan, "fast").data,
                                    qolct_forward(f, oplan, "direct").data))
    results.append(_below("qolct-oracle", {"set": name, "n": _ORACLE_N},
                          worst, 0.0, 1e-9))

    f, windows = _oracle_inputs(config)
    window = gaussian_signal(oax1, oax2, _WINDOW_ALPHA)
    plan = StqolctPlan.create(a1, a2, oax1, oax2, window, stride=4)
    fields = {r: stqolct_forward(f, plan, r).data
              for r in ("direct", "via_qolct", "via_qft")}
    worst = max(_max_abs(fields["direct"], fields["via_qolct"]),
                _max_abs(fields["direct"], fields["via_qft"]),
                _max_abs(fields["via_qolct"], fields["via_qft"]))
    # a quaternion amplitude (psi's) tells q from conj(q) in the factored
    # engine, and the chirp-Gaussian, which does not factor, runs the
    # two-axis engine on all four window terms; only against direct, as
    # via_qft costs more than both together
    for window in windows.values():
        plan = StqolctPlan.create(a1, a2, oax1, oax2, window, stride=4)
        worst = max(worst, _max_abs(stqolct_forward(f, plan, "direct").data,
                                    stqolct_forward(f, plan, "via_qolct").data))
    results.append(_below("stqolct-routes", {"set": name, "n": _ORACLE_N, "stride": 4},
                          worst, 0.0, 1e-9))
    return results


def _check_field(config, pset):
    # one streamed pass of the field feeds every record of this task
    name, a1, a2 = pset
    plan, f = _field_inputs(config, pset)
    sums, rec = _FieldSums(plan), _Reconstruction(plan)
    _stream(f, plan, sums, rec)
    marginal = _marginal_map(sums)
    bound = l2_norm(f) * l2_norm(plan.window) / (2 * math.pi * math.sqrt(abs(a1.b * a2.b)))
    results = [_below("boundedness", {"set": name}, sums.sup, bound, 1e-9),
               _close("energy", {"set": name}, sums.energy,
                      l2_norm(plan.window) ** 2 * l2_norm(f) ** 2, 1e-3),
               _below("reconstruction", {"set": name}, _rel_l2(rec.result(), f), 0.0, 1e-3)]
    results += [donoho_stark_check(f, plan, eps, eps, marginal=marginal) for eps in _EPS]
    for alpha in _PITT_ALPHAS:
        res = pitt_check(f, plan, alpha, marginal=marginal)
        results.append(res)
        if alpha == 0.0:
            results.append(_close("pitt-equality", {"set": name}, res.lhs, res.rhs, 1e-3))
    results.append(log_up_check(f, plan, marginal=marginal))
    for res in results:  # the uncertainty checks' records take the set's name last
        res.params["set"] = name
    return results


def _field_inputs(config, pset):
    """The stride-1 plan of the field records, and their signal."""
    _, a1, a2 = pset
    ax1, ax2 = _axes(config.n)
    window = gaussian_signal(ax1, ax2, _WINDOW_ALPHA)
    return (StqolctPlan.create(a1, a2, ax1, ax2, window, stride=1),
            gaussian_signal(ax1, ax2, 1.0))


def _oracle_inputs(config):
    """The random signal of stqolct-routes, reconstruction-exact and
    energy-exact, and their quaternion-amplitude and two-axis windows, on
    the oracle grid."""
    ax1, ax2 = _axes(_ORACLE_N)
    f = _rand_signal(ax1, ax2, np.random.default_rng(config.seed + 3000))
    return f, {"psi": gaussian_signal(ax1, ax2, _WINDOW_ALPHA, amplitude=_PSI_AMPLITUDE),
               "chirp-gauss": _chirp_gaussian(ax1, ax2)}


def _chirp_gaussian(ax1, ax2):
    """The corpus chirp times a Gaussian of rate 0.75.

    It is the Moyal records' second signal, and a window that does not
    factor (``StqolctPlan._factors`` is None), so it runs the two-axis engine.
    """
    return GridSignal2D(ax1, ax2, qmul(chirp_signal(ax1, ax2, **_CHIRP).data,
                                       gaussian_signal(ax1, ax2, 0.75).data))


def _check_reconstruction_exact(config, pset):
    # Deliberate oracles, on one streamed stride-1 pass of a random f per
    # window.  reconstruction-exact: the reconstruction against its
    # grid-exact value f * sum_u |phi(x - u)|^2 du / ||phi||^2 (the fast
    # inverse undoes the fast forward on the grid, and g * conj(phi) * phi
    # = g |phi|^2).  Unlike the reconstruction record, it sees every
    # translation row and a quaternion window's q.  On the default corpus,
    # seeds 0 to 3, the residual measured at most 3.3e-15, 4.0e-15 and
    # 1.2e-14 at _ORACLE_N = 16, 32 and 64.  energy-exact: each slice's
    # transform is unitary on the grid, so the energy of the slice at u,
    # u_energy * w_cell, is sum_x |f|^2 |phi(x - u)|^2 dA; the worst
    # translation's residual, relative to the largest slice energy, sees
    # a single wrong row.  Seeds 0 to 5 at _ORACLE_N measured at most 1.6e-15.
    name, a1, a2 = pset
    f, windows = _oracle_inputs(config)
    f_density = np.sum(f.data ** 2, axis=-1)
    results = []
    for label, window in windows.items():
        plan = StqolctPlan.create(a1, a2, f.ax1, f.ax2, window, stride=1)
        # the sums first: the reconstruction overwrites the row's channels
        sums, rec = _FieldSums(plan), _Reconstruction(plan)
        _stream(f, plan, sums, rec)
        density = np.sum(window.data ** 2, axis=-1)
        cover = _window_cover(plan, density)
        expect = f.data * (cover / l2_norm(window) ** 2)[:, :, None]
        params = {"set": name, "window": label, "n": f.ax1.n}
        results.append(_below("reconstruction-exact", params,
                              _rel_l2(rec.result(), GridSignal2D(f.ax1, f.ax2, expect)),
                              0.0, 1e-12))
        slices = np.einsum("ab,abij->ij", f_density,
                           _translations(plan, density, (0, 1))) * f.cell_area
        worst = float(np.max(np.abs(sums.u_energy * sums.w_cell - slices)) / np.max(slices))
        results.append(_below("energy-exact", dict(params), worst, 0.0, 1e-12))
    return results


def _check_support(config, pset):
    # exact-support case: compactly truncated signal, eps = 0 on both
    # sides; the corollary builds its own dense field, and needs no pass
    name = pset[0]
    plan, f = _field_inputs(config, pset)
    ax1, ax2 = plan.ax1, plan.ax2
    radii = np.hypot(ax1.coords[:, None], ax2.coords[None, :])
    data = f.data.copy()
    data[radii > _EXTENT / 2.0] = 0.0
    truncated = GridSignal2D(ax1, ax2, data)
    res = donoho_stark_check(truncated, plan, 0.0, 0.0)
    res.name = "donoho-stark-support"
    res.params["set"] = name
    return [res]


def _check_moyal(config, pset, label):
    # S_f^phi against S_g^psi: moyal-shared-window takes g, phi;
    # moyal-shared-signal f, psi; moyal-general g, psi.  Identity checks
    # scale as n^4 in memory; a 48-point grid resolves the corpus signals
    # while keeping the two coefficient stacks small.  The 1 and i parts
    # of both sides agree on the grid (moyal_check): on the default
    # corpus the residual measured at most 2.1e-15, 1.4e-15 and 4.2e-15
    # relative at n = 16, 32 and 48
    name, a1, a2 = pset
    ax1, ax2 = _axes(min(config.n, _MOYAL_N))
    qplan = QolctPlan.for_axes(a1, a2, ax1, ax2)
    f = gaussian_signal(ax1, ax2, 1.0)
    phi = gaussian_signal(ax1, ax2, _WINDOW_ALPHA)
    g, psi = f, phi
    if label != "moyal-shared-signal":
        g = _chirp_gaussian(ax1, ax2)
    if label != "moyal-shared-window":
        psi = gaussian_signal(ax1, ax2, 1.5, amplitude=_PSI_AMPLITUDE)
    res = moyal_check(f, g, phi, psi, qplan)
    err = float(np.max(np.abs(res.lhs[:2] - res.rhs[:2]))) / max(float(qnorm(res.rhs)), 1e-300)
    return [_below(label, {"set": name}, err, 0.0, 1e-12)]


#: the Moyal records, a pool task each
_MOYAL_LABELS = ("moyal-shared-window", "moyal-shared-signal", "moyal-general")

#: every pool task by key, in report order: (check, per set, record names).
#: A check takes (config), or (config, pset) for a task of each parameter
#: set, labelled "key:set"; a new record is its emission plus its name here
_CHECKS = {
    "quat-algebra": (_check_quat_algebra, False, (
        "quat-table", "quat-norm-multiplicative", "quat-conj-antiautomorphism",
        "quat-scalar-cyclic")),
    "special-fn": (_check_special_fn, False, (
        "pitt-constant-zero", "pitt-log-slope")),
    "qft": (_check_qft, False, ("qft-plancherel", "qft-roundtrip", "qft-oracle")),
    "hardy": (_check_hardy, False, ("hardy-qft",)),
    "params": (_check_params, True, (
        "qolct-plancherel", "qolct-roundtrip", "qolct-oracle", "stqolct-routes")),
    "reconstruction-exact": (_check_reconstruction_exact, True, (
        "reconstruction-exact", "energy-exact")),
    "field": (_check_field, True, (
        "boundedness", "energy", "reconstruction", "donoho-stark", "pitt",
        "pitt-equality", "log-up")),
    "donoho-stark-support": (_check_support, True, ("donoho-stark-support",)),
    **{label: (partial(_check_moyal, label=label), True, (label,)) for label in _MOYAL_LABELS},
}

_KNOWN_CHECKS = frozenset(name for _, _, names in _CHECKS.values() for name in names)


def run_verification(config: RunConfig, only=None):
    """Run the corpus and return results in deterministic task order.

    ``only``, when given, selects records by name: it must name at least
    one check, and every name must be registered; otherwise the run is a
    ParameterError.  Each registered name emits records on every config,
    as the corpus lists are fixed and nonempty.
    """
    selected = None if only is None else set(only)
    if selected is not None:
        if not selected:
            raise ParameterError("the selection names no checks")
        unknown = selected - _KNOWN_CHECKS
        if unknown:
            raise ParameterError(f"unknown check names: {sorted(unknown)}")
    checks = {key: check for key, check in _CHECKS.items()
              if selected is None or not selected.isdisjoint(check[2])}
    tasks = [(key, run, (config,)) for key, (run, per_set, _) in checks.items() if not per_set]
    tasks += [(f"{key}:{pset[0]}", run, (config, pset)) for pset in config.param_sets
              for key, (run, per_set, _) in checks.items() if per_set]
    workers = _max_workers()
    _check_dense_fields(config, checks, workers)
    results = []
    # the row passes inside a task run inline: they are not on the main thread
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(lambda task: task[1](*task[2]), tasks):
            results.extend(chunk)
    if selected is not None:
        results = [r for r in results if r.name in selected]
    return results


def _check_dense_fields(config, checks, workers):
    """Raise ParameterError before any task runs when the dense fields that
    ``workers`` tasks may hold at once are over the memory budget.

    A task builds at most the corollary's field (32 n^4 bytes) or the
    two fields of a Moyal record (64 min(n, 48)^4 bytes).  Each field is
    also checked when it is allocated, but against MemAvailable alone,
    which an array not yet written to does not lower: two workers could
    each pass that check and together exceed it.
    """
    dense = ("donoho-stark-support", *_MOYAL_LABELS)
    held = min(workers, len(config.param_sets) * sum(key in checks for key in dense))
    n = config.n
    _check_memory(held * max(32 * n**4, 64 * min(n, _MOYAL_N) ** 4),
                  f"holding the dense fields of {held} concurrent verify tasks at n = {n}")


def gated_failures(results):
    return [r for r in results if not r.passed]


def write_report(results, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for res in results:
            fh.write(json.dumps(res.as_record()) + "\n")


_NUMBER = ((int, float), "a number")

#: the JSON types of a report record's fields, where present
_RECORD_TYPES = {"name": ((str,), "a string"), "lhs": _NUMBER, "rhs": _NUMBER,
                 "margin": _NUMBER, "tolerance": _NUMBER, "pass": ((bool,), "a boolean")}


def load_report(path):
    """The records of a .jsonl report, one JSON object per nonblank line.

    A line that is not a JSON object, or that has a field of
    ``_RECORD_TYPES`` of another JSON type (a name that is not a string,
    a pass that is not a boolean, an lhs, rhs, margin or tolerance that
    is not a number), raises FormatError at the byte offset where the
    line starts.
    """
    records = []
    offset = 0
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError:
                    record = None
                if not isinstance(record, dict):
                    raise FormatError(f"{path}: line is not a JSON object", offset=offset)
                for key, (kinds, what) in _RECORD_TYPES.items():
                    # type(), not isinstance(): a JSON true is not a number
                    if key in record and type(record[key]) not in kinds:
                        raise FormatError(f"{path}: {key} is not {what}", offset=offset)
                records.append(record)
            offset += len(line)
    return records


def format_report_table(records):
    headers = ["name", "lhs", "rhs", "margin", "tol", "pass", "params"]
    rows = []
    for rec in records:
        rows.append([
            rec.get("name", "?"),
            f"{rec.get('lhs', float('nan')):.6g}",
            f"{rec.get('rhs', float('nan')):.6g}",
            f"{rec.get('margin', float('nan')):.3g}",
            f"{rec.get('tolerance', float('nan')):.1g}",
            "ok" if rec.get("pass") else "FAIL",
            json.dumps(rec.get("params", {}), default=str),
        ])
    widths = [max(len(h), *(len(r[k]) for r in rows)) if rows else len(h)
              for k, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))]
    lines.append("  ".join("-" * widths[k] for k in range(len(headers))))
    for row in rows:
        lines.append("  ".join(row[k].ljust(widths[k]) for k in range(len(headers))))
    return "\n".join(lines)
