"""Verification corpus: configured checks over signals, transforms, and bounds.

``run_verification`` builds a corpus of test signals, windows, and
parameter sets from a RunConfig and returns InequalityResult records
(one JSON object per line in report files).  All margins are oriented so
that nonnegative (within the recorded tolerance) means pass.  A handful
of records are diagnostics that never gate the exit status; everything
else must pass.

A selection (``only``) picks the records that are reported: a task that
emits a selected name computes all its records, in order, and one name
filter at the end keeps the selected ones.  Only three costly inputs of
a parameter set wait for a selected record that reads them: the
streamed field pass, its reconstruction and the exact-support
corollary's dense field.

Tasks are independent and run on a small thread pool (capped by the
QTF_THREADS environment variable); the row passes inside a task run their
chunks inline.  Each parameter set is five tasks, queued in report order:
its ``params`` records, then one task per Moyal record (each one
``moyal_check`` call, the costliest single records of a set), then its
``beurling`` records.  Each check is deterministic for a fixed config,
so results do not depend on the degree of parallelism.
"""

from __future__ import annotations

import json
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ParameterError
from .grid import Axis, GridSignal2D, chirp_signal, gaussian_signal, l2_norm
from .qft import QftPlan, qft_forward, qft_inverse, qft_modulus
from .qolct import OlctParams, QolctPlan, qolct_forward, qolct_inverse
from .quaternion import qconj, qmul, qnorm, quat
from .specialfn import gamma
from .stqolct import (StqolctPlan, _FieldSums, _max_workers, _Reconstruction, _stream,
                      modified_signal, moyal_check, stqolct_forward)
from .uncertainty import (InequalityResult, _marginal_map, beurling_integral,
                          donoho_stark_check, hardy_decay_fit, log_up_check,
                          log_up_constant, pitt_check, pitt_constant)

__all__ = ["RunConfig", "default_config_dict", "run_verification", "write_report",
           "load_report", "format_report_table", "UNGATED_CHECKS", "gated_failures"]

#: record names that are informational only and never gate the exit status
UNGATED_CHECKS = frozenset({
    "log-up-literal",
    "hardy-chirp",
    "hardy-field",
    "beurling-value",
    "moyal-general",
})

#: records of the streamed per-set field pass (identities need stride 1)
_FIELD_CHECKS = ("boundedness", "energy", "isometry", "reconstruction", "donoho-stark",
                 "pitt", "pitt-equality", "log-up-literal", "log-up-derivative",
                 "hardy-field")

#: the Moyal identity records, one pool task and one moyal_check call each
_MOYAL_CHECKS = ("moyal-shared-window", "moyal-shared-signal", "moyal-general")

#: the amplitude of the quaternion windows: psi, and one window of stqolct-routes
_PSI_AMPLITUDE = quat(0.8, 0.3, 0.0, 0.1)

#: every record name, by the task that emits it (a task label is a key, or
#: a key and a parameter set name); a new record is its emission plus an
#: entry here, and one in _FIELD_CHECKS if it reads the streamed pass
_CHECKS = {
    "quat-algebra": ("quat-table", "quat-norm-multiplicative",
                     "quat-conj-antiautomorphism", "quat-scalar-cyclic"),
    "special-fn": ("gamma-half", "gamma-recurrence", "log-up-constant",
                   "pitt-constant-zero", "pitt-constant-continuity"),
    "qft": ("qft-plancherel", "qft-roundtrip", "qft-oracle"),
    "hardy": ("hardy-qft", "hardy-chirp"),
    "params": ("qolct-plancherel", "qolct-roundtrip", "qolct-oracle", "stqolct-routes",
               *_FIELD_CHECKS, "donoho-stark-support"),
    **{name: (name,) for name in _MOYAL_CHECKS},
    "beurling": ("beurling-value", "beurling-monotone"),
}

_KNOWN_CHECKS = frozenset(name for names in _CHECKS.values() for name in names)

_EULER_GAMMA = 0.5772156649015329

_CHIRP_KEYS = frozenset({"rate1", "rate2", "freq1", "freq2"})


def default_config_dict():
    return {
        "n": 64,
        "extent": 8.0,
        "stride": 1,
        "window_alpha": 2.0,
        "gaussian_alphas": [0.5, 1.0, 2.0],
        "chirp": {"rate1": 0.25, "rate2": -0.2, "freq1": 1.0, "freq2": -0.5},
        "param_sets": [
            {"name": "fourier", "A1": [0, 1, -1, 0, 0, 0], "A2": [0, 1, -1, 0, 0, 0]},
            {"name": "offset-mixed", "A1": [0.6, 0.5, -0.8, 1.0, 0.3, -0.2],
             "A2": [1.0, 0.8, 0.0, 1.0, -0.4, 0.25]},
            {"name": "negative-b", "A1": [0, -1, 1, 0, 0.2, -0.1],
             "A2": [0, -1, 1, 0, 0.0, 0.3]},
        ],
        "eps": [0.0, 0.1, 0.25],
        "pitt_alphas": [0.0, 0.5, 1.0, 1.5],
        "hardy_alphas": [0.25, 0.5, 1.0, 2.0],
        "hardy_radius": 3.0,
        "hardy_n": 128,
        "oracle_n": 16,
        "oracle_trials": 5,
        "seed": 0,
    }


@dataclass
class RunConfig:
    n: int
    extent: float
    stride: int
    window_alpha: float
    gaussian_alphas: list
    chirp: dict
    param_sets: list  # [(name, OlctParams, OlctParams)]
    eps: list
    pitt_alphas: list
    hardy_alphas: list
    hardy_radius: float
    hardy_n: int
    oracle_n: int
    oracle_trials: int
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
            a1 = OlctParams(*_numbers(f"{name} A1", entry["A1"], count=6))
            a2 = OlctParams(*_numbers(f"{name} A2", entry["A2"], count=6))
            param_sets.append((name, a1, a2))
        if not param_sets:
            raise ParameterError("config needs at least one parameter set")
        chirp = merged["chirp"]
        if not isinstance(chirp, dict) or not set(chirp) <= _CHIRP_KEYS:
            raise ParameterError(
                f"chirp must be an object with keys among {sorted(_CHIRP_KEYS)}, got {chirp!r}")
        config = cls(
            n=_integer("n", merged["n"]), extent=_number("extent", merged["extent"]),
            stride=_integer("stride", merged["stride"]),
            window_alpha=_number("window_alpha", merged["window_alpha"]),
            gaussian_alphas=_numbers("gaussian_alphas", merged["gaussian_alphas"]),
            chirp={key: _number(f"chirp {key}", v) for key, v in chirp.items()},
            param_sets=param_sets,
            eps=_numbers("eps", merged["eps"]),
            pitt_alphas=_numbers("pitt_alphas", merged["pitt_alphas"]),
            hardy_alphas=_numbers("hardy_alphas", merged["hardy_alphas"]),
            hardy_radius=_number("hardy_radius", merged["hardy_radius"]),
            hardy_n=_integer("hardy_n", merged["hardy_n"]),
            oracle_n=_integer("oracle_n", merged["oracle_n"]),
            oracle_trials=_integer("oracle_trials", merged["oracle_trials"]),
            seed=_integer("seed", merged["seed"]),
        )
        n, stride = config.n, config.stride
        if n < 4 or n % 2:
            raise ParameterError(f"n must be even and at least 4, got {n}")
        if stride < 1 or n % stride:
            raise ParameterError(f"stride must divide n, got {stride}")
        for e in config.eps:
            if not 0 <= e < 0.5:
                raise ParameterError(f"eps values must lie in [0, 0.5), got {e}")
        for a in config.pitt_alphas:
            if not 0 <= a < 2:
                raise ParameterError(f"pitt alpha must lie in [0, 2), got {a}")
        if config.oracle_trials < 1:
            # zero trials would record a passing oracle check with lhs=0
            raise ParameterError(
                f"oracle_trials must be at least 1, got {config.oracle_trials}")
        if config.oracle_n < 4 or config.oracle_n % 4:
            # stqolct-routes samples the oracle grid's translations at stride 4
            raise ParameterError(
                f"oracle_n must be a multiple of 4, at least 4, got {config.oracle_n}")
        if config.hardy_n < 2:
            raise ParameterError(f"hardy_n must be at least 2, got {config.hardy_n}")
        for key in ("extent", "window_alpha", "hardy_radius", "gaussian_alphas",
                    "hardy_alphas"):
            value = getattr(config, key)
            if any(v <= 0 for v in (value if isinstance(value, list) else [value])):
                raise ParameterError(f"{key} must be positive, got {value!r}")
        return config

    def axes(self, n=None):
        n = n or self.n
        return Axis.centered(n, self.extent), Axis.centered(n, self.extent)


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


def _numbers(key, value, count=None):
    """A config value that must be a list of finite numbers (``count`` of them)."""
    if not isinstance(value, list) or count not in (None, len(value)):
        size = "" if count is None else f"{count} "
        raise ParameterError(f"{key} must be a list of {size}numbers, got {value!r}")
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
    results = [
        _close("gamma-half", {}, gamma(0.5), math.sqrt(math.pi), 1e-12),
    ]
    rec_err = max(abs(gamma(z + 1.0) - z * gamma(z)) / abs(z * gamma(z))
                  for z in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0))
    results.append(_below("gamma-recurrence", {}, rec_err, 0.0, 1e-10))
    results.append(_close("log-up-constant", {}, log_up_constant(),
                          -_EULER_GAMMA - math.log(2.0), 1e-9))
    results.append(_close("pitt-constant-zero", {}, pitt_constant(0.0),
                          4.0 * math.pi**2, 1e-12))
    # the constant's local slope at alpha=0.5 is ~107.5, so the increment
    # at h=1e-4 sits just above 1e-2; bound accordingly and check the
    # increment actually shrinks linearly with h
    d4 = abs(pitt_constant(0.5 + 1e-4) - pitt_constant(0.5))
    d5 = abs(pitt_constant(0.5 + 1e-5) - pitt_constant(0.5))
    results.append(_below("pitt-constant-continuity", {"h": 1e-4}, d4, 0.0, 2e-2))
    results.append(_below("pitt-constant-continuity", {"h": 1e-5}, d5, 0.0, 2e-3))
    return results


def _check_qft(config):
    results = []
    ax1, ax2 = config.axes()
    plan = QftPlan.for_axes(ax1, ax2)
    for alpha in config.gaussian_alphas:
        f = gaussian_signal(ax1, ax2, alpha)
        F = qft_forward(f, plan)
        ratio = (float(np.sum(qft_modulus(F) ** 2)) * F.cell_area
                 / (4 * math.pi**2 * l2_norm(f) ** 2))
        results.append(_close("qft-plancherel", {"alpha": alpha}, ratio, 1.0, 1e-6))
        back = qft_inverse(F, plan)
        results.append(_below("qft-roundtrip", {"alpha": alpha},
                              _rel_l2(back, f), 0.0, 1e-6))
    cg = GridSignal2D(ax1, ax2, qmul(chirp_signal(ax1, ax2, **config.chirp).data,
                                     gaussian_signal(ax1, ax2, 1.0).data))
    Fc = qft_forward(cg, plan)
    ratio = (float(np.sum(qft_modulus(Fc) ** 2)) * Fc.cell_area
             / (4 * math.pi**2 * l2_norm(cg) ** 2))
    results.append(_close("qft-plancherel", {"signal": "chirp-gauss"}, ratio, 1.0, 1e-3))

    oax1, oax2 = config.axes(config.oracle_n)
    oplan = QftPlan.for_axes(oax1, oax2)
    worst = 0.0
    for trial in range(config.oracle_trials):
        rng = np.random.default_rng(config.seed + 1000 + trial)
        f = _rand_signal(oax1, oax2, rng)
        worst = max(worst, _max_abs(qft_forward(f, oplan, "fast").data,
                                    qft_forward(f, oplan, "direct").data))
    results.append(_below("qft-oracle", {"n": config.oracle_n,
                                         "trials": config.oracle_trials},
                          worst, 0.0, 1e-9))
    return results


def _check_hardy(config):
    results = []
    ax1 = Axis.centered(config.hardy_n, config.extent)
    ax2 = Axis.centered(config.hardy_n, config.extent)
    plan = QftPlan.for_axes(ax1, ax2)
    for alpha in config.hardy_alphas:
        F = qft_forward(gaussian_signal(ax1, ax2, alpha), plan)
        fit = hardy_decay_fit(qft_modulus(F), plan.w1.coords, plan.w2.coords,
                              config.hardy_radius)
        results.append(_close("hardy-qft", {"alpha": alpha, "r2": fit.r2},
                              4.0 * alpha * fit.beta, 1.0, 0.02))
    chirp = chirp_signal(ax1, ax2, **config.chirp)
    Fc = qft_forward(chirp, plan)
    fit = hardy_decay_fit(qft_modulus(Fc), plan.w1.coords, plan.w2.coords,
                          config.hardy_radius)
    flagged = fit.r2 < 0.9
    results.append(InequalityResult(
        name="hardy-chirp",
        params={"beta": fit.beta, "note": "no Gaussian decay" if flagged else "unexpected fit"},
        lhs=fit.r2, rhs=0.9, margin=0.9 - fit.r2, tolerance=0.0, passed=flagged))
    return results


def _check_beurling(config, pset):
    name, a1, a2 = pset
    ax1 = Axis.centered(16, 4.0)
    ax2 = Axis.centered(16, 4.0)
    window = gaussian_signal(ax1, ax2, config.window_alpha)
    plan = StqolctPlan.create(a1, a2, ax1, ax2, window, stride=1)
    f = gaussian_signal(ax1, ax2, 1.0)
    v2 = beurling_integral(f, plan, 2.0)
    v4 = beurling_integral(f, plan, 4.0)
    results = [InequalityResult(
        name="beurling-value",
        params={"set": name, "d": 2.0, "saturated": v2.saturated},
        lhs=v2.value, rhs=0.0, margin=v2.value, tolerance=0.0,
        passed=bool(np.isfinite(v2.value))),
    ]
    results.append(_below("beurling-monotone", {"set": name}, v4.value, v2.value, 0.0))
    return results


def _check_param_set(config, pset, selected):
    name, a1, a2 = pset
    results = []
    ax1, ax2 = config.axes()
    want = lambda *names: selected is None or any(s in selected for s in names)
    plan = QolctPlan.for_axes(a1, a2, ax1, ax2)
    for alpha in config.gaussian_alphas:
        f = gaussian_signal(ax1, ax2, alpha)
        F = qolct_forward(f, plan)
        results.append(_close("qolct-plancherel", {"set": name, "alpha": alpha},
                              l2_norm(F) / l2_norm(f), 1.0, 1e-4))
        results.append(_below("qolct-roundtrip", {"set": name, "alpha": alpha},
                              _rel_l2(qolct_inverse(F, plan), f), 0.0, 1e-6))

    oax1, oax2 = config.axes(config.oracle_n)
    oplan = QolctPlan.for_axes(a1, a2, oax1, oax2)
    worst = 0.0
    for trial in range(config.oracle_trials):
        rng = np.random.default_rng(config.seed + 2000 + trial)
        f = _rand_signal(oax1, oax2, rng)
        worst = max(worst, _max_abs(qolct_forward(f, oplan, "fast").data,
                                    qolct_forward(f, oplan, "direct").data))
    results.append(_below("qolct-oracle", {"set": name, "n": config.oracle_n},
                          worst, 0.0, 1e-9))

    f = _rand_signal(oax1, oax2, np.random.default_rng(config.seed + 3000))
    window = gaussian_signal(oax1, oax2, config.window_alpha)
    plan = StqolctPlan.create(a1, a2, oax1, oax2, window, stride=4)
    fields = {r: stqolct_forward(f, plan, r).data
              for r in ("direct", "via_qolct", "via_qft")}
    worst = max(_max_abs(fields["direct"], fields["via_qolct"]),
                _max_abs(fields["direct"], fields["via_qft"]),
                _max_abs(fields["via_qolct"], fields["via_qft"]))
    # a quaternion amplitude (psi's) tells q from conj(q) in the factored
    # engine; only against direct, as via_qft costs more than both together
    window = gaussian_signal(oax1, oax2, config.window_alpha, amplitude=_PSI_AMPLITUDE)
    plan = StqolctPlan.create(a1, a2, oax1, oax2, window, stride=4)
    worst = max(worst, _max_abs(stqolct_forward(f, plan, "direct").data,
                                stqolct_forward(f, plan, "via_qolct").data))
    results.append(_below("stqolct-routes", {"set": name, "n": config.oracle_n,
                                             "stride": 4}, worst, 0.0, 1e-9))

    window = gaussian_signal(ax1, ax2, config.window_alpha)
    plan = StqolctPlan.create(a1, a2, ax1, ax2, window, stride=config.stride)
    f = gaussian_signal(ax1, ax2, 1.0)
    identities = config.stride == 1
    # one streamed pass of the field feeds every field record; the
    # exact-support corollary builds its own field and needs no pass
    streamed = want(*_FIELD_CHECKS)
    if streamed:
        sums = _FieldSums(plan)
        rec = _Reconstruction(plan) if identities and want("reconstruction") else None
        _stream(f, plan, *(r for r in (sums, rec) if r is not None))
        marginal = _marginal_map(sums)
        # read the reconstruction now, so that the arrays it sums into
        # are not held through the dense fields built below
        rebuilt = rec.result() if rec is not None else None
        del rec
        bound = l2_norm(f) * l2_norm(window) / (2 * math.pi * math.sqrt(abs(a1.b * a2.b)))
        results.append(_below("boundedness", {"set": name}, sums.sup, bound, 1e-9))
    if streamed and identities:
        win_sq, f_sq = l2_norm(window) ** 2, l2_norm(f) ** 2
        results.append(_close("energy", {"set": name}, sums.energy, win_sq * f_sq, 1e-3))
        results.append(_close("isometry", {"set": name}, sums.energy / win_sq, f_sq, 1e-3))
        if rebuilt is not None:
            results.append(_below("reconstruction", {"set": name},
                                  _rel_l2(rebuilt, f), 0.0, 1e-3))
        for eps in config.eps:
            res = donoho_stark_check(f, plan, eps, eps, marginal=marginal)
            res.params["set"] = name
            results.append(res)
    if identities and want("donoho-stark-support"):
        results.append(_donoho_stark_corollary(config, plan, f, name))
    if streamed and identities:
        for alpha in config.pitt_alphas:
            res = pitt_check(f, plan, alpha, marginal=marginal)
            res.params["set"] = name
            results.append(res)
            if alpha == 0.0:
                results.append(_close("pitt-equality", {"set": name}, res.lhs, res.rhs, 1e-3))
        for res in log_up_check(f, plan, marginal=marginal):
            res.params["set"] = name
            results.append(res)
        results.extend(_hardy_field(config, plan, f, sums, name))
    return results


def _donoho_stark_corollary(config, plan, f, name):
    # exact-support case: compactly truncated signal, eps = 0 on both sides
    ax1, ax2 = plan.ax1, plan.ax2
    radii = np.hypot(ax1.coords[:, None], ax2.coords[None, :])
    data = f.data.copy()
    data[radii > config.extent / 2.0] = 0.0
    truncated = GridSignal2D(ax1, ax2, data)
    res = donoho_stark_check(truncated, plan, 0.0, 0.0)
    res.name = "donoho-stark-support"
    res.params["set"] = name
    return res


def _hardy_field(config, plan, f, sums, name):
    # decay fits on the coefficient magnitude at u = 0 and at the
    # energy-maximizing translation (the first in row-major order), each
    # slice one fast QOLCT of its modified signal; informational only
    results = []
    p1, p2 = plan.qolct.params1, plan.qolct.params2
    zero = (plan.ax1.n // 2 // plan.stride, plan.ax2.n // 2 // plan.stride)
    best = np.unravel_index(int(np.argmax(sums.u_energy)), sums.u_energy.shape)
    for label, index in (("u=0", zero), ("u=max-overlap", best)):
        g = modified_signal(f, plan.window, plan.translation(*index))
        mag = qnorm(qolct_forward(g, plan.qolct).data)
        try:
            fit = hardy_decay_fit(mag, plan.qolct.w1.coords, plan.qolct.w2.coords,
                                  config.hardy_radius,
                                  offset=(p1.p, p2.p), scale=(p1.b, p2.b))
            results.append(InequalityResult(
                name="hardy-field",
                params={"set": name, "u": label, "beta": fit.beta, "r2": fit.r2},
                lhs=fit.r2, rhs=0.0, margin=fit.r2, tolerance=0.0,
                passed=True))
        except ParameterError as exc:
            results.append(InequalityResult(
                name="hardy-field", params={"set": name, "u": label, "note": str(exc)},
                lhs=0.0, rhs=0.0, margin=0.0, tolerance=0.0, passed=True))
    return results


def _check_moyal(config, pset, label):
    # S_f^phi against S_g^psi: moyal-shared-window takes g, phi;
    # moyal-shared-signal f, psi; moyal-general g, psi.  Identity checks
    # scale as n^4 in memory; a 48-point grid resolves the corpus signals
    # while keeping the two coefficient stacks small
    name, a1, a2 = pset
    ax1, ax2 = config.axes(min(config.n, 48))
    qplan = QolctPlan.for_axes(a1, a2, ax1, ax2)
    f = gaussian_signal(ax1, ax2, 1.0)
    phi = gaussian_signal(ax1, ax2, config.window_alpha)
    g, psi = f, phi
    if label != "moyal-shared-signal":
        g = GridSignal2D(ax1, ax2, qmul(chirp_signal(ax1, ax2, **config.chirp).data,
                                        gaussian_signal(ax1, ax2, 0.75).data))
    if label != "moyal-shared-window":
        psi = gaussian_signal(ax1, ax2, 1.5, amplitude=_PSI_AMPLITUDE)
    res = moyal_check(f, g, phi, psi, qplan)
    if label == "moyal-general":
        return [InequalityResult(
            name=label,
            params={"set": name, "lhs": [float(v) for v in res.lhs],
                    "rhs": [float(v) for v in res.rhs],
                    "rhs_reversed": [float(v) for v in res.rhs_reversed]},
            lhs=float(res.lhs[0]), rhs=float(res.rhs[0]),
            margin=0.0, tolerance=0.0, passed=True)]
    scale = max(abs(float(res.rhs[0])), 1e-300)
    return [_close(label, {"set": name}, float(res.lhs[0]) / scale,
                   float(res.rhs[0]) / scale, 1e-3)]


def run_verification(config: RunConfig, only=None):
    """Run the corpus and return results in deterministic task order.

    Every name in ``only`` must be a registered check and must yield at
    least one record; otherwise the run is a ParameterError.
    """
    selected = set(only) if only else None
    if selected is not None:
        unknown = selected - _KNOWN_CHECKS
        if unknown:
            raise ParameterError(f"unknown check names: {sorted(unknown)}")
    tasks = [
        ("quat-algebra", lambda: _check_quat_algebra(config)),
        ("special-fn", lambda: _check_special_fn(config)),
        ("qft", lambda: _check_qft(config)),
        ("hardy", lambda: _check_hardy(config)),
    ]
    for pset in config.param_sets:
        tasks.append((f"params:{pset[0]}",
                      lambda p=pset: _check_param_set(config, p, selected)))
        for label in _MOYAL_CHECKS:
            tasks.append((f"{label}:{pset[0]}",
                          lambda p=pset, label=label: _check_moyal(config, p, label)))
        tasks.append((f"beurling:{pset[0]}", lambda p=pset: _check_beurling(config, p)))

    if selected is not None:
        tasks = [t for t in tasks
                 if not selected.isdisjoint(_CHECKS[t[0].split(":", 1)[0]])]

    results = []
    # the row passes inside a task run inline: they are not on the main thread
    with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
        for chunk in pool.map(lambda item: item[1](), tasks):
            results.extend(chunk)
    if selected is not None:
        results = [r for r in results if r.name in selected]
        empty = selected - {r.name for r in results}
        if empty:
            # a selected check with no record would certify nothing
            raise ParameterError(f"selected checks produced no records: {sorted(empty)} "
                                 "(check the config lists they read)")
    return results


def gated_failures(results):
    return [r for r in results if not r.passed and r.name not in UNGATED_CHECKS]


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
