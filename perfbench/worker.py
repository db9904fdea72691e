"""One workload in its own process: seeded inputs, timed operations, checks.

Run from the root of a qtfa checkout:

    python3 perfbench/worker.py --workload NAME --seed S --seconds T \
        --trace 0|1 --workdir DIR [--trace-out FILE] [--setup-only --started-at T]

The process builds its inputs from the seed, then runs operations until
``--seconds`` have passed (``--trace 0``) or runs the fixed trace plan
(``--trace 1``).  Every operation's output is checked; a failed check or
an exception counts as a failed operation.  The last line on stdout is
one JSON object for ``run.py``.  With ``--setup-only`` it stops once the
inputs and plans exist and reports the time since ``--started-at``, the
set-up cost.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

_t0 = time.perf_counter()
import qtfa  # noqa: E402
import qtfa.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import tracing  # noqa: E402

EXTENT = 8.0
#: the three parameter sets of the default verify corpus, (name, A1, A2)
SEXTETS = (
    ("fourier", (0, 1, -1, 0, 0, 0), (0, 1, -1, 0, 0, 0)),
    ("offset-mixed", (0.6, 0.5, -0.8, 1.0, 0.3, -0.2), (1.0, 0.8, 0.0, 1.0, -0.4, 0.25)),
    ("negative-b", (0, -1, 1, 0, 0.2, -0.1), (0, -1, 1, 0, 0.0, 0.3)),
)
#: relative tolerance of every output check; the identities are exact on
#: the grid, so only roundoff (about 1e-15) separates the two sides
REL_TOL = 1e-9
QTF4_HEADER_BYTES = 184

#: verify-corpus: the default corpus at this grid size (see README.md)
VERIFY_N = 32
VERIFY_THREADS = 2
#: transform-stream: (grid size, pairs per transform kind) in one round
TRANSFORM_ROUND = ((64, 256), (256, 16), (1024, 1))
#: transform-stream: distinct seeded signals per grid size
TRANSFORM_POOL = {64: 8, 256: 4, 1024: 1}
#: windowed-field: grid size of the dense stride-1 field
FIELD_N = 48


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rel_l2(a, b):
    return float(np.linalg.norm((a - b).ravel()) / max(np.linalg.norm(b.ravel()), 1e-300))


def _random_quat_signal(rng, ax):
    return qtfa.GridSignal2D(ax, ax, rng.standard_normal((ax.n, ax.n, 4)))


def _params(entry):
    _, a1, a2 = entry
    return qtfa.OlctParams(*map(float, a1)), qtfa.OlctParams(*map(float, a2))


class Op:
    """Outcome of one operation: phase timings, samples and failed checks.

    ``attempted`` and ``failed`` count the units the workload reports:
    one per verify run or field cycle, one per transform pair.
    """

    def __init__(self):
        self.times: dict[str, float] = {}
        self.samples: list[tuple[int, float]] = []
        self.failures: list[str] = []
        self.attempted = 1
        self.failed = 0

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    @property
    def seconds(self):
        return sum(self.times.values())


# -- verify-corpus -----------------------------------------------------------

class VerifyCorpus:
    """``qtfa verify`` on the default corpus at n=VERIFY_N."""

    def __init__(self, seed, workdir):
        self.argv = ["verify", "--n", str(VERIFY_N), "--seed", str(seed)]
        self.workdir = workdir
        self.threads = VERIFY_THREADS
        self.digest = None
        self.records = 0
        self.gated = 0

    def run(self, k):
        op = Op()
        out = self.workdir / f"verify-{k}.jsonl"
        os.environ["QTF_THREADS"] = str(self.threads)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = qtfa.cli.main(self.argv + ["--out", str(out)])
        op.times["verify"] = time.perf_counter() - t0
        op.check(rc == 0, f"exit code {rc}")
        summary = re.search(r"(\d+) checks, (\d+) gated failures", buf.getvalue())
        op.check(summary is not None, "no verdict line")
        data = out.read_bytes()
        out.unlink()
        self.records = data.count(b"\n")
        if summary:
            self.gated = int(summary.group(2))
            op.check(self.gated == 0, f"{self.gated} gated failures")
            op.check(int(summary.group(1)) == self.records,
                     "record count differs from the verdict line")
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        op.check(digest == self.digest, "report differs from the first run")
        return op


# -- transform-stream --------------------------------------------------------

class TransformStream:
    """Fast forward+inverse pairs: the QFT and the three QOLCT sextets."""

    KINDS = ("qft",) + tuple(name for name, _, _ in SEXTETS)

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.plans = {}
        self.signals = {}
        for n, _ in TRANSFORM_ROUND:
            ax = qtfa.Axis.centered(n, EXTENT)
            self.plans[n, "qft"] = qtfa.QftPlan.for_axes(ax, ax)
            for entry in SEXTETS:
                self.plans[n, entry[0]] = qtfa.QolctPlan.for_axes(*_params(entry), ax, ax)
            pool = [_random_quat_signal(rng, ax) for _ in range(TRANSFORM_POOL[n])]
            self.signals[n] = [(f, float(np.sum(f.data * f.data)) * f.cell_area)
                               for f in pool]

    def run(self, k):
        op = Op()
        op.attempted = 0
        counter = 0
        for kind in self.KINDS:
            if kind == "qft":
                forward, inverse, target = qtfa.qft_forward, qtfa.qft_inverse, 4 * math.pi**2
            else:
                forward, inverse, target = qtfa.qolct_forward, qtfa.qolct_inverse, 1.0
            for n, reps in TRANSFORM_ROUND:
                plan = self.plans[n, kind]
                for _ in range(reps):
                    f, energy = self.signals[n][counter % len(self.signals[n])]
                    counter += 1
                    t0 = time.perf_counter()
                    F = forward(f, plan)
                    back = inverse(F, plan)
                    dt = time.perf_counter() - t0
                    op.samples.append((n, dt))
                    op.times[n] = op.times.get(n, 0.0) + dt
                    before = len(op.failures)
                    err = _rel_l2(back.data, f.data)
                    op.check(err <= REL_TOL, f"{kind} n={n} roundtrip {err:.3g}")
                    ratio = float(np.sum(F.data * F.data)) * F.cell_area / energy
                    op.check(abs(ratio / target - 1.0) <= REL_TOL,
                             f"{kind} n={n} Plancherel ratio {ratio!r}")
                    op.attempted += 1
                    op.failed += len(op.failures) > before
        return op


# -- windowed-field ----------------------------------------------------------

class WindowedField:
    """Dense stride-1 ST-QOLCT field, its reducers, and a .qtf4 roundtrip."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        n = FIELD_N
        ax = qtfa.Axis.centered(n, EXTENT)
        x = ax.coords
        window = np.zeros((n, n, 4))
        window[..., 0] = np.exp(-2.0 * (x[:, None] ** 2 + x[None, :] ** 2))
        self.window = qtfa.GridSignal2D(ax, ax, window)
        self.plans = [qtfa.StqolctPlan.create(*_params(e), ax, ax, self.window, stride=1)
                      for e in SEXTETS]
        center = rng.uniform(-2.0, 2.0, size=2)
        width = rng.uniform(0.5, 1.5)
        amp = rng.standard_normal(4)
        envelope = np.exp(-width * ((x[:, None] - center[0]) ** 2
                                    + (x[None, :] - center[1]) ** 2))
        localized = qtfa.GridSignal2D(ax, ax, envelope[:, :, None] * amp / np.linalg.norm(amp))
        self.signals = [localized, _random_quat_signal(rng, ax)]
        # Sum over translations of |phi(x - u)|^2, from 2D prefix sums of
        # |phi|^2.  Stride-1 translations shift by m = i - n/2, i in [0, n).
        a = np.sum(window * window, axis=-1)
        prefix = np.zeros((n + 1, n + 1))
        prefix[1:, 1:] = a.cumsum(0).cumsum(1)
        k = np.arange(n)
        lo = np.maximum(0, k - n // 2 + 1)
        hi = np.minimum(n - 1, k + n // 2) + 1
        self.cover = (prefix[hi][:, hi] - prefix[lo][:, hi]
                      - prefix[hi][:, lo] + prefix[lo][:, lo])
        self.du = ax.step * ax.step
        self.window_sq = float(np.sum(a)) * self.window.cell_area
        self.workdir = workdir
        #: when set, the next operation leaves its .qtf4 at this path
        self.keep_path = None

    def inputs(self, k):
        return self.signals[k % len(self.signals)], self.plans[k % len(self.plans)]

    def run(self, k):
        op = Op()
        f, plan = self.inputs(k)
        path = self.workdir / f"field-{k}.qtf4"
        try:
            t0 = time.perf_counter()
            field = qtfa.stqolct_forward(f, plan)
            t1 = time.perf_counter()
            energy = qtfa.stqolct_energy(field)
            marginal = qtfa.field_w_energy_map(field)
            t2 = time.perf_counter()
            recon = qtfa.stqolct_reconstruct(field)
            t3 = time.perf_counter()
            qtfa.save_field(field, path)
            t4 = time.perf_counter()
            loaded = qtfa.load_field(path)
            t5 = time.perf_counter()
            op.times.update(forward=t1 - t0, reducers=t2 - t1, reconstruct=t3 - t2,
                            save=t4 - t3, load=t5 - t4)
            expect_energy = (float(np.sum(np.sum(f.data * f.data, axis=-1) * self.cover))
                             * f.cell_area * self.du)
            op.check(abs(energy / expect_energy - 1.0) <= REL_TOL,
                     f"energy {energy!r} vs {expect_energy!r}")
            marginal_total = float(np.sum(marginal.values)) * marginal.cell_area
            op.check(abs(marginal_total / energy - 1.0) <= REL_TOL,
                     f"w-marginal total {marginal_total!r} vs energy {energy!r}")
            expect_recon = f.data * self.cover[:, :, None] * (self.du / self.window_sq)
            err = _rel_l2(recon.data, expect_recon)
            op.check(err <= REL_TOL, f"reconstruction error {err:.3g}")
            op.check(path.stat().st_size == QTF4_HEADER_BYTES + field.data.nbytes,
                     "unexpected .qtf4 size")
            same = (np.array_equal(loaded.data, field.data)
                    and (loaded.w1, loaded.w2, loaded.u1, loaded.u2)
                    == (field.w1, field.w2, field.u1, field.u2)
                    and (loaded.params1, loaded.params2) == (field.params1, field.params2))
            op.check(same, "reloaded .qtf4 differs from the saved field")
        finally:
            if self.keep_path is not None and path.exists():
                path.replace(self.keep_path)
                self.keep_path = None
            path.unlink(missing_ok=True)
        return op


WORKLOADS = {
    "verify-corpus": VerifyCorpus,
    "transform-stream": TransformStream,
    "windowed-field": WindowedField,
}


# -- statistics --------------------------------------------------------------

def median(values):
    return float(np.median(values))


def timing_lines(name, tail_name, values, scale, unit):
    """Median, plus the highest of p90/p99/p99.9 with ten samples beyond it."""
    lines = [(name, median(values) * scale, unit, len(values))]
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - p / 100.0) >= 10:
            label = tail_name.format(f"p{p:g}".replace(".", ""))
            lines.append((label, float(np.percentile(values, p)) * scale, unit, len(values)))
            break
    return lines


def end_to_end_lines(name, ops):
    """The workload's own end-to-end figures, printed beside the gated ones."""
    lines = []
    if name == "verify-corpus":
        lines += timing_lines("verify_wall_s", "verify_wall_{}_s",
                              [op.seconds for op in ops], 1.0, "s")
    elif name == "transform-stream":
        total = sum(op.seconds for op in ops)
        cells = sum(2 * n * n for op in ops for n, _ in op.samples)
        lines.append(("transform_cells_per_s", cells / total, "cells/s", len(ops)))
        for n, _ in TRANSFORM_ROUND:
            values = [dt for op in ops for size, dt in op.samples if size == n]
            lines += timing_lines(f"transform_n{n}_p50_ms", f"transform_n{n}_{{}}_ms",
                                  values, 1e3, "ms")
    else:
        for label, keys in (("field_forward", ("forward",)),
                            ("field_reconstruct", ("reconstruct",)),
                            ("field_io", ("save", "load"))):
            values = [sum(op.times[key] for key in keys) for op in ops]
            lines += timing_lines(f"{label}_s", f"{label}_{{}}_s", values, 1.0, "s")
    return lines


# -- the two modes -----------------------------------------------------------

def _run_op(workload, k):
    try:
        op = workload.run(k)
    except Exception as exc:  # a raised exception is a failed operation
        op = Op()
        op.failures.append(f"{type(exc).__name__}: {exc}")
    if op.failures and not op.failed:
        op.failed = 1
    return op


def timed_mode(name, workload, seconds):
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(_run_op(workload, len(ops)))
    good = [op for op in ops if not op.failures]
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    result = {"attempted": attempted, "failed": failed, "ops": len(ops),
              "failures": [f for op in ops for f in op.failures][:20],
              "peak_rss_mb": _rss_mb()}
    if good:
        result["op_p50_ms"] = median([op.seconds for op in good]) * 1e3
        result["human"] = ([("fail_share", failed / attempted, "ratio", attempted)]
                           + end_to_end_lines(name, good))
    return result


def trace_mode(name, workload, workdir, trace_out):
    """Untraced operations, then two traced ones on the same inputs.

    The first operation warms caches; the second is the untraced reference
    for the tracing overhead.  The two traced operations must agree on
    every computed count.  For verify-corpus the warm-up runs with 1 pool
    thread (the single-threaded baseline), the other three with 2 and then
    with 1, and all four reports must be byte-identical.
    """
    if name == "verify-corpus":
        plan = [(1, False), (VERIFY_THREADS, False), (VERIFY_THREADS, True), (1, True)]
    else:
        plan = [(None, False), (None, False), (None, True), (None, True)]
    if name == "windowed-field":
        workload.keep_path = workdir / "probe.qtf4"
    runs = []
    for threads, traced in plan:
        if threads is not None:
            workload.threads = threads
        tracer = tracing.Tracer() if traced else None
        if tracer:
            tracer.install()
        try:
            op = _run_op(workload, 0)
        finally:
            if tracer:
                tracer.uninstall()
        runs.append((threads, tracer, op))
    failures = [f for _, _, op in runs for f in op.failures]
    failed = sum(1 for _, _, op in runs if op.failures)
    traced = [(tracer, op) for _, tracer, op in runs if tracer]
    metrics, counts = layer_metrics(*traced[0], workload)
    _, counts_again = layer_metrics(*traced[1], workload)
    if counts != counts_again:
        failed += 1
        diff = sorted(k for k in counts if counts[k] != counts_again.get(k))
        failures.append(f"computed counts differ between traced runs: {diff}")
    untraced = runs[1][2].seconds
    alike = [op.seconds for threads, tracer, op in runs if tracer and threads == runs[1][0]]
    metrics["trace.overhead_ratio"] = median(alike) / untraced if untraced else 0.0
    if name == "verify-corpus":
        metrics["verify.pool_speedup"] = runs[0][2].seconds / untraced if untraced else 0.0
        metrics["verify.wall_1worker_s"] = runs[0][2].seconds
    for n in (64, 256, 1024):
        metrics[f"machine.fft_floor_n{n}_s"] = fft_floor((2, n, n))
    with open(trace_out, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "absent": traced[0][0].absent, "metrics": metrics,
                   "computed": counts,
                   "spans": [tracer.records() for tracer, _ in traced]}, fh)
    return {"attempted": len(runs), "failed": failed, "failures": failures[:20],
            "metrics": metrics, "absent": traced[0][0].absent,
            "load_probe": str(workdir / "probe.qtf4") if name == "windowed-field" else None}


@functools.cache
def fft_floor(shape):
    """Median time of bare np.fft.fft2 over the last two axes of a complex stack."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.fft.fft2(x, axes=(-2, -1))
        times.append(time.perf_counter() - t0)
    return median(times)


def _floor_total(spans, names):
    # Each recorded (..., n1, n2, 4) quaternion stack is two complex
    # channels of shape (..., n1, n2) in the split-channel engine.
    return sum(fft_floor((2,) + tuple(s.counts["shape"][:-1]))
               for s in spans if s.name in names and s.counts)


def layer_metrics(tracer, op, workload):
    """Per-layer metrics of one traced operation, and its computed counts.

    A metric whose span name no longer exists in qtfa reads -1.
    """
    spans = tracer.spans
    by_name, layer_busy = tracing.summarize(spans)
    absent = set(tracer.absent)
    m, computed = {}, {}

    def get(name, key):
        return by_name.get(name, {}).get(key, 0)

    def count(name, key):
        return by_name.get(name, {}).get("counts", {}).get(key, 0)

    def put(metric, name, value, is_count=False):
        m[metric] = -1 if name in absent else value
        if is_count:
            computed[metric] = m[metric]

    def ratio(a, b):
        return a / b if b else 0.0

    put("quaternion.qmul.calls", "quaternion.qmul", get("quaternion.qmul", "calls"), True)
    put("quaternion.qmul.busy_s", "quaternion.qmul", get("quaternion.qmul", "busy"))
    put("quaternion.qmul.elems", "quaternion.qmul", count("quaternion.qmul", "elems"), True)
    for short in ("cayley", "qconj"):
        put(f"quaternion.{short}.busy_s", f"quaternion.{short}",
            get(f"quaternion.{short}", "busy"))

    qft_names = ("qft.forward", "qft.inverse")
    for name in qft_names:
        put(f"{name}.busy_s", name, get(name, "busy"))
    put("qft.calls", "qft.forward", sum(get(n, "calls") for n in qft_names), True)
    put("qft.fft_floor_ratio", "qft.forward",
        ratio(sum(get(n, "busy") for n in qft_names), _floor_total(spans, qft_names)))

    for d in ("forward", "inverse"):
        put(f"qolct.{d}.busy_s", f"qolct.{d}", get(f"qolct.{d}", "busy"))
    batch_names = ("qolct.forward_batch", "qolct.inverse_batch")
    for name in batch_names:
        put(f"{name}.busy_s", name, get(name, "busy"))
        put(f"{name}.slices", name, count(name, "slices"), True)
    put("qolct.slices_per_batch", "qolct.forward_batch",
        ratio(sum(count(n, "slices") for n in batch_names),
              sum(get(n, "calls") for n in batch_names)), True)
    put("qolct.fft_floor_ratio", "qolct.forward_batch",
        ratio(sum(get(n, "busy") for n in batch_names), _floor_total(spans, batch_names)))
    put("qolct.bytes_computed", "qolct.forward_batch",
        sum(count(n, "bytes") for n in batch_names), True)

    put("stqolct.forward.calls", "stqolct.forward", get("stqolct.forward", "calls"), True)
    put("stqolct.forward.busy_s", "stqolct.forward", get("stqolct.forward", "busy"))
    put("stqolct.forward.self_s", "stqolct.forward", get("stqolct.forward", "self"))
    field_bytes = count("stqolct.forward", "field_bytes")
    put("stqolct.forward.field_bytes", "stqolct.forward", field_bytes, True)
    put("stqolct.forward.bytes_per_s", "stqolct.forward",
        ratio(field_bytes, get("stqolct.forward", "busy")))
    for short in ("reconstruct", "energy", "moyal"):
        put(f"stqolct.{short}.busy_s", f"stqolct.{short}", get(f"stqolct.{short}", "busy"))
    put("stqolct.reconstruct.self_s", "stqolct.reconstruct", get("stqolct.reconstruct", "self"))
    moyal_fields = tracing.descendants_of(spans, "stqolct.moyal", "stqolct.forward")
    put("stqolct.moyal.fields_built", "stqolct.moyal", len(moyal_fields), True)
    put("stqolct.moyal.fields_distinct", "stqolct.moyal",
        len({s.counts["digest"] for s in moyal_fields}), True)

    for short in ("w_marginal", "donoho_stark", "pitt", "log_up", "hardy_fit", "beurling"):
        put(f"uncertainty.{short}.busy_s", f"uncertainty.{short}",
            get(f"uncertainty.{short}", "busy"))
    put("uncertainty.donoho_stark.fields_built", "uncertainty.donoho_stark",
        len(tracing.descendants_of(spans, "uncertainty.donoho_stark", "stqolct.forward")),
        True)

    tasks = [s for s in spans if s.name.startswith("verify.task.")]
    labels = ["quat-algebra", "special-fn", "qft", "hardy"] + [
        f"{prefix}-{entry[0]}" for entry in SEXTETS for prefix in ("params", "beurling")]
    for label in labels:
        m[f"verify.task.{label}.wall_s"] = 0.0
    for s in tasks:
        key = f"{s.name}.wall_s"
        m[key] = m.get(key, 0.0) + (s.end - s.start)
    wall = get("verify.run", "busy")
    workers = tracer.pool_workers
    task_busy = sum(s.end - s.start for s in tasks)
    m["verify.pool.workers"] = -1 if "verify.pool" in absent else workers
    m["verify.pool.util"] = ratio(task_busy, wall * workers)
    m["verify.task_wait_s"] = sum(s.counts["wait"] for s in tasks)
    m["verify.critical_path_s"] = max((s.end - s.start for s in tasks), default=0.0)
    is_verify = isinstance(workload, VerifyCorpus)
    put("verify.records", "verify.run", workload.records if is_verify else 0, True)
    put("verify.gated_failures", "verify.run", workload.gated if is_verify else 0, True)
    m["verify.pool_speedup"] = 0.0
    m["verify.wall_1worker_s"] = 0.0

    for d in ("save_field", "load_field"):
        name = f"fileio.{d}"
        nbytes = count(name, "bytes")
        put(f"{name}.busy_s", name, get(name, "busy"))
        put(f"{name}.bytes", name, nbytes, True)
        put(f"{name}.bytes_per_s", name, ratio(nbytes, get(name, "busy")))
    m["fileio.load_field.rss_growth_mb"] = 0.0

    m["grid.busy_s"] = layer_busy.get("grid", 0.0)
    put("grid.signal_init.calls", "grid.signal_init", get("grid.signal_init", "calls"), True)
    put("cli.main.busy_s", "cli.main", get("cli.main", "busy"))
    m["cli.import_s"] = IMPORT_S
    return m, computed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started-at", type=float, default=None,
                        help="time.time() just before this process was started")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.setup_only:
        print(json.dumps({"setup_s": time.time() - args.started_at, "import_s": IMPORT_S}))
        return 0
    if args.trace:
        result = trace_mode(args.workload, workload, workdir, args.trace_out)
    else:
        result = timed_mode(args.workload, workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
