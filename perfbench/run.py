"""qtfa benchmark: one workload per call, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Workloads (see README.md): verify-corpus, transform-stream, windowed-field.

The run measures the set-up cost in several fresh processes, then runs
the workload in a process of its own.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it runs the
trace plan and the machine probes and reports the per-layer metrics.
Human-readable lines (provenance, the workload's own figures, each with
its unit and sample count) come first; the last line on stdout is one
JSON object with the keys correct, attempted, failed and metrics.

Nothing is written outside the checkout: scratch files go under
``.perfbench-work/`` and are removed at the end, except the trace file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import machine  # noqa: E402

WORKLOADS = ("verify-corpus", "transform-stream", "windowed-field")
#: fresh processes timed for set-up, half before and half after the
#: workload so that the median spans the run; one untimed process first
SETUP_REPEATS = 10
#: peak memory of each workload process, with headroom (MiB)
WORKLOAD_MIB = {"verify-corpus": 700, "transform-stream": 600, "windowed-field": 1000}
#: the .qtf4 loader holds about three copies of the field while reading
LOAD_PROBE_FACTOR = 3.2
WORKER_TIMEOUT_S = 110
PROBE_TIMEOUT_S = 25


def _fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def _child(args, root, workdir, timeout):
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=root, timeout=timeout,
                          capture_output=True, text=True,
                          env=_child_env(workdir))
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _child_env(workdir):
    return {**os.environ, "TMPDIR": str(workdir)}


def measure_setup(root, workdir, base, count):
    """Time from process start to the worker's first timed call, per process.

    Each entry also carries the ``import qtfa`` time of that process.
    """
    return [_child([*base, "--setup-only", "--started-at", repr(time.time())],
                   root, workdir, PROBE_TIMEOUT_S) for _ in range(count)]


def main(argv=None):
    parser = argparse.ArgumentParser(description="qtfa benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qtfa" / "__init__.py").is_file():
        return _fail("run from the root of a qtfa checkout (src/qtfa is missing)", 2)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    try:
        machine.preflight(WORKLOAD_MIB[args.workload] * machine.MIB, args.workload)
    except MemoryError as exc:
        return _fail(str(exc), 3)

    work_root = root / ".perfbench-work"
    workdir = work_root / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    trace_out = work_root / f"trace-{args.workload}-seed{args.seed}.json"
    base = [HERE / "worker.py", "--workload", args.workload, "--seed", args.seed,
            "--seconds", args.seconds, "--trace", args.trace, "--workdir", workdir,
            "--trace-out", trace_out]
    human = []
    try:
        half = SETUP_REPEATS // 2
        setups = measure_setup(root, workdir, base, half + 1)[1:]
        result = _child(base, root, workdir, WORKER_TIMEOUT_S)
        setups += measure_setup(root, workdir, base, SETUP_REPEATS - half)
        setup_s = statistics.median(r["setup_s"] for r in setups)
        import_s = statistics.median(r["import_s"] for r in setups)
        if args.trace:
            metrics = result["metrics"]
            metrics["cli.import_s"] = import_s
            nbytes = machine.copy_array_bytes()
            machine.preflight(2 * nbytes, "copy-bandwidth probe")
            probe = _child([HERE / "machine.py", "copy-bw", "--bytes", nbytes], root,
                           workdir, PROBE_TIMEOUT_S)
            metrics["machine.copy_bw_bytes_per_s"] = probe["bytes_per_s"]
            metrics["machine.copy_bw_array_bytes"] = nbytes
            metrics["machine.last_level_cache_bytes"] = machine.last_level_cache_bytes() or 0
            if result.get("load_probe"):
                path = Path(result["load_probe"])
                machine.preflight(int(LOAD_PROBE_FACTOR * path.stat().st_size),
                                  "load_field probe")
                metrics["fileio.load_field.rss_growth_mb"] = _child(
                    [HERE / "machine.py", "load-rss", path], root, workdir,
                    PROBE_TIMEOUT_S)["rss_growth_mb"]
            human += [(k, v, units.get(k, ""), 1) for k, v in sorted(metrics.items())]
            if result["absent"]:
                human.append(("absent", ",".join(result["absent"]), "", 0))
            human.append(("trace_file", str(trace_out.relative_to(root)), "", 0))
        else:
            if "op_p50_ms" not in result:
                return _fail(f"no operation succeeded: {result['failures'][:3]}")
            metrics = {"setup_s": setup_s, "peak_rss_mb": result["peak_rss_mb"],
                       "op_p50_ms": result["op_p50_ms"]}
            human += [tuple(line) for line in result["human"]]
            human.append(("operations", result["ops"], "count", result["ops"]))
    except MemoryError as exc:
        return _fail(str(exc), 3)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return _fail(f"metrics missing from the run: {missing}")
    print("provenance " + json.dumps(machine.provenance(root), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value, unit, samples in human:
        print(f"  {name} = {value} {unit} (samples: {samples})")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
