"""Tests of the benchmark's tracer and of its computed counts.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402
import worker  # noqa: E402

import qtfa  # noqa: E402


def _signal(n, seed=0):
    ax = qtfa.Axis.centered(n, 4.0)
    rng = np.random.default_rng(seed)
    return qtfa.GridSignal2D(ax, ax, rng.standard_normal((n, n, 4)))


def test_spans_nest_and_self_time_excludes_children():
    f = _signal(8)
    plan = qtfa.QolctPlan.for_axes(qtfa.OlctParams(0, 1, -1, 0), qtfa.OlctParams(0, 1, -1, 0),
                                   f.ax1, f.ax2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        qtfa.qolct_forward(f, plan)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names[0] == "qolct.forward"
    batch = names.index("qolct.forward_batch")
    assert tracer.spans[batch].parent == 0
    assert all(s.parent < i for i, s in enumerate(tracer.spans))
    by_name, _ = tracing.summarize(tracer.spans)
    forward = by_name["qolct.forward"]
    assert 0.0 <= forward["self"] < forward["busy"]
    assert by_name["qolct.forward_batch"]["counts"]["slices"] == 1


def test_uninstall_restores_every_binding():
    before = (qtfa.stqolct.qmul, qtfa.verify.stqolct_forward, qtfa.qolct_forward,
              qtfa.grid.GridSignal2D.__post_init__, qtfa.verify.ThreadPoolExecutor)
    tracer = tracing.Tracer()
    tracer.install()
    assert qtfa.stqolct.qmul is not before[0]
    assert qtfa.verify.stqolct_forward is not before[1]
    tracer.uninstall()
    after = (qtfa.stqolct.qmul, qtfa.verify.stqolct_forward, qtfa.qolct_forward,
             qtfa.grid.GridSignal2D.__post_init__, qtfa.verify.ThreadPoolExecutor)
    assert after == before


def test_missing_name_is_reported_absent_not_zero(tmp_path):
    targets = tracing.TARGETS + (("qolct", "no_such_engine", "qolct.forward_batch", None),)
    tracer = tracing.Tracer()
    tracer.install(targets)
    tracer.uninstall()
    assert "qolct.forward_batch" in tracer.absent
    metrics, _ = worker.layer_metrics(tracer, worker.Op(), worker.TransformStream(0, tmp_path))
    assert metrics["qolct.forward_batch.busy_s"] == -1
    assert metrics["qolct.forward_batch.slices"] == -1
    assert metrics["qft.calls"] == 0


def test_union_length_merges_overlapping_children():
    assert tracing._union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)


def _traced_counts(workload, k=0):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        op = workload.run(k)
    finally:
        tracer.uninstall()
    return op, worker.layer_metrics(tracer, op, workload)


def test_windowed_field_counts_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "FIELD_N", 16)
    workload = worker.WindowedField(3, tmp_path)
    op, (metrics, counts) = _traced_counts(workload)
    _, (_, again) = _traced_counts(workload)
    assert not op.failures
    assert counts == again
    field_bytes = 16 ** 4 * 4 * 8
    assert counts["stqolct.forward.field_bytes"] == field_bytes
    assert counts["fileio.save_field.bytes"] == worker.QTF4_HEADER_BYTES + field_bytes
    assert list(tmp_path.iterdir()) == []


def test_verify_counts_repeat_across_worker_counts(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "VERIFY_N", 16)
    monkeypatch.setenv("QTF_THREADS", "2")  # the workload sets it per run
    workload = worker.VerifyCorpus(0, tmp_path)
    _, (metrics, counts) = _traced_counts(workload)
    workload.threads = 1
    _, (_, again) = _traced_counts(workload)
    assert counts == again
    assert counts["stqolct.moyal.fields_built"] == 6 * len(worker.SEXTETS)
    assert counts["stqolct.moyal.fields_distinct"] == 4 * len(worker.SEXTETS)
    assert counts["uncertainty.donoho_stark.fields_built"] == len(worker.SEXTETS)
    assert metrics["verify.task.params-fourier.wall_s"] > 0.0
    assert metrics["verify.pool.workers"] == 2
