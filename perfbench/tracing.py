"""Span tracer for qtfa, installed from outside the package.

The tracer replaces selected qtfa functions with wrappers that record a
span (name, start, end, thread, parent) around each call.  A function is
replaced everywhere it is bound: in its defining module and in every
qtfa module that imported it by name, so ``stqolct.qmul`` and
``verify.stqolct_forward`` are traced as well as the originals.  Parents
come from a per-thread stack; a task run on verify's thread pool takes
the ``verify.run`` span as its parent.  Spans stay in memory until the
caller writes them out.

A target whose name no longer exists in qtfa is listed in ``absent``,
so a refactor that removes a function shows up in the trace instead of
reading as zero work.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

QTFA_MODULES = ("quaternion", "grid", "qft", "qolct", "stqolct", "uncertainty",
                "fileio", "verify", "cli")


def _qmul_count(args, kwargs, result):
    p, q = args[0], args[1]
    shape = np.broadcast_shapes(np.shape(p)[:-1], np.shape(q)[:-1])
    return {"elems": math.prod(shape)}


def _batch_count(args, kwargs, result):
    data = np.asarray(args[0])
    return {"slices": math.prod(data.shape[:-3]),
            "bytes": data.nbytes + np.asarray(result).nbytes,
            "shape": data.shape}


def _shape_count(args, kwargs, result):
    return {"shape": np.shape(args[0].data)}


def _field_count(args, kwargs, result):
    f, plan = args[0], args[1]
    key = hashlib.sha256()
    key.update(np.ascontiguousarray(f.data).tobytes())
    key.update(np.ascontiguousarray(plan.window.data).tobytes())
    key.update(repr((plan.qolct.params1, plan.qolct.params2, plan.stride,
                     args[2:], sorted(kwargs.items()))).encode())
    return {"field_bytes": result.data.nbytes, "digest": key.hexdigest()}


def _file_count(args, kwargs, result):
    path = args[1] if len(args) > 1 else args[0]
    return {"bytes": os.path.getsize(path)}


#: (module, attribute, span name, counter).  "Class.method" attributes
#: are patched on the class.
TARGETS = (
    ("quaternion", "qmul", "quaternion.qmul", _qmul_count),
    ("quaternion", "qconj", "quaternion.qconj", None),
    ("quaternion", "cayley_split", "quaternion.cayley", None),
    ("quaternion", "cayley_join", "quaternion.cayley", None),
    ("grid", "GridSignal2D.__post_init__", "grid.signal_init", None),
    ("grid", "gaussian_signal", "grid.gaussian_signal", None),
    ("grid", "chirp_signal", "grid.chirp_signal", None),
    ("grid", "inner_product", "grid.inner_product", None),
    ("grid", "l2_norm", "grid.l2_norm", None),
    ("grid", "translate_window", "grid.translate_window", None),
    ("grid", "frequency_axis", "grid.frequency_axis", None),
    ("qft", "qft_forward", "qft.forward", _shape_count),
    ("qft", "qft_inverse", "qft.inverse", _shape_count),
    ("qolct", "qolct_forward", "qolct.forward", None),
    ("qolct", "qolct_inverse", "qolct.inverse", None),
    ("qolct", "qolct_forward_batch", "qolct.forward_batch", _batch_count),
    ("qolct", "qolct_inverse_batch", "qolct.inverse_batch", _batch_count),
    ("stqolct", "stqolct_forward", "stqolct.forward", _field_count),
    ("stqolct", "stqolct_reconstruct", "stqolct.reconstruct", None),
    ("stqolct", "stqolct_energy", "stqolct.energy", None),
    ("stqolct", "moyal_check", "stqolct.moyal", None),
    ("uncertainty", "field_w_energy_map", "uncertainty.w_marginal", None),
    ("uncertainty", "donoho_stark_check", "uncertainty.donoho_stark", None),
    ("uncertainty", "pitt_check", "uncertainty.pitt", None),
    ("uncertainty", "log_up_check", "uncertainty.log_up", None),
    ("uncertainty", "hardy_decay_fit", "uncertainty.hardy_fit", None),
    ("uncertainty", "beurling_integral", "uncertainty.beurling", None),
    ("verify", "run_verification", "verify.run", None),
    ("fileio", "save_field", "fileio.save_field", _file_count),
    ("fileio", "load_field", "fileio.load_field", _file_count),
    ("cli", "main", "cli.main", None),
)


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent", "counts")

    def __init__(self, name, start, thread, parent):
        self.name = name
        self.start = start
        self.end = start
        self.thread = thread
        self.parent = parent
        self.counts = None

    def as_record(self):
        rec = {"name": self.name, "start": self.start, "end": self.end,
               "thread": self.thread, "parent": self.parent}
        if self.counts:
            rec["counts"] = self.counts
        return rec


class Tracer:
    """Installs wrappers into qtfa and records spans until uninstalled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.pool_workers = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, parent=None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), threading.get_ident(),
                                   -1 if parent is None else parent))
        stack.append(index)
        return index

    def _close(self, index):
        self._stack().pop()
        self.spans[index].end = time.perf_counter()

    def call(self, name, fn, args, kwargs, counter=None):
        index = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(index)
        if counter is not None:
            self.spans[index].counts = counter(args, kwargs, result)
        return result

    def _wrap(self, name, fn, counter):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, counter)

        traced.__wrapped__ = fn
        return traced

    # -- installation ---------------------------------------------------
    def install(self, targets=TARGETS):
        modules = [importlib.import_module(f"qtfa.{m}") for m in QTFA_MODULES]
        modules.append(importlib.import_module("qtfa"))
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module_name, dotted, span_name, counter in targets:
            owner = by_name[module_name]
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, original, counter)
            self._set(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        self._install_pool(by_name["verify"])

    def _install_pool(self, verify):
        # Pool tasks are the (label, callable) items that run_verification
        # maps over; each becomes a span parented on the verify.run span.
        if getattr(verify, "ThreadPoolExecutor", None) is not ThreadPoolExecutor:
            self.absent.append("verify.pool")
            return
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.pool_workers = self._max_workers

            def map(self, fn, *iterables, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                submitted = time.perf_counter()

                def task(item):
                    label = item[0] if isinstance(item, tuple) and isinstance(
                        item[0], str) else "task"
                    label = label.replace(":", "-")
                    index = tracer._open(f"verify.task.{label}", parent)
                    tracer.spans[index].counts = {"wait": tracer.spans[index].start
                                                  - submitted}
                    try:
                        return fn(item)
                    finally:
                        tracer._close(index)

                return super().map(task, *iterables, **kwargs)

        self._set(verify, "ThreadPoolExecutor", TracedPool)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def records(self):
        return [s.as_record() for s in self.spans]


# -- aggregation ------------------------------------------------------------

def _union_length(intervals):
    total = 0.0
    end = -math.inf
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _has_ancestor(spans, span, predicate):
    parent = span.parent
    while parent >= 0:
        if predicate(spans[parent]):
            return True
        parent = spans[parent].parent
    return False


def summarize(spans):
    """Per-name totals over a list of spans.

    ``busy`` sums the spans of a name that are not nested in a span of the
    same name; ``self`` is busy time minus the time covered by child spans.
    ``layer_busy`` does the same at the level of the name's first
    component, so a layer's nested calls are not counted twice.
    """
    children = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}})
    layer_busy = defaultdict(float)
    for index, span in enumerate(spans):
        entry = out[span.name]
        entry["calls"] += 1
        duration = span.end - span.start
        if not _has_ancestor(spans, span, lambda s: s.name == span.name):
            entry["busy"] += duration
            covered = _union_length(
                (max(spans[c].start, span.start), min(spans[c].end, span.end))
                for c in children[index])
            entry["self"] += duration - covered
        layer = span.name.split(".", 1)[0]
        if not _has_ancestor(spans, span,
                             lambda s: s.name.split(".", 1)[0] == layer):
            layer_busy[layer] += duration
        for key, value in (span.counts or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return dict(out), dict(layer_busy)


def descendants_of(spans, ancestor_name, name):
    """Spans called ``name`` that have an ancestor called ``ancestor_name``."""
    return [s for s in spans
            if s.name == name and _has_ancestor(spans, s, lambda a: a.name == ancestor_name)]
