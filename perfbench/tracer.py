"""Span tracing installed from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer
(the map in README.md) so every call records a span: name, thread,
start, end and the span that was open on the same thread when it
started (its parent). A few wrappers also record counts where the work
happens (statements per call, memo hits, padding cells). Spans stay in
memory and :func:`dump` writes them out once, at exit. :func:`cut`
marks where the measured part of a run starts (after a server's
warm-up), so the analysis can leave out what came before it.

Nothing under ``src/`` changes: the wrappers replace the attributes on
the classes and modules (and every ``from x import f`` alias of a
wrapped function in an already imported ``repro`` module).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

_perf = time.perf_counter
_local = threading.local()
#: (id, parent id, name, thread id, start, end)
SPANS: list[tuple] = []
#: free-form per-layer counts: name -> number
COUNTS: dict[str, float] = {}
#: per-request queue waits (ms) measured at batch start
QUEUE_WAITS: list[float] = []
#: the process state at :func:`cut` (None: the whole run is measured)
CUT: dict | None = None
_next_id = iter(range(1, 1 << 62)).__next__
_count_lock = threading.Lock()


def count(name: str, value: float = 1.0) -> None:
    with _count_lock:
        COUNTS[name] = COUNTS.get(name, 0.0) + value


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _wrap(fn, name: str, on_call=None):
    """``fn`` recording a span ``name``; ``on_call(args, kwargs, result)``
    may add counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _stack()
        span_id = _next_id()
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            SPANS.append((span_id, parent, name, threading.get_ident(), start, end))
        if on_call is not None:
            on_call(args, kwargs, result)
        return result

    return wrapper


class _TimedIterator:
    """An iterator whose every ``next()`` is a span ``name``."""

    def __init__(self, inner, name: str, counter: str):
        self._inner = iter(inner)
        self._name = name
        self._counter = counter

    def __iter__(self):
        return self

    def __next__(self):
        stack = _stack()
        start = _perf()
        try:
            item = next(self._inner)
        finally:
            SPANS.append(
                (_next_id(), stack[-1] if stack else 0, self._name,
                 threading.get_ident(), start, _perf())
            )
        count(self._counter)
        return item


class _TimedWriter:
    """A text handle whose ``write`` calls are spans ``io.write``."""

    def __init__(self, inner):
        self._inner = inner
        self.write = _wrap(inner.write, "io.write")

    def __enter__(self):
        self._inner.__enter__()
        return self

    def __exit__(self, *exc):
        start = _perf()
        try:
            return self._inner.__exit__(*exc)
        finally:
            SPANS.append((_next_id(), 0, "io.write", threading.get_ident(), start, _perf()))

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _replace_everywhere(original, replacement) -> None:
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(module_name: str, attr: str, name: str, on_call=None):
    original = getattr(importlib.import_module(module_name), attr)
    _replace_everywhere(original, _wrap(original, name, on_call))


def _patch_method(cls, attr: str, name: str, on_call=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(_wrap(raw.__func__, name, on_call)))
    elif isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(_wrap(raw.__func__, name, on_call)))
    else:
        setattr(cls, attr, _wrap(raw, name, on_call))


def _subclasses(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return [base, *seen]


# -- counts recorded at the layer boundaries --------------------------------- #


def _statements_arg(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, (list, tuple)) and (not value or isinstance(value[0], str)):
            return value
    return ()


def _count_statements(prefix: str):
    def on_call(args, kwargs, result):
        statements = _statements_arg(args[1:], kwargs)
        count(prefix + ".statements", len(statements))

    return on_call


def _on_insights_batch(args, kwargs, result):
    statements = _statements_arg(args[1:], kwargs)
    count("facilitator.statements", len(statements))
    count("facilitator.distinct", len(set(statements)))


def _on_memo(args, kwargs, result):
    _, hits, misses = result
    count("memo.hits", hits)
    count("memo.misses", misses)


def _on_answer(args, kwargs, result):
    count("service.batches")
    count("service.batch_statements", len(args[1]))


def _queue_waits(collect):
    """``_collect_batch`` recording each request's queue wait when its
    batch starts (no span: the call blocks while the queue is empty)."""

    @functools.wraps(collect)
    def wrapper(self):
        batch = collect(self)
        now = _perf()
        for request in batch:
            QUEUE_WAITS.append((now - request._enqueued_at) * 1000.0)
        return batch

    return wrapper


def _on_collapse(args, kwargs, result):
    rep_idx = result[0]
    count("batchplan.rows", len(args[1]))
    count("batchplan.rows_collapsed", len(args[1]) - len(rep_idx))


def _on_buckets(args, kwargs, result):
    # one call plans one epoch; the duplicate counts add up to its rows
    count("batchplan.row_epochs", int(args[2].sum()))
    pad_id = args[5] if len(args) > 5 else kwargs["pad_id"]
    for batch in result:
        count("batchplan.cells", batch.ids.size)
        count("batchplan.pad_cells", int((batch.ids == pad_id).sum()))


def _count_records(label: str):
    def on_call(args, kwargs, result):
        count(f"analytics.records:{label}", len(args[1]))

    return on_call


def _on_score_chunk(args, kwargs, result):
    count("bulk.statements", len(args[1]))


def install() -> None:
    """Wrap every traced layer boundary (once per process)."""
    from repro.analytics import aggregators as _aggregators  # noqa: F401
    from repro.analytics import core as analytics_core
    from repro.analytics import insights as analytics_insights
    from repro.core.facilitator import QueryFacilitator
    from repro.inference.featurize import CompiledVectorizer
    from repro.inference.plan import InferencePlan
    from repro.nn.module import Module
    from repro.nn.optim import Optimizer
    from repro.serving.http import InsightsAPI
    from repro.serving.service import FacilitatorService, InsightMemo
    from repro.text.encode import SequenceEncoder
    from repro.text.vocab import Vocabulary
    from repro.workloads import io as workloads_io
    import repro.cli  # noqa: F401 - every command module imported

    _patch_method(InsightsAPI, "parse_insights", "front.parse")
    _patch_method(InsightsAPI, "finish_insights", "front.encode")
    FacilitatorService._collect_batch = _queue_waits(
        FacilitatorService._collect_batch
    )
    _patch_method(FacilitatorService, "_answer_statements", "service.batch", _on_answer)
    _patch_method(InsightMemo, "resolve", "service.memo", _on_memo)
    _patch_method(QueryFacilitator, "insights_batch", "facilitator.insights_batch",
                  _on_insights_batch)
    _patch_method(QueryFacilitator, "load", "artifact.load")
    _patch_method(QueryFacilitator, "save", "artifact.save")
    _patch_method(CompiledVectorizer, "transform", "featurize.transform",
                  _count_statements("featurize"))
    _patch_method(InferencePlan, "predict_into", "plan.predict_into",
                  _count_statements("plan"))
    _patch_function("repro.inference.plan", "compile_plan", "plan.compile")

    for fn_name in ("iter_log", "iter_workload"):
        original = getattr(workloads_io, fn_name)

        def timed(original=original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                return _TimedIterator(original(*args, **kwargs), "io.read", "io.records")

            return wrapper

        _replace_everywhere(original, timed())
    for writer_attr in ("write", "write_many"):
        _patch_method(workloads_io._JsonlWriter, writer_attr, "io.write")
    open_out = analytics_insights._open_out
    _replace_everywhere(
        open_out, functools.wraps(open_out)(lambda path: _TimedWriter(open_out(path)))
    )

    for cls in _subclasses(analytics_core.ChunkAggregator):
        label = cls.__name__.replace("Aggregator", "").lower() or "base"
        for attr in ("map_chunk", "combine", "finalize"):
            if attr in cls.__dict__:
                on_call = _count_records(label) if attr == "map_chunk" else None
                _patch_method(cls, attr, f"analytics.{attr}:{label}", on_call)
    _patch_function("repro.sqlang.normalize", "template_and_digest", "template")
    _patch_function("repro.analytics.insights", "_score_chunk", "bulk.chunk",
                    _on_score_chunk)

    _patch_function("repro.text.encode", "pad_sequences", "encode.pad")
    _patch_method(SequenceEncoder, "encode", "encode.statement")
    _patch_method(SequenceEncoder, "encode_batch", "encode.batch")
    _patch_method(Vocabulary, "encode_array", "encode.array")
    _patch_function("repro.models.neural_base", "_collapse_duplicates",
                    "batchplan.collapse", _on_collapse)
    _patch_function("repro.models.neural_base", "_bucketed_batches",
                    "batchplan.buckets", _on_buckets)
    for cls in _subclasses(Module):
        for attr, kind in (("forward", "forward"), ("backward", "backward"),
                           ("forward_tree", "forward"), ("backward_tree", "backward")):
            if attr in cls.__dict__ and inspect.isfunction(cls.__dict__[attr]):
                _patch_method(cls, attr, f"nn.{kind}:{cls.__name__}")
    for cls in _subclasses(Optimizer):
        if "step" in cls.__dict__:
            _patch_method(cls, "step", f"nn.optim:{cls.__name__}")


def _cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def cut() -> None:
    """Mark the start of the measured part: remember how many spans and
    queue waits exist, the counts, the CPU time and the template cache
    counters now. Safe in a signal handler: it takes no lock (the
    counters are read without the cache's own lock)."""
    from repro.sqlang import normalize

    global CUT
    CUT = {
        "spans": len(SPANS),
        "queue_waits": len(QUEUE_WAITS),
        "counts": dict(COUNTS),
        "cpu_s": _cpu_s(),
        "template_cache": {
            "hits": normalize._template_hits,
            "misses": normalize._template_misses,
        },
    }


def dump(path: str) -> None:
    """Write spans, counts, process totals and the cut to ``path`` (JSON)."""
    from repro.sqlang.normalize import template_cache_stats

    payload = {
        "cpu_s": _cpu_s(),
        "spans": SPANS,
        "counts": COUNTS,
        "queue_waits_ms": QUEUE_WAITS,
        "template_cache": template_cache_stats(),
        "cut": CUT,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)
