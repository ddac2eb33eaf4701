"""Per-layer numbers from the spans a traced run wrote.

A span's *self time* is its duration minus the time its direct child
spans cover. The layer table lists, per span name, calls, total and self
milliseconds; ``other`` is the traced processes' CPU time that no named
span's self time covers.

A serving trace is *cut* at the end of the warm-up (see
:func:`tracer.cut`): the table and every metric describe only the spans,
counts, queue waits and CPU time after the cut, except
``artifact.load_ms`` and ``plan.compile_ms``, which happen in set-up and
come from the whole process. A CLI trace has no cut and counts whole.

:func:`analyse` also returns the per-layer metrics of BENCHMARK.json,
every one on every workload (a layer the workload never calls reads 0).
Times are normalised by the work they served (per request, statement,
log record or training row-epoch), so a metric does not grow because a
faster program fitted more work into the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from common import BenchError, quantile

#: per-layer metric -> unit, in BENCHMARK.json order
PER_LAYER = {
    "front.parse_ms_per_req": "ms",
    "front.encode_ms_per_req": "ms",
    "service.queue_wait_p50_ms": "ms",
    "service.queue_wait_p99_ms": "ms",
    "service.batch_size": "statements",
    "service.memo_hit_ratio": "ratio",
    "facilitator.self_us_per_stmt": "us",
    "facilitator.dedup_ratio": "ratio",
    "featurize.ms_per_stmt": "ms",
    "featurize.stmts_per_call": "statements",
    "plan.self_ms_per_stmt": "ms",
    "plan.compile_ms": "ms",
    "artifact.load_ms": "ms",
    "io.read_us_per_record": "us",
    "io.write_us_per_record": "us",
    "analytics.map_us_per_record.repetition": "us",
    "analytics.map_us_per_record.template": "us",
    "analytics.combine_us_per_record": "us",
    "template.us_per_record": "us",
    "template.cache_hit_ratio": "ratio",
    "bulk.score_us_per_stmt": "us",
    "bulk.encode_us_per_stmt": "us",
    "encode.us_per_row": "us",
    "batchplan.us_per_row": "us",
    "batchplan.pad_ratio": "ratio",
    "batchplan.collapsed_ratio": "ratio",
    "nn.forward_us_per_row": "us",
    "nn.backward_us_per_row": "us",
    "nn.optim_us_per_row": "us",
    "other.share": "ratio",
    "trace.overhead_p50": "ratio",
    "trace.overhead_throughput": "ratio",
}

_NO_CUT = {
    "spans": 0,
    "queue_waits": 0,
    "counts": {},
    "cpu_s": 0.0,
    "template_cache": {"hits": 0, "misses": 0},
}


def trace_files(trace_out: Path) -> list[Path]:
    """The trace files one traced run left (one per traced process)."""
    candidates = [trace_out] + sorted(trace_out.parent.glob(trace_out.name + ".*"))
    return [p for p in candidates if p.exists() and not p.name.endswith(".tmp")]


class Trace:
    """Spans of one or more traced processes after their cut, reduced per
    span name (``setup_*``: the whole process, cut or not)."""

    def __init__(self, payloads: list[dict]):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_ = defaultdict(float)
        #: total time of spans whose parent is not itself of the same family
        self.outer = defaultdict(float)
        #: time of each name's direct children, per child name
        self.child_total = defaultdict(lambda: defaultdict(float))
        self.setup_calls = defaultdict(int)
        self.setup_total = defaultdict(float)
        self.counts = defaultdict(float)
        self.queue_waits: list[float] = []
        self.cpu_ms = 0.0
        self.template = {"hits": 0, "misses": 0}
        for payload in payloads:
            self._add(payload)

    def _add(self, payload: dict) -> None:
        spans = payload["spans"]
        cut = payload.get("cut") or _NO_CUT
        names = {s[0]: s[2] for s in spans}
        covered = defaultdict(float)
        for span_id, parent, name, _, start, end in spans:
            covered[parent] += end - start
        for index, (span_id, parent, name, _, start, end) in enumerate(spans):
            duration = (end - start) * 1000.0
            self.setup_calls[name] += 1
            self.setup_total[name] += duration
            if index < cut["spans"]:
                continue
            self.calls[name] += 1
            self.total[name] += duration
            self.self_[name] += duration - covered[span_id] * 1000.0
            parent_name = names.get(parent, "")
            if parent_name.split(".")[0] != name.split(".")[0]:
                self.outer[name] += duration
            if parent_name:
                self.child_total[parent_name][name] += duration
        for key, value in payload["counts"].items():
            self.counts[key] += value - cut["counts"].get(key, 0.0)
        self.queue_waits.extend(payload["queue_waits_ms"][cut["queue_waits"]:])
        self.cpu_ms += (payload["cpu_s"] - cut["cpu_s"]) * 1000.0
        for key in ("hits", "misses"):
            self.template[key] += (
                payload["template_cache"][key] - cut["template_cache"][key]
            )

    def sum_of(self, table, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def per_setup_call(self, name: str) -> float:
        return _ratio(self.setup_total[name], self.setup_calls[name])

    @property
    def other_ms(self) -> float:
        return self.cpu_ms - sum(self.self_.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def analyse(workload, trace_out: Path, untraced: dict, traced: dict, details: dict):
    """``(layer table, per-layer metrics)`` of one traced run."""
    payloads = [json.loads(p.read_text()) for p in trace_files(trace_out)]
    if not payloads:
        raise BenchError(f"the traced run left no trace at {trace_out}")
    t = Trace(payloads)
    c = t.counts
    waits = t.queue_waits
    records = c["io.records"]
    analysed = max(
        [v for k, v in c.items() if k.startswith("analytics.records:")] or [0.0]
    )
    bulk = c["bulk.statements"]
    row_epochs = c["batchplan.row_epochs"]
    values = {
        "front.parse_ms_per_req": _ratio(t.total["front.parse"], t.calls["front.parse"]),
        "front.encode_ms_per_req": _ratio(
            t.total["front.encode"], t.calls["front.encode"]
        ),
        "service.queue_wait_p50_ms": quantile(waits, 0.5) if waits else 0.0,
        "service.queue_wait_p99_ms": quantile(waits, 0.99) if waits else 0.0,
        "service.batch_size": _ratio(c["service.batch_statements"], c["service.batches"]),
        "service.memo_hit_ratio": _ratio(c["memo.hits"], c["memo.hits"] + c["memo.misses"]),
        "facilitator.self_us_per_stmt": 1000.0 * _ratio(
            t.self_["facilitator.insights_batch"], c["facilitator.statements"]
        ),
        "facilitator.dedup_ratio": (
            1.0 - _ratio(c["facilitator.distinct"], c["facilitator.statements"])
            if c["facilitator.statements"] else 0.0
        ),
        "featurize.ms_per_stmt": _ratio(
            t.total["featurize.transform"], c["featurize.statements"]
        ),
        "featurize.stmts_per_call": _ratio(
            c["featurize.statements"], t.calls["featurize.transform"]
        ),
        "plan.self_ms_per_stmt": _ratio(t.self_["plan.predict_into"], c["plan.statements"]),
        "plan.compile_ms": t.per_setup_call("plan.compile"),
        "artifact.load_ms": t.per_setup_call("artifact.load"),
        "io.read_us_per_record": 1000.0 * _ratio(t.total["io.read"], records),
        "io.write_us_per_record": 1000.0 * _ratio(t.outer["io.write"], records),
        "analytics.map_us_per_record.repetition": 1000.0 * _ratio(
            t.total["analytics.map_chunk:repetition"],
            c["analytics.records:repetition"],
        ),
        "analytics.map_us_per_record.template": 1000.0 * _ratio(
            t.total["analytics.map_chunk:template"], c["analytics.records:template"]
        ),
        "analytics.combine_us_per_record": 1000.0 * _ratio(
            t.sum_of(t.total, "analytics.combine:"), analysed
        ),
        "template.us_per_record": 1000.0 * _ratio(t.total["template"], analysed),
        "template.cache_hit_ratio": _ratio(
            t.template["hits"], t.template["hits"] + t.template["misses"]
        ),
        "bulk.score_us_per_stmt": 1000.0 * _ratio(
            t.child_total["bulk.chunk"]["facilitator.insights_batch"], bulk
        ),
        "bulk.encode_us_per_stmt": 1000.0 * _ratio(t.self_["bulk.chunk"], bulk),
        "encode.us_per_row": 1000.0 * _ratio(t.sum_of(t.outer, "encode."), row_epochs),
        "batchplan.us_per_row": 1000.0 * _ratio(
            t.sum_of(t.total, "batchplan."), row_epochs
        ),
        "batchplan.pad_ratio": _ratio(c["batchplan.pad_cells"], c["batchplan.cells"]),
        "batchplan.collapsed_ratio": _ratio(
            c["batchplan.rows_collapsed"], c["batchplan.rows"]
        ),
        "nn.forward_us_per_row": 1000.0 * _ratio(
            t.sum_of(t.self_, "nn.forward:"), row_epochs
        ),
        "nn.backward_us_per_row": 1000.0 * _ratio(
            t.sum_of(t.self_, "nn.backward:"), row_epochs
        ),
        "nn.optim_us_per_row": 1000.0 * _ratio(t.sum_of(t.self_, "nn.optim:"), row_epochs),
        "other.share": _ratio(t.other_ms, t.cpu_ms),
        "trace.overhead_p50": _ratio(traced["p50_ms"][0], untraced["p50_ms"][0]),
        "trace.overhead_throughput": _ratio(
            untraced["throughput_per_s"][0], traced["throughput_per_s"][0]
        ),
    }
    per_layer = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER.items()
    }
    rows = sorted(
        (
            {"span": name, "calls": t.calls[name], "total_ms": t.total[name],
             "self_ms": t.self_[name]}
            for name, calls in t.calls.items()
            if calls
        ),
        key=lambda row: -row["self_ms"],
    )
    rows.append(
        {"span": "other", "calls": 0, "total_ms": t.other_ms, "self_ms": t.other_ms}
    )
    table = {
        "workload": workload,
        "cut": any(p.get("cut") for p in payloads),
        "cpu_ms": t.cpu_ms,
        "rows": rows,
        "counts": dict(c),
        "stage_seconds": details.get("stage_seconds"),
        "overhead": {
            "p50_ms": [untraced["p50_ms"][0], traced["p50_ms"][0]],
            "throughput_per_s": [
                untraced["throughput_per_s"][0], traced["throughput_per_s"][0]
            ],
        },
    }
    return table, per_layer


def format_table(table: dict) -> str:
    """The layer table as text (self time, descending)."""
    cpu = table["cpu_ms"] or 1.0
    lines = [
        f"layer self time, workload {table['workload']} "
        f"(traced processes' CPU {table['cpu_ms']:.0f} ms"
        + (", after the warm-up cut)" if table["cut"] else ")"),
        f"{'span':40s} {'calls':>8s} {'total ms':>10s} {'self ms':>10s} {'self/CPU':>8s}",
    ]
    for row in table["rows"]:
        lines.append(
            f"{row['span'][:40]:40s} {row['calls']:8d} {row['total_ms']:10.1f} "
            f"{row['self_ms']:10.1f} {row['self_ms'] / cpu:8.1%}"
        )
    stages = table.get("stage_seconds") or {}
    if stages:
        lines.append(
            "cross-check: repro_stage_seconds from GET /metrics "
            "(traced server, after the cut)"
        )
        for stage, entry in sorted(stages.items()):
            lines.append(
                f"  stage {stage:32s} {int(entry.get('count', 0)):8d} "
                f"{entry.get('sum', 0.0) * 1000.0:10.1f}"
            )
    over = table["overhead"]
    lines.append(
        "tracing overhead: p50 {:.3f} -> {:.3f} ms, throughput {:.1f} -> {:.1f} /s".format(
            *over["p50_ms"], *over["throughput_per_s"]
        )
    )
    return "\n".join(lines)
