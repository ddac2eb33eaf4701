"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that

1. BENCHMARK.json names exactly the metrics the code reports, every
   name matches ``[A-Za-z0-9_.-]+`` and every metric has a unit;
2. a short ``interactive`` run prints a last line with every end-to-end
   metric, each a number with its unit;
3. the correctness checks catch corruption: a live server's response
   body with one byte changed fails the body check, and an ``insights``
   output file with one byte changed fails the offline-log check;
4. the layer analysis leaves out what a trace holds before its cut
   (the warm-up), except the set-up layers.

Exits 0 when every check passes.
"""

from __future__ import annotations

import gzip
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT_DIR, ROOT, pin_threads, require_source, run_cli  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_manifest() -> None:
    import layers
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert per_layer == layers.PER_LAYER, set(per_layer) ^ set(layers.PER_LAYER)
    names = [w["name"] for w in spec["workloads"]] + list(e2e) + list(per_layer)
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), f"bad name {name!r}"
    for unit in [*e2e.values(), *per_layer.values()]:
        assert UNIT.match(unit), f"bad unit {unit!r}"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert "setup_s" in e2e and e2e["setup_s"] == "s"
    print("manifest: ok")


def check_result_line() -> None:
    import run

    out = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "interactive",
         "--seed", "0", "--seconds", "4", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, metric
        assert metric["unit"] == run.END_TO_END[name]
        assert isinstance(metric["value"], float) and metric["value"] > 0, metric
    print("result line: ok")


def _flip(data: bytes, at: int) -> bytes:
    """``data`` with the digit nearest ``at`` changed."""
    for i in range(at, len(data)):
        if chr(data[i]).isdigit():
            new = b"1" if data[i : i + 1] != b"1" else b"2"
            return data[:i] + new + data[i + 1 :]
    raise AssertionError("no digit to corrupt")


def check_corruption_detected() -> None:
    import inputs
    import loadgen
    import serving
    from batch import _insights_match

    paths = inputs.fixtures()
    source = inputs.StatementSource(paths["base_log"], seed=0)
    requests = [[source.fresh()] for _ in range(3)] + [
        [source.fresh() for _ in range(4)]
    ]
    server = serving.Server(paths["artifact"])
    try:
        server.wait_ready(serving._body(requests[0]))
        bodies = []
        for statements in requests:
            status, body = loadgen.http_post(server.address, serving._body(statements))
            assert status == 200, status
            bodies.append(body)
    finally:
        server.stop()
    assert serving.check_bodies(paths["artifact"], requests, bodies) == 0
    bodies[-1] = _flip(bodies[-1], len(bodies[-1]) // 2)
    assert serving.check_bodies(paths["artifact"], requests, bodies) == 1
    print("serving corruption: detected")

    log = inputs.offline_log(0, paths["base_log"], 20)
    out = OUT_DIR / "selftest-insights.jsonl.gz"
    run_cli(["insights", str(log), "--artifact", str(paths["artifact"]),
             "--workers", "0", "--out", str(out)])
    assert _insights_match(paths["artifact"], log, out)
    with gzip.open(out, "rb") as handle:
        data = handle.read()
    with gzip.open(out, "wb") as handle:
        handle.write(_flip(data, len(data) // 2))
    assert not _insights_match(paths["artifact"], log, out)
    print("offline-log corruption: detected")


def check_trace_cut() -> None:
    from layers import Trace

    # (id, parent, name, thread, start, end): a warm-up call and an
    # artifact load before the cut, one measured call after it
    spans = [
        (1, 0, "artifact.load", 1, 0.0, 0.020),
        (2, 0, "front.parse", 1, 0.1, 0.2),
        (3, 0, "front.parse", 1, 1.0, 1.001),
    ]
    payload = {
        "spans": spans,
        "counts": {"memo.hits": 5.0, "memo.misses": 12.0},
        "queue_waits_ms": [9.0, 1.0],
        "cpu_s": 3.0,
        "template_cache": {"hits": 0, "misses": 0},
        "cut": {
            "spans": 2,
            "queue_waits": 1,
            "counts": {"memo.misses": 10.0},
            "cpu_s": 2.0,
            "template_cache": {"hits": 0, "misses": 0},
        },
    }
    t = Trace([payload])
    assert t.calls["front.parse"] == 1 and abs(t.total["front.parse"] - 1.0) < 1e-6
    assert t.per_setup_call("artifact.load") > 19.0
    assert t.counts["memo.hits"] == 5.0 and t.counts["memo.misses"] == 2.0
    assert t.queue_waits == [1.0] and abs(t.cpu_ms - 1000.0) < 1e-6
    print("trace cut: ok")


def main() -> int:
    pin_threads()
    require_source()
    check_manifest()
    check_trace_cut()
    check_corruption_detected()
    check_result_line()
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
