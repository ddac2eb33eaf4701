"""The repository benchmark: one workload, one seed, one JSON result.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 15 --trace 0

Workloads: ``interactive``, ``script-unique`` (open-loop serving),
``offline-log`` (``repro analyze`` + ``repro insights`` over a gzipped raw
log) and ``train`` (``repro train --model ccnn``). See README.md beside
this file for what each measures and why.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` the workload also runs under the tracing launcher and the
metrics are the per-layer ones. Earlier lines carry the provenance, the
detail behind each number and (traced) the layer self-time table; the
same record is written to ``.perfbench_out/<workload>-s<seed>-t<trace>.json``.

Exit status is 0 only when a result was printed. Without a ``src/repro``
tree, or when a measurement cannot be made valid (the load generator
fell behind, a command failed), it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    OUT_DIR,
    BenchError,
    pin_threads,
    provenance,
    require_source,
    write_json,
)

WORKLOADS = ("interactive", "script-unique", "offline-log", "train")

#: end-to-end metrics: name -> unit (every workload reports every one)
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def measure(workload: str, seed: int, seconds: float, trace_out: Path | None):
    """``(metrics, details, attempted, failed, correct)`` of one run."""
    if workload in ("interactive", "script-unique"):
        import serving

        metrics, details, run = serving.measure(workload, seed, seconds, trace_out)
        correct = details["mismatched_bodies"] == 0
        return metrics, details, run.attempted, run.failed, correct
    import batch

    return batch.measure(workload, seed, seconds, trace_out)


def _terminate(signum, frame):
    raise BenchError(f"terminated by signal {signum}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an error, so every child is stopped on the way out
    signal.signal(signal.SIGTERM, _terminate)
    pin_threads()
    started = time.perf_counter()
    try:
        require_source()
        metrics, details, attempted, failed, correct = measure(
            args.workload, args.seed, args.seconds, None
        )
        if set(metrics) != set(END_TO_END):
            raise BenchError(f"metrics {sorted(metrics)} != {sorted(END_TO_END)}")
        # a percentile over a segment where >= 1% of requests failed is
        # infinite: no valid measurement, so no result
        bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
        if bad:
            raise BenchError(f"no finite value for {bad}")
        record = {
            "workload": args.workload,
            "provenance": provenance(args.seed, details.pop("input_sizes", {})),
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "details": details,
        }
        if args.trace:
            import layers

            trace_out = OUT_DIR / f"{args.workload}-s{args.seed}.trace.json"
            for stale in layers.trace_files(trace_out):
                stale.unlink()
            t_metrics, t_details, t_att, t_failed, t_correct = measure(
                args.workload, args.seed, args.seconds, trace_out
            )
            table, per_layer = layers.analyse(
                args.workload, trace_out, metrics, t_metrics, t_details
            )
            bad = [k for k, m in per_layer.items() if not math.isfinite(m["value"])]
            if bad:
                raise BenchError(f"no finite value for {bad}")
            record["traced_end_to_end"] = {
                k: {"value": v, "unit": u} for k, (v, u) in t_metrics.items()
            }
            record["layer_table"] = table
            print(layers.format_table(table))
            out_metrics = per_layer
            attempted += t_att
            failed += t_failed
            correct = correct and t_correct
        else:
            out_metrics = record["end_to_end"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record["wall_s"] = time.perf_counter() - started
    write_json(OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json", record)
    print(json.dumps({k: record[k] for k in ("workload", "provenance")}))
    print(json.dumps({"details": record["details"]}, default=str))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": out_metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
