"""Streaming pipelined SHIP vs monolithic transfers: the headline bench.

Runs the six curated TPC-H queries (policy set CR) through the fragment
scheduler twice per query — monolithic uncompressed transfers vs the
CLI-default streaming wire format (fixed-size chunks, per-column
dict/RLE/plain compression) — and once more under a seeded transient
fault plan with chunk-granular retry.  Reported per query:

* simulated critical-path makespan, monolithic vs streamed (first-chunk
  admission can only help; fault-free it must never hurt);
* logical vs wire SHIP bytes and the resulting compression ratio;
* chunk counts, and under faults the chunks re-sent and backoff waited.

Acceptance (asserted here, and smoke-run in CI at tiny scale):

* zero row divergence anywhere: streamed ordered rows == monolithic
  ordered rows, fault-free and faulted;
* logical byte accounting is invariant: both arms bill identical
  `ShipRecord.bytes` totals;
* compression bites: total wire bytes < total logical bytes, and the
  streamed makespan sum is <= the monolithic sum (strictly < on at
  least one query at the default scale);
* every streamed trace — including the faulted one — audits COMPLIANT.

Scale via ``REPRO_BENCH_STREAM_SCALE`` (TPC-H scale, default 0.01) and
``REPRO_BENCH_STREAM_CHUNK`` (chunk rows, default 256).  Results go to
the text report and ``benchmarks/results/BENCH_stream_ship.json``.
"""

from __future__ import annotations

import json
import os

from repro.bench import format_table
from repro.execution import ExecutionEngine, RetryPolicy, ShipConfig, parse_fault_spec
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network
from repro.trace import ComplianceAuditor, TraceRecorder, tracing

SCALE = float(os.environ.get("REPRO_BENCH_STREAM_SCALE", "0.01"))
CHUNK_ROWS = int(os.environ.get("REPRO_BENCH_STREAM_CHUNK", "256"))
STREAM = ShipConfig(chunk_rows=CHUNK_ROWS, compression="auto")
FAULTS = "drop:Europe->NorthAmerica@0.01+0.05;flaky:AsiaPacific->NorthAmerica@0.0+0.1"


def build_world():
    catalog, database = build_benchmark(scale=SCALE, stats_scale=1.0)
    network = default_network()
    policies = curated_policies(catalog, "CR")
    optimizer = CompliantOptimizer(catalog, policies, network)
    auditor = ComplianceAuditor(policies)
    return catalog, database, network, optimizer, auditor


def traced(engine, plan):
    recorder = TraceRecorder()
    with tracing(recorder):
        result = engine.execute(plan)
    return result, recorder


def test_stream_ship_bench(report):
    catalog, database, network, optimizer, auditor = build_world()
    mono_engine = ExecutionEngine(database, network)
    stream_engine = ExecutionEngine(database, network, ship=STREAM)
    faults = parse_fault_spec(FAULTS, locations=catalog.locations)
    chaos_engine = ExecutionEngine(
        database,
        network,
        faults=faults,
        retry_policy=RetryPolicy(max_retries=8),
        ship=STREAM,
    )

    rows = []
    queries = {}
    for name in sorted(QUERIES):
        plan = optimizer.optimize(QUERIES[name]).plan
        mono = mono_engine.execute(plan)
        streamed, recorder = traced(stream_engine, plan)
        chaotic, chaos_recorder = traced(chaos_engine, plan)

        # Zero row divergence, fault-free and faulted.
        assert streamed.rows == mono.rows, name
        assert chaotic.partial_failure is None, name
        assert sorted(map(repr, chaotic.rows)) == sorted(map(repr, mono.rows)), name
        # Logical byte accounting is transport-invariant.
        assert (
            streamed.metrics.total_bytes_shipped
            == mono.metrics.total_bytes_shipped
        ), name
        # Fault-free streaming never loses to the monolithic schedule.
        assert streamed.makespan_seconds <= mono.makespan_seconds + 1e-9, name
        # Clean audits at any chunk granularity, retries included.
        assert auditor.audit_events(recorder.events()).ok, name
        assert auditor.audit_events(chaos_recorder.events()).ok, name

        logical = streamed.metrics.total_bytes_shipped
        wire = streamed.metrics.total_wire_bytes_shipped
        resent = sum(
            1
            for e in chaos_recorder.events()
            if e.kind == "chunk" and e.outcome != "delivered"
        )
        queries[name] = {
            "monolithic_makespan": mono.makespan_seconds,
            "streamed_makespan": streamed.makespan_seconds,
            "logical_bytes": logical,
            "wire_bytes": wire,
            "wire_reduction": logical / wire if wire else 1.0,
            "chunks_shipped": streamed.metrics.total_chunks_shipped,
            "faulted": {
                "makespan_seconds": chaotic.makespan_seconds,
                "retry_wait_seconds": chaotic.metrics.retry_wait_seconds,
                "chunk_attempts_failed": resent,
                "wire_bytes": chaotic.metrics.total_wire_bytes_shipped,
            },
        }
        s = queries[name]
        rows.append(
            [
                name,
                f"{s['monolithic_makespan']:.4f}",
                f"{s['streamed_makespan']:.4f}",
                s["logical_bytes"],
                s["wire_bytes"],
                f"{s['wire_reduction']:.2f}x",
                s["chunks_shipped"],
                resent,
            ]
        )

    total_logical = sum(q["logical_bytes"] for q in queries.values())
    total_wire = sum(q["wire_bytes"] for q in queries.values())
    total_mono = sum(q["monolithic_makespan"] for q in queries.values())
    total_stream = sum(q["streamed_makespan"] for q in queries.values())
    # Compression bites on the real workload, and faulted runs bill the
    # same wire bytes as fault-free ones.
    assert total_wire < total_logical
    assert total_stream <= total_mono + 1e-9
    for name, q in queries.items():
        assert q["faulted"]["wire_bytes"] == q["wire_bytes"], name
    if SCALE >= 0.01:
        assert any(
            q["streamed_makespan"] < q["monolithic_makespan"] - 1e-9
            for q in queries.values()
        )

    payload = {
        "scale": SCALE,
        "chunk_rows": CHUNK_ROWS,
        "compression": "auto",
        "fault_spec": FAULTS,
        "row_identical": True,
        "total_logical_bytes": total_logical,
        "total_wire_bytes": total_wire,
        "total_wire_reduction": total_logical / total_wire,
        "total_monolithic_makespan": total_mono,
        "total_streamed_makespan": total_stream,
        "queries": queries,
    }
    out_dir = report.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_stream_ship.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report.emit(
        "stream_ship",
        format_table(
            [
                "query",
                "mono s",
                "stream s",
                "logical B",
                "wire B",
                "ratio",
                "chunks",
                "resent",
            ],
            rows,
            title=(
                f"Streaming SHIP ({CHUNK_ROWS}-row chunks, auto compression) "
                f"vs monolithic (TPC-H scale {SCALE}, set CR)"
            ),
        ),
    )
