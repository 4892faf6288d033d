"""Concurrent serving under a sustained flaky link: breakers on vs off.

Replays a deterministic workload (the six curated TPC-H queries, round
robin) through the query server twice — once with per-link circuit
breakers, once without — under a permanent ``flaky:`` window on the
hottest link of a fault-free profiling run.  Without breakers every
transfer over the bad link burns its full retry backoff before failing;
with breakers the link opens after the failure threshold and later
transfers fast-fail straight into failover/degradation.

Acceptance (asserted here, and smoke-run in CI at tiny scale):

* breaker-on total makespan <= breaker-off for the same workload;
* every served query's rows are identical (ordered) to a sequential
  single-query execution — concurrency, faults, and breakers must
  never change *results*;
* every shed/rejected/partial outcome carries a typed error — no hangs
  and no silent drops;
* ``ServerMetrics`` buckets reconcile to the workload size.

Scale via ``REPRO_BENCH_SERVE_SCALE`` (TPC-H scale, default 0.005),
``REPRO_BENCH_SERVE_REPEAT`` (workload rounds, default 3), and
``REPRO_BENCH_SERVE_DEADLINE`` (per-query deadline in simulated
seconds, default 2.0).  Results go to the text report and to
``benchmarks/results/BENCH_serve_workload.json``.
"""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from repro.bench import format_table
from repro.errors import ReproError
from repro.execution import ExecutionEngine, parse_fault_spec
from repro.optimizer import CompliantOptimizer
from repro.server import BreakerRegistry, QueryServer, workload_from_queries
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network

SCALE = float(os.environ.get("REPRO_BENCH_SERVE_SCALE", "0.005"))
REPEAT = int(os.environ.get("REPRO_BENCH_SERVE_REPEAT", "3"))
DEADLINE = float(os.environ.get("REPRO_BENCH_SERVE_DEADLINE", "2.0"))
INTERARRIVAL = 0.02
SERVED_QUERIES = [(name, QUERIES[name]) for name in sorted(QUERIES)]


@pytest.fixture(scope="module")
def world():
    catalog, database = build_benchmark(scale=SCALE, stats_scale=1.0)
    network = default_network()
    optimizer = CompliantOptimizer(catalog, curated_policies(catalog, "CR"), network)
    return catalog, database, network, optimizer


def hottest_link(references) -> tuple[str, str]:
    """The cross-site link carrying the most bytes in fault-free runs —
    the most damaging place for a sustained flaky window."""
    volume: Counter = Counter()
    for output in references.values():
        for ship in output.metrics.ships:
            if ship.source != ship.target:
                volume[(ship.source, ship.target)] += ship.bytes
    assert volume, "curated queries must ship across sites"
    return max(sorted(volume), key=lambda k: volume[k])


def serve_once(world, faults, breakers):
    catalog, database, network, optimizer = world
    server = QueryServer(
        database,
        network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        concurrency=3,
        queue_depth=2 * len(SERVED_QUERIES) * REPEAT,
        default_deadline=DEADLINE,
        breakers=breakers,
        faults=faults,
    )
    workload = workload_from_queries(
        SERVED_QUERIES, interarrival=INTERARRIVAL, repeat=REPEAT
    )
    return workload, server.serve(workload)


def summarize(result):
    m = result.metrics
    return {
        "makespan_seconds": m.makespan_seconds,
        "throughput_qps": m.throughput_qps,
        "shed_rate": m.shed_rate,
        "served": m.served,
        "served_late": m.served_late,
        "shed": m.shed,
        "rejected": m.rejected,
        "partial": m.partial,
        "transfer_attempts": m.transfer_attempts,
        "retry_wait_seconds": m.retry_wait_seconds,
        "breaker_fast_fails": m.breaker_fast_fails,
        "breaker_trips": m.breaker_trips,
        "recoveries": m.recoveries,
    }


def check_contract(workload, result, references):
    """The degradation contract every serve run must satisfy."""
    metrics = result.metrics
    assert metrics.total == len(workload)
    assert metrics.reconciles(), metrics.summary()
    for outcome in result.outcomes:
        if outcome.status == "served":
            name = outcome.request.name.split("#")[0]
            reference = references[name]
            assert outcome.columns == reference.columns
            assert outcome.rows == reference.rows, (
                f"{outcome.request.label}: served rows diverge from the "
                f"sequential reference execution"
            )
        else:
            assert isinstance(outcome.error, ReproError), outcome
            assert str(outcome.error)


def test_serve_workload(world, report):
    catalog, database, network, optimizer = world
    engine = ExecutionEngine(
        database, network, policy_guard=optimizer.evaluator
    )
    references = {
        name: engine.execute(optimizer.optimize(sql).plan)
        for name, sql in SERVED_QUERIES
    }
    src, dst = hottest_link(references)
    fault_spec = f"flaky:{src}->{dst}@0+1e9"
    faults = parse_fault_spec(fault_spec, locations=catalog.locations)

    runs = {}
    table_rows = []
    for label, breakers in (
        ("fault_free", None),
        ("breaker_off", None),
        ("breaker_on", BreakerRegistry()),
    ):
        injected = None if label == "fault_free" else faults
        workload, result = serve_once(world, injected, breakers)
        check_contract(workload, result, references)
        runs[label] = summarize(result)
        m = result.metrics
        table_rows.append(
            [
                label,
                f"{m.makespan_seconds:.3f}",
                f"{m.throughput_qps:.2f}",
                f"{m.shed_rate:.0%}",
                f"{m.served}/{m.shed}/{m.rejected}/{m.partial}",
                m.breaker_fast_fails,
                m.breaker_trips,
            ]
        )

    # The headline claim: fast-failing an open breaker never slows the
    # workload down versus burning full retry backoff on a known-bad
    # link (equality when the breaker never trips).
    assert (
        runs["breaker_on"]["makespan_seconds"]
        <= runs["breaker_off"]["makespan_seconds"] + 1e-9
    ), runs

    payload = {
        "scale": SCALE,
        "repeat": REPEAT,
        "deadline_seconds": DEADLINE,
        "interarrival_seconds": INTERARRIVAL,
        "workload_queries": len(SERVED_QUERIES) * REPEAT,
        "fault_spec": fault_spec,
        "runs": runs,
    }
    out_dir = report.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_serve_workload.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report.emit(
        "serve_workload",
        format_table(
            [
                "run",
                "makespan s",
                "qps",
                "shed rate",
                "served/shed/rej/part",
                "fast fails",
                "trips",
            ],
            table_rows,
            title=f"Concurrent serving, {len(SERVED_QUERIES) * REPEAT} queries, "
            f"flaky {src}->{dst} (TPC-H scale {SCALE})",
        ),
    )
