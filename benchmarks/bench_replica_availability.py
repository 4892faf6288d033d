"""Availability under a sustained flaky link: replicas off/on x breakers.

Replays the same deterministic workload (the six curated TPC-H queries,
round robin, policy set T) through the query server three times under a
permanent ``flaky:`` window on the hottest link of a fault-free
profiling run:

* ``no_replicas``    — the seed catalog: every scan is pinned to its
  primary site, so cross-site ships are unavoidable and every transfer
  over the bad link burns retry backoff (or sheds on deadline);
* ``replicas``       — every table also has a compliant copy at both
  Europe and NorthAmerica (the two sites in every table's full-scan
  grant under T): replica-aware placement collapses each plan into a
  single local fragment, so the flaky link is simply never used;
* ``replicas_breakers`` — same catalog with per-link circuit breakers,
  which may only help (fast-fail instead of backoff) and never hurt.

Acceptance (asserted here, and smoke-run in CI at tiny scale):

* replicated runs serve **100%** of the workload; the replica-free run
  never does better on availability or makespan;
* replicated runs ship zero cross-site bytes (the collapse is total);
* breakers never slow the replicated workload down;
* every served query's rows are identical (ordered) to a sequential
  single-query reference — replicas must never change *results*;
* ``ServerMetrics`` buckets reconcile to the workload size.

Scale via ``REPRO_BENCH_REPLICA_SCALE`` (TPC-H scale, default 0.005),
``REPRO_BENCH_REPLICA_REPEAT`` (workload rounds, default 3), and
``REPRO_BENCH_REPLICA_DEADLINE`` (per-query simulated-seconds deadline,
default 2.0).  Results go to the text report and to
``benchmarks/results/BENCH_replica_availability.json``.
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

SCALE = float(os.environ.get("REPRO_BENCH_REPLICA_SCALE", "0.005"))
REPEAT = int(os.environ.get("REPRO_BENCH_REPLICA_REPEAT", "3"))
DEADLINE = float(os.environ.get("REPRO_BENCH_REPLICA_DEADLINE", "2.0"))
INTERARRIVAL = 0.02
SERVED_QUERIES = [(name, QUERIES[name]) for name in sorted(QUERIES)]

#: Dual-site coverage under set T (see
#: tests/integration/test_replica_availability.py for why both sites).
REPLICAS = (
    ("db1", "customer", "NorthAmerica"),
    ("db1", "orders", "NorthAmerica"),
    ("db2", "supplier", "Europe"),
    ("db2", "supplier", "NorthAmerica"),
    ("db2", "partsupp", "Europe"),
    ("db2", "partsupp", "NorthAmerica"),
    ("db3", "part", "Europe"),
    ("db3", "part", "NorthAmerica"),
    ("db4", "lineitem", "Europe"),
    ("db5", "nation", "Europe"),
    ("db5", "nation", "NorthAmerica"),
    ("db5", "region", "Europe"),
    ("db5", "region", "NorthAmerica"),
)


def build_world(replicated: bool):
    catalog, database = build_benchmark(scale=SCALE, stats_scale=1.0)
    if replicated:
        for db, table, site in REPLICAS:
            catalog.add_replica(db, table, site)
    network = default_network()
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "T"), network
    )
    return catalog, database, network, optimizer


@pytest.fixture(scope="module")
def worlds():
    return {
        False: build_world(replicated=False),
        True: build_world(replicated=True),
    }


def hottest_link(references) -> tuple[str, str]:
    volume: Counter = Counter()
    for output in references.values():
        for ship in output.metrics.ships:
            if ship.source != ship.target:
                volume[(ship.source, ship.target)] += ship.bytes
    assert volume, "the replica-free schedules must ship across sites"
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


def cross_site_bytes(result) -> int:
    return sum(
        s.bytes
        for o in result.outcomes
        if o.metrics is not None
        for s in o.metrics.ships
        if s.source != s.target
    )


def summarize(workload, result):
    m = result.metrics
    return {
        "availability": (m.served + m.served_late) / len(workload),
        "makespan_seconds": m.makespan_seconds,
        "throughput_qps": m.throughput_qps,
        "served": m.served,
        "served_late": m.served_late,
        "shed": m.shed,
        "rejected": m.rejected,
        "partial": m.partial,
        "transfer_attempts": m.transfer_attempts,
        "retry_wait_seconds": m.retry_wait_seconds,
        "breaker_fast_fails": m.breaker_fast_fails,
        "replica_failovers": m.replica_failovers,
        "replica_switches_breaker": m.replica_switches_breaker,
        "partial_failures_avoided": m.partial_failures_avoided,
        "cross_site_bytes": cross_site_bytes(result),
    }


def check_contract(workload, result, references):
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


def test_replica_availability(worlds, report):
    catalog, database, network, optimizer = worlds[False]
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
    for label, replicated, breakers in (
        ("no_replicas", False, None),
        ("replicas", True, None),
        ("replicas_breakers", True, BreakerRegistry()),
    ):
        workload, result = serve_once(worlds[replicated], faults, breakers)
        check_contract(workload, result, references)
        runs[label] = summarize(workload, result)
        s = runs[label]
        table_rows.append(
            [
                label,
                f"{s['availability']:.0%}",
                f"{s['makespan_seconds']:.3f}",
                f"{s['served'] + s['served_late']}/{s['shed']}/{s['partial']}",
                s["cross_site_bytes"],
                s["replica_failovers"],
                s["partial_failures_avoided"],
            ]
        )

    # Replicas collapse every plan off the flaky link: full availability,
    # zero cross-site bytes, and never worse than the replica-free run.
    for label in ("replicas", "replicas_breakers"):
        assert runs[label]["availability"] == 1.0, runs
        assert runs[label]["cross_site_bytes"] == 0, runs
        assert (
            runs[label]["availability"] >= runs["no_replicas"]["availability"]
        )
        assert (
            runs[label]["makespan_seconds"]
            <= runs["no_replicas"]["makespan_seconds"] + 1e-9
        ), runs
    assert (
        runs["replicas_breakers"]["makespan_seconds"]
        <= runs["replicas"]["makespan_seconds"] + 1e-9
    ), runs

    payload = {
        "scale": SCALE,
        "repeat": REPEAT,
        "deadline_seconds": DEADLINE,
        "interarrival_seconds": INTERARRIVAL,
        "workload_queries": len(SERVED_QUERIES) * REPEAT,
        "fault_spec": fault_spec,
        "replicas": [f"{db}.{table}@{site}" for db, table, site in REPLICAS],
        "runs": runs,
    }
    out_dir = report.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_replica_availability.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report.emit(
        "replica_availability",
        format_table(
            [
                "run",
                "avail",
                "makespan s",
                "served/shed/part",
                "x-site bytes",
                "replica fo",
                "pf avoided",
            ],
            table_rows,
            title=f"Replica availability, {len(SERVED_QUERIES) * REPEAT} "
            f"queries, flaky {src}->{dst} (TPC-H scale {SCALE}, set T)",
        ),
    )
