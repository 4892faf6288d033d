"""Bounded staleness under a paused-refresh fault: the policy sweep.

Replays the same deterministic workload (the six curated TPC-H queries,
round robin, policy set T) through the query server four times over a
fully replicated catalog whose replicas all refresh on a schedule that
is **paused from t=0** for ``PAUSE`` simulated seconds — so every
replica's staleness grows linearly until the refresh daemon comes back.
The four arms differ only in the runtime staleness policy under the
same ``BOUND``:

* ``plan_only``        — the experiment baseline: freshness is recorded
  but never enforced; bound-violating rows are *served* and the
  independent trace auditor must flag every one of them;
* ``prefer_fresh``     — demote to a strictly fresher copy when one
  exists; with every copy equally stale, reads over the bound degrade
  to typed partial failures;
* ``wait_for_refresh`` — park the fragment until the refresh completes:
  full availability, zero violations, the wait is paid in simulated
  seconds;
* ``read_stale``       — serve within the bound, refuse beyond it.

Acceptance (asserted here, and smoke-run in CI at tiny scale):

* the plan-only run serves the full workload and the auditor reports
  ``> 0`` bound-violated reads, all of category ``stale-read``;
* every enforcing run audits to **zero** bound violations — no served
  read's re-derived staleness may exceed the bound;
* ``wait_for_refresh`` keeps full availability and records ``> 0``
  refresh waits; the strict arms degrade the over-bound tail to typed
  partial failures, never to wrong rows;
* the ``stale_reads`` counter reconciles 1:1 against the trace's
  ``scan_read`` events in every arm;
* every served query's rows are identical to a freshness-free reference
  execution — staleness policies must never change *results*.

Scale via ``REPRO_BENCH_FRESHNESS_SCALE`` (TPC-H scale, default 0.005),
``REPRO_BENCH_FRESHNESS_REPEAT`` (workload rounds, default 3),
``REPRO_BENCH_FRESHNESS_BOUND`` (staleness bound, default 0.1) and
``REPRO_BENCH_FRESHNESS_PAUSE`` (refresh outage, default 0.3).  Results
go to the text report and ``benchmarks/results/BENCH_replica_freshness.json``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.bench import format_table
from repro.catalog import FreshnessTracker, RefreshPause, RefreshSchedule
from repro.execution import ExecutionEngine, FreshnessPolicy
from repro.optimizer import CompliantOptimizer
from repro.server import QueryServer, workload_from_queries
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network
from repro.trace import (
    ComplianceAuditor,
    ScanReadEvent,
    TraceRecorder,
    parse_trace,
    tracing,
)

SCALE = float(os.environ.get("REPRO_BENCH_FRESHNESS_SCALE", "0.005"))
REPEAT = int(os.environ.get("REPRO_BENCH_FRESHNESS_REPEAT", "3"))
BOUND = float(os.environ.get("REPRO_BENCH_FRESHNESS_BOUND", "0.1"))
PAUSE = float(os.environ.get("REPRO_BENCH_FRESHNESS_PAUSE", "0.3"))
PERIOD = 0.05
INTERARRIVAL = 0.02
SERVED_QUERIES = [(name, QUERIES[name]) for name in sorted(QUERIES)]

#: Dual-site coverage under set T (same layout as
#: bench_replica_availability.py) — every plan collapses onto replicas,
#: so the refresh outage touches every query.
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

ARMS = ("plan-only", "prefer-fresh", "wait-for-refresh", "read-stale")


def build_world():
    catalog, database = build_benchmark(scale=SCALE, stats_scale=1.0)
    schedule = RefreshSchedule(
        period=PERIOD, pauses=(RefreshPause(at=0.0, duration=PAUSE),)
    )
    for db, table, site in REPLICAS:
        catalog.add_replica(db, table, site)
        catalog.set_refresh(db, table, site, schedule)
    network = default_network()
    optimizer = CompliantOptimizer(
        catalog, curated_policies(catalog, "T"), network
    )
    return catalog, database, network, optimizer


def serve_once(mode):
    catalog, database, network, optimizer = build_world()
    policy = FreshnessPolicy(
        FreshnessTracker(catalog), mode=mode, max_staleness=BOUND
    )
    server = QueryServer(
        database,
        network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        concurrency=3,
        queue_depth=2 * len(SERVED_QUERIES) * REPEAT,
        default_deadline=2.0,
        freshness=policy,
    )
    workload = workload_from_queries(
        SERVED_QUERIES, interarrival=INTERARRIVAL, repeat=REPEAT
    )
    recorder = TraceRecorder()
    with tracing(recorder):
        result = server.serve(workload)
    return catalog, workload, result, parse_trace(recorder.to_jsonl())


def audit(catalog, events):
    auditor = ComplianceAuditor(
        curated_policies(catalog, "T"),
        freshness=FreshnessTracker(catalog),
        max_staleness=BOUND,
    )
    return auditor.audit_events(events)


def summarize(workload, result, events, audit_report):
    m = result.metrics
    scans = [e for e in events if isinstance(e, ScanReadEvent)]
    return {
        "availability": (m.served + m.served_late) / len(workload),
        "makespan_seconds": m.makespan_seconds,
        "served": m.served,
        "served_late": m.served_late,
        "shed": m.shed,
        "partial": m.partial,
        "replica_reads": len(scans),
        "stale_reads": m.stale_reads,
        "stale_read_rate": m.stale_reads / len(scans) if scans else 0.0,
        "refresh_waits": m.refresh_waits,
        "refresh_wait_seconds": m.refresh_wait_seconds,
        "freshness_demotions": m.freshness_demotions,
        "audit_fresh": audit_report.fresh_reads,
        "audit_stale_within_bound": audit_report.stale_within_bound,
        "audit_bound_violated": audit_report.bound_violated,
        "audit_violations": len(audit_report.violations),
    }


def check_contract(workload, result, events, audit_report, references):
    """Arm-independent invariants: reconciling counters and right rows."""
    m = result.metrics
    assert m.total == len(workload)
    assert m.reconciles(), m.summary()
    scans = [e for e in events if isinstance(e, ScanReadEvent)]
    # The runtime counter and the trace must tell the same story.
    assert m.stale_reads == sum(
        1 for e in scans if e.staleness_at_read > 1e-9
    )
    assert audit_report.scan_reads == len(scans)
    for outcome in result.outcomes:
        if outcome.status == "served":
            name = outcome.request.name.split("#")[0]
            assert outcome.rows == references[name].rows, (
                f"{outcome.request.label}: served rows diverge from the "
                f"freshness-free reference execution"
            )


def test_replica_freshness_policy_sweep(report):
    _catalog, database, network, optimizer = build_world()
    engine = ExecutionEngine(
        database, network, policy_guard=optimizer.evaluator
    )
    references = {
        name: engine.execute(optimizer.optimize(sql).plan)
        for name, sql in SERVED_QUERIES
    }

    runs = {}
    table_rows = []
    for mode in ARMS:
        catalog, workload, result, events = serve_once(mode)
        audit_report = audit(catalog, events)
        check_contract(workload, result, events, audit_report, references)
        label = mode.replace("-", "_")
        runs[label] = summarize(workload, result, events, audit_report)
        s = runs[label]
        table_rows.append(
            [
                label,
                f"{s['availability']:.0%}",
                f"{s['makespan_seconds']:.3f}",
                f"{s['served'] + s['served_late']}/{s['partial']}",
                f"{s['stale_read_rate']:.0%}",
                s["refresh_waits"],
                s["audit_bound_violated"],
            ]
        )

    # The baseline serves everything — including the bound violations
    # the auditor must then flag, every one a stale-read.
    assert runs["plan_only"]["availability"] == 1.0, runs
    assert runs["plan_only"]["audit_bound_violated"] > 0, runs
    assert (
        runs["plan_only"]["audit_violations"]
        == runs["plan_only"]["audit_bound_violated"]
    ), runs
    # Runtime checking serves zero bound violations, in every mode.
    for label in ("prefer_fresh", "wait_for_refresh", "read_stale"):
        assert runs[label]["audit_bound_violated"] == 0, runs
        assert runs[label]["audit_violations"] == 0, runs
    # Waiting out the outage keeps full availability and pays in
    # simulated refresh waits; the strict arms degrade the over-bound
    # tail to typed partial failures instead.
    assert runs["wait_for_refresh"]["availability"] == 1.0, runs
    assert runs["wait_for_refresh"]["refresh_waits"] > 0, runs
    assert runs["wait_for_refresh"]["refresh_wait_seconds"] > 0.0, runs
    for label in ("prefer_fresh", "read_stale"):
        assert runs[label]["partial"] > 0, runs
        assert (
            runs[label]["availability"]
            <= runs["wait_for_refresh"]["availability"]
        ), runs

    payload = {
        "scale": SCALE,
        "repeat": REPEAT,
        "bound_seconds": BOUND,
        "refresh_period_seconds": PERIOD,
        "refresh_pause_seconds": PAUSE,
        "interarrival_seconds": INTERARRIVAL,
        "workload_queries": len(SERVED_QUERIES) * REPEAT,
        "replicas": [f"{db}.{table}@{site}" for db, table, site in REPLICAS],
        "runs": runs,
    }
    out_dir = report.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_replica_freshness.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report.emit(
        "replica_freshness",
        format_table(
            [
                "policy",
                "avail",
                "makespan s",
                "served/part",
                "stale rate",
                "waits",
                "violated",
            ],
            table_rows,
            title=(
                f"Staleness policies, {len(SERVED_QUERIES) * REPEAT} queries, "
                f"refresh paused {PAUSE:g}s, bound {BOUND:g}s "
                f"(TPC-H scale {SCALE}, set T)"
            ),
        ),
    )
