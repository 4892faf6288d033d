"""Tracing overhead on the Fig 6(g,h) plan-quality workload.

The recorder must be effectively free when not installed (the hooks are
one ContextVar read per SHIP / optimize / query bracket — the <5 %
disabled-path budget from the tracing design) and cheap enough when
installed that traced production runs are routine.  This benchmark
executes the curated TPC-H queries (the Fig 6(g,h) workload) through
the fragment scheduler in both modes and reports wall-clock side
by side, plus the structural invariants that must hold regardless of
timing noise:

* the simulated makespan is bit-identical traced vs untraced (the
  recorder observes the WAN simulation, it never perturbs it);
* every traced run audits COMPLIANT and records at least one event.

Wall-clock ratios are *reported*, not asserted, because CI machines are
noisy and the per-query runtimes at smoke scale are dominated by
constant costs.  Scale via ``REPRO_BENCH_TRACE_SCALE`` (default 0.01)
and ``REPRO_BENCH_TRACE_REPS`` (default 3).  Results land in
``benchmarks/results/BENCH_trace_overhead.json``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench import format_table
from repro.errors import NonCompliantQueryError
from repro.execution import ExecutionEngine
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network
from repro.trace import ComplianceAuditor, TraceRecorder, tracing

SCALE = float(os.environ.get("REPRO_BENCH_TRACE_SCALE", "0.01"))
REPETITIONS = int(os.environ.get("REPRO_BENCH_TRACE_REPS", "3"))
POLICY_SET = "CR+A"


@pytest.fixture(scope="module")
def world():
    catalog, database = build_benchmark(scale=SCALE, stats_scale=1.0)
    network = default_network()
    policies = curated_policies(catalog, POLICY_SET)
    optimizer = CompliantOptimizer(catalog, policies, network)
    plans = {}
    for name, sql in QUERIES.items():
        try:
            plans[name] = optimizer.optimize(sql).plan
        except NonCompliantQueryError:
            continue
    engine = ExecutionEngine(
        database, network, policy_guard=optimizer.evaluator
    )
    return engine, plans, ComplianceAuditor(policies)


def _best(run):
    best, last = float("inf"), None
    for _ in range(REPETITIONS):
        start = time.perf_counter()
        last = run()
        best = min(best, time.perf_counter() - start)
    return best, last


def test_trace_overhead(world, report):
    engine, plans, auditor = world
    results = {}
    table_rows = []
    for name, plan in sorted(plans.items()):
        off_seconds, off_result = _best(lambda: engine.execute(plan))

        def traced():
            recorder = TraceRecorder()
            with tracing(recorder):
                result = engine.execute(plan)
            return recorder, result

        on_seconds, (recorder, on_result) = _best(traced)

        # The recorder observes the simulation; it must not perturb it.
        assert on_result.makespan_seconds == off_result.makespan_seconds, name
        assert on_result.rows == off_result.rows, name
        assert len(recorder.events()) > 0, name
        audit = auditor.audit_events(recorder.events())
        assert audit.ok, (name, [str(v) for v in audit.violations])

        overhead = (on_seconds - off_seconds) / off_seconds * 100.0
        results[name] = {
            "untraced_seconds": off_seconds,
            "traced_seconds": on_seconds,
            "overhead_pct": overhead,
            "events": len(recorder.events()),
            "transfer_attempts": audit.attempts,
            "makespan_seconds": on_result.makespan_seconds,
        }
        table_rows.append(
            [
                name,
                len(recorder.events()),
                f"{off_seconds * 1e3:.1f} ms",
                f"{on_seconds * 1e3:.1f} ms",
                f"{overhead:+.1f}%",
            ]
        )

    payload = {
        "scale": SCALE,
        "repetitions": REPETITIONS,
        "policy_set": POLICY_SET,
        "disabled_path_budget_pct": 5.0,
        "queries": results,
    }
    out_dir = report.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_trace_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report.emit(
        "trace_overhead",
        format_table(
            ["query", "events", "untraced", "traced", "overhead"],
            table_rows,
            title=f"Tracing overhead, TPC-H at scale {SCALE} (best of "
            f"{REPETITIONS}, set {POLICY_SET})",
        ),
    )
    assert len(results) >= 4, "workload unexpectedly small"
