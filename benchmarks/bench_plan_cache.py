"""Plan-cache amortization on the repeated-template TPC-H workload.

PostBOUND-style split: every request's cost is measured as
*optimization time* (bind -> annotate -> site-select, or cache lookup +
rebind on a warm hit) plus *execution time* (execution engine), so the
cache's effect is visible where it acts instead of being averaged away.

Workload: the six curated TPC-H queries resubmitted ``REPEAT`` times
each (identical-SQL resubmission — every repeat after the first is a
hit), plus two parameterized templates submitted with ``BINDINGS``
distinct literal bindings each (prepared-query sharing — one cache
entry per template, rebound per binding):

* ``SELECT c_mktsegment, SUM(o_totalprice) ... WHERE o_totalprice > ?``
* ``SELECT c_custkey, c_name, c_acctbal ... WHERE c_mktsegment = ?``

Neither ``o_totalprice`` nor ``c_mktsegment`` appears in a CR policy
predicate, so both literals are provably implication-irrelevant — the
parameterizer frees them.

Acceptance (asserted here and in the CI bench smoke):

* warm optimize-path queries/sec >= 3x cold on the same workload;
* every warm request's rows and shipped bytes are identical to cold.

Scale via ``REPRO_BENCH_PLANCACHE_SCALE`` (TPC-H scale, default 0.005)
and ``REPRO_BENCH_PLANCACHE_REPEAT`` (default 6).  Results go to the
text report and ``benchmarks/results/BENCH_plan_cache.json``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.bench import format_table
from repro.execution import ExecutionEngine
from repro.optimizer import CompliantOptimizer
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network

SCALE = float(os.environ.get("REPRO_BENCH_PLANCACHE_SCALE", "0.005"))
REPEAT = int(os.environ.get("REPRO_BENCH_PLANCACHE_REPEAT", "6"))

TEMPLATE_PRICE = (
    "SELECT c.c_mktsegment, SUM(o.o_totalprice) AS revenue "
    "FROM customer AS c, orders AS o "
    "WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > {v} "
    "GROUP BY c.c_mktsegment"
)
TEMPLATE_SEGMENT = (
    "SELECT c_custkey, c_name, c_acctbal FROM customer "
    "WHERE c_mktsegment = '{seg}'"
)
PRICE_BINDINGS = (1000.0, 25000.0, 50000.0, 100000.0, 200000.0)
SEGMENT_BINDINGS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")


def build_workload() -> list[str]:
    requests: list[str] = []
    for name in sorted(QUERIES):
        requests.extend([QUERIES[name]] * REPEAT)
    requests.extend(TEMPLATE_PRICE.format(v=v) for v in PRICE_BINDINGS)
    requests.extend(TEMPLATE_SEGMENT.format(seg=s) for s in SEGMENT_BINDINGS)
    return requests


#: Distinct plan shapes in the workload: six curated queries plus one
#: per template (the bindings share entries).
DISTINCT_SHAPES = len(QUERIES) + 2


@pytest.fixture(scope="module")
def world():
    catalog, database = build_benchmark(scale=SCALE, stats_scale=1.0)
    network = default_network()
    policies = curated_policies(catalog, "CR")
    return catalog, database, network, policies


def run_workload(world, plan_cache: bool):
    catalog, database, network, policies = world
    optimizer = CompliantOptimizer(
        catalog, policies, network, plan_cache=plan_cache
    )
    engine = ExecutionEngine(
        database, network, policy_guard=optimizer.evaluator
    )
    outputs = []
    optimize_seconds = 0.0
    execute_seconds = 0.0
    for sql in build_workload():
        start = time.perf_counter()
        result = optimizer.optimize(sql)
        optimize_seconds += time.perf_counter() - start
        start = time.perf_counter()
        output = engine.execute(result)
        execute_seconds += time.perf_counter() - start
        outputs.append(output)
    return optimizer, outputs, optimize_seconds, execute_seconds


def test_plan_cache_amortization(world, report):
    requests = build_workload()
    _, cold_outputs, cold_opt, cold_exec = run_workload(world, plan_cache=False)
    warm_optimizer, warm_outputs, warm_opt, warm_exec = run_workload(
        world, plan_cache=True
    )

    # Byte-identical service: rows (ordered) and cross-border shipped
    # bytes must not change when a plan comes from the cache.
    for sql, cold_out, warm_out in zip(requests, cold_outputs, warm_outputs):
        assert warm_out.columns == cold_out.columns, sql
        assert warm_out.rows == cold_out.rows, sql
        assert (
            warm_out.metrics.total_bytes_shipped
            == cold_out.metrics.total_bytes_shipped
        ), sql

    stats = warm_optimizer.plan_cache.stats
    assert stats.stores == DISTINCT_SHAPES
    assert stats.hits == len(requests) - DISTINCT_SHAPES
    assert stats.misses == DISTINCT_SHAPES

    cold_opt_qps = len(requests) / cold_opt
    warm_opt_qps = len(requests) / warm_opt
    speedup = warm_opt_qps / cold_opt_qps
    # The headline acceptance criterion: >= 3x on the optimize path.
    assert speedup >= 3.0, (
        f"warm optimize path only {speedup:.2f}x cold "
        f"({warm_opt_qps:.1f} vs {cold_opt_qps:.1f} q/s)"
    )

    payload = {
        "scale": SCALE,
        "repeat": REPEAT,
        "requests": len(requests),
        "distinct_shapes": DISTINCT_SHAPES,
        "cold": {
            "optimize_seconds": cold_opt,
            "execute_seconds": cold_exec,
            "optimize_qps": cold_opt_qps,
            "end_to_end_qps": len(requests) / (cold_opt + cold_exec),
        },
        "warm": {
            "optimize_seconds": warm_opt,
            "execute_seconds": warm_exec,
            "optimize_qps": warm_opt_qps,
            "end_to_end_qps": len(requests) / (warm_opt + warm_exec),
            "hits": stats.hits,
            "misses": stats.misses,
            "stores": stats.stores,
            "hit_rate": stats.hit_rate,
        },
        "optimize_path_speedup": speedup,
        "byte_identical": True,
    }
    out_dir = report.directory
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "BENCH_plan_cache.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    report.emit(
        "plan_cache",
        format_table(
            ["run", "optimize s", "execute s", "opt q/s", "e2e q/s"],
            [
                [
                    "cold",
                    f"{cold_opt:.3f}",
                    f"{cold_exec:.3f}",
                    f"{cold_opt_qps:.1f}",
                    f"{len(requests) / (cold_opt + cold_exec):.1f}",
                ],
                [
                    "warm",
                    f"{warm_opt:.3f}",
                    f"{warm_exec:.3f}",
                    f"{warm_opt_qps:.1f}",
                    f"{len(requests) / (warm_opt + warm_exec):.1f}",
                ],
            ],
            title=(
                f"Plan cache amortization, {len(requests)} requests "
                f"({DISTINCT_SHAPES} shapes, TPC-H scale {SCALE}) — "
                f"optimize-path speedup {speedup:.1f}x, "
                f"hit rate {stats.hit_rate:.0%}"
            ),
        ),
    )
