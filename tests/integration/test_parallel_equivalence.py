"""Executor equivalence: every optimized plan must return the rows of the
centralized reference execution on both operator backends and both
wire formats, and its simulated makespan must obey the critical-path
invariants.

Three workloads:

* the six curated TPC-H queries (the tier-1 integration plans), under
  both optimizers;
* ``>= 50`` randomized ad-hoc TPC-H queries from
  :mod:`repro.tpch.querygen` (the paper's §7.1 generator);
* a GAV-fragmented deployment whose UNION ALL plans produce many
  independent fragments.

Invariants checked on every executed plan: ``makespan <= sum of ship
times`` (a critical path cannot exceed the sum of all edges), equality
only possible when the fragment DAG is a chain, and strict inequality
whenever independent fragments exist.
"""

import pytest

from repro.execution import (
    ExecutionEngine,
    ShipConfig,
    fragment_plan,
    reference_plan,
)
from repro.optimizer import CompliantOptimizer, TraditionalOptimizer, normalize
from repro.optimizer.compliant import _strip_sort
from repro.sql import Binder
from repro.tpch import AdHocQueryGenerator, QUERIES, curated_policies
from repro.trace import TraceRecorder, tracing

from ..conftest import rows_as_multiset

#: Satellite requirement: at least 50 randomized queries.
ADHOC_QUERIES = AdHocQueryGenerator(seed=1234).generate(55)


@pytest.fixture(scope="module")
def world(tpch_small, tpch_network):
    catalog, database = tpch_small
    compliant = CompliantOptimizer(
        catalog, curated_policies(catalog, "CR+A"), tpch_network
    )
    traditional = TraditionalOptimizer(catalog, tpch_network)
    row = ExecutionEngine(database, tpch_network)
    batch = ExecutionEngine(database, tpch_network, executor="batch")
    return catalog, compliant, traditional, row, batch


def assert_makespan_invariants(plan, metrics):
    pairs = fragment_plan(plan).independent_pairs()
    assert metrics.makespan_seconds <= metrics.shipping_seconds + 1e-9
    if pairs > 0:
        # Independent fragments transfer concurrently: the response
        # time comes in strictly below the shipped-seconds sum.
        assert metrics.makespan_seconds < metrics.shipping_seconds
    return pairs


def traced_execute(engine, plan):
    """Run ``plan`` under a fresh trace recorder; return the result and
    the trace-derived SHIP summary ``(transfer_count, total_bytes)`` over
    delivered cross-border attempts."""
    recorder = TraceRecorder()
    with tracing(recorder):
        result = engine.execute(plan)
    delivered = [
        event
        for event in recorder.events()
        if event.kind == "ship"
        and event.outcome == "delivered"
        and event.source != event.target
    ]
    return result, (len(delivered), sum(event.bytes for event in delivered))


#: Small chunk size so even the 0.002-scale test batches actually split.
STREAM = ShipConfig(chunk_rows=64, compression="auto")


def streaming_engines(database, network):
    """Streaming+compressed engines mirroring the monolithic baseline,
    one per operator backend."""
    return [
        ExecutionEngine(database, network, executor=backend, ship=STREAM)
        for backend in ("row", "batch")
    ]


def check_equivalence(catalog, optimizer, row_engine, sql, batch_engines=()):
    core, _sort = _strip_sort(Binder(catalog).bind_sql(sql))
    expected = rows_as_multiset(
        row_engine.execute(reference_plan(normalize(core))).rows
    )
    plan = optimizer.optimize(core).plan
    row_run, row_ships = traced_execute(row_engine, plan)
    assert rows_as_multiset(row_run.rows) == expected
    for batch_engine in batch_engines:
        # The batch executor preserves the row backend's exact iteration
        # orders, so its output must be *row-identical* (ordered), not
        # just multiset-equal — and its SHIP byte accounting, computed
        # from columns, must bill the same bytes.
        batch_run, batch_ships = traced_execute(batch_engine, plan)
        assert batch_run.columns == row_run.columns
        assert batch_run.rows == row_run.rows
        assert (
            batch_run.metrics.total_bytes_shipped
            == row_run.metrics.total_bytes_shipped
        )
        assert (
            batch_run.metrics.operators_executed
            == row_run.metrics.operators_executed
        )
        # Per-query trace agreement between the row and batch backends:
        # identical transfer counts and identical total SHIP bytes.
        assert batch_ships == row_ships
    for stream_engine in streaming_engines(row_engine.database, row_engine.network):
        # Chunked, compressed transfers sit on the data path (rows flow
        # through the codec), so streaming must stay *byte-identical* on
        # rows and bill the same logical SHIP bytes as monolithic — in
        # the metrics and in the trace-derived per-query accounting —
        # while putting no more bytes on the wire than it ships.
        stream_run, stream_ships = traced_execute(stream_engine, plan)
        assert stream_run.columns == row_run.columns
        assert stream_run.rows == row_run.rows
        assert (
            stream_run.metrics.total_bytes_shipped
            == row_run.metrics.total_bytes_shipped
        )
        assert stream_ships == row_ships
        assert (
            stream_run.metrics.total_wire_bytes_shipped
            <= stream_run.metrics.total_bytes_shipped
        )
        assert (
            stream_run.metrics.makespan_seconds
            <= stream_run.metrics.shipping_seconds + 1e-9
        )
    pairs = assert_makespan_invariants(plan, row_run.metrics)
    return row_run, pairs


@pytest.mark.parametrize("name", list(QUERIES))
def test_tpch_compliant_plans(world, name):
    catalog, compliant, _traditional, row, batch = world
    check_equivalence(catalog, compliant, row, QUERIES[name], batch_engines=(batch,))


@pytest.mark.parametrize("name", list(QUERIES))
def test_tpch_traditional_plans(world, name):
    catalog, _compliant, traditional, row, batch = world
    check_equivalence(
        catalog, traditional, row, QUERIES[name], batch_engines=(batch,)
    )


#: Per-adhoc-query independent-pair counts, recorded as the equivalence
#: tests run (read by the coverage summary test below).
_ADHOC_PAIRS: dict[int, int] = {}


@pytest.mark.parametrize(
    "index", range(len(ADHOC_QUERIES)), ids=lambda i: f"adhoc{i:02d}"
)
def test_randomized_adhoc_queries(world, index):
    catalog, _compliant, traditional, row, batch = world
    query = ADHOC_QUERIES[index]
    _run, pairs = check_equivalence(
        catalog, traditional, row, query.sql, batch_engines=(batch,)
    )
    _ADHOC_PAIRS[index] = pairs


def test_adhoc_workload_exercises_parallel_fragments():
    """The randomized workload must actually stress the scheduler: a
    healthy fraction of the optimized plans contain independent
    fragments (otherwise every DAG is a chain and the equivalence suite
    would never cover concurrent execution)."""
    if len(_ADHOC_PAIRS) < len(ADHOC_QUERIES):
        pytest.skip("requires the full adhoc equivalence run in this session")
    assert sum(1 for pairs in _ADHOC_PAIRS.values() if pairs > 0) >= 5


def test_fragmented_union_plans(tpch_network):
    """GAV-fragmented tables: UNION ALL over per-site fragments yields
    wide (highly parallel) DAGs — results must still match everywhere."""
    from repro.bench import fragmented_policies
    from repro.tpch import build_benchmark

    catalog, database = build_benchmark(
        scale=0.002, fragmented=("customer", "orders"), fragment_locations=3
    )
    policies = fragmented_policies(catalog)
    compliant = CompliantOptimizer(catalog, policies, tpch_network)
    row = ExecutionEngine(database, tpch_network)
    batch_engines = (ExecutionEngine(database, tpch_network, executor="batch"),)
    sql = """
        SELECT c.c_mktsegment, COUNT(*) AS n, SUM(o.o_totalprice) AS total
        FROM customer c, orders o
        WHERE c.c_custkey = o.o_custkey AND o.o_totalprice > 1000
        GROUP BY c.c_mktsegment
    """
    run, _pairs = check_equivalence(
        catalog, compliant, row, sql, batch_engines=batch_engines
    )
    assert len(run.metrics.fragments) >= 3


def test_batch_executor_under_transient_chaos(world):
    """The batch backend rides the fault scheduler's retry paths
    unchanged: under seeded transient fault plans it must stay
    row-identical to the fault-free row executor on every curated
    TPC-H query, with at least one combo actually retrying."""
    from repro.execution import FaultPlan, RetryPolicy

    catalog, compliant, _trad, row, _batch = world
    database = row.database
    network = row.network
    retried = 0
    for name, sql in sorted(QUERIES.items()):
        core, _sort = _strip_sort(Binder(catalog).bind_sql(sql))
        plan = compliant.optimize(core).plan
        baseline = row.execute(plan)
        pairs = [
            (s.source, s.target)
            for s in baseline.metrics.ships
            if s.source != s.target
        ]
        for seed in (0, 1, 2):
            faults = FaultPlan.random(seed, catalog.locations, pairs=pairs or None)
            chaotic = ExecutionEngine(
                database,
                network,
                executor="batch",
                faults=faults,
                retry_policy=RetryPolicy(max_retries=6),
                policy_guard=compliant.evaluator,
            )
            result = chaotic.execute(plan)
            key = (name, seed, str(faults))
            assert result.partial_failure is None, key
            assert result.columns == baseline.columns, key
            assert rows_as_multiset(result.rows) == rows_as_multiset(
                baseline.rows
            ), key
            retried += result.metrics.transfer_attempts > len(result.metrics.ships)
    assert retried >= 3  # the chaos actually bit somewhere


def test_streaming_executor_under_transient_chaos(world):
    """Chunk-granular retry under seeded transient faults: the
    streaming+compressed scheduler must stay row-identical to the
    fault-free monolithic baseline on every curated TPC-H query and
    keep billing logical bytes, with at least one combo retrying."""
    from repro.execution import FaultPlan, RetryPolicy

    catalog, compliant, _trad, row, _batch = world
    database = row.database
    network = row.network
    retried = 0
    for name, sql in sorted(QUERIES.items()):
        core, _sort = _strip_sort(Binder(catalog).bind_sql(sql))
        plan = compliant.optimize(core).plan
        baseline = row.execute(plan)
        pairs = [
            (s.source, s.target)
            for s in baseline.metrics.ships
            if s.source != s.target
        ]
        for seed in (0, 1, 2):
            faults = FaultPlan.random(seed, catalog.locations, pairs=pairs or None)
            chaotic = ExecutionEngine(
                database,
                network,
                faults=faults,
                retry_policy=RetryPolicy(max_retries=6),
                policy_guard=compliant.evaluator,
                ship=STREAM,
            )
            result = chaotic.execute(plan)
            key = (name, seed, str(faults))
            assert result.partial_failure is None, key
            assert result.columns == baseline.columns, key
            assert rows_as_multiset(result.rows) == rows_as_multiset(
                baseline.rows
            ), key
            retried += result.metrics.transfer_attempts > len(result.metrics.ships)
    assert retried >= 3  # the chaos actually bit somewhere
