"""The three benchmark workloads, driven through the program's public API.

* ``tpch-cold``  — one ``repro run`` per query: the six TPC-H queries round
  robin, each with a fresh optimizer and a cold plan cache.
* ``adhoc-cold`` — the same one-shot path over the ad-hoc regression set.
* ``tpch-serve`` — audited serving: a seeded request stream through
  ``QueryServer`` under a fixed fault schedule, then trace serialisation
  and a compliance audit.

A *pass* runs the workload's whole input set once.  Every pass of a run
sees identical inputs, so everything the program computes on the
simulated clock, and every count, must repeat exactly from pass to pass;
:func:`run_workload` checks that.  Rows are checked against the
``reference_plan`` oracle after the timed loop, so neither the oracle nor
its memory is part of what is measured.

Each workload builds the configuration ``repro run`` / ``repro serve``
build by default (read from the CLI's own argument defaults) and passes
only what the workload deliberately changes.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import adhoc
from calibrate import Calibrator
from repro import cli
from repro.errors import ComplianceViolationError, NonCompliantQueryError
from repro.execution import ExecutionEngine, parse_fault_spec, reference_plan
from repro.optimizer import CompliantOptimizer, normalize
from repro.plan import LogicalSort, NestedLoopJoin, Ship
from repro.server import BreakerConfig, BreakerRegistry, QueryRequest, QueryServer
from repro.sql import Binder
from repro.tpch import QUERIES, build_benchmark, curated_policies, default_network
from repro.trace import (
    ComplianceAuditor,
    QueryStart,
    TraceRecorder,
    parse_trace,
    tracing,
)

WORKLOADS = ("tpch-cold", "adhoc-cold", "tpch-serve")

#: The paper's six evaluation queries.
TPCH_QUERIES = ("Q2", "Q3", "Q5", "Q8", "Q9", "Q10")

#: Ad-hoc regression set: the generator's seed-1234 workload (ROADMAP).
ADHOC_SCALE = 0.001
ADHOC_GENERATOR_SEED = 1234
ADHOC_QUERIES = 55

#: Serving: arrivals on the simulated clock, sized so the default
#: 4-slot server runs at utilisation ~0.75 (mean fault-free service time
#: of the six templates is ~0.13 simulated seconds).
SERVE_REQUESTS = 200
SERVE_RATE = 23.0
SERVE_ARRIVAL_SEED = 2021
SERVE_DEADLINE = 1.0
#: A flaky window longer than the retry budget on a link half the
#: templates use (retries run out: breaker, failover, partial failures),
#: a shorter one on a link carrying multi-chunk transfers (chunk re-sends
#: that succeed), and a slow window on the link carrying the most bytes.
SERVE_FAULTS = (
    "flaky:MiddleEast->Europe@4+0.6;"
    "flaky:Africa->NorthAmerica@5+0.3;"
    "slow:NorthAmerica->Europe@0+30x2"
)
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")

SETUP_REPEATS = 5
#: Untraced runs of the cold workloads run at least this many operations,
#: so that each operation's latency is a mean over several repetitions:
#: 17 for each TPC-H query, 5 for each ad-hoc query.
MIN_OPS = {"tpch-cold": 100, "adhoc-cold": 5 * ADHOC_QUERIES}

AUDIT_CATEGORIES = (
    "forbidden-destination",
    "displaced-scan",
    "non-compliant-replica",
    "unauditable",
    "stale-read",
    "freshness-misreport",
)
OPERATOR_KINDS = {
    "TableScan": "scan",
    "Filter": "filter",
    "Project": "project",
    "HashJoin": "hash_join",
    "NestedLoopJoin": "nlj",
    "HashAggregate": "aggregate",
    "Sort": "sort",
    "Ship": "ship_op",
}


# -- configuration and set-up --------------------------------------------------


def cli_defaults(command: str):
    """The arguments ``repro <command>`` gets when given no options."""
    return cli._build_parser().parse_args([command, "-"])


@dataclass
class Env:
    catalog: object
    database: object
    policies: object
    network: object
    defaults: object
    ship: object
    #: Does the query have an ORDER BY (compare rows in order)?  Filled
    #: before the timed loop so binding it is never traced.
    ordered: dict[str, bool] = field(default_factory=dict)
    #: Row digests by the hash of the rows as returned; passes repeat
    #: their results, and canonicalising large results is slow.
    digests: dict[tuple[bytes, bool], str] = field(default_factory=dict)


def _span(spans, name: str):
    return spans.span(name) if spans is not None else nullcontext()


def setup(scale: float | None, command: str, spans=None) -> Env:
    """Generate and load TPC-H and build the policies, as the CLI does."""
    defaults = cli_defaults(command)
    with _span(spans, "setup.datagen"):
        catalog, database = build_benchmark(
            scale=defaults.scale if scale is None else scale, stats_scale=1.0
        )
    with _span(spans, "setup.policies"):
        policies = curated_policies(catalog, defaults.policy_set)
    return Env(
        catalog=catalog,
        database=database,
        policies=policies,
        network=default_network(),
        defaults=defaults,
        ship=cli._build_ship(defaults),
    )


def build_server(env: Env) -> QueryServer:
    """The server ``repro serve`` builds, on the batch backend, with the
    workload's deadline and fault schedule."""
    args = env.defaults
    optimizer = CompliantOptimizer(
        env.catalog, env.policies, env.network, plan_cache=args.plan_cache
    )
    return QueryServer(
        env.database,
        env.network,
        optimizer=optimizer,
        evaluator=optimizer.evaluator,
        default_deadline=SERVE_DEADLINE,
        breakers=None
        if args.no_breakers
        else BreakerRegistry(
            BreakerConfig(
                failure_threshold=args.breaker_threshold,
                cooldown=args.breaker_cooldown,
            )
        ),
        faults=parse_fault_spec(SERVE_FAULTS, locations=env.catalog.locations),
        executor="batch",
        ship=env.ship,
    )


# -- inputs --------------------------------------------------------------------


def cold_inputs(workload: str, seed: int) -> list[tuple[str, str]]:
    """(label, SQL) of one pass, ordered by ``seed``."""
    if workload == "tpch-cold":
        start = seed % len(TPCH_QUERIES)
        names = TPCH_QUERIES[start:] + TPCH_QUERIES[:start]
        return [(name, QUERIES[name]) for name in names]
    queries = [
        (f"adhoc{i:02d}", sql)
        for i, sql in enumerate(adhoc.generate(ADHOC_GENERATOR_SEED, ADHOC_QUERIES))
    ]
    random.Random(seed).shuffle(queries)
    return queries


def serve_inputs(seed: int) -> list[QueryRequest]:
    """Poisson arrivals of the six templates; Q3's segment and Q5's region
    (read by no policy, so the plan cache frees them) drawn from ``seed``."""
    arrivals = random.Random(SERVE_ARRIVAL_SEED)
    literals = random.Random(seed)
    requests = []
    now = 0.0
    for index in range(SERVE_REQUESTS):
        now += arrivals.expovariate(SERVE_RATE)
        name = arrivals.choice(TPCH_QUERIES)
        sql = QUERIES[name]
        if name == "Q3":
            sql = sql.replace("'BUILDING'", f"'{literals.choice(SEGMENTS)}'")
        elif name == "Q5":
            sql = sql.replace("'ASIA'", f"'{literals.choice(REGIONS)}'")
        requests.append(QueryRequest(sql=sql, arrival=now, name=f"{name}#{index}"))
    return requests


# -- rows and the oracle -------------------------------------------------------


def _canonical(value):
    if type(value) is float:
        return float(f"{value:.10g}") + 0.0  # + 0.0 folds -0.0 into 0.0
    return value


def digest(rows, ordered: bool) -> str:
    lines = [repr(tuple(map(_canonical, row))) for row in rows]
    if not ordered:
        lines.sort()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def env_digest(env: Env, rows, ordered: bool) -> str:
    """``digest`` of ``rows``, computed once per distinct result."""
    key = (hashlib.sha256(repr(rows).encode()).digest(), ordered)
    if key not in env.digests:
        env.digests[key] = digest(rows, ordered)
    return env.digests[key]


def oracle_digest(env: Env, sql: str) -> str:
    """Rows of the single-site reference plan of the bound query."""
    bound = Binder(env.catalog).bind_sql(sql)
    if isinstance(bound, LogicalSort):
        reference = replace(bound, child=normalize(bound.child))
    else:
        reference = normalize(bound)
    rows = ExecutionEngine(env.database, env.network).execute(
        reference_plan(reference)
    ).rows
    return digest(rows, isinstance(bound, LogicalSort))


# -- per-pass results ----------------------------------------------------------


@dataclass
class Pass:
    """What one pass measured.  ``wall`` is the timed region in seconds;
    the ``reference_*`` fields hold the same wall times at the calibration's
    reference speed (see calibrate.py), filled in after the run."""

    traced: bool
    wall: float
    attempted: int
    #: perf_counter instants bounding the timed region.
    region: tuple[float, float] = (0.0, 0.0)
    #: Benchmark-level failures: (label, reason).  Unexpected exceptions,
    #: rows differing from the oracle, guard refusals, bad accounting.
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Every operation that did not end well: the failures above plus
    #: shed / rejected / partial requests and audit violations.
    not_ok: dict[str, str] = field(default_factory=dict)
    accepted: int = 0
    wall_latencies: list[float] = field(default_factory=list)
    #: (start, end) perf_counter instants of each of ``wall_latencies``.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    reference_wall: float = 0.0
    reference_latencies: list[float] = field(default_factory=list)
    sim_latencies: list[float] = field(default_factory=list)
    sim_ship_s: float = 0.0
    logical_bytes: int = 0
    wire_bytes: int = 0
    #: Deterministic per-pass counts (per-layer metrics and shares).
    counts: Counter = field(default_factory=Counter)
    #: Program-reported wall times (OperatorRecord self times), seconds.
    op_seconds: Counter = field(default_factory=Counter)
    #: (label, outputs) per operation, compared across passes.
    fingerprint: list = field(default_factory=list)
    #: (label, digest, SQL) of every operation that returned rows.
    rows: list[tuple[str, str, str]] = field(default_factory=list)
    spans: tuple[int, int] = (0, 0)

    def fail(self, label: str, reason: str) -> None:
        self.failures.append((label, reason))
        self.not_ok.setdefault(label, reason)


def _plan_has(plan, kind) -> bool:
    return any(isinstance(node, kind) for node in plan.walk())


def _add_execution(pass_: Pass, metrics) -> None:
    """Fold one execution's public metrics into the pass."""
    counts = pass_.counts
    for record in metrics.operators:
        kind = OPERATOR_KINDS.get(record.operator.split(" ", 1)[0], "other")
        pass_.op_seconds[kind] += record.seconds
        if kind == "nlj":
            counts["execution.nlj_rows_out"] += record.rows_out
    counts["execution.rows_scanned"] += metrics.rows_scanned
    counts["scheduler.fragments"] += len(metrics.fragments)
    for ship in metrics.ships:
        pass_.sim_ship_s += ship.seconds
        pass_.logical_bytes += ship.bytes
        pass_.wire_bytes += ship.bytes if ship.wire_bytes is None else ship.wire_bytes
        counts["wire.chunks"] += ship.chunks
        counts["scheduler.transfer_attempts"] += ship.attempts
        counts["recovery.chunk_resends"] += max(0, ship.attempts - ship.chunks)


def _add_optimization(pass_: Pass, result) -> None:
    if result.cache_hit:
        return  # the cached template's memo was counted on its miss
    counts = pass_.counts
    counts["optimizer.memo_expressions"] += result.annotate.expression_count
    counts["optimizer.memo_groups"] += result.annotate.group_count
    counts["optimizer.rule_firings"] += result.annotate.explore_stats.rule_firings


def _add_policy_stats(pass_: Pass, stats) -> None:
    counts = pass_.counts
    counts["policy.evaluations"] += stats.evaluations
    counts["policy.expressions_scanned"] += stats.expressions_scanned
    counts["policy.implication_checks"] += stats.implication_checks
    counts["policy.implication_cache_hits"] += (
        stats.implication_cache_hits + stats.implication_cache_warm_hits
    )


# -- cold workloads ------------------------------------------------------------


def cold_pass(env: Env, inputs, spans, first_op: int, calibrator: Calibrator) -> Pass:
    pass_ = Pass(traced=spans is not None, wall=0.0, attempted=len(inputs))
    for offset, (label, sql) in enumerate(inputs):
        if spans is not None:
            spans.op = first_op + offset
        output = result = optimizer = None
        failure = None
        start = time.perf_counter()
        try:
            optimizer = CompliantOptimizer(
                env.catalog,
                env.policies,
                env.network,
                plan_cache=env.defaults.plan_cache,
            )
            result = optimizer.optimize(sql)
            output = ExecutionEngine(
                env.database,
                env.network,
                policy_guard=optimizer.evaluator,
                ship=env.ship,
            ).execute(result)
        except NonCompliantQueryError:
            pass  # an expected, typed rejection
        except ComplianceViolationError as error:
            failure = f"guard refused the optimizer's plan: {error}"
        except Exception as error:  # keep measuring; the failure is counted
            failure = f"{type(error).__name__}: {error}"
        end = time.perf_counter()
        calibrator.tick()

        wall = end - start
        pass_.wall += wall
        pass_.wall_latencies.append(wall)
        pass_.intervals.append((start, end))
        if optimizer is not None:
            _add_policy_stats(pass_, optimizer.evaluator.stats)
        if result is not None:
            pass_.accepted += 1
            _add_optimization(pass_, result)
            pass_.counts["workload.nlj_plans"] += _plan_has(result.plan, NestedLoopJoin)
        # The guard verdict: a plan the plan cache validated at store
        # time skips the engine's own re-check.
        verdict = "rejected" if result is None else result.compliance_validated
        outcome: tuple = ()
        if failure is not None:
            pass_.fail(label, failure)
        elif output is not None:
            metrics = output.metrics
            _add_execution(pass_, metrics)
            # Sequential execution ships one edge after another, so the
            # simulated time from submission to rows is the transfer sum.
            pass_.sim_latencies.append(metrics.shipping_seconds)
            row_digest = env_digest(env, output.rows, env.ordered[sql])
            pass_.rows.append((label, row_digest, sql))
            if output.partial_failure is not None:
                pass_.fail(label, f"partial: {output.partial_failure}")
            outcome = (
                row_digest,
                metrics.shipping_seconds,
                metrics.total_bytes_shipped,
                metrics.total_wire_bytes_shipped,
            )
        pass_.fingerprint.append((label, verdict, failure, outcome))
    pass_.region = (pass_.intervals[0][0], pass_.intervals[-1][1])
    return pass_


# -- serving -------------------------------------------------------------------


class RequestClock:
    """Per-request wall time inside ``QueryServer.serve``.

    Wraps the two public calls the server makes per dispatch on this
    server's own objects: ``optimizer.optimize`` (possibly several times
    while a request waits for capacity) and ``scheduler.run``.  A
    request's wall time is its ``run`` plus the optimize time spent since
    the previous ``run``.  After each ``run`` it ticks the calibrator and
    keeps the time that took in ``calibration``, which the pass takes out
    of its timed region."""

    def __init__(self, server: QueryServer, calibrator: Calibrator) -> None:
        self.latencies: list[float] = []
        self.intervals: list[tuple[float, float]] = []
        self.calibration = 0.0
        #: (plan, cache hit) of every dispatched request.
        self.dispatched: list[tuple[object, bool]] = []
        self.results: list = []
        self._pending = 0.0
        optimize = server.optimizer.optimize
        run = server.scheduler.run

        def timed_optimize(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = optimize(*args, **kwargs)
            finally:
                self._pending += time.perf_counter() - start
            self.results.append(result)
            return result

        def timed_run(plan, *args, **kwargs):
            start = time.perf_counter()
            try:
                return run(plan, *args, **kwargs)
            finally:
                end = time.perf_counter()
                self.latencies.append(self._pending + end - start)
                self.intervals.append((start - self._pending, end))
                self._pending = 0.0
                last = self.results[-1] if self.results else None
                hit = last is not None and last.plan is plan and last.cache_hit
                self.dispatched.append((plan, hit))
                self.calibration += calibrator.tick()

        server.optimizer.optimize = timed_optimize
        server.scheduler.run = timed_run


def serve_pass(env: Env, requests, spans, first_op: int, calibrator: Calibrator) -> Pass:
    pass_ = Pass(traced=spans is not None, wall=0.0, attempted=len(requests))
    if spans is not None:
        spans.op = first_op
    server = build_server(env)
    clock = RequestClock(server, calibrator)
    recorder = TraceRecorder()
    start = time.perf_counter()
    try:
        with tracing(recorder):
            result = server.serve(requests)
        with _span(spans, "trace.serialize"):
            events = parse_trace(recorder.to_jsonl())
        with _span(spans, "trace.audit"):
            report = ComplianceAuditor(env.policies).audit_events(events)
    except Exception as error:  # keep measuring; every request failed
        pass_.region = (start, time.perf_counter())
        pass_.wall = pass_.region[1] - start - clock.calibration
        for request in requests:
            pass_.fail(request.label, f"{type(error).__name__}: {error}")
        return pass_
    pass_.region = (start, time.perf_counter())
    pass_.wall = pass_.region[1] - start - clock.calibration
    calibrator.tick()

    metrics = result.metrics
    counts = pass_.counts
    pass_.accepted = len(requests)  # a non-compliant template would raise
    pass_.wall_latencies = clock.latencies
    pass_.intervals = clock.intervals
    if not metrics.reconciles():
        pass_.fail("server", f"outcome buckets do not reconcile: {metrics.summary()}")

    queue_waits, services = [], []
    for outcome in result.outcomes:
        label = outcome.request.label
        if outcome.started_at is not None:
            queue_waits.append(outcome.queue_wait_seconds)
            services.append(outcome.finished_at - outcome.started_at)
        if outcome.metrics is not None:
            _add_execution(pass_, outcome.metrics)
        if outcome.status != "served":
            pass_.not_ok.setdefault(label, outcome.status)
            pass_.sim_latencies.append(float("inf"))
            pass_.fingerprint.append((label, outcome.status, outcome.finished_at))
            continue
        pass_.sim_latencies.append(outcome.finished_at - outcome.request.arrival)
        row_digest = env_digest(env, outcome.rows, env.ordered[outcome.request.sql])
        pass_.rows.append((label, row_digest, outcome.request.sql))
        pass_.fingerprint.append((label, row_digest, outcome.finished_at))
    labels = {e.query: e.label for e in events if isinstance(e, QueryStart)}
    violations = Counter()
    for violation in report.violations:
        violations[violation.category] += 1
        label = labels.get(violation.query, f"query {violation.query}")
        pass_.not_ok.setdefault(label, f"audit: {violation.category}")
    for category in AUDIT_CATEGORIES:
        counts[f"trace.audit_violations.{category}"] = violations[category]
    counts["trace.events"] = len(recorder)

    pass_.fingerprint.append(("audit", sorted((v.query, v.category) for v in report.violations)))

    for result_ in clock.results:
        _add_optimization(pass_, result_)
    optimizer = server.optimizer
    _add_policy_stats(pass_, optimizer.evaluator.stats)
    cache = optimizer.plan_cache.stats
    counts["optimizer.plancache_hits"] = cache.hits
    counts["optimizer.plancache_lookups"] = cache.lookups
    counts["scheduler.retry_wait_s"] = metrics.retry_wait_seconds
    counts["recovery.failovers"] = metrics.recoveries
    counts["recovery.breaker_trips"] = metrics.breaker_trips
    counts["recovery.breaker_fast_fails"] = metrics.breaker_fast_fails
    counts["server.queue_wait_s"] = statistics.median(queue_waits) if queue_waits else 0.0
    counts["server.service_s"] = statistics.median(services) if services else 0.0
    faulted = {
        (event.source, event.target)
        for event in parse_fault_spec(SERVE_FAULTS).events
        if hasattr(event, "target")
    }
    counts["workload.dispatched"] = len(clock.dispatched)
    counts["workload.dispatched_cache_hits"] = sum(hit for _, hit in clock.dispatched)
    counts["workload.dispatched_faulted"] = sum(
        any(
            isinstance(node, Ship) and (node.source, node.target) in faulted
            for node in plan.walk()
        )
        for plan, _ in clock.dispatched
    )
    return pass_


# -- the run -------------------------------------------------------------------


@dataclass
class Run:
    workload: str
    seed: int
    setup_seconds: list[float]
    #: ``setup_seconds`` at the calibration's reference speed.
    reference_setup_seconds: list[float]
    passes: list[Pass]
    peak_rss_mb: float
    #: Set when two passes disagreed on a deterministic output.
    nondeterministic: str | None
    calibrator: Calibrator

    def measured(self, traced: bool) -> list[Pass]:
        return [p for p in self.passes if p.traced == traced]


def run_workload(workload: str, seed: int, seconds: float, spans=None) -> Run:
    """Set up, then run whole passes until ``seconds`` of timed work at the
    calibration's reference speed (and, on the cold workloads,
    ``MIN_OPS`` operations) are measured.  Counting reference
    seconds keeps the number of passes the same whatever the machine's
    speed, so a run's metrics and its duration do not jump with it.

    With ``spans``, passes alternate untraced and traced so the traced
    run also measures its own tracing overhead."""
    serving = workload == "tpch-serve"
    command = "serve" if serving else "run"
    scale = ADHOC_SCALE if workload == "adhoc-cold" else None
    calibrator = Calibrator()
    calibrator.tick()
    setup_intervals = []
    env = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        env = setup(scale, command)
        if serving:
            build_server(env)
        setup_intervals.append((start, time.perf_counter()))
        calibrator.tick()
    if spans is not None:
        with spans.instrument():
            setup(scale, command, spans)

    inputs = serve_inputs(seed) if serving else cold_inputs(workload, seed)
    queries = [r.sql for r in inputs] if serving else [sql for _, sql in inputs]
    for sql in set(queries):
        env.ordered[sql] = isinstance(Binder(env.catalog).bind_sql(sql), LogicalSort)
    run_pass = serve_pass if serving else cold_pass
    # The operation floor serves the latency percentiles, which only the
    # untraced run reports.
    min_ops = 1 if spans is not None else MIN_OPS.get(workload, 1)
    passes: list[Pass] = []
    measured_wall = 0.0
    measured_ops = 0
    while measured_wall < seconds or measured_ops < min_ops:
        traced = spans is not None and len(passes) % 2 == 1
        first = len(spans.spans) if spans is not None else 0
        # Every pass starts with the collector in the same state, so a
        # full collection lands on the same operation in every pass.
        gc.collect()
        with spans.instrument() if traced else nullcontext():
            pass_ = run_pass(
                env, inputs, spans if traced else None, len(passes) * len(inputs), calibrator
            )
        pass_.spans = (first, len(spans.spans) if spans is not None else 0)
        passes.append(pass_)
        if traced == (spans is not None):
            measured_wall += pass_.wall * calibrator.scale(*pass_.region)
            measured_ops += pass_.attempted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pass_ in passes:
        pass_.reference_latencies = [
            wall * calibrator.scale(start, end)
            for wall, (start, end) in zip(pass_.wall_latencies, pass_.intervals)
        ]
        # A cold pass's timed region is its operations; a serve pass's
        # also holds the server's own work between requests, the trace
        # round trip and the audit.
        pass_.reference_wall = (
            pass_.wall * calibrator.scale(*pass_.region)
            if serving
            else sum(pass_.reference_latencies)
        )

    nondeterministic = None
    for pass_ in passes[1:]:
        if pass_.fingerprint != passes[0].fingerprint or pass_.counts != passes[0].counts:
            nondeterministic = "a pass disagreed with the first pass on a deterministic output"

    expected = {}
    for pass_ in passes:
        for label, row_digest, sql in pass_.rows:
            if sql not in expected:
                expected[sql] = oracle_digest(env, sql)
            if row_digest != expected[sql]:
                pass_.fail(label, "rows differ from the reference plan")
    return Run(
        workload=workload,
        seed=seed,
        setup_seconds=[end - start for start, end in setup_intervals],
        reference_setup_seconds=[
            (end - start) * calibrator.scale(start, end) for start, end in setup_intervals
        ],
        passes=passes,
        peak_rss_mb=peak_rss_mb,
        nondeterministic=nondeterministic,
        calibrator=calibrator,
    )
