"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run,
and the spans are written to ``perfbench/out/``.  The lines before it are
a human-readable report: failures with their reasons, property shares and
a determinism digest that repeats exactly for a given seed.  See
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); NaN without samples."""
    if not values:
        return math.nan
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def operation_latencies(passes, field: str) -> list[float]:
    """Each operation's mean latency over the passes, which all run the
    same inputs in the same order."""
    series = [getattr(p, field) for p in passes]
    return [
        statistics.fmean(latencies[i] for latencies in series)
        for i in range(min(len(latencies) for latencies in series))
    ]


def banded_percentile(values: list[float], q: float, band: float = 0.05) -> float:
    """Mean of the values ranked within ``band`` of the nearest-rank
    percentile ``q``; that percentile alone when there are fewer than
    ``1 / band`` values.

    Distinct operations leave gaps in the sorted latencies.  A single
    order statistic next to a gap jumps across it whenever noise reorders
    two neighbours; the mean of the band moves with them smoothly."""
    ordered = sorted(values)
    center = max(0, math.ceil(q * len(ordered)) - 1)
    half = int(band * len(ordered))
    return statistics.fmean(ordered[max(0, center - half) : center + half + 1])


def end_to_end(run) -> dict[str, tuple[float, str]]:
    """Wall times at the calibration's reference speed (calibrate.py)."""
    passes = run.measured(traced=False)
    first = passes[0]
    attempted = sum(p.attempted for p in passes)
    # A median over one operation's repetitions, or over the pooled
    # samples, jumps between neighbouring operations' clusters from run to
    # run; a per-operation mean does not.
    wall = operation_latencies(passes, "reference_latencies")
    return {
        "setup_s": (statistics.median(run.reference_setup_seconds), "s"),
        "throughput_qps": (attempted / sum(p.reference_wall for p in passes), "ops/s"),
        "latency_p50_ms": (banded_percentile(wall, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (banded_percentile(wall, 0.90) * 1e3, "ms"),
        "ok_frac": (1.0 - sum(len(p.not_ok) for p in passes) / attempted, "ratio"),
        "accepted_frac": (sum(p.accepted for p in passes) / attempted, "ratio"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
        "sim_ship_s": (first.sim_ship_s, "sim_s"),
        "logical_mb": (first.logical_bytes / 1e6, "MB"),
        "wire_mb": (first.wire_bytes / 1e6, "MB"),
        "sim_latency_p50_s": (percentile(first.sim_latencies, 0.50), "sim_s"),
        "sim_latency_p95_s": (percentile(first.sim_latencies, 0.95), "sim_s"),
    }


#: Per-layer metrics measured as span self time: name -> span names.
SPAN_METRICS = {
    "sql.bind_ms": ("Binder.bind_sql",),
    "optimizer.normalize_ms": ("optimizer.normalize",),
    "optimizer.annotate_ms": ("PlanAnnotator.annotate",),
    "optimizer.site_select_ms": ("SiteSelector.select",),
    "optimizer.guard_ms": ("validator.check_compliance",),
    "optimizer.plancache_ms": (
        "PlanCache.prepare",
        "PlanCache.lookup",
        "PlanCache.rebind",
    ),
    "policy.evaluate_ms": ("PolicyEvaluator.evaluate",),
    "execution.execute_ms": ("ExecutionEngine.execute",),
    "wire.encode_ms": ("wire.encode_ship",),
    "wire.decode_ms": ("ShipTransfer.decode_rows",),
    "scheduler.run_ms": ("FragmentScheduler.run",),
    "trace.emit_ms": ("TraceRecorder.emit",),
    "trace.serialize_ms": ("trace.serialize",),
    "trace.audit_ms": ("trace.audit",),
}

#: Per-layer counts taken as they are from each pass: name -> unit.
COUNT_METRICS = {
    "optimizer.memo_expressions": "count",
    "optimizer.memo_groups": "count",
    "optimizer.rule_firings": "count",
    "policy.evaluations": "count",
    "policy.expressions_scanned": "count",
    "policy.implication_checks": "count",
    "execution.nlj_rows_out": "count",
    "execution.rows_scanned": "count",
    "wire.chunks": "count",
    "scheduler.fragments": "count",
    "scheduler.transfer_attempts": "count",
    "scheduler.retry_wait_s": "sim_s",
    "recovery.failovers": "count",
    "recovery.chunk_resends": "count",
    "recovery.breaker_trips": "count",
    "recovery.breaker_fast_fails": "count",
    "server.queue_wait_s": "sim_s",
    "server.service_s": "sim_s",
    "trace.events": "count",
}

OPERATOR_METRICS = (
    "scan",
    "filter",
    "project",
    "hash_join",
    "nlj",
    "aggregate",
    "sort",
    "ship_op",
    "other",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(run, spans) -> dict[str, tuple[float, str]]:
    """Per-pass means over the traced passes."""
    from workloads import AUDIT_CATEGORIES

    traced = run.measured(traced=True)
    untraced = run.measured(traced=False)
    n = len(traced)
    first = traced[0]
    counts = first.counts
    self_seconds: Counter = Counter()
    for pass_ in traced:
        start, end = pass_.spans
        self_seconds.update(spans.self_seconds(start, end))
    metrics: dict[str, tuple[float, str]] = {}
    for name, span_names in SPAN_METRICS.items():
        metrics[name] = (sum(self_seconds[s] for s in span_names) * 1e3 / n, "ms")
    for kind in OPERATOR_METRICS:
        seconds = sum(p.op_seconds[kind] for p in traced)
        metrics[f"execution.{kind}_ms"] = (seconds * 1e3 / n, "ms")
    for name, unit in COUNT_METRICS.items():
        metrics[name] = (float(counts[name]), unit)
    for category in AUDIT_CATEGORIES:
        name = f"trace.audit_violations.{category}"
        metrics[name] = (float(counts[name]), "count")
    metrics["optimizer.plancache_hit_ratio"] = (
        _ratio(counts["optimizer.plancache_hits"], counts["optimizer.plancache_lookups"]),
        "ratio",
    )
    metrics["policy.implication_cache_hit_ratio"] = (
        _ratio(counts["policy.implication_cache_hits"], counts["policy.implication_checks"]),
        "ratio",
    )
    metrics["wire.ratio"] = (_ratio(first.wire_bytes, first.logical_bytes), "ratio")
    metrics["setup.datagen_s"] = (spans.total_seconds("setup.datagen"), "s")
    metrics["setup.policies_s"] = (spans.total_seconds("setup.policies"), "s")
    metrics["workload.accepted"] = (float(first.accepted), "count")
    metrics["workload.rejected"] = (float(first.attempted - first.accepted), "count")
    metrics["workload.nlj_share"] = (
        _ratio(counts["workload.nlj_plans"], first.accepted),
        "ratio",
    )
    metrics["workload.plancache_hit_share"] = (
        _ratio(counts["workload.dispatched_cache_hits"], counts["workload.dispatched"]),
        "ratio",
    )
    metrics["workload.faulted_link_share"] = (
        _ratio(counts["workload.dispatched_faulted"], counts["workload.dispatched"]),
        "ratio",
    )
    # At the calibration's reference speed, like ``throughput_qps``.
    traced_qps = sum(p.attempted for p in traced) / sum(p.reference_wall for p in traced)
    untraced_qps = sum(p.attempted for p in untraced) / sum(
        p.reference_wall for p in untraced
    )
    metrics["trace.traced_qps"] = (traced_qps, "ops/s")
    metrics["trace.untraced_qps"] = (untraced_qps, "ops/s")
    metrics["trace.overhead_frac"] = (untraced_qps / traced_qps - 1.0, "ratio")
    return metrics


def determinism_digest(run) -> str:
    """Digest of everything that must repeat exactly for one seed."""
    first = run.passes[0]
    payload = repr((first.fingerprint, sorted(first.counts.items()), sorted(first.not_ok.items())))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def report(run, metrics: dict[str, tuple[float, str]], traced: bool) -> None:
    from calibrate import REFERENCE_SECONDS

    measured = run.measured(traced)
    first = run.passes[0]
    print(
        f"workload {run.workload} seed {run.seed}: {len(run.passes)} passes, "
        f"{len(measured)} measured, {sum(p.attempted for p in measured)} operations"
    )
    print(
        f"  accepted {first.accepted} / rejected {first.attempted - first.accepted} "
        f"per pass; not ok {len(first.not_ok)} per pass"
    )
    counts = first.counts
    print(
        f"  shares per pass: nested-loop-join plans {counts['workload.nlj_plans']}"
        f"/{first.accepted} accepted; plan-cache hits "
        f"{counts['workload.dispatched_cache_hits']}/{counts['workload.dispatched']} "
        f"dispatched; faulted-link plans {counts['workload.dispatched_faulted']}"
        f"/{counts['workload.dispatched']} dispatched"
    )
    reasons = Counter(reason.split(":", 1)[0] for reason in first.not_ok.values())
    for reason, count in sorted(reasons.items()):
        print(f"  not ok per pass: {count} x {reason}")
    for label, reason in sorted(set(f for p in run.passes for f in p.failures)):
        print(f"  FAILED {label}: {reason}")
    if run.nondeterministic:
        print(f"  NONDETERMINISTIC: {run.nondeterministic}")
    print(f"  determinism digest {determinism_digest(run)}")
    if not traced:
        # The same wall times as measured, before calibration.
        wall = operation_latencies(measured, "wall_latencies")
        calibrator = run.calibrator
        print(
            f"  as measured: setup {statistics.median(run.setup_seconds):.4g} s, "
            f"{sum(p.attempted for p in measured) / sum(p.wall for p in measured):.4g} ops/s, "
            f"p50 {banded_percentile(wall, 0.50) * 1e3:.4g} ms, "
            f"p90 {banded_percentile(wall, 0.90) * 1e3:.4g} ms; "
            f"{len(calibrator.durations)} calibration slices, mean "
            f"{calibrator.mean_seconds() * 1e3:.4g} ms (reference "
            f"{REFERENCE_SECONDS * 1e3:.4g} ms)"
        )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"error: no program sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(HERE)]
    from spans import SpanRecorder
    from workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    spans = SpanRecorder() if args.trace else None
    run = run_workload(args.workload, args.seed, args.seconds, spans)

    metrics = per_layer(run, spans) if spans is not None else end_to_end(run)
    measured = run.measured(traced=spans is not None)
    failed = sum(len(p.failures) for p in measured)
    finite = all(math.isfinite(value) for value, _ in metrics.values())
    report(run, metrics, spans is not None)
    if spans is not None:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans.write(str(out / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    if not finite:
        print("  a metric is not finite (see the report above)")
        metrics = {k: (v if math.isfinite(v) else -1.0, u) for k, (v, u) in metrics.items()}
    result = {
        "correct": failed == 0 and run.nondeterministic is None and finite,
        "attempted": sum(p.attempted for p in measured),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
