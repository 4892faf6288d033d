"""Steadiness and determinism check for the benchmark.

    python3 perfbench/steady.py --workload tpch-serve --seeds 1-5
    python3 perfbench/steady.py --workload all --seeds 1-10 --repeat 1

Runs ``perfbench/run.py`` once per seed (one process at a time, from the
checkout root) and reports, for every end-to-end metric, the median and
the distance between the first and third quartile as a share of the
median.  A spread above the metric's bound in BENCHMARK.json fails; one
above a third of it is flagged.  ``setup_s`` is reported but not judged.

With ``--repeat N`` seed N is run a second time, and every simulated-clock
metric, every count metric and the determinism digest of the two runs
must be identical.  A mismatch fails the check; it is not averaged away.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics that depend only on the simulated clock or on counts.
EXACT = (
    "ok_frac",
    "accepted_frac",
    "sim_ship_s",
    "logical_mb",
    "wire_mb",
    "sim_latency_p50_s",
    "sim_latency_p95_s",
)


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, str]:
    """(last-line JSON, determinism digest) of one run."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    digest = next(line.split()[-1] for line in lines if "determinism digest" in line)
    return json.loads(lines[-1]), digest


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def check(workload: str, seeds: list[int], repeat: int | None, config: dict) -> bool:
    ok = True
    values: dict[str, list[float]] = {}
    runs = {}
    for seed in seeds:
        result, digest = run_once(workload, seed, config["run_seconds"])
        runs[seed] = (result, digest)
        if not result["correct"]:
            print(f"{workload} seed {seed}: correct is false")
            ok = False
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        wall = ", ".join(
            f"{name} {result['metrics'][name]['value']:.4g}"
            for name in ("throughput_qps", "latency_p50_ms", "latency_p90_ms")
        )
        print(f"{workload} seed {seed}: digest {digest}; {wall}", flush=True)
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    print(f"{'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds[name]
        verdict = ""
        if name != "setup_s":
            if spread > bound:
                verdict = "OVER BOUND"
                ok = False
            elif spread > bound / 3:
                verdict = "above a third of bound"
        print(f"{name:20s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3%} {bound:6.2f} {verdict}")
    if repeat is not None:
        first, first_digest = runs.get(repeat) or run_once(workload, repeat, config["run_seconds"])
        again, again_digest = run_once(workload, repeat, config["run_seconds"])
        for name in EXACT:
            if first["metrics"][name]["value"] != again["metrics"][name]["value"]:
                print(f"NONDETERMINISTIC {workload} seed {repeat}: {name} differs")
                ok = False
        if first_digest != again_digest:
            print(f"NONDETERMINISTIC {workload} seed {repeat}: determinism digest differs")
            ok = False
        print(f"{workload} seed {repeat} repeated: digest {again_digest}")
    return ok


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--repeat", type=int, default=None, metavar="SEED")
    args = parser.parse_args()
    workloads = names if args.workload == "all" else [args.workload]
    ok = True
    for workload in workloads:
        ok &= check(workload, seed_range(args.seeds), args.repeat, config)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
