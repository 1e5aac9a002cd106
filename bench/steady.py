"""Steadiness test of the benchmark itself.

    python3 bench/steady.py

Runs bench/run.py RUNS times on every workload of BENCHMARK.json, each with
another seed (the reference seed first) and its `run_seconds`, and reports
for each end-to-end metric the spread of its values: the distance between
the first and third quartile as a share of the median.  Then it makes TRACED
traced runs per workload and checks that the counts in EXACT_COUNTS read the
same in every one of them.

Exits 1 if any run is incorrect, any count drifts between runs, or any
spread exceeds its bound in BENCHMARK.json; the spread should stay below a
third of the bound.
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
TRACED = 3
EXACT_COUNTS = (
    "channel.sample_amplification",
    "engine.evaluate_wts.calls",
    "metrics.zero_run_columns",
    "runstats.partial_fraction.builds",
    "runstats.matrix_power_fallbacks",
)


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = [DEFAULT_SEED, *range(1, RUNS)]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    report = {}
    for name in (w["name"] for w in spec["workloads"]):
        results = [bench_run(name, seed, spec["run_seconds"], 0) for seed in seeds]
        if not all(r["correct"] for r in results):
            print(f"{name}: incorrect output in {sum(not r['correct'] for r in results)} run(s)")
            ok = False
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            s = spread(values)
            flag = "ok" if s <= bound / 3 else ("WIDE" if s <= bound else "OVER")
            ok = ok and s <= bound
            print(
                f"{name:13} {metric:12} median {statistics.median(values):10.4f} "
                f"spread {s:7.4f}  bound {bound:5.3f}  {flag}"
            )
            report[f"{name}/{metric}"] = values
        counts = []
        for seed in seeds[:TRACED]:
            metrics = bench_run(name, seed, 1, 1)["metrics"]
            counts.append({c: metrics[c]["value"] for c in EXACT_COUNTS})
        drift = [c for c in EXACT_COUNTS if len({str(run[c]) for run in counts}) > 1]
        print(f"{name:13} counts {counts[0]} {'DRIFT in ' + str(drift) if drift else 'repeat exactly'}")
        ok = ok and not drift
    out = BENCH / "_work" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
