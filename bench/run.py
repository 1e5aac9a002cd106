"""streamfade benchmark: one workload, a closed loop of fresh CLI processes.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy.  Each timed invocation is a
new interpreter running one `streamfade` command (bench/child.py) with
`--threads 1`, started only after the previous one ended, so the caches of
the program start cold as they do for a user.  A warm-up spawn, the set-up
probes and the invocations together take at most `--seconds` (after the
bytecode is compiled); each invocation's CSV is checked (check.py).

With `--trace 0` the end-to-end metrics are reported:

  run_s        wall time from `streamfade.cli` imported to the CSV written,
               mean over the invocations
  setup_s      process spawn to `streamfade.cli` imported, median over the
               invocations and SETUP_PROBES import-only spawns
  cpu_s        user + sys CPU time of the invocation's own process, mean
               over the invocations
  peak_rss_mb  peak resident set of that process, in 2**20 bytes, median

`run_s` and `cpu_s` are means, not medians: on a shared host the CPU runs
at a fast or a slow speed for seconds at a time, so per-invocation times
fall into two clusters, and a median over a run's few invocations jumps
between them while the mean follows the share of time spent in each.

`cpu_s` and `peak_rss_mb` come from `os.wait4` on that one child, not from
RUSAGE_CHILDREN, which keeps the maximum over all children.

With `--trace 1` traced and untraced invocations alternate and the per-layer
metrics of spans.py are reported: self time and calls per span (medians over
the traced invocations), the counts, and the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` (CSV rows checked and rows that failed)
and `metrics`.  The lines before it give each metric with its unit, the
error rate, the machine and the seed; bench/_work/ keeps every report.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median

import spans
from check import Checker
from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 2
# No invocation may start if it could end past this many seconds into the
# run, and none may run past it: a run must end well within 180 s.
HARD_LIMIT_S = 150.0


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    # One process on one core: keep BLAS and OpenMP from adding threads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Sample:
    wall_s: float  # spawn to reaped, as the parent saw it
    exit: int
    report: dict | None
    setup_s: float | None = None
    run_s: float | None = None
    cpu_s: float | None = None
    peak_rss_mb: float | None = None


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for `proc` (killing it at `deadline`); return its exit code and rusage."""
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def spawn(work: Path, env: dict, run_id: str, trace: str, cli_args, deadline: float) -> Sample:
    report_path = work / f"{run_id}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(report_path), trace, run_id, "--", *cli_args]
    with open(work / f"{run_id}.err", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=work, stdout=subprocess.DEVNULL, stderr=err)
        code, usage = _reap(proc, deadline)
    sample = Sample(wall_s=time.monotonic() - t0, exit=code, report=None)
    if code == 0 and report_path.exists():
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if Path(report["streamfade"]).is_relative_to(ROOT / "src"):
            sample.report = report
            sample.setup_s = report["t_imported"] - t0
            sample.run_s = report["t_done"] - report["t_start"]
            sample.cpu_s = usage.ru_utime + usage.ru_stime
            sample.peak_rss_mb = usage.ru_maxrss / 1024.0
    return sample


def _failure_reason(work: Path, run_id: str, sample: Sample) -> str:
    if sample.exit == 0:
        return "no report, or streamfade imported from outside src/"
    lines = (work / f"{run_id}.err").read_text(encoding="utf-8", errors="replace").split("\n")
    last = [line for line in lines if line.strip()][-1:]
    return f"exit {sample.exit}: {last[0] if last else 'no message'}"


def trace_metrics(workload, traced, untraced) -> dict:
    summaries = [spans.summarise(s.report["trace"]) for s in traced]
    metrics = {k: median([s[k] for s in summaries]) for k in summaries[0]}
    metrics["channel.sample_amplification"] = metrics["channel.rows_sampled"] / (
        workload.trials * len(workload.messages)
    )
    metrics["cli.import_s"] = median(
        [s.report["t_imported"] - s.report["t_import"] for s in traced + untraced]
    )
    metrics["trace.run_s"] = mean([s.run_s for s in traced])
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - mean([s.run_s for s in untraced])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "streamfade" / "cli.py").is_file():
        print(f"no streamfade source under {src}; run from a source checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    checker = Checker(workload)
    run_start = time.monotonic()
    deadline = run_start + HARD_LIMIT_S
    work = BENCH / "_work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(src)

    # Bytecode first, then one untimed import to warm the file cache.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(src), str(BENCH)],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    # The warm-up, the probes and the invocations all fit in `--seconds`: an
    # invocation starts only if one as long as the longest so far would end
    # in time.
    t_begin = time.monotonic()
    spawn(work, env, "warmup", "0", [], deadline)
    setups = [spawn(work, env, f"probe{i}", "0", [], deadline).setup_s for i in range(SETUP_PROBES)]

    kinds = ("1", "0") if args.trace == "1" else ("0",)
    samples: dict[str, list[Sample]] = {k: [] for k in kinds}
    attempted, failures = 0, []
    longest = 0.0
    i = 0
    while i < len(kinds) or (
        time.monotonic() + longest - t_begin <= args.seconds
        and time.monotonic() + longest < deadline
    ):
        kind = kinds[i % len(kinds)]
        run_id = f"inv{i}-trace{kind}"
        csv_path = work / f"{run_id}.csv"
        sample = spawn(work, env, run_id, kind, workload.argv(args.seed, str(csv_path)), deadline)
        longest = max(longest, sample.wall_s)
        i += 1
        attempted += workload.rows
        if sample.report is None:
            failures += [_failure_reason(work, run_id, sample)] * workload.rows
            continue
        failures += checker.failed_rows(csv_path.read_text(encoding="utf-8"), args.seed)
        samples[kind].append(sample)
        setups.append(sample.setup_s)

    ok = [s for k in kinds for s in samples[k]]
    if not all(samples[k] for k in kinds):
        print(f"{workload.name}: no invocation succeeded: {failures[:1]}", file=sys.stderr)
        return 1
    setups = [s for s in setups if s is not None]
    if args.trace == "1":
        metrics = trace_metrics(workload, samples["1"], samples["0"])
    else:
        metrics = {
            "run_s": mean([s.run_s for s in ok]),
            "setup_s": median(setups),
            "cpu_s": mean([s.cpu_s for s in ok]),
            "peak_rss_mb": median([s.peak_rss_mb for s in ok]),
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = ok[0].report
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": int(args.trace),
        "invocations": i,
        "setup_samples": len(setups),
        "nproc": len(os.sched_getaffinity(0)),
        "python": report["python"],
        "numpy": report["numpy"],
        "scipy": report["scipy"],
        "error_rate": len(failures) / attempted,
        "failures": failures[:5],
        "absent": report.get("trace", {}).get("absent", []),
        "run_s_samples": [s.run_s for s in ok],
        "setup_s_samples": setups,
    }
    for name, value in metrics.items():
        print(f"{workload.name:13} {name:44} {value:14.6f} {units[name]}")
    print(f"{workload.name:13} {'error_rate':44} {info['error_rate']:14.6f} ratio")
    print(json.dumps(info))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (work / "result.json").write_text(json.dumps({"info": info, "result": result}), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
