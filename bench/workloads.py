"""The benchmark's fixed workloads: one `streamfade` command line each.

Every workload runs at SNR -5 dB, rate 1 and `--threads 1`; only the seed
comes from the benchmark's `--seed` argument.  The reasons each workload
exists are recorded in BENCHMARK.json and README.md.
"""
from __future__ import annotations

from dataclasses import dataclass

# Seed of the recorded reference CSVs (also the CLI's own default seed).
DEFAULT_SEED = 12345

COMMON = ("--snr-db", "-5", "--rate", "1", "--threads", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    messages: tuple  # M of each sweep point, in CSV row order
    schemes: tuple  # labels of the rows at each point, in CSV row order
    trials: int

    def argv(self, seed: int, out_csv: str) -> list[str]:
        return [*self.args, *COMMON, "--seed", str(seed), "--out-csv", out_csv]

    @property
    def rows(self) -> int:
        return len(self.messages) * len(self.schemes)


SWEEP_M = Workload(
    name="sweep-m",
    args=(
        "sweep", "--variable", "messages", "--values", "8,16,24,32,40,48,56,64",
        "--scheme", "mt,ets,pb,twts,dwts", "--trials", "10000",
    ),
    messages=(8, 16, 24, 32, 40, 48, 56, 64),
    schemes=("MT", "eTS", "PB", "T-wTS", "D-wTS", "IT"),
    trials=10_000,
)

LONG_FILE = Workload(
    name="long-file",
    args=("simulate", "--messages", "2000", "--scheme", "ets,pb", "--trials", "1024"),
    messages=(2000,),
    schemes=("eTS", "PB", "IT"),
    trials=1024,
)

WORKLOADS = {w.name: w for w in (SWEEP_M, LONG_FILE)}
