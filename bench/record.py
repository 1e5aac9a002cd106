"""Record the reference CSVs that check.py compares against.

Run from the repository root: `python3 bench/record.py`.  It runs every
workload's command line at DEFAULT_SEED and writes `reference/<name>.csv`,
plus, for workloads whose rows carry wTS bounds, a table of those bounds for
every window B in 1..M (`reference/<name>-wts-bounds.csv`), so that rows at
any seed can be checked whatever window the optimizer picks.

Re-record only when a change to the program is meant to change its output,
and say so where the change is described.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from run import child_env  # noqa: E402


def wts_bounds_table(messages) -> str:
    from streamfade.channel import ChannelParams, window_decode_prob
    from streamfade.runstats import wts_delay_bounds

    lines = ["M,B,lower,upper"]
    for m in messages:
        params = ChannelParams(snr_db=-5.0, rate=1.0, blocks=m)
        for b in range(1, m + 1):
            bounds = wts_delay_bounds(m, b, window_decode_prob(params, b))
            lines.append(f"{m},{b},{bounds.delay_lower:.9g},{bounds.delay_upper:.9g}")
    return "\n".join(lines) + "\n"


def main() -> int:
    out = BENCH / "reference"
    out.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        csv_path = out / f"{w.name}.csv"
        cmd = [sys.executable, "-m", "streamfade.cli", *w.argv(DEFAULT_SEED, str(csv_path))]
        subprocess.run(cmd, check=True, env=child_env(ROOT / "src"), cwd=ROOT)
        if any(s in ("T-wTS", "D-wTS") for s in w.schemes):
            (out / f"{w.name}-wts-bounds.csv").write_text(
                wts_bounds_table(w.messages), encoding="utf-8"
            )
        print(f"recorded {csv_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
