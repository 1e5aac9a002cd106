"""Correctness check of one workload's CSV output.

Every row is checked against the reference CSVs recorded at DEFAULT_SEED
(`record.py` writes them) and against invariants that hold at any seed:

* structure: header, row count, sweep value and scheme label of each row,
  the `trials` and `seed` columns;
* analytic cells (seed-free closed forms) agree with the reference within
  1e-9 relative plus one unit in the ninth printed digit, so a last-digit
  change passes; wTS bounds are looked up by the row's own window B;
* at DEFAULT_SEED every other cell matches the reference byte for byte;
* at each sweep point the IT row decodes at least as many messages as every
  scheme and has at most every scheme's delay;
* on eTS and PB rows, avg_max_delay + avg_decoded_msgs == M to the
  nine-digit rounding of the CSV;
* MT simulated throughput and delay lie within 5 stderr of the exact values.

A missing or unreadable row fails every expected row.
"""
from __future__ import annotations

import csv
import io
import math
from pathlib import Path

from workloads import DEFAULT_SEED, Workload

REFERENCE = Path(__file__).resolve().parent / "reference"
ANALYTIC = ("analytic_throughput", "analytic_delay_lower", "analytic_delay_upper")
SAMPLED = (
    "avg_throughput_bpcu", "avg_decoded_msgs", "avg_max_delay",
    "stderr_throughput", "stderr_delay",
)
WTS_LABELS = ("T-wTS", "D-wTS")


def read_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader.fieldnames or []), list(reader)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def analytic_close(got: str, ref: str) -> bool:
    if got == "" or ref == "":
        return got == ref
    a, b = float(got), float(ref)
    if b == 0.0:
        return a == 0.0
    last_digit = 10.0 ** (math.floor(math.log10(abs(b))) - 8)
    return abs(a - b) <= 1e-9 * abs(b) + last_digit


class Checker:
    """Holds one workload's references; `failed_rows` checks one CSV."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.header, self.reference = read_csv(
            (REFERENCE / f"{workload.name}.csv").read_text(encoding="utf-8")
        )
        self.wts_bounds = {}
        bounds_path = REFERENCE / f"{workload.name}-wts-bounds.csv"
        if bounds_path.exists():
            for row in read_csv(bounds_path.read_text(encoding="utf-8"))[1]:
                key = (int(row["M"]), int(row["B"]))
                self.wts_bounds[key] = (row["lower"], row["upper"])
        self.mt_reference = {
            row["sweep_var"]: row for row in self.reference if row["scheme"] == "MT"
        }

    def failed_rows(self, text: str, seed: int) -> list[str]:
        """One message per failed row; every row fails if any is missing."""
        w = self.workload
        try:
            header, rows = read_csv(text)
        except csv.Error as exc:
            return [f"unreadable CSV: {exc}"] * w.rows
        if header != self.header:
            return [f"header {header} != reference"] * w.rows
        if len(rows) != w.rows:
            return [f"{len(rows)} rows, expected {w.rows}"] * w.rows
        failures = []
        for i in range(len(rows)):
            problem = self._row_problem(i, rows, seed)
            if problem:
                failures.append(f"row {i + 2}: {problem}")
        return failures

    def _row_problem(self, i: int, rows: list[dict], seed: int) -> str | None:
        w = self.workload
        m = w.messages[i // len(w.schemes)]
        row, ref = rows[i], self.reference[i]
        if row["sweep_var"] != _fmt(m) or row["scheme"] != w.schemes[i % len(w.schemes)]:
            return f"unexpected point/scheme {row['sweep_var']},{row['scheme']}"
        if row["trials"] != str(w.trials) or row["seed"] != str(seed):
            return "trials or seed column"
        try:
            problem = self._analytic_problem(m, row, ref)
            if problem is None:
                problem = self._sampled_problem(i, m, rows)
        except (ValueError, KeyError) as exc:
            return f"bad cell: {exc}"
        if problem is None and seed == DEFAULT_SEED:
            for col in self.header:
                if col not in ANALYTIC and col != "seed" and row[col] != ref[col]:
                    return f"{col} {row[col]} != reference {ref[col]}"
        return problem

    def _analytic_problem(self, m: int, row: dict, ref: dict) -> str | None:
        scheme, window = row["scheme"], row["B"]
        if scheme == "MT":
            ref = self.mt_reference[_fmt(m)]
            expected = tuple(ref[c] for c in ANALYTIC)
        elif scheme in WTS_LABELS:
            if not 1 <= int(window) <= m:
                return f"window {window} outside 1..{m}"
            expected = ("", *self.wts_bounds[(m, int(window))])
        else:
            expected = ("", "", "")
        for col, want in zip(ANALYTIC, expected):
            if not analytic_close(row[col], want):
                return f"{col} {row[col]} != reference {want}"
        return None

    def _sampled_problem(self, i: int, m: int, rows: list[dict]) -> str | None:
        w = self.workload
        row = rows[i]
        scheme = row["scheme"]
        vals = {c: float(row[c]) for c in SAMPLED}
        if not all(math.isfinite(v) for v in vals.values()):
            return "non-finite sampled cell"
        decoded, delay = vals["avg_decoded_msgs"], vals["avg_max_delay"]
        if scheme == "PB" and not 1 <= int(row["B"]) <= m:
            return f"window {row['B']} outside 1..{m}"
        if scheme in ("eTS", "PB"):
            if abs(decoded + delay - m) > 1e-8 * m:
                return f"delay + decoded = {decoded + delay} != M"
        if scheme == "MT":
            thr, lo = float(row["analytic_throughput"]), float(row["analytic_delay_lower"])
            if abs(vals["avg_throughput_bpcu"] - thr) > 5 * vals["stderr_throughput"]:
                return "MT throughput more than 5 stderr from the exact value"
            if abs(delay - lo) > 5 * vals["stderr_delay"]:
                return "MT delay more than 5 stderr from the exact value"
        point = i - i % len(w.schemes)
        it = rows[point + w.schemes.index("IT")]
        if float(it["avg_decoded_msgs"]) < decoded or float(it["avg_max_delay"]) > delay:
            return "IT bound does not dominate this scheme"
        return None
