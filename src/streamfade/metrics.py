"""Figures of merit: average throughput and average maximum inter-decoding delay.

A trial's decode vector v (one bit per message) reduces to two integers:
the number of decoded messages and the longest run of consecutive zeros,
i.e. the longest playback freeze measured in channel blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def max_zero_run(v) -> int:
    """Longest run of consecutive zeros; 0 for all-ones, len(v) for all-zeros."""
    arr = np.asarray(v).astype(bool)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D bit vector")
    best = run = 0
    for bit in arr:
        run = 0 if bit else run + 1
        if run > best:
            best = run
    return best


def max_zero_run_at(bits, slots, length: int) -> np.ndarray:
    """Row-wise longest zero-run of length-`length` bit vectors that are zero
    everywhere except at the increasing positions `slots`, where row i holds
    `bits[i]` (shape (trials, len(slots))).

    A run ends on the slot before a listed position or on the last slot; its
    length is that end minus the last one before it, which a running maximum
    over the columns gives without a per-column loop.
    """
    bits = np.asarray(bits, dtype=bool)
    n, k = bits.shape
    # last[:, j] = 1 + position of the last one in columns < j, or 0 if none
    last = np.zeros((n, k + 1), dtype=np.int32)
    np.multiply(bits, np.asarray(slots, dtype=np.int32) + 1, out=last[:, 1:])
    np.maximum.accumulate(last, axis=1, out=last)
    # one past the last slot of each candidate run
    ends = np.append(np.asarray(slots, dtype=np.int32), np.int32(length))
    np.subtract(ends, last, out=last)
    return last.max(axis=1).astype(np.int64)


def max_zero_run_rows(v: np.ndarray) -> np.ndarray:
    """Row-wise longest zero-run for a (trials, M) boolean matrix."""
    arr = np.asarray(v, dtype=bool)
    m = arr.shape[1]
    return max_zero_run_at(arr, np.arange(m), m)


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial reduction of a decode vector."""

    decoded_count: int
    max_run0: int


def trial_metrics(v) -> TrialMetrics:
    arr = np.asarray(v).astype(bool)
    return TrialMetrics(int(arr.sum()), max_zero_run(arr))


@dataclass(frozen=True)
class AggregateMetrics:
    """Monte Carlo summary over trials.

    Throughput is reported both in bits per channel use (rate * decoded / M)
    and as the raw average number of decoded messages; eta_hist[m] estimates
    the probability of decoding exactly m messages.
    """

    avg_throughput_bpcu: float
    avg_decoded_msgs: float
    avg_max_delay_blocks: float
    stderr_throughput: float
    stderr_delay: float
    eta_hist: np.ndarray
    trials: int


def aggregate_arrays(
    counts: np.ndarray, delays: np.ndarray, rate: float, blocks: int
) -> AggregateMetrics:
    counts = np.asarray(counts, dtype=np.int64)
    delays = np.asarray(delays, dtype=np.int64)
    n = counts.size
    if n == 0:
        raise ValueError("aggregate requires at least one trial")
    if delays.size != n:
        raise ValueError("counts and delays must have equal length")
    scale = rate / blocks
    mean_count = counts.mean()
    mean_delay = delays.mean()
    if n > 1:
        se_count = counts.std(ddof=1) / np.sqrt(n)
        se_delay = delays.std(ddof=1) / np.sqrt(n)
    else:
        se_count = se_delay = 0.0
    hist = np.bincount(counts, minlength=blocks + 1).astype(np.float64) / n
    return AggregateMetrics(
        avg_throughput_bpcu=float(scale * mean_count),
        avg_decoded_msgs=float(mean_count),
        avg_max_delay_blocks=float(mean_delay),
        stderr_throughput=float(scale * se_count),
        stderr_delay=float(se_delay),
        eta_hist=hist,
        trials=int(n),
    )


def aggregate(trials: Sequence[TrialMetrics] | Iterable[TrialMetrics], rate: float, blocks: int) -> AggregateMetrics:
    items = list(trials)
    if not items:
        raise ValueError("aggregate requires at least one trial")
    counts = np.array([t.decoded_count for t in items], dtype=np.int64)
    delays = np.array([t.max_run0 for t in items], dtype=np.int64)
    return aggregate_arrays(counts, delays, rate, blocks)
