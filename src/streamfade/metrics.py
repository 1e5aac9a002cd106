"""Figures of merit: average throughput and average maximum inter-decoding delay.

A trial's decode vector v (one bit per message) reduces to two integers:
the number of decoded messages and the longest run of consecutive zeros,
i.e. the longest playback freeze measured in channel blocks.  Their means
and standard errors over trials are kept by `engine.Accumulator`.
"""
from __future__ import annotations

import numpy as np

from .channel import scan_blocks


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


def max_zero_run_at(bits, slots, length: int, last: np.ndarray | None = None) -> np.ndarray:
    """Row-wise longest zero-run of length-`length` bit vectors that are zero
    everywhere except at the increasing positions `slots`, where row i holds
    `bits[i]` (shape (trials, len(slots))).

    A run ends on the slot before a listed position or on the last slot; its
    length is that end minus the last one before it, which a running maximum
    over the columns gives (`channel.scan_blocks`, in the layout of `bits`
    unless `last`, an int32 (trials, len(slots) + 1) array, is given to hold it).
    """
    bits = np.asarray(bits, dtype=bool)
    n, k = bits.shape
    # last[:, j] = 1 + position of the last one in columns < j, or 0 if none
    if last is None:
        last = np.empty_like(bits, dtype=np.int32, shape=(n, k + 1))  # in the layout of `bits`
    last[:, 0] = 0
    np.multiply(bits, np.asarray(slots, dtype=np.int32) + 1, out=last[:, 1:])
    scan_blocks(np.maximum, last, out=last)
    # one past the last slot of each candidate run
    ends = np.append(np.asarray(slots, dtype=np.int32), np.int32(length))
    np.subtract(ends, last, out=last)
    return last.max(axis=1).astype(np.int64)


def max_zero_run_rows(v: np.ndarray, last: np.ndarray | None = None) -> np.ndarray:
    """Row-wise longest zero-run for a (trials, M) boolean matrix; `last` as
    for `max_zero_run_at`."""
    arr = np.asarray(v, dtype=bool)
    m = arr.shape[1]
    return max_zero_run_at(arr, np.arange(m), m, last)
