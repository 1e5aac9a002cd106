"""Figures of merit: average throughput and average maximum inter-decoding delay.

A trial's decode vector v (one bit per message) reduces to two integers:
the number of decoded messages and the longest run of consecutive zeros,
i.e. the longest playback freeze measured in channel blocks.  Their means
and standard errors over trials are kept by `engine.Accumulator`.
"""
from __future__ import annotations

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
