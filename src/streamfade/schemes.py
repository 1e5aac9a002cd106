"""The four time-sharing transmission schemes as explicit allocation matrices.

alpha[m-1, t-1] is the fraction of block t's channel uses spent on message m.
Nothing is ever sent for a message after its deadline (t > m), and every
block's fractions sum to one (or zero if the block carries no message).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import engine
from .channel import ChannelParams, ChannelTrace


class SchemeKind(Enum):
    MT = "mt"    # memoryless: message t only in block t
    ETS = "ets"  # equal time-sharing among all unexpired messages
    PB = "pb"    # pre-buffering: only the last B messages are sent
    WTS = "wts"  # windowed: one message per window of B blocks


class Objective(Enum):
    MAX_THROUGHPUT = "throughput"
    MIN_MAX_DELAY = "delay"


@dataclass(frozen=True)
class SchemeSpec:
    """A scheme choice; `window` is B for PB (buffer depth) and wTS (window)."""

    kind: SchemeKind
    window: int | None = None

    def __post_init__(self):
        if self.kind in (SchemeKind.PB, SchemeKind.WTS):
            if self.window is None or int(self.window) != self.window or self.window < 1:
                raise ValueError(f"{self.kind.value} requires a positive integer window")
        elif self.window is not None:
            raise ValueError(f"{self.kind.value} takes no window parameter")

    @classmethod
    def mt(cls):
        return cls(SchemeKind.MT)

    @classmethod
    def ets(cls):
        return cls(SchemeKind.ETS)

    @classmethod
    def pb(cls, window: int):
        return cls(SchemeKind.PB, window)

    @classmethod
    def wts(cls, window: int):
        return cls(SchemeKind.WTS, window)

    def validate_for(self, blocks: int) -> None:
        if self.window is not None and self.window > blocks:
            raise ValueError(
                f"window {self.window} exceeds the number of blocks {blocks}"
            )


def build_allocation(spec: SchemeSpec, blocks: int) -> np.ndarray:
    """Construct the (blocks, blocks) time-fraction matrix for a scheme."""
    spec.validate_for(blocks)
    m = blocks
    alpha = np.zeros((m, m))
    if spec.kind is SchemeKind.MT:
        np.fill_diagonal(alpha, 1.0)
    elif spec.kind is SchemeKind.ETS:
        for j in range(m):  # block j+1 shared by messages j+1..M
            alpha[j:, j] = 1.0 / (m - j)
    elif spec.kind is SchemeKind.PB:
        b = spec.window
        first = m - b  # transmitted rows are first..m-1 (messages M-B+1..M)
        alpha[first:, : first + 1] = 1.0 / b
        for j in range(first + 1, m):  # later blocks shared by survivors
            alpha[j:, j] = 1.0 / (m - j)
    else:  # WTS
        b = spec.window
        windows = -(-m // b)
        for k in range(1, windows + 1):
            msg = min(k * b, m)
            alpha[msg - 1, (k - 1) * b : msg] = 1.0
    return alpha


def transmitted_mask(alpha: np.ndarray) -> np.ndarray:
    return alpha.sum(axis=1) > 0


def _capacities(trace) -> np.ndarray:
    if isinstance(trace, ChannelTrace):
        return trace.capacities
    return np.asarray(trace, dtype=np.float64)


def accumulate_mi(alpha: np.ndarray, trace) -> np.ndarray:
    """Total mutual information per message (zero for untransmitted ones)."""
    caps = _capacities(trace)
    if caps.shape[0] != alpha.shape[1]:
        raise ValueError("trace length does not match the allocation matrix")
    return alpha @ caps


def decode(alpha: np.ndarray, trace, rate: float) -> np.ndarray:
    """Decode vector: transmitted messages whose accumulated MI reaches rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return (accumulate_mi(alpha, trace) >= rate) & transmitted_mask(alpha)


def optimize_window(
    kind: SchemeKind,
    objective: Objective,
    params: ChannelParams,
    trials: int,
    seed: int,
    threads: int = 1,
) -> tuple[int, float]:
    """Exhaustive window sweep 1..M on common random numbers.

    Returns (best window, estimated objective value); value is mean decoded
    count for throughput and mean longest zero-run (in blocks) for delay.
    Ties break toward the smaller window.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if kind is SchemeKind.PB:
        # Per realization delay = M - count, so one sweep serves both aims.
        tables = engine.sample_point(params, {}, trials, seed, threads, pb_table=True)
        window, mean_count = engine.optimize_pb_window(tables.pb_counts, trials)
        if objective is Objective.MAX_THROUGHPUT:
            return window, mean_count
        return window, params.blocks - mean_count
    if kind is SchemeKind.WTS:
        tables = engine.sample_point(params, {}, trials, seed, threads, wts_table=True)
        return engine.optimize_wts_window(tables.wts, objective is Objective.MAX_THROUGHPUT)
    raise ValueError("only PB and wTS have a window to optimize")
