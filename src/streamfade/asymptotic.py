"""Large-M behavior of pre-buffering: the critical transmitted fraction.

Transmitting a fraction alpha of the messages succeeds (all of them decode)
with probability tending to 1 when alpha < 1/(R/C_mean + 1) and to 0 above
it.  The earliest-deadline transmitted message accumulates the least mutual
information, so "decode all" reduces to a single sample-mean threshold test.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .channel import ChannelParams, mean_capacity, sample_capacity_matrix
from .engine import chunk_ranges, optimize_pb_window, sample_point


def alpha_opt(params: ChannelParams) -> float:
    """Critical transmitted fraction 1 / (rate / mean_capacity + 1)."""
    return 1.0 / (params.rate / mean_capacity(params) + 1.0)


@dataclass(frozen=True)
class AsymptoticReport:
    alpha_opt: float
    mean_capacity: float
    window_below: int
    window_above: int
    decode_all_prob_below: float
    decode_all_prob_above: float
    blocks_used: int
    trials: int


def decode_all_probability(
    params: ChannelParams, window: int, trials: int, seed: int
) -> float:
    """Pr{every transmitted message decodes} for pre-buffering depth `window`.

    Exact shortcut: the first transmitted message's MI is the minimum, equal
    to the prefix capacity sum over blocks 1..M-B+1 divided by B.
    """
    m = params.blocks
    if not (1 <= window <= m):
        raise ValueError("window out of range")
    hits = 0
    for lo, hi in chunk_ranges(trials, m):
        caps = sample_capacity_matrix(params, seed, lo, hi)
        first_mi = caps[:, : m - window + 1].sum(axis=1) / window
        hits += int((first_mi >= params.rate).sum())
    return hits / trials


def verify_threshold(
    params: ChannelParams, blocks: int, delta: float, trials: int, seed: int
) -> AsymptoticReport:
    """Empirically probe both sides of the critical fraction at finite M."""
    if blocks < 500:
        raise ValueError("threshold verification needs blocks >= 500")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    a_opt = alpha_opt(params)
    if not (0.0 < delta < min(a_opt, 1.0 - a_opt)):
        raise ValueError(f"delta must lie in (0, {min(a_opt, 1.0 - a_opt):.4f})")
    point = replace(params, blocks=blocks)
    w_below = int(round((a_opt - delta) * blocks))
    w_above = int(round((a_opt + delta) * blocks))
    return AsymptoticReport(
        alpha_opt=a_opt,
        mean_capacity=mean_capacity(params),
        window_below=w_below,
        window_above=w_above,
        decode_all_prob_below=decode_all_probability(point, w_below, trials, seed),
        decode_all_prob_above=decode_all_probability(point, w_above, trials, seed),
        blocks_used=blocks,
        trials=trials,
    )


def optimal_prebuffer_fraction(
    params: ChannelParams, trials: int, seed: int
) -> tuple[int, float]:
    """Throughput-maximizing buffer depth and its fraction of the messages."""
    tables = sample_point(params, {}, trials, seed, pb_table=True)
    window, _ = optimize_pb_window(tables.pb_counts[0], trials)
    return window, window / params.blocks
