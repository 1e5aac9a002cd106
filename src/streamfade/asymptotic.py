"""Large-M behavior of pre-buffering: the critical transmitted fraction.

Transmitting a fraction alpha of the messages succeeds (all of them decode)
with probability tending to 1 when alpha < 1/(R/C_mean + 1) and to 0 above
it.  The earliest-deadline transmitted message accumulates the least mutual
information, so "decode all" reduces to a single sample-mean threshold test.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .channel import (
    ChannelParams,
    Tile,
    mean_capacity_closed_form,
    row_blocks,
    sample_capacity_matrix,
)
from .engine import WORKSPACES, evaluate_pb, optimize_pb_window, sample_point


def alpha_opt(params: ChannelParams) -> float:
    """Critical transmitted fraction 1 / (rate / C + 1), C the closed-form
    mean capacity."""
    return 1.0 / (params.rate / mean_capacity_closed_form(params) + 1.0)


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

    PB decodes form a suffix, so all B messages decode exactly when
    `engine.evaluate_pb` counts B: the decode rule of the PB rows.  As in
    the sampling pass, each row tile is sampled into a borrowed workspace.
    """
    m = params.blocks
    if not (1 <= window <= m):
        raise ValueError("window out of range")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    hits = 0
    with WORKSPACES.borrow() as workspace:
        for lo, hi in row_blocks(trials, m):
            caps = sample_capacity_matrix(params, seed, lo, hi, workspace)
            counts, _ = evaluate_pb(Tile(caps, workspace), params.rate, window)
            hits += int((counts == window).sum())
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
    w_below = int(round((a_opt - delta) * blocks))
    w_above = int(round((a_opt + delta) * blocks))
    if not (1 <= w_below < w_above <= blocks):
        raise ValueError(
            f"delta = {delta:g} gives windows {w_below} and {w_above} at {blocks} blocks;"
            f" need 1 <= window_below < window_above <= {blocks}"
        )
    point = replace(params, blocks=blocks)
    return AsymptoticReport(
        alpha_opt=a_opt,
        mean_capacity=mean_capacity_closed_form(params),
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
