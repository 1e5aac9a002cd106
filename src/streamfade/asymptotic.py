"""Large-M behavior of pre-buffering: the critical transmitted fraction.

Transmitting a fraction alpha of the messages succeeds (all of them decode)
with probability tending to 1 when alpha < 1/(R/C_mean + 1) and to 0 above
it.  The earliest-deadline transmitted message accumulates the least mutual
information, so "decode all" reduces to a single sample-mean threshold test.
Both Monte Carlo estimates here are sampling passes of `engine.tile_sums`.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .channel import ChannelParams, mean_capacity_closed_form
from .engine import evaluate_pb, evaluate_point, tile_sums
from .schemes import Scheme


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
    `engine.evaluate_pb` counts B, the decode rule of the PB rows, on each
    row tile of the pass.
    """
    if not (1 <= window <= params.blocks):
        raise ValueError("window out of range")

    def decoded_all(tile):
        counts, _ = evaluate_pb(tile, params.rate, window)
        return [(counts == window).sum(keepdims=True)]

    (hits,) = tile_sums(params, trials, seed, 1, decoded_all)
    return int(hits[0]) / trials


def verify_threshold(
    params: ChannelParams, blocks: int, delta: float, trials: int, seed: int
) -> AsymptoticReport:
    """Empirically probe both sides of the critical fraction at finite M."""
    if blocks < 500:
        raise ValueError("threshold verification needs blocks >= 500")
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
    """Throughput-maximizing buffer depth and its fraction of the messages:
    the depth that `engine.evaluate_point` chooses for a `pb` row."""
    window = evaluate_point(params, {"pb": Scheme("pb")}, trials, seed)["pb"].window
    return window, window / params.blocks
