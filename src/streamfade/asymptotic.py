"""Large-M behavior of pre-buffering: the critical transmitted fraction.

Transmitting a fraction alpha of the messages succeeds (all of them decode)
with probability tending to 1 when alpha < 1/(R/C_mean + 1) and to 0 above
it.  The earliest-deadline transmitted message accumulates the least mutual
information, so "decode all" reduces to a single sample-mean threshold test.
Its Monte Carlo estimate is a sampling pass of `engine.tile_sums`.
`streamfade verify` probes both sides of the threshold at M = 2000, and holds
the depth that a `pb` row chooses (`engine.evaluate_points`) near it.
"""
from __future__ import annotations

from . import engine
from .channel import ChannelParams, mean_capacity_closed_form


def alpha_opt(params: ChannelParams) -> float:
    """Critical transmitted fraction 1 / (rate / C + 1), C the closed-form
    mean capacity."""
    return 1.0 / (params.rate / mean_capacity_closed_form(params) + 1.0)


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
        counts, _ = engine.evaluate_pb(tile, params.rate, window)
        return [(counts == window).sum(keepdims=True)]

    (hits,) = engine.tile_sums(params, trials, seed, 1, decoded_all)
    return int(hits[0]) / trials
