"""Genie bound: best achievable decode set given the whole channel realization.

With all block capacities known in advance, the cumulative number of
decodable messages up to block t is capped by min(t, floor(I_tot(t)/R)),
where I_tot is the running mutual-information total.  A greedy scan attains
the cap; a second pass then re-spreads the decoded positions to minimize the
longest gap without giving up any throughput.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _bits
from .channel import as_tile, scan_blocks
from .runstats import check_horizons


@dataclass(frozen=True)
class GreedyResult:
    """Throughput-maximal decode vector and its running totals."""

    decode_vector: np.ndarray  # 0/1 per block
    cumulative_decoded: np.ndarray
    cumulative_mi: np.ndarray


def greedy_allocate(trace, rate: float) -> GreedyResult:
    """Decode message t whenever the running MI covers one more message.

    Marks position t iff I_tot(t) >= (decoded_so_far + 1) * rate.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    caps = np.asarray(trace, dtype=np.float64)
    i_tot = np.cumsum(caps)
    m = caps.shape[0]
    v = np.zeros(m, dtype=np.int8)
    psi = np.zeros(m, dtype=np.int64)
    decoded = 0
    for t in range(m):
        if i_tot[t] >= (decoded + 1) * rate:
            decoded += 1
            v[t] = 1
        psi[t] = decoded
    return GreedyResult(v, psi, i_tot)


def lower_bound_pattern(M: int, D: int) -> np.ndarray:
    """Sparsest 0/1 vector of length M whose longest zero-run is D.

    Ones sit exactly at positions k*(D+1), k = 1..floor(M/(D+1)) (1-based);
    D = 0 gives all ones and D = M the all-zero vector.
    """
    if not (0 <= D <= M):
        raise ValueError(f"need 0 <= D <= M, got D={D}, M={M}")
    v = np.zeros(M, dtype=np.int8)
    step = D + 1
    v[step - 1 :: step] = 1
    if D == M:
        v[:] = 0
    return v


def _dominance_holds(psi: np.ndarray, D: int) -> bool:
    """Cumulative-sum dominance against the D-spaced lower-bound pattern."""
    m = psi.shape[0]
    cum_lb = 0
    step = D + 1
    for t in range(1, m + 1):
        if t % step == 0:
            cum_lb += 1
        if psi[t - 1] < cum_lb:
            return False
    return True


def min_delay_max_rate(v) -> tuple[np.ndarray, int]:
    """Re-spread the ones of v to minimize the longest zero-run.

    Finds the smallest D whose lower-bound pattern is dominated by v's
    cumulative sum, then fills the rightmost zeros of that pattern until the
    number of ones matches v.  Throughput (popcount) is preserved exactly.
    Returns (new vector, achieved longest zero-run).
    """
    v = np.asarray(v).astype(np.int8)
    m = v.shape[0]
    if m == 0:
        raise ValueError("empty decode vector")
    if not v.any():
        return np.zeros(m, dtype=np.int8), m
    psi = np.cumsum(v)
    D = 0
    while not _dominance_holds(psi, D):
        D += 1
    s_opt = lower_bound_pattern(m, D)
    excess = int(v.sum()) - int(s_opt.sum())
    k = m - 1
    while excess > 0:
        if s_opt[k] == 0:
            s_opt[k] = 1
            excess -= 1
        k -= 1
    return s_opt, D


def oracle_exhaustive(trace, rate: float) -> tuple[int, int]:
    """Brute-force optimum over all 2^M decode subsets.

    A subset with sorted positions t_1 < ... < t_k is feasible iff
    I_tot(t_j) >= j * rate for every j.  Returns the maximum feasible size
    and, among subsets of that size, the smallest longest zero-run.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    caps = np.asarray(trace, dtype=np.float64)
    m = caps.shape[0]
    if m > _bits.MAX_ENUM_BITS:
        raise ValueError(f"exhaustive oracle limited to M <= {_bits.MAX_ENUM_BITS}")
    i_tot = np.cumsum(caps)
    cum = _bits.cumsum_matrix(m)
    # Same comparison form as the greedy scan: MI against count * rate.
    feasible = np.all(i_tot[None, :] >= cum * rate, axis=1)
    counts = _bits.popcount_table(m)
    best = int(counts[feasible].max())
    runs = _bits.max_zero_run_table(m)
    mask = feasible & (counts == best)
    return best, int(runs[mask].min())


def informed_trial(trace, rate: float) -> tuple[int, int]:
    """(decoded count, minimized longest zero-run) for one realization."""
    greedy = greedy_allocate(trace, rate)
    count = int(greedy.cumulative_decoded[-1])
    if count == 0:
        return 0, len(greedy.decode_vector)
    s_opt, d_it = min_delay_max_rate(greedy.decode_vector)
    assert int(s_opt.sum()) == count
    return count, d_it


def informed_counts_and_delays(capacity_matrix, rate: float, horizons=None):
    """Vectorized greedy + delay minimization across trials.

    The greedy scan decodes at block t iff I(t) >= fl((psi(t-1) + 1) * R),
    with I the float running MI total and fl the float product.  Let K(t) be
    the largest k <= M with fl(k R) <= I(t).  k -> fl(k R) is monotone and I
    is nondecreasing (capacities are nonnegative), so the scan is
    psi(t) = min(psi(t-1) + 1, K(t)) from psi(0) = 0, which unrolls to
    psi(t) = t + min(0, min_{s <= t} (K(s) - s)): one running minimum.  The
    delay is max_t floor(t/(psi(t)+1)), the closed form of the smallest D
    whose lower-bound pattern psi dominates (`min_delay_max_rate`'s scan).

    Any K(s) >= s gives the same psi, so min(K, M + 1) will do.  k starts at
    floor(min(I/R, M)).  For exact x = I/R below M + 1, floor(x) passes the
    test and floor(x) + 2 fails it, and the rounded quotient floors to
    floor(x) or floor(x) + 1 (to M when x >= M).  So one step down where
    fl(k R) > I, then one step up where fl((k+1) R) <= I, leave exactly
    min(K, M + 1), with the scan's own products.  Steps repeated until none
    applies would add nothing, and without the cap they would not stop at a
    tiny R, where K is astronomically large.

    `capacity_matrix` is one `channel.Tile`, or a matrix taken as one tile
    (`channel.as_tile`).  The running total I is the tile's prefix sum S, and
    the running minimum follows the tile's layout (`channel.scan_blocks`).

    Returns (counts, delays) at the tile's M.  With `horizons`, a rising
    sequence of message counts h <= M, returns one (counts, delays) per h,
    from this one scan, each equal to the call on the tile's first h
    columns.  Those columns are the rows at h (rows are prefixes across M),
    and S(t) and the greedy test at t do not depend on M.  The cap M + 1
    for h + 1 changes no psi(t) at t <= h: where K(t) >= t both caps keep
    K(t) - t >= 0, and where K(t) < t <= h, K(t) is below both.  So the
    count at h is psi(h), column h - 1 of the running minimum plus h, and
    the delay at h is the maximum of t/(psi(t)+1) over the first h columns:
    the maxima of the segments between consecutive horizons, then their
    running maximum across horizons.  One horizon at M makes exactly the
    operations of a call without horizons.
    """
    tile = as_tile(capacity_matrix)
    i_tot = tile.prefix
    m = i_tot.shape[1]
    ends = check_horizons(m, 1, horizons)
    # K - t lies in [-M, M]: int32 halves the traffic of every integer pass.
    t = np.arange(1, m + 1, dtype=np.int32 if m < 1 << 30 else np.int64)
    k = tile.temporary(t.dtype)
    hits = tile.temporary(bool)
    product = tile.temporary(np.float64)
    with np.errstate(over="ignore"):  # an infinite I/R or k R compares right
        quotient = np.divide(i_tot, rate, out=product)
        np.minimum(quotient, m, out=quotient)
        np.copyto(k, quotient, casting="unsafe")  # floor: the quotient is nonnegative
        np.subtract(k, np.greater(np.multiply(k, rate, out=product), i_tot, out=hits), out=k)
        # fl(k + 1) is exact, so this is the scan's own product fl((k + 1) R).
        np.multiply(np.add(k, 1.0, out=product), rate, out=product)
        np.add(k, np.less_equal(product, i_tot, out=hits), out=k)
    k -= t
    # min(0, min_{s <= t} (K(s) - s)): the 0 joins the first column's term.
    np.minimum(k[:, 0], 0, out=k[:, 0])
    scan_blocks(np.minimum, k, out=k)
    counts = [k[:, h - 1] + np.int64(h) for h in ends]  # psi(h)
    k += t + 1  # psi + 1
    # floor(max_t t/(psi+1)): floor is monotone, and a quotient of
    # integers below 2^52 never rounds up to the next integer.
    ratios = np.divide(t, k, out=product)
    delays = [ratios[:, lo:hi].max(axis=1) for lo, hi in zip([0, *ends], ends)]
    for before, here in zip(delays, delays[1:]):
        np.maximum(before, here, out=here)
    delays = [d.astype(np.int64) for d in delays]
    if horizons is None:
        return counts[0], delays[0]
    return list(zip(counts, delays))
