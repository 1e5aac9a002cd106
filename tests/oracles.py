"""Loop versions of the engine kernels, kept as references for the fast paths.

Each kernel function is the implementation the package used before its kernel
was rewritten without per-column loops; the property tests require the fast
kernels to return exactly the same integers.  `pb_mi_matrix` is the PB
mutual information summed message by message, as the allocation matrix
defines it.  The window failure masses are the direct-convolution reference
of the FFT chain in `channel`.  `run_tails_table` is the n-major run-tail
table that `runstats.run_tails` replaced; the column order must match it bit
for bit.  `ets_counts_by_running_total` is eTS's rule before eTS was read as
PB at depth M.  `wts_decode_bits` and `wts_window_delays` give the wTS
window decodes and the window-unit delay that the wTS delay bounds bound.
`min_achievable_delay` is the closed form of the informed bound's delay,
against which `informed.min_delay_max_rate`'s scan is checked.
`lowest_usable_snr` finds the edge of the SNR range by bisection.
"""
import math

import numpy as np

from streamfade.channel import _capacity_masses
from streamfade.channel import equal_share_weights, usable_snr
from streamfade.engine import window_sums


def max_zero_run_rows_loop(v) -> np.ndarray:
    """Row-wise longest zero-run by a scan over the columns."""
    arr = np.asarray(v).astype(bool)
    n, m = arr.shape
    run = np.zeros(n, dtype=np.int64)
    best = np.zeros(n, dtype=np.int64)
    for t in range(m):
        run = np.where(arr[:, t], 0, run + 1)
        np.maximum(best, run, out=best)
    return best


def wts_decode_bits(caps: np.ndarray, rate: float, window: int):
    """(full-window decode bits, short-window bit or None) for windowed sharing."""
    m = caps.shape[1]
    if not (1 <= window <= m):
        raise ValueError(f"need 1 <= window <= blocks, got {window}")
    n_full = m // window
    remainder = m - n_full * window
    full = window_sums(caps, window) >= rate
    short = window_sums(caps[:, n_full * window :], remainder)[:, 0] >= rate if remainder else None
    return full, short


def wts_window_delays(caps: np.ndarray, rate: float, window: int) -> np.ndarray:
    """Per-trial wTS delay in whole windows: `window` times the longest run of
    consecutive failed full windows (a trailing short window is not counted).

    This is the statistic bracketed by the floor/ceil substitution into the
    run-length closed form (`runstats.wts_delay_bounds`), not the literal
    delay of `engine.evaluate_wts`; the two coincide at window 1.
    """
    full, _ = wts_decode_bits(caps, rate, window)
    return window * max_zero_run_rows_loop(full)


def informed_counts_and_delays_loop(capacity_matrix: np.ndarray, rate: float):
    """Informed-bound counts and delays by the greedy scan, one column at a time."""
    caps = np.asarray(capacity_matrix, dtype=np.float64)
    n, m = caps.shape
    i_tot = np.cumsum(caps, axis=1)
    psi = np.zeros(n, dtype=np.int64)
    delay = np.zeros(n, dtype=np.int64)
    for t in range(1, m + 1):
        decoded = i_tot[:, t - 1] >= (psi + 1) * rate
        psi = psi + decoded
        np.maximum(delay, t // (psi + 1), out=delay)
    return psi, delay


def min_achievable_delay(psi: np.ndarray) -> int:
    """Closed form for the smallest dominated D: max_t floor(t/(psi(t)+1)).

    Equivalent to scanning D = 0, 1, 2, ... against the lower-bound patterns;
    kept separate so the vectorized Monte Carlo path and the literal scan can
    be cross-checked.
    """
    psi = np.asarray(psi, dtype=np.int64)
    t = np.arange(1, psi.shape[0] + 1, dtype=np.int64)
    return int(np.max(t // (psi + 1)))


def ets_counts_by_running_total(caps: np.ndarray, rate: float) -> np.ndarray:
    """eTS decoded counts by the rule the engine used before eTS became PB at
    depth M: message m decodes iff its equal-share running total W_m reaches
    the rate."""
    return (np.cumsum(caps * equal_share_weights(caps.shape[1]), axis=1) >= rate).sum(axis=1)


def pb_count_sums_loop(caps: np.ndarray, rate: float) -> np.ndarray:
    """Sums of decoded counts (row 0) and of their squares (row 1) for every
    buffer depth, by a suffix compare per depth."""
    n, m = caps.shape
    weights = equal_share_weights(m)
    running = np.cumsum(caps * weights, axis=1)
    prefix_sums = np.cumsum(caps, axis=1)
    sums = np.zeros((2, m), dtype=np.int64)
    for b in range(1, m + 1):
        pref = prefix_sums[:, m - b] / b
        tau = rate - pref + running[:, m - b]
        counts = (running[:, m - b :] >= tau[:, None]).sum(axis=1)
        sums[:, b - 1] = counts.sum(), (counts**2).sum()
    return sums


def pb_mi_matrix(caps: np.ndarray, window: int) -> np.ndarray:
    """MI totals of the `window` transmitted PB messages (columns M-B+1..M),
    each the sum of its own allocation: the depth-B prefix shared equally,
    then its equal share of each later block."""
    n, m = caps.shape
    if not (1 <= window <= m):
        raise ValueError(f"need 1 <= window <= blocks, got {window}")
    prefix = caps[:, : m - window + 1].sum(axis=1) / window
    if window == 1:
        return prefix[:, None]
    tail = np.cumsum(caps[:, m - window + 1 :] * equal_share_weights(m)[m - window + 1 :], axis=1)
    return np.concatenate([prefix[:, None], prefix[:, None] + tail], axis=1)


def wts_literal_delay_expanded(caps: np.ndarray, rate: float, window: int) -> np.ndarray:
    """Literal wTS delay from the decode bits expanded to all M message slots."""
    n, m = caps.shape
    full, short = wts_decode_bits(caps, rate, window)
    v = np.zeros((n, m), dtype=bool)
    v[:, window - 1 : full.shape[1] * window : window] = full
    if short is not None:
        v[:, m - 1] = short
    return max_zero_run_rows_loop(v)


def wts_mean_delay_enumerated(M: int, B: int, p_B: float, p_r: float = 0.0) -> float:
    """Mean literal wTS delay by weighting all 2^k full-window decode patterns
    (and both bits of a short last window) with their probabilities."""
    k, r = divmod(M, B)
    bits = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    ones = bits.sum(axis=1)
    weights = p_B**ones * (1.0 - p_B) ** (k - ones)
    total = 0.0
    for short, weight in ((0, 1.0 - p_r), (1, p_r)) if r else ((0, 1.0),):
        v = np.zeros((1 << k, M), dtype=bool)
        v[:, B - 1 : k * B : B] = bits
        if r:
            v[:, M - 1] = bool(short)
        total += weight * float((weights * max_zero_run_rows_loop(v)).sum())
    return total


def window_failure_masses_convolved(
    power: float, rate: float, windows: int, grid_size: int
) -> np.ndarray:
    """1 - p_B for B = 1..`windows` on the window-probability grid of
    `grid_size` bins, by direct truncated convolution (no FFT): entry B-1 is
    the mass of the B-fold sum on the cells below the rate.

    Entry 0 is the grid's own single-block value, not the closed form that
    `channel.window_decode_probs` reports for B = 1.
    """
    mass, dc = _capacity_masses(power, grid_size)
    cells = int(math.ceil(rate / dc)) + 1
    base = np.zeros(cells)
    base[: min(cells, grid_size)] = mass[:cells]
    below = base
    failures = np.empty(windows)
    for window in range(1, windows + 1):
        if window > 1:
            below = np.convolve(below, base)[:cells]
        failures[window - 1] = below[(np.arange(cells) + window * 0.5) * dc < rate].sum()
    return failures


def run_tails_table(M: int, p: float) -> np.ndarray:
    """Pr{longest zero-run >= d} over M Bernoulli(p) trials; entry d-1 for d = 1..M.

    Row n of the (M+1)×M table holds the tails over n trials.  Tails of run
    lengths d < n grow by p q^d (1 - T_{n-d-1}(d)), where T_{n-d-1}(d) sits on
    the anti-diagonal of the rows before; d = n starts at q^n, and d > n stays 0.
    """
    q_pow = (1.0 - p) ** np.arange(1, M + 1, dtype=np.float64)
    step = p * q_pow
    table = np.zeros((M + 1, M))
    for n in range(1, M + 1):
        k = n - 1  # run lengths d < n
        if k:
            earlier = np.diagonal(table[k - 1 :: -1, :k])  # T_{n-d-1}(d)
            np.add(table[k, :k], step[:k] * (1.0 - earlier), out=table[n, :k])
        table[n, k] = q_pow[k]
    # Rounding can lift a tail near 1 (small p) a few ulps above it.
    return np.minimum(table[M], 1.0)


def lowest_usable_snr() -> float:
    """The lowest SNR `channel.usable_snr` accepts, by bisection: about
    -3082.5 dB, where 1/P reaches the largest double."""
    low, high = -4000.0, 0.0
    while True:
        mid = (low + high) / 2.0
        if mid in (low, high):
            return high
        if usable_snr(mid):
            high = mid
        else:
            low = mid
