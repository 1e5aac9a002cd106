"""Vectorized Monte Carlo evaluation of the transmission schemes.

Evaluators take one `channel.Tile` of a sampling pass, or a (trials,
blocks) capacity matrix as one tile (`channel.as_tile`), and return integer
per-trial statistics.  A sampling pass (`tile_sums`) cuts its trials into
the row tiles of `channel.row_blocks`, the one partition, which the sampler
uses too, and each tile is one task for the workers.  A task borrows a
workspace from the process's pool (`WORKSPACES`: one `channel.Workspace`
per concurrent task, reused across tiles, points and runs), samples its
tile into it, builds the tile's prefix sums S and equal-share running
totals W once, and returns what a consumer makes of them: int64 arrays,
added to the pass's total as each tile finishes.  A tile holds
`channel.tile_elements` capacities: 2^16 block-major, 2^15 row-major.
Memory per thread is the workspace, at most 3.5 MB block-major and 1.75 MB
row-major, up to M = 2^15 (`channel.ROW_BLOCK_ELEMENTS`); a tile of one
longer row takes up to about 61 M bytes of new arrays while it is
evaluated, and they are not kept.

MT, which sends message t in block t only, is wTS with a window of one
block: its row is `evaluate_wts` at B = 1.

An optimized PB depth is chosen from the depth table and its row is read off
it (`pb_accumulator`): `evaluate_pb` decides a decode by the table's own
comparisons, so the two agree bit for bit.  T-wTS and D-wTS choose their
window before sampling, from exact objectives (`optimize_wts_window`), and
are evaluated as a fixed `wts:B` row in the same pass.  Tiles are keyed by
absolute trial index and reduce to exact integer sums, so results are
bit-identical regardless of worker count and tile size.  All
schemes at one point share the same traces (common random numbers), which
makes per-realization dominance comparisons exact.

A tile of rows of at most `channel.BLOCK_MAJOR_MAX_BLOCKS` capacities is
block-major, and every evaluator then reduces across trials, one contiguous
column at a time: running sums, maxima and minima through
`channel.scan_blocks`, row sums and maxima as numpy's column reductions.
Longer rows are row-major and reduced along the rows.  Every evaluator
gives the same bits on either layout.

The PB depth table reads one table of thresholds, tau of depth M - c in
column c (`_depth_thresholds`).  On a block-major tile it compares message
c + d with depth M - c one diagonal d at a time, each one vector operation
on two blocks of the same shape, and skips the leading columns of a
diagonal where no row of the tile can hit (`_diagonal_starts`).  On a
row-major tile it takes one binary search per row in place of comparing
every message with every depth.
"""
from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .channel import (
    BLOCK_MAJOR_MAX_BLOCKS,
    ChannelParams,
    Tile,
    Workspace,
    as_tile,
    block_major,
    row_blocks,
    sample_capacity_matrix,
    window_decode_probs,
)
# The informed bound is the IT row's evaluator; the scheme table reaches it
# here, next to the other evaluators.
from .informed import informed_counts_and_delays
from .metrics import max_zero_run_at, max_zero_run_rows
from .runstats import wts_mean_delay


def evaluate_ets(caps, rate: float):
    """Equal-share time sharing: message m decodes iff its running total W
    reaches the rate at its deadline.

    `caps` is a `channel.Tile` or a (trials, blocks) capacity matrix, taken
    as one tile (`channel.as_tile`), as for every evaluator here."""
    tile = as_tile(caps)
    counts = np.greater_equal(tile.running, rate, out=tile.temporary(bool)).sum(axis=1)
    return counts, tile.caps.shape[1] - counts  # totals never fall: decodes form a suffix


def evaluate_pb(caps, rate: float, window: int):
    """Pre-buffering: only the last `window` messages are sent.

    Decodes are the comparisons of `pb_count_sums` at depth B = `window`.
    Decoded messages always form a suffix, so the longest zero-run equals
    blocks - decoded_count on every realization.
    """
    tile = as_tile(caps)
    m = tile.caps.shape[1]
    if not (1 <= window <= m):
        raise ValueError(f"need 1 <= window <= blocks, got {window}")
    first = m - window
    running = tile.running
    tau = rate - tile.prefix[:, first] / window
    tau += running[:, first]
    hits = tile.temporary(bool, window)
    counts = np.greater_equal(running[:, first:], tau[:, None], out=hits).sum(axis=1)
    return counts, m - counts


# numpy sums 8 or more terms in 8 pairwise lanes, fewer left to right.
_PAIRWISE_MIN_TERMS = 8


def window_sums(block: np.ndarray, window: int) -> np.ndarray:
    """Sums of consecutive runs of `window` columns of `block`, shape
    (trials, columns // window), bit for bit numpy's row-major
    `reshape(trials, k, window).sum(axis=2)`.

    At window 1 this is `block` itself: a sum of one term is that term.  On
    a block-major block, fewer than _PAIRWISE_MIN_TERMS columns are added one
    at a time across trials, which is the same left-to-right sum; more are
    summed by numpy over a row-major copy.
    """
    if window == 1:
        return block
    n, k = block.shape[0], block.shape[1] // window
    windows = block[:, : k * window].reshape(n, k, window)  # a view
    if not block_major(block):
        return windows.sum(axis=2)
    if window >= _PAIRWISE_MIN_TERMS:
        return np.ascontiguousarray(windows).sum(axis=2)
    sums = windows[:, :, 0].copy(order="K")
    for j in range(1, window):
        sums += windows[:, :, j]
    return sums


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


def evaluate_wts(caps, rate: float, window: int):
    """Windowed time-sharing: (counts, delays), where `delays` is the literal
    longest zero-run over all M message slots (untransmitted messages count
    as failures); see `wts_window_delays` for the statistic that the wTS
    delay bounds bound.
    """
    tile = as_tile(caps)
    m = tile.caps.shape[1]
    full, short = wts_decode_bits(tile.caps, rate, window)
    counts = full.sum(axis=1)
    # Only messages kB, and M after a short last window, are ever sent.
    slots = np.arange(window - 1, full.shape[1] * window, window)
    bits = full
    if short is not None:
        slots = np.append(slots, m - 1)
        bits = np.column_stack([full, short])  # in the layout of `full`
        counts = counts + short
    return counts, max_zero_run_at(bits, slots, m, tile.temporary(np.int32, bits.shape[1] + 1))


def wts_window_delays(caps: np.ndarray, rate: float, window: int) -> np.ndarray:
    """Per-trial wTS delay in whole windows: `window` times the longest run of
    consecutive failed full windows (a trailing short window is not counted).

    This is the statistic bracketed by the floor/ceil substitution into the
    run-length closed form (`runstats.wts_delay_bounds`), not the literal
    delay of `evaluate_wts`; the two coincide at window 1.
    """
    full, _ = wts_decode_bits(caps, rate, window)
    return window * max_zero_run_rows(full)


def _depth_margins(tile, rate: float, out: np.ndarray) -> np.ndarray:
    """rate - S_c/(M-c), the margin of depth B = M - c, in column c of `out`,
    a (rows, M) view.  S_c rises and M - c falls along a row, and rounding
    keeps that order: the margins never rise."""
    m = tile.caps.shape[1]
    np.divide(tile.prefix, np.arange(m, 0, -1), out=out)
    return np.subtract(rate, out, out=out)


def _depth_thresholds(tile, rate: float, out: np.ndarray) -> np.ndarray:
    """tau = (rate - S_c/(M-c)) + W_c of depth B = M - c, in column c of `out`."""
    tau = _depth_margins(tile, rate, out)
    return np.add(tau, tile.running, out=tau)


def _count_sum_dtype(rows: int, blocks: int):
    """The accumulator of `_pb_tile_by_counting`: a column's sum of squared
    counts is at most rows * M^2, and int32 sums it twice as fast as int64."""
    return np.int32 if rows * blocks * blocks < 1 << 31 else np.int64


def _diagonal_starts(running: np.ndarray, tau: np.ndarray) -> list[int]:
    """lo of each diagonal d of `_pb_tile_by_counting`: before column lo,
    W_{c+d} < tau_c on every row of the tile.

    The running maximum of the column maxima of W bounds every W_j from above
    and never falls; the running minimum of the column minima of tau bounds
    every tau_c from below and never rises.  So where the first bound at
    c + d is below the second at c, every row misses, and these c are the
    first of the diagonal.  NaNs never compare true, so the bounds leave them
    out.
    """
    m = running.shape[1]
    highest = np.maximum.accumulate(np.fmax.reduce(running, axis=0, initial=-np.inf))
    lowest = np.minimum.accumulate(np.fmin.reduce(tau, axis=0, initial=np.inf))
    # Column c misses on the diagonals d < reach[c]; reach falls with c.
    reach = np.searchsorted(highest, lowest) - np.arange(m)
    return np.count_nonzero(reach > np.arange(m)[:, None], axis=1).tolist()


def _pb_tile_by_counting(caps, rate: float) -> np.ndarray:
    """`pb_count_sums` of one tile, by comparing every transmitted message
    with tau of every depth that transmits it, one diagonal of the (depth,
    message) triangle at a time: diagonal d compares message c + d with
    depth M - c, for c from its lo (`_diagonal_starts`) to M - d - 1.  The
    operands are blocks of the same shape, contiguous on a block-major tile,
    so each diagonal is one vector operation across trials and depths.
    """
    tile = as_tile(caps)
    rows, m = tile.caps.shape
    running = tile.running
    tau = _depth_thresholds(tile, rate, tile.temporary(np.float64))
    counts = tile.temporary(np.min_scalar_type(m))
    counts.fill(0)
    hits = tile.temporary(bool)
    ones = hits.view(np.uint8)  # up to M = 255, adds hits to counts without a cast
    for d, lo in enumerate(_diagonal_starts(running, tau)):
        if lo < m - d:
            cols = slice(lo, m - d)
            np.greater_equal(running[:, lo + d :], tau[:, cols], out=hits[:, cols])
            counts[:, cols] += ones[:, cols]
    acc = _count_sum_dtype(rows, m)
    sums = np.stack(
        [counts.sum(axis=0, dtype=acc), np.einsum("ij,ij->j", counts, counts, dtype=acc)]
    )
    return sums[:, ::-1].astype(np.int64)  # column c holds depth M - c


def _pb_tile_by_search(caps, rate: float) -> np.ndarray:
    """`pb_count_sums` of one tile, by one binary search per row.  W is a
    running sum of nonnegative terms, so it is nondecreasing along a row, and
    the count at depth B is min(B, M - L_B) with L_B = #{W_j < tau_B}, the
    left insertion point of tau_B in W.

    The margins are written through a reversed view, so that each row's
    keys are in depth order: tau_B never falls in exact arithmetic, and
    numpy narrows a search from the last one for rising keys only, twice as
    fast.  A depth whose margin is at most 0 has tau_B <= W_{M-B}, so
    L_B <= M - B and its count is B without a search.  Margins never fall
    as B grows, so these depths are the first `full` of a row.
    """
    tile = as_tile(caps)
    m = tile.caps.shape[1]
    running, keys = tile.running, tile.temporary(np.float64)  # depth B in column B-1
    _depth_margins(tile, rate, keys[:, ::-1])
    full = np.less_equal(keys, 0.0, out=tile.temporary(bool)).sum(axis=1).tolist()
    # tau, added in the keys' order: numpy adds a reversed output half as fast.
    np.add(keys, running[:, ::-1], out=keys)
    counts = tile.temporary(np.int64)
    for w, t, row, lo in zip(running, keys, counts, full):
        row[:lo] = 0  # then min(B, M - 0) = B
        row[lo:] = w.searchsorted(t[lo:])  # the method: `np.searchsorted` costs ~1.5 us more a row
    np.subtract(m, counts, out=counts)
    np.minimum(np.arange(1, m + 1), counts, out=counts)
    return np.stack([counts.sum(axis=0), np.einsum("ij,ij->j", counts, counts)])


def pb_tile_kernel(blocks: int):
    """The `pb_count_sums` kernel for rows of `blocks` capacities."""
    return _pb_tile_by_counting if blocks <= BLOCK_MAJOR_MAX_BLOCKS else _pb_tile_by_search


def pb_count_sums(caps, rate: float) -> np.ndarray:
    """Sums over trials of the decoded count (row 0) and of its square (row 1)
    at every buffer depth 1..M (column B-1).

    At depth B only the last B messages are transmitted.  Message j (0-based,
    j >= M-B) then decodes iff its equal-share total W_j reaches
    tau_B = (rate - S_{M-B}/B) + W_{M-B}, where S is the capacity prefix sum
    (the rule of `evaluate_pb`).  `caps` is one `channel.Tile`, or a capacity
    matrix taken as one tile, and goes to the kernel of `pb_tile_kernel`.
    """
    tile = as_tile(caps)
    return pb_tile_kernel(tile.caps.shape[1])(tile, rate)


@dataclass
class Accumulator:
    """Exact integer sums of per-trial statistics over `trials` trials at one
    window B (`window` is None for MT, eTS and IT), in the order of
    `moments`."""

    window: int | None
    trials: int
    count_sum: int
    count_sqsum: int
    delay_sum: int
    delay_sqsum: int

    def mean_count(self) -> float:
        return self.count_sum / self.trials

    def mean_delay(self) -> float:
        return self.delay_sum / self.trials

    def _stderr(self, total: int, sqtotal: int) -> float:
        n = self.trials
        if n < 2:
            return 0.0
        mean = total / n
        var = (sqtotal - n * mean * mean) / (n - 1)
        return float(np.sqrt(max(var, 0.0)) / np.sqrt(n))

    def stderr_count(self) -> float:
        return self._stderr(self.count_sum, self.count_sqsum)

    def stderr_delay(self) -> float:
        return self._stderr(self.delay_sum, self.delay_sqsum)


class Workspaces:
    """A pool of workspaces for tile tasks: a task borrows one and gives it
    back, so the pool builds one per concurrent task, and later tasks,
    points and runs reuse them."""

    def __init__(self):
        self._free: list[Workspace] = []

    @contextmanager
    def borrow(self):
        # list.pop and list.append are atomic: a workspace is built only when
        # every existing one is lent to another task.
        try:
            workspace = self._free.pop()
        except IndexError:
            workspace = Workspace()
        try:
            yield workspace
        finally:
            self._free.append(workspace)


# Every tile task of the process borrows from this pool.
WORKSPACES = Workspaces()


def _map_tiles(task, trials: int, blocks: int, threads: int):
    """`task(lo, hi)` of each row tile of a pass (`row_blocks`), yielded in
    tile order.  With more than one worker at most two tiles per worker are
    submitted ahead of the one yielded, so a pass holds a bounded number of
    results."""
    ranges = row_blocks(trials, blocks)
    workers = min(threads, len(ranges), os.cpu_count() or 1)
    if workers <= 1:
        yield from (task(lo, hi) for lo, hi in ranges)
        return
    # Imported on use: it loads `logging`, milliseconds a one-thread run skips.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        for lo, hi in ranges:
            pending.append(pool.submit(task, lo, hi))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def _add(total: list, part: list) -> list:
    """`total` with `part` added in place, array by array."""
    for t, p in zip(total, part):
        t += p
    return total


def _check_pass(trials: int, blocks: int) -> None:
    """A count or delay is at most M, so int64 sums over a pass stay below trials * M^2."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials * blocks * blocks >= 1 << 63:
        raise ValueError(f"trials * M^2 must be < 2^63, got {trials} trials at M = {blocks}")


def tile_sums(params: ChannelParams, trials: int, seed: int, threads: int, consumer) -> list:
    """One sampling pass: the sums over all its row tiles of the new int64
    arrays that `consumer(tile)` returns, a list of the same shapes for each
    `channel.Tile`.  Each tile is one task, which samples it into a
    workspace from `WORKSPACES`, and its arrays are added in place to the
    pass's total as the tile finishes.
    """
    m = params.blocks
    _check_pass(trials, m)

    def task(lo, hi):
        with WORKSPACES.borrow() as workspace:
            caps = sample_capacity_matrix(params, seed, lo, hi, workspace)
            return consumer(Tile(caps, workspace))

    return reduce(_add, _map_tiles(task, trials, m, threads))


def moments(counts, delays) -> np.ndarray:
    """[sum of counts, of their squares, of delays, of their squares], int64."""
    c, d = np.asarray(counts, np.int64), np.asarray(delays, np.int64)
    return np.array([c.sum(), c @ c, d.sum(), d @ d], np.int64)


def optimize_pb_window(count_sums: np.ndarray, trials: int) -> tuple[int, float]:
    """Buffer depth maximizing mean decoded count (equivalently minimizing
    mean delay, since delay = M - count per realization), selected from the
    per-depth count sums (row 0 of `pb_count_sums`).  Ties break low."""
    best = int(np.argmax(count_sums)) + 1
    return best, float(count_sums[best - 1] / trials)


def pb_accumulator(table: np.ndarray, trials: int, window: int) -> Accumulator:
    """The `pb:B` row at B = `window`, read off a `pb_count_sums` table over
    `trials` trials: delay = M - count on every trial, so its sums follow
    from those of the count."""
    m = table.shape[1]
    total, sqtotal = (int(x) for x in table[:, window - 1])
    return Accumulator(
        window,
        trials,
        total,
        sqtotal,
        m * trials - total,
        m * m * trials - 2 * m * total + sqtotal,
    )


def optimize_wts_window(params: ChannelParams, maximize_throughput: bool) -> tuple[int, float]:
    """(window B, objective at B) for T-wTS (maximum mean decoded count) or
    D-wTS (minimum mean literal delay), from exact objectives: no sampling.

    The k = M // B full windows decode i.i.d. with probability p_B and the
    short last window of r = M % B blocks with p_r (`window_decode_probs`).
    The mean count is k p_B + [r > 0] p_r; the mean delay is
    `runstats.wts_mean_delay`.  The delay is at least B - 1 on every
    realization (the slots before window 1's message), so the search stops
    at the first B whose B - 1 reaches the best mean so far.  Ties break low.
    """
    m = params.blocks
    probs = window_decode_probs(params, m)
    windows = np.arange(1, m + 1)
    short = m % windows
    p_short = np.where(short > 0, probs[short - 1], 0.0)
    if maximize_throughput:
        counts = (m // windows) * probs + p_short
        best = int(np.argmax(counts)) + 1
        return best, float(counts[best - 1])
    best, best_delay = 1, wts_mean_delay(m, 1, probs[0])
    for b in range(2, m + 1):
        if b - 1 >= best_delay:
            break
        delay = wts_mean_delay(m, b, probs[b - 1], p_short[b - 1])
        if delay < best_delay:
            best, best_delay = b, delay
    return best, best_delay


def evaluate_point(
    params: ChannelParams,
    schemes: dict,
    trials: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """Run all requested schemes on shared traces, in one `tile_sums` pass.

    `schemes` maps an arbitrary key to a `schemes.Scheme`.  A scheme whose
    row has a `table` and that has no fixed window gets the window its row
    chooses: T-/D-wTS before sampling, PB from the depth table of the pass,
    which also gives PB's row at that depth.  Every other row's sums are the
    `moments` of its per-trial counts and delays.
    Returns key -> Accumulator, whose `window` is the B the statistics were
    taken at.  The sums are exact integers, so the result is independent of
    `threads` and of the tile size.
    """
    _check_pass(trials, params.blocks)
    fixed, chosen_pb = {}, []
    for key, scheme in schemes.items():
        if scheme.window is not None or scheme.row.table is None:
            fixed[key] = scheme
        elif scheme.row.table == "wts":
            window, _ = optimize_wts_window(params, scheme.row.maximize)
            fixed[key] = replace(scheme, name="wts", window=window)
        else:
            chosen_pb.append(key)

    def consumer(tile):
        sums = [moments(*scheme.evaluate(tile, params.rate)) for scheme in fixed.values()]
        return sums + [pb_count_sums(tile, params.rate)] if chosen_pb else sums

    sums = tile_sums(params, trials, seed, threads, consumer)
    out = {
        key: Accumulator(scheme.window, trials, *row.tolist())
        for (key, scheme), row in zip(fixed.items(), sums)
    }
    if chosen_pb:
        window, _ = optimize_pb_window(sums[-1][0], trials)
        for key in chosen_pb:
            out[key] = pb_accumulator(sums[-1], trials, window)
    return {key: out[key] for key in schemes}
