"""Vectorized Monte Carlo evaluation of the transmission schemes.

Evaluators take one `channel.Tile` of a sampling pass, or a (trials,
blocks) capacity matrix as one tile (`channel.as_tile`), and return integer
per-trial statistics.  A sampling pass (`tile_sums`) cuts its trials into
the row tiles of `channel.row_blocks`, the one partition, which the sampler
uses too, and gives each worker process one contiguous share of them.  A
worker samples each tile of its share into its process's one
`channel.Workspace` (`WORKSPACE`, reused across tiles, points and runs),
builds the tile's prefix sums S and equal-share running totals W once, and
adds what a consumer makes of them, int64 arrays, to its share's total as
each tile finishes.  A tile holds `channel.tile_elements` capacities: 2^16
block-major, 2^15 row-major.  Memory per process is the workspace, at most
3.5 MB block-major and 1.75 MB row-major, up to M = 2^15
(`channel.ROW_BLOCK_ELEMENTS`); a tile of one longer row takes up to about
61 M bytes of new arrays while it is evaluated, and they are not kept.

A row at M is, bit for bit, the first M capacities of the same row at any
larger M, so the block-major points of a message sweep share one pass at
their largest M (`evaluate_points`): each point evaluates the tile's first
M columns (`channel.Tile.head`), with the tile's S as its own.  Every
scheme is evaluated as the fixed row `schemes.Scheme.at` names, and a row
other than PB is evaluated on the whole tile instead, once for the M of
every point that makes it: the IT bound makes one scan of the tile, and the
wTS rows one per distinct window B (`evaluate_wts` reads each M off the
decodes and zero-runs of the first windows).  A row-major point, and a
point of any other link, has a pass of its own.

An optimized PB depth is chosen from the depth table, and at such a point
every PB row is read off the table (`pb_accumulator`): `evaluate_pb`
decides a decode by the table's own comparisons, so the two agree bit for
bit.  A point with no chosen depth builds no table, and its PB rows are
`evaluate_pb`'s.  T-wTS and D-wTS choose their window before sampling,
from exact objectives, at every M of a pass in one `optimize_wts_window`
call per scheme: one search that steps B up and stops where no larger
window can win, reading p_B one window at a time.  They are evaluated as a
fixed `wts:B` row in the same pass, so the two share a scan where they
choose the same B.  Tiles are keyed by absolute trial index and reduce to
exact integer sums, so results are bit-identical regardless of worker count
and tile size.  All schemes at one point share the same traces (common
random numbers), which makes per-realization dominance comparisons exact.

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

import math
import operator
import os
import threading
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from . import channel
from .channel import (
    BLOCK_MAJOR_MAX_BLOCKS,
    ChannelParams,
    Tile,
    Workspace,
    as_tile,
    block_major,
    row_blocks,
    sample_capacity_matrix,
    scan_blocks,
)
# The informed bound is the IT row's evaluator; the scheme table reaches it
# here, next to the other evaluators.
from .informed import informed_counts_and_delays
from .runstats import check_horizons, wts_mean_delay


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
    # S_0 is the first capacity, so depth M builds no prefix scan.
    preload = tile.caps[:, 0] if first == 0 else tile.prefix[:, first]
    tau = rate - preload / window
    tau += running[:, first]
    hits = np.greater_equal(running[:, first:], tau[:, None], out=tile.temporary(bool, window))
    # Summed as uint8 into the narrowest type that holds B, then widened: a
    # bool sum casts each element to int64, 4-8 times slower.
    counts = hits.view(np.uint8).sum(axis=1, dtype=np.min_scalar_type(window)).astype(np.int64)
    return counts, m - counts


# numpy sums 8 or more terms in 8 pairwise lanes, fewer left to right.
_PAIRWISE_MIN_TERMS = 8


def window_sums(block: np.ndarray, window: int, scratch: np.ndarray | None = None) -> np.ndarray:
    """Sums of consecutive runs of `window` columns of `block`, shape
    (trials, columns // window), bit for bit numpy's row-major
    `reshape(trials, k, window).sum(axis=2)`.

    At window 1 this is `block` itself: a sum of one term is that term.  On
    a block-major block, fewer than _PAIRWISE_MIN_TERMS columns are added one
    at a time across trials, which is the same left-to-right sum; more are
    summed by numpy over a row-major copy, written into `scratch` (a
    contiguous float64 array of at least the block's size) when it is given
    and into a new array otherwise.
    """
    if window == 1:
        return block
    n, k = block.shape[0], block.shape[1] // window
    windows = block[:, : k * window].reshape(n, k, window)  # a view
    if not block_major(block):
        return windows.sum(axis=2)
    if window >= _PAIRWISE_MIN_TERMS:
        if scratch is None:
            copy = np.empty(windows.shape)
        else:
            copy = scratch.ravel(order="K")[: windows.size].reshape(windows.shape)
        np.copyto(copy, windows)
        return copy.sum(axis=2)
    sums = windows[:, :, 0].copy(order="K")
    for j in range(1, window):
        sums += windows[:, :, j]
    return sums


def evaluate_wts(caps, rate: float, window: int, horizons=None):
    """Windowed time-sharing: (counts, delays), where `delays` is the literal
    longest zero-run over all M message slots (untransmitted messages count
    as failures).

    Only messages jB, and h after a short last window of h mod B blocks, are
    ever sent.  With `horizons`, a rising sequence of message counts h with
    B <= h <= M, returns one (counts, delays) per h, each equal to the call
    on the tile's first h columns (rows are prefixes across M), from one
    pass over the first k = floor(h_max/B) windows: their decode bits, the
    running maximum last_j of 1 + the slot of the last decode among the
    first j windows, and the running maximum of the zero-runs that end at a
    window's slot, slot_j - last_j.  Then h, with k_h full windows and the
    short window's bit s, counts the decodes of its first k_h windows plus
    s, and its delay is the larger of the runs up to window k_h and the
    tail h - last_{k_h} - s (a decoded short window leaves the run before
    it).  A call without horizons is the one horizon M.
    """
    tile = as_tile(caps)
    m = tile.caps.shape[1]
    if not (1 <= window <= m):
        raise ValueError(f"need 1 <= window <= blocks, got {window}")
    ends = check_horizons(m, window, horizons)
    k = ends[-1] // window
    # The row-major copy of a long window goes to the tile's float64 temporary.
    pairwise = window >= _PAIRWISE_MIN_TERMS and block_major(tile.caps)
    scratch = tile.temporary(np.float64) if pairwise else None
    sums = window_sums(tile.caps[:, : k * window], window, scratch)
    full = np.greater_equal(sums, rate, out=tile.temporary(bool, k))
    # Column j holds last_j, and then the runs' running maximum up to window j.
    last = tile.temporary(np.int32, k + 1)
    last[:, 0] = 0
    slots = np.arange(window, (k + 1) * window, window, dtype=np.int32)  # 1 + the slots
    np.multiply(full, slots, out=last[:, 1:])
    scan_blocks(np.maximum, last, out=last)
    ones = full.view(np.uint8)
    total, lo, counts, tails = np.zeros(tile.caps.shape[0], np.int64), 0, [], []
    for h in ends:
        kh = h // window
        # Summed as uint8 into the narrowest type that holds the segment.
        total = total + ones[:, lo:kh].sum(axis=1, dtype=np.min_scalar_type(kh - lo))
        tail = h - last[:, kh].astype(np.int64)
        if h > kh * window:
            short = window_sums(tile.caps[:, kh * window : h], h - kh * window, scratch)
            short = short[:, 0] >= rate
            counts.append(total + short)
            tail -= short
        else:
            counts.append(total)
        tails.append(tail)
        lo = kh
    runs = last[:, :k]
    np.subtract(slots - 1, runs, out=runs)
    scan_blocks(np.maximum, runs, out=runs)
    delays = [np.maximum(runs[:, h // window - 1], tail) for h, tail in zip(ends, tails)]
    if horizons is None:
        return counts[0], delays[0]
    return list(zip(counts, delays))


def _depth_margins(tile, rate: float, out: np.ndarray) -> np.ndarray:
    """rate - S_c/(M-c), the margin of depth B = M - c, in column c of `out`,
    a (rows, M) view.  S_c rises and M - c falls along a row, and rounding
    keeps that order: the margins never rise.  The depths are float64, exact
    below 2^53: an int64 divisor is cast element by element."""
    m = tile.caps.shape[1]
    np.divide(tile.prefix, np.arange(m, 0, -1, dtype=np.float64), out=out)
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
    # Summed as uint8 into the narrowest type that holds M, as in `evaluate_pb`.
    nonpositive = np.less_equal(keys, 0.0, out=tile.temporary(bool)).view(np.uint8)
    full = nonpositive.sum(axis=1, dtype=np.min_scalar_type(m)).tolist()
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
    """Exact integer sums of per-trial statistics over `trials` trials, in the
    order of `moments`, and the row's B cell `window` (`evaluate_points`)."""

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


# The passes of this process sample and evaluate their tiles in this one
# workspace, taking turns; a forked worker writes to its own copy.
WORKSPACE = Workspace()
_ONE_PASS_AT_A_TIME = threading.Lock()
# A worker's share holds at least this many tiles, where forking won in every
# measurement: on a shared 2-vCPU VM, two workers on a pass of M = 2000 ran
# x0.91 and x0.87 the speed of one process at 8 and 32 tiles per worker,
# x0.88 in one measurement and x1.25 in another at 64, and x1.22 and x1.40 at 128.
MIN_TILES_PER_WORKER = 128
_SHARE = None  # in a forked worker, its pass's share function (`_adopt`)


def _adopt(share) -> None:
    """A forked worker's start: keep its pass's share function, and leave an
    interrupt to the parent, which terminates the workers."""
    import signal  # loaded by `multiprocessing` already

    global _SHARE
    _SHARE = share
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _forked_share(k: int) -> list:
    return _SHARE(k)


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


def _workers(tiles: int, threads: int) -> int:
    """The processes a pass of `tiles` tiles runs on: at most `threads` and
    `os.cpu_count()`, each with at least MIN_TILES_PER_WORKER tiles, and more
    than one only where this process can fork safely: the platform offers
    "fork" and no other thread runs."""
    workers = min(threads, tiles // MIN_TILES_PER_WORKER, os.cpu_count() or 1)
    if workers < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing  # on use: it adds ~9 ms to every start-up
    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def tile_sums(params: ChannelParams, trials: int, seed: int, threads: int, consumer) -> list:
    """One sampling pass: the sums over all its row tiles of the new int64
    arrays that `consumer(tile)` returns, a list of the same shapes for each
    `channel.Tile`.  Worker k of w samples the contiguous share [k n/w,
    (k+1) n/w) of the pass's n tiles (`row_blocks`) into its process's
    `WORKSPACE` and adds each tile's arrays in place to its total; the
    shares' totals are then added.  One worker runs in this process; more
    are forked (`_workers`), since a consumer is a closure and cannot be
    pickled.
    """
    m = params.blocks
    _check_pass(trials, m)
    ranges = row_blocks(trials, m)
    n = len(ranges)
    with _ONE_PASS_AT_A_TIME:
        workers = _workers(n, threads)

        def share(k: int) -> list:
            tiles = (ranges[i] for i in range(k * n // workers, (k + 1) * n // workers))
            caps = (sample_capacity_matrix(params, seed, lo, hi, WORKSPACE) for lo, hi in tiles)
            return reduce(_add, (consumer(Tile(c, WORKSPACE)) for c in caps))

        if workers == 1:
            return share(0)
        import multiprocessing

        # Shares are added as they finish, so a worker's error is raised as
        # it arrives (`Pool.map` waits for every share), and leaving the
        # block terminates the other workers, also on an interrupt.
        with multiprocessing.get_context("fork").Pool(workers, _adopt, (share,)) as pool:
            return reduce(_add, pool.imap_unordered(_forked_share, range(workers)))


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


def optimize_wts_window(params: ChannelParams, maximize_throughput: bool, horizons=None):
    """(window B, objective at B) for T-wTS (maximum mean decoded count) or
    D-wTS (minimum mean literal delay), from exact objectives: no sampling.

    The k = M // B full windows decode i.i.d. with probability p_B and the
    short last window of r = M % B blocks with p_r
    (`channel.window_decode_prob`).  The mean count is k p_B + [r > 0] p_r,
    the mean delay `runstats.wts_mean_delay`.  B steps up from 1, and the
    search stops at the first B that no larger window can beat: a count is
    at most ceil(M/B), which never rises with B (in floats too: fl(k p) <= k
    for p <= 1, and adding p_r <= 1 keeps it <= k + 1), and a delay is at
    least B - 1 on every realization (the slots before window 1's message).
    Both stops are strict and ties break low, so a window skipped could at
    most tie the best.  The chain is read one window at a time, so it holds
    no window past the last B any search reads.

    With `horizons`, a rising sequence of message counts h <= M, returns one
    (B, objective) per h, each equal to the call at M = h: B steps up over
    the h whose own search has not stopped, with one `wts_mean_delay` call
    per B for all of them.  A call without horizons is the one horizon M.
    """
    ends = check_horizons(params.blocks, 1, horizons)
    better = operator.gt if maximize_throughput else operator.lt
    best = [(0, -math.inf if maximize_throughput else math.inf)] * len(ends)
    probs = []  # p_1..p_B, each read once
    searching, b = range(len(ends)), 1
    while searching:
        # Looked up at call time, so a wrapper on the channel module sees every read.
        probs.append(channel.window_decode_prob(params, b))
        hs = [ends[i] for i in searching]
        shorts = [probs[h % b - 1] if h % b else 0.0 for h in hs]
        if maximize_throughput:
            values = [h // b * probs[-1] + p_r for h, p_r in zip(hs, shorts)]
        else:
            values = wts_mean_delay(hs[-1], b, probs[-1], shorts, hs)
        for i, value in zip(searching, values):
            if better(value, best[i][1]):
                best[i] = (b, value)
        b += 1
        # The best a window of b or more blocks can reach: ceil(h/b) or b - 1.
        searching = [
            i for i in searching
            if b <= ends[i] and better(-(-ends[i] // b) if maximize_throughput else b - 1, best[i][1])
        ]
    return best[0] if horizons is None else best


def _fixed_rows(params: ChannelParams, schemes: dict, windows: dict) -> tuple[dict, dict]:
    """(key -> (the fixed row evaluated, its B cell), key -> depth of a PB
    row read off the depth table) at one point, before sampling.

    Each scheme is the row `Scheme.at` names, T-/D-wTS at the window
    `windows` holds for them (key -> M -> the (B, objective) of
    `optimize_wts_window`).  A PB row whose depth the table is to choose
    has depth None: only a point with such a row builds the table, and then
    every PB row is read off it; at any other point they are fixed rows
    (`evaluate_pb`)."""
    m = params.blocks
    fixed, depths = {}, {}
    for key, scheme in schemes.items():
        chosen = windows[key][m][0] if key in windows else None
        row = scheme.at(m, chosen)
        if row.name == "pb":
            depths[key] = row.window
        else:
            fixed[key] = row, scheme.window or chosen
    if None in depths.values():
        return fixed, depths
    return fixed | {key: (schemes[key].at(m), schemes[key].window) for key in depths}, {}


def _passes(points: list) -> list[list[int]]:
    """The indices of the points of each sampling pass, in the order of
    their first points: the block-major points of one link (SNR and rate)
    share a pass, and every other point has its own.  A row-major point is
    never shared: a tile of a larger M holds fewer rows, and at 10,000
    trials a point of M = 100 would pay a tile's overhead 625 times in a
    pass at M = 2000, against 31 in its own."""
    passes, shared = [], {}
    for i, params in enumerate(points):
        if params.blocks > BLOCK_MAJOR_MAX_BLOCKS:
            passes.append([i])
            continue
        link = replace(params, blocks=1)
        if link not in shared:
            shared[link] = []
            passes.append(shared[link])
        shared[link].append(i)
    return passes


def _evaluate_pass(points: list, schemes: dict, trials: int, seed: int, threads: int) -> list:
    """`evaluate_points` of points of one link, in one `tile_sums` pass at
    their largest M.  Each point reads its PB rows off the tile's `head` at
    its M, and every other fixed row (IT and `wts:B`) is evaluated once per
    tile, at the M of every point that makes it.  Each T-/D-wTS row chooses
    its window at every M of the pass in one `optimize_wts_window` call,
    before the points are planned."""
    widest = max(points, key=lambda params: params.blocks)
    hs = sorted({params.blocks for params in points})
    windows = {
        key: dict(zip(hs, optimize_wts_window(widest, scheme.row.maximize, hs)))
        for key, scheme in schemes.items()
        if scheme.row.table == "wts"
    }
    plans = [_fixed_rows(params, schemes, windows) for params in points]
    scans = {}  # a fixed row other than PB -> the M of the points that make it
    for params, (fixed, _) in zip(points, plans):
        for row, _ in fixed.values():
            if row.name != "pb":
                scans.setdefault(row, set()).add(params.blocks)
    scans = {row: sorted(blocks) for row, blocks in scans.items()}
    rate = points[0].rate

    def consumer(tile):
        stats = {
            row: dict(zip(hs, row.row.evaluate(tile, rate, row.window, hs)))
            for row, hs in scans.items()
        }
        sums = []
        for params, (fixed, depths) in zip(points, plans):
            head = tile.head(params.blocks)
            for row, _ in fixed.values():
                pair = stats[row][params.blocks] if row in stats else row.evaluate(head, rate)
                sums.append(moments(*pair))
            if depths:
                sums.append(pb_count_sums(head, rate))
        return sums

    sums = iter(tile_sums(widest, trials, seed, threads, consumer))
    out = []
    for fixed, depths in plans:
        accums = {
            key: Accumulator(window, trials, *next(sums).tolist())
            for key, (_, window) in fixed.items()
        }
        if depths:
            table = next(sums)
            chosen, _ = optimize_pb_window(table[0], trials)
            for key, depth in depths.items():
                acc = pb_accumulator(table, trials, depth or chosen)
                accums[key] = acc if depth is None else replace(acc, window=schemes[key].window)
        out.append({key: accums[key] for key in schemes})
    return out


def evaluate_points(points, schemes: dict, trials: int, seed: int, threads: int = 1) -> list:
    """Run all requested schemes at every point (`ChannelParams`) on shared
    traces: one `tile_sums` pass for the block-major points of each link,
    which read their rows off the first columns of its tiles (see the module
    docstring), and one pass for every other point.

    `schemes` maps an arbitrary key to a `schemes.Scheme`; each is
    evaluated at each point as `_fixed_rows` says, and a chosen PB depth's
    row is read off the depth table of the pass.  Every other row's sums are
    the `moments` of its per-trial counts and delays.  Returns, for each
    point, key -> Accumulator, whose `window` is the CSV's B cell: the
    window the row was given or chose, so None for MT, eTS and IT.  The
    sums are exact integers, so the result is independent of `threads`, of
    the tile size and of the points evaluated with it.
    """
    points = list(points)
    if points:
        _check_pass(trials, max(params.blocks for params in points))
    for params in points:
        for scheme in schemes.values():
            scheme.check_window(params.blocks)
    out = [None] * len(points)
    for indices in _passes(points):
        results = _evaluate_pass([points[i] for i in indices], schemes, trials, seed, threads)
        for i, result in zip(indices, results):
            out[i] = result
    return out


def evaluate_point(
    params: ChannelParams,
    schemes: dict,
    trials: int,
    seed: int,
    threads: int = 1,
) -> dict:
    """`evaluate_points` at one point: key -> Accumulator, from one pass."""
    return evaluate_points([params], schemes, trials, seed, threads)[0]
