"""Block-fading channel model: i.i.d. unit-mean Rayleigh blocks and their
instantaneous capacities.

The channel stays constant within a block and redraws independently across
blocks.  A block's power gain g is unit-mean exponential (Rayleigh fading);
with transmit power P it supports log2(1 + g*P) bits per channel use, and a
message of rate R decodes whenever the mutual information accumulated for it
reaches R.  A realization is its vector of block capacities: the gains are
drawn, turned into capacities in place, and not kept.

This module also fixes the memory layout of a (trials, blocks) tile.  Rows
of at most BLOCK_MAJOR_MAX_BLOCKS blocks are sampled block-major (Fortran
order): numpy pays a fixed cost per row for every reduction along a row, so
short rows are reduced across trials, one contiguous column at a time
(`scan_blocks`, and numpy's own column reductions).  Longer rows stay
row-major.  Either layout gives the same values bit for bit.

The trials of a sampling pass, and the rows the sampler fills, are cut
into row tiles by one rule, `row_blocks`: a tile holds at most
`tile_elements` capacities, 2^16 block-major, so that each column
operation spans twice the trials, and 2^15 row-major.  A `Workspace` holds
one process's tile buffers, reused from tile to tile, and a `Tile` is one
tile's capacities with the running sums its consumers share; a capacity
matrix given to an evaluator is one tile (`as_tile`).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import rng
from .errors import NumericFailure

_LN2 = math.log(2.0)
_EULER_GAMMA = 0.5772156649015328606065
# The capacity grid of the window probabilities stops at log2(1 + 37 P): the
# gain law's survival function is ~1e-16 there, and the sampler never draws a
# gain above -ln(2^-53) ~ 36.7.
_GAIN_CAP = 37.0
_GRID = 1 << 13
# Row-major tiles of the sampling pass hold at most this many capacities
# (256 KB of float64), so every stage's arrays stay in L2 cache whatever M
# is; block-major tiles hold twice as many (`tile_elements`).
ROW_BLOCK_ELEMENTS = 1 << 15
# `mean_capacity` integrates on this many equal panels of 20 Gauss-Legendre nodes.
_MEAN_CAPACITY_PANELS = 64
# Tiles whose rows have at most this many blocks are block-major, and
# `engine.pb_count_sums` counts their decodes across trials, one diagonal of
# the (depth, message) triangle at a time, not by a search per row.  Above
# it a tile holds too few trials for a column loop to pay: 16 at M = 2000,
# where a column loop over 131 trials took 3.4 ms per cumsum against 1.1 ms
# along the rows.  On the row-major tiles at M = 65-128 the counting kernel
# took 1.45-2.5 times the search's time, and at M = 56-64 the search took
# 3.7-4.9 times the counting kernel's, so the cutoff serves both choices.
BLOCK_MAJOR_MAX_BLOCKS = 64


# Why `usable_snr` refuses an SNR, in ChannelParams and the experiment fields.
SNR_RULE = (
    "snr_db must be finite and give a transmit power P = 10**(snr_db/10) > 0 "
    "whose reciprocal 1/P and 37 P are finite (about -3082.5 to 3066.9 dB)"
)


def usable_snr(snr_db: float) -> bool:
    """Whether `snr_db` gives a positive, finite transmit power 10**(snr_db/10)
    whose reciprocal and capacity grid log2(1 + 37 P) are finite too."""
    try:
        power = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        return False
    return power > 0.0 and math.isfinite(power * _GAIN_CAP) and math.isfinite(1.0 / power)


@dataclass(frozen=True)
class ChannelParams:
    """Static link parameters.

    snr_db   average SNR in dB; transmit power is 10**(snr_db/10) with
             unit-mean fading and unit-variance noise
    rate     fixed message rate in bits per channel use
    blocks   number of channel blocks (one message per block deadline)
    """

    snr_db: float
    rate: float
    blocks: int

    def __post_init__(self):
        if not usable_snr(self.snr_db):
            raise ValueError(SNR_RULE)
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError("rate must be positive and finite")
        if int(self.blocks) != self.blocks or self.blocks < 1:
            raise ValueError("blocks must be a positive integer")

    @property
    def power(self) -> float:
        return 10.0 ** (self.snr_db / 10.0)


def _capacities_in_place(g: np.ndarray, power: float) -> np.ndarray:
    # log2(1 + power * g), overwriting g: one (n, M) array instead of three.
    g *= power
    g += 1.0
    return np.log2(g, out=g)


def tile_order(blocks: int) -> str:
    """Memory order of a tile of rows of `blocks` capacities: "F"
    (block-major) up to BLOCK_MAJOR_MAX_BLOCKS, else "C" (row-major)."""
    return "F" if blocks <= BLOCK_MAJOR_MAX_BLOCKS else "C"


def tile_elements(blocks: int) -> int:
    """Most capacities in a row tile of rows of `blocks` blocks.

    A block-major tile is reduced one column at a time, so each numpy call
    spans its rows: it holds 2 * ROW_BLOCK_ELEMENTS, which halves those calls
    for rows of M <= 64.  A row-major tile holds ROW_BLOCK_ELEMENTS.
    """
    return 2 * ROW_BLOCK_ELEMENTS if tile_order(blocks) == "F" else ROW_BLOCK_ELEMENTS


def block_major(a: np.ndarray) -> bool:
    """Whether the trials (axis 0) are the contiguous axis of a 2-D array."""
    return abs(a.strides[0]) < abs(a.strides[1])


def scan_blocks(ufunc: np.ufunc, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """`ufunc.accumulate(a, axis=1, out=out)`: running sums, maxima or minima
    along the blocks of a (trials, blocks) array.

    A block-major array is scanned one column at a time, one in-place vector
    operation across trials per block.  Both paths make the same left-to-right
    operations, so they give the same bits.
    """
    if not block_major(a):
        return ufunc.accumulate(a, axis=1, out=out)
    if out is None:
        out = np.empty_like(a)  # keeps the block-major layout
    # The rows of the transposes are the columns, without a slice per step.
    cols, dst = a.T, out.T
    if out is not a:
        dst[0] = cols[0]
    prev = dst[0]
    for col, here in zip(cols[1:], dst[1:]):
        ufunc(prev, col, out=here)
        prev = here
    return out


class _RowBlocks(Sequence):
    """`count` balanced (lo, hi) ranges of `rows` rows, each made when read."""

    def __init__(self, rows: int, count: int):
        self._rows, self._count = rows, count

    def __len__(self):
        return self._count

    def __getitem__(self, i: int) -> tuple[int, int]:
        i = range(self._count)[i]  # negative indices count from the end
        return self._rows * i // self._count, self._rows * (i + 1) // self._count


def row_blocks(rows: int, blocks: int) -> Sequence[tuple[int, int]]:
    """(lo, hi) row ranges covering `rows` rows of `blocks` columns, each of
    at most `tile_elements(blocks)` elements (one row when a row is longer),
    in as few tiles as that allows and of sizes that differ by at most one
    row.  A lazy sequence: its length is known at once and each range is
    made when it is read, so any row count takes O(1) memory."""
    return _RowBlocks(rows, -(-rows // max(1, tile_elements(blocks) // blocks)))


class Workspace:
    """Scratch arrays for one row tile at a time, reused from tile to tile:
    one flat byte buffer per name, viewed on each use as a (rows, cols)
    array of any dtype in the layout of rows of `blocks` blocks.  A worker
    of a sampling pass samples and evaluates each tile of its share in its
    process's one workspace, `engine.WORKSPACE`.

    A buffer holds 8 * `tile_elements(blocks)` bytes, a tile of float64
    capacities: 512 KB in the block-major layout and 256 KB in the row-major
    one.  That is room for one more column of the tile's rows at 4 bytes an
    element, as a zero run's int32 (rows, M + 1) array takes.  A request of
    another dtype or shape within that room reuses the buffer; a larger
    buffer is built only when a layout of larger tiles first asks.  A view
    stays valid until the next request for its name.  An array larger than
    the room (a tile of one row longer than a tile) is new on each request
    and not kept, so a workspace holds at most seven buffers, 3.5 MB
    block-major or 1.75 MB row-major, whatever the rows it has served.  The
    sampler writes a tile's capacities here and borrows the "prefix" and
    "running" buffers for its RNG states before the tile's scans fill them;
    a `Tile` keeps its scans and temporaries here.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, name: str, dtype, rows: int, cols: int, blocks: int) -> np.ndarray:
        """A (rows, cols) view of the buffer `name`, in the memory order of
        rows of `blocks` blocks (`tile_order`)."""
        order, room = tile_order(blocks), 8 * tile_elements(blocks)
        nbytes = rows * cols * np.dtype(dtype).itemsize
        if nbytes > room:
            return np.empty((rows, cols), dtype, order=order)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < nbytes:
            buffer = np.empty(room, np.uint8)
            self._buffers[name] = buffer
        return np.ndarray((rows, cols), dtype, buffer, order=order)


def equal_share_weights(blocks: int) -> np.ndarray:
    """Block t (0-indexed) is split among the `blocks` - t messages still alive."""
    return 1.0 / (blocks - np.arange(blocks))


class Tile:
    """A row tile of capacities and the arrays its consumers share, all in
    the tile's workspace and in the tile's layout.

    Kept for the tile's life: `caps`, and the scans `prefix` (the prefix
    sums S) and `running` (the equal-share running totals W, eTS's running
    mutual information; `equal_share_weights`), each built once, on first
    use, by `scan_blocks`.  Everything else is a `temporary`: the tile has
    one per dtype, and the next request for that dtype overwrites it, so a
    consumer holds at most one of each dtype and none past its return.

    `head(m)` is the tile of the first m columns, which reads this tile's S.
    """

    def __init__(self, caps: np.ndarray, workspace: Workspace, whole: Tile | None = None):
        self.caps = caps
        self.workspace = workspace
        self._whole = whole  # the tile whose first columns these are, if any
        self._prefix = self._running = None

    def head(self, blocks: int) -> Tile:
        """The tile of this tile's first `blocks` columns, in its workspace.

        A row at M is, bit for bit, the first M capacities of the same row
        at any larger M (`sample_capacity_matrix`), and S is a left-to-right
        scan, so the head's capacities and S are views of this tile's first
        `blocks` columns: a block-major head is contiguous, and this tile's S
        is built once for all its heads.  W weighs block t by
        1/(`blocks` - t), so each head builds its own in the "running"
        buffer, and it stays valid until the next head (or this tile) builds
        one there.
        """
        return Tile(self.caps[:, :blocks], self.workspace, self)

    def _array(self, name: str, dtype, cols: int | None = None) -> np.ndarray:
        rows, m = self.caps.shape
        return self.workspace.array(name, dtype, rows, m if cols is None else cols, m)

    def temporary(self, dtype, cols: int | None = None) -> np.ndarray:
        """The tile's (rows, `cols`) temporary of `dtype`, `cols` defaulting
        to the tile's blocks."""
        return self._array(f"temporary {np.dtype(dtype).str}", dtype, cols)

    @property
    def prefix(self) -> np.ndarray:
        if self._prefix is None:
            if self._whole is not None:
                self._prefix = self._whole.prefix[:, : self.caps.shape[1]]
            else:
                self._prefix = scan_blocks(np.add, self.caps, out=self._array("prefix", np.float64))
        return self._prefix

    @property
    def running(self) -> np.ndarray:
        if self._running is None:
            running = self._array("running", np.float64)
            np.multiply(self.caps, equal_share_weights(self.caps.shape[1]), out=running)
            self._running = scan_blocks(np.add, running, out=running)
        return self._running


def as_tile(caps) -> Tile:
    """`caps` itself if it is a `Tile`, else the whole matrix as one tile in
    a new workspace."""
    if isinstance(caps, Tile):
        return caps
    return Tile(np.asarray(caps, dtype=np.float64), Workspace())


def _sample_into(out: np.ndarray, params: ChannelParams, seed: int, start: int, workspace):
    # The RNG's states and shifts borrow the buffers of the tile's scans,
    # which are built only after sampling.
    rows, blocks = out.shape
    order = tile_order(blocks)
    scratch = tuple(
        workspace.array(name, np.uint64, rows, blocks, blocks) for name in ("prefix", "running")
    )
    rng.exponential_matrix(seed, start, start + rows, blocks, order, out=out, scratch=scratch)
    return _capacities_in_place(out, params.power)


def sample_capacity_matrix(
    params: ChannelParams, seed: int, start: int, stop: int, workspace: Workspace | None = None
) -> np.ndarray:
    """Capacities for trials start..stop-1, in the memory order of `tile_order`.

    Without a workspace the matrix is new and filled one row tile at a time.
    With one, the rows are one tile, written into the workspace's "caps"
    buffer: the result is a view that the next tile overwrites.  Rows are
    pure functions of their trial index, so either way they are exactly the
    capacities of one `rng.exponential_matrix` draw of the same rows.
    """
    rows, blocks = stop - start, params.blocks
    if workspace is not None:
        caps = workspace.array("caps", np.float64, rows, blocks, blocks)
        return _sample_into(caps, params, seed, start, workspace)
    out = np.empty((rows, blocks), order=tile_order(blocks))
    workspace = Workspace()
    for lo, hi in row_blocks(rows, blocks):
        _sample_into(out[lo:hi], params, seed, start + lo, workspace)
    return out


def sample_trace(params: ChannelParams, seed: int, trial_index: int) -> np.ndarray:
    """The block capacities of trial `trial_index`: its row of
    `sample_capacity_matrix`, bit for bit."""
    return sample_capacity_matrix(params, seed, trial_index, trial_index + 1)[0]


def decode_success_prob(params: ChannelParams) -> float:
    """Pr{per-block capacity >= rate} for a single block; 0, the limit, for a
    rate so large that 2**rate overflows."""
    try:
        threshold = (2.0**params.rate - 1.0) / params.power
    except OverflowError:
        return 0.0
    return math.exp(-threshold)


def exp1(x: float) -> float:
    """Exponential integral E1(x) for x > 0.

    Power series below 1.0, modified-Lentz continued fraction above; both
    branches converge to full double precision over the SNR range used here.
    """
    if not (x > 0):
        raise ValueError("exp1 requires x > 0")
    if x <= 1.0:
        total = -_EULER_GAMMA - math.log(x)
        term = x
        k = 1
        total += term
        while abs(term) > 1e-18 * max(1.0, abs(total)):
            k += 1
            term *= -x * (k - 1) / (k * k)
            total += term
            if k > 200:  # unreachable for x <= 1
                raise NumericFailure("exp1 series did not converge")
        return total
    return math.exp(-x) / _exp1_fraction(x)


def _exp1_fraction(x: float) -> float:
    """f = x + 1 - 1/(x + 3 - 4/(x + 5 - 9/(...))), E1(x) = e^-x / f, for x > 1.
    It stops at a step within an ulp of 1 (2^-53 below, 2^-52 above): a
    tighter test never stops for about 1 in 12 x above 1e18."""
    tiny = 1e-300
    f = x + 1.0
    c = f
    d = 0.0
    for n in range(1, 300):
        a = -float(n * n)
        b = x + 2.0 * n + 1.0
        d = b + a * d
        if d == 0.0:
            d = tiny
        c = b + a / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 2.0**-52:
            return f
    raise NumericFailure("exp1 continued fraction did not converge")


def mean_capacity(params: ChannelParams) -> float:
    """Average per-block capacity E[log2(1 + g*P)] by Gauss-Legendre quadrature.

    The cross-check of `mean_capacity_closed_form`, sharing none of its code:
    the integral of the capacity's survival function, exp(-(2^c - 1)/P), over
    [0, log2(1 + 700 P)], beyond which it is below e^-700.  The same rule on
    twice the panels is its error estimate; an estimate above 1e-9 |value|
    raises NumericFailure.
    """
    from numpy.polynomial.legendre import leggauss  # on use: only `verify` integrates

    power = params.power
    nodes, weights = leggauss(20)
    top = math.log1p(700.0 * power) / _LN2

    def rule(panels):
        half = top / (2 * panels)
        c = (2 * np.arange(panels)[:, None] + 1 + nodes) * half
        return float((np.exp(-np.expm1(c * _LN2) / power) @ weights).sum() * half)

    value = rule(_MEAN_CAPACITY_PANELS)
    error = abs(rule(2 * _MEAN_CAPACITY_PANELS) - value)
    if error > 1e-9 * abs(value):
        raise NumericFailure(
            f"mean-capacity quadrature error {error:g} above tolerance at snr={params.snr_db}"
        )
    return value


def mean_capacity_closed_form(params: ChannelParams) -> float:
    """Closed form e^(1/P) E1(1/P) / ln 2 for the unit-mean exponential gain.
    For 1/P > 1 the continued fraction gives e^x E1(x) = 1/f, so e^(1/P),
    which overflows below about -28.5 dB, is never formed."""
    inv = 1.0 / params.power
    if inv <= 1.0:
        return math.exp(inv) * exp1(inv) / _LN2
    return 1.0 / (_exp1_fraction(inv) * _LN2)


def window_decode_prob(params: ChannelParams, window: int) -> float:
    """p_B = Pr{sum of B = `window` consecutive block capacities >= rate};
    the only reader of the window chain.

    p_1 is decode_success_prob, and no chain is built for it.  For B >= 2
    the single-block capacity is binned on a uniform grid, and one chain of
    convolutions carries only the cells that can lie below the rate from B
    to B + 1, by one FFT product; p_B is one minus their mass.  Memory is set
    by rate / dc, not by B.  The chain is memoized on the link parameters
    other than `blocks`, and a read extends it to B and no further, so a
    window read before costs a lookup.  Where B blocks at the grid's top
    capacity fall short of the rate, p_B is 0, and no grid is built for it.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    link = replace(params, blocks=1)
    if window == 1:
        return decode_success_prob(link)
    if window * _top_capacity(link.power) <= link.rate:
        return 0.0
    chain = _failure_chain(link)
    chain.extend(window)
    return chain.probs[window - 1]


def _top_capacity(power: float) -> float:
    return math.log2(1.0 + power * _GAIN_CAP)


def _capacity_masses(power: float, grid_size: int):
    """(bin masses, bin width) of the single-block capacity on `grid_size`
    uniform bins over [0, log2(1 + 37 P)]; the last bin takes the tail."""
    dc = _top_capacity(power) / grid_size
    # Exact bin masses from the capacity CDF: F(c) = 1 - exp(-(2^c - 1)/P).
    edges = np.arange(grid_size + 1) * dc
    cdf = 1.0 - np.exp(-(np.exp2(edges) - 1.0) / power)
    mass = np.diff(cdf)
    mass[-1] += 1.0 - cdf[-1]
    return mass, dc


class _FailureChain:
    """The B-fold capacity-sum mass on the grid cells that can lie below the
    rate, `below`, and p_1..p_B.

    A convolution never moves mass to a lower cell, so the cells kept are
    exact after dropping all higher ones; an FFT of at least 2 * cells - 1
    points then has no wrap-around on them.
    """

    def __init__(self, link: ChannelParams):
        mass, self.dc = _capacity_masses(link.power, _GRID)
        self.rate = link.rate
        self.top = _top_capacity(link.power)
        cells = int(math.ceil(link.rate / self.dc)) + 1
        self.below = np.zeros(cells)
        self.below[: min(cells, _GRID)] = mass[:cells]
        # The smallest 2^j, 3 * 2^j or 9 * 2^j points >= 2 * cells - 1.
        need = 2 * cells - 1
        self.size = min(f << (-(-need // f) - 1).bit_length() for f in (1, 3, 9))
        self.spectrum = np.fft.rfft(self.below, self.size)
        self.probs = [decode_success_prob(link)]

    def extend(self, windows: int) -> None:
        while len(self.probs) < windows:
            if self.probs[-1] == 1.0:
                # A further block only adds capacity: the failure mass only
                # shrinks, and p stays 1 to double precision.
                self.probs.append(1.0)
                continue
            window = len(self.probs) + 1
            cells = self.below.size
            product = np.fft.rfft(self.below, self.size) * self.spectrum
            self.below = np.fft.irfft(product, self.size)[:cells].copy()
            if window * self.top <= self.rate:
                # Every cell lies below the rate; 1 - their mass is rounding.
                self.probs.append(0.0)
                continue
            # Cell k sits at capacity sum (k + window/2)*dc.
            failure = self.below[(np.arange(cells) + window * 0.5) * self.dc < self.rate].sum()
            self.probs.append(min(1.0, max(0.0, 1.0 - float(failure))))


# A message sweep reuses one link; an SNR sweep never revisits one.
@lru_cache(maxsize=8)
def _failure_chain(link: ChannelParams) -> _FailureChain:
    return _FailureChain(link)
