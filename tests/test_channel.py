import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from streamfade import channel, rng
from streamfade.channel import (
    ChannelParams,
    decode_success_prob,
    exp1,
    mean_capacity,
    mean_capacity_closed_form,
    sample_capacity_matrix,
    sample_trace,
    window_decode_prob,
)
from streamfade.rng import stream_base
from streamfade.errors import NumericFailure

from oracles import lowest_usable_snr, window_failure_masses_convolved

# Values computed ahead of the build with an independent high-resolution
# trapezoid rule (20M+ panels) over the unit-mean exponential density.
TRAPEZOID_MEAN_CAPACITY = {
    5.0: 1.715974185066,
    -5.0: 0.362149798877,
    0.0: 0.860347382270,
    10.0: 2.906514808410,
}
TRAPEZOID_DECODE_PROB = {5.0: 0.728893414110, -5.0: 0.042329219623}


def params(snr=5.0, rate=1.0, blocks=3):
    return ChannelParams(snr_db=snr, rate=rate, blocks=blocks)


def capacities(p, gains):
    """log2(1 + P g) of the gains `gains`, by the sampler's own conversion."""
    return channel._capacities_in_place(np.array(gains, dtype=np.float64), p.power)


def untiled(p, seed, start, stop):
    """The capacities of one untiled draw of trials start..stop-1, in the
    memory order of `tile_order`."""
    gains = rng.exponential_matrix(seed, start, stop, p.blocks, channel.tile_order(p.blocks))
    return channel._capacities_in_place(gains, p.power)


TILE = channel.ROW_BLOCK_ELEMENTS
BLOCK_TILE = channel.tile_elements(1)  # the block-major tile


class TestParams:
    def test_power_matches_snr(self):
        for snr in (-10.0, -5.0, 0.0, 5.0, 15.0):
            p = params(snr=snr)
            assert abs(p.power - 10.0 ** (snr / 10.0)) <= 1e-12 * p.power

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(snr_db=5.0, rate=0.0, blocks=3),
            dict(snr_db=5.0, rate=-1.0, blocks=3),
            dict(snr_db=5.0, rate=1.0, blocks=0),
            dict(snr_db=math.inf, rate=1.0, blocks=3),
            dict(snr_db=4000.0, rate=1.0, blocks=3),  # 10**400 overflows
            dict(snr_db=-4000.0, rate=1.0, blocks=3),  # 10**-400 is 0
            dict(snr_db=-3100.0, rate=1.0, blocks=3),  # 1 / 10**-310 overflows
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChannelParams(**kwargs)


class TestCapacities:
    def test_unit_gains_give_constant_capacity(self):
        # log2(1 + 10^0.5) for every block
        caps = capacities(params(), np.ones(3))
        expected = math.log2(1.0 + 10.0**0.5)
        assert np.allclose(caps, expected, rtol=0, atol=1e-12)
        assert abs(expected - 2.0574) < 5e-5

    def test_zero_gains_give_zero_capacity(self):
        assert np.all(capacities(params(), np.zeros(3)) == 0.0)

    def test_capacity_law_holds_on_samples(self):
        p = params(blocks=64)
        caps = sample_trace(p, 99, 7)
        gains = rng.exponential_matrix(99, 7, 8, 64)[0]
        assert np.array_equal(caps, np.log2(1.0 + p.power * gains))
        assert np.all(caps >= 0.0)

    def test_capacity_roundtrip(self):
        # gains back-solved from target capacities give those capacities
        p = params(blocks=4)
        target = np.array([0.5, 1.0, 0.0, 2.0])
        assert np.allclose(capacities(p, (np.exp2(target) - 1.0) / p.power), target, atol=1e-14)


class TestSampling:
    def test_deterministic_per_seed_and_trial(self):
        p = params(blocks=16)
        a = sample_trace(p, 1234, 5)
        b = sample_trace(p, 1234, 5)
        assert np.array_equal(a, b)
        c = sample_trace(p, 1234, 6)
        assert not np.array_equal(a, c)
        d = sample_trace(p, 1235, 5)
        assert not np.array_equal(a, d)

    def test_batch_matches_single(self):
        p = params(blocks=8)
        block = rng.exponential_matrix(7, 10, 20, 8)
        for i in range(10):
            assert np.array_equal(capacities(p, block[i]), sample_trace(p, 7, 10 + i))

    @pytest.mark.parametrize("blocks", [1, 64, 65, 2000, TILE + 1])
    def test_trace_is_its_row_of_the_matrix(self, blocks):
        # A trace is a capacity vector: the row of its trial, bit for bit,
        # in either memory order and when one row exceeds a tile.
        p = params(snr=3.0, blocks=blocks)
        matrix = sample_capacity_matrix(p, 5, 40, 43)
        for i in range(3):
            trace = sample_trace(p, 5, 40 + i)
            assert trace.shape == (blocks,) and trace.dtype == np.float64
            assert trace.tobytes() == matrix[i].tobytes()

    @pytest.mark.parametrize("blocks, wider", [(8, 64), (64, 65), (1, 200)])
    def test_rows_are_prefixes_across_m(self, blocks, wider):
        # A row at M is the first M capacities of the same row at any larger
        # M, bit for bit, whether the rows are one tile of a workspace or a
        # new matrix; the points of a message sweep share one pass on this.
        narrow, wide = params(snr=3.0, blocks=blocks), params(snr=3.0, blocks=wider)
        for workspaces in ((None, None), (channel.Workspace(), channel.Workspace())):
            short = sample_capacity_matrix(narrow, 5, 40, 340, workspaces[0])
            long = sample_capacity_matrix(wide, 5, 40, 340, workspaces[1])
            assert short.tobytes("C") == long[:, :blocks].tobytes("C")

    def test_empirical_mean_capacity(self):
        # >= 1e6 blocks within four standard errors of the quadrature mean
        p = params(snr=5.0, blocks=40)
        caps = sample_capacity_matrix(p, 2024, 0, 25_000).ravel()
        se = caps.std(ddof=1) / math.sqrt(caps.size)
        assert abs(caps.mean() - mean_capacity(p)) < 4 * se

    def test_empirical_decode_frequency(self):
        p = params(snr=-5.0, rate=1.0, blocks=40)
        caps = sample_capacity_matrix(p, 77, 0, 25_000).ravel()
        freq = (caps >= p.rate).mean()
        prob = decode_success_prob(p)
        se = math.sqrt(prob * (1 - prob) / caps.size)
        assert abs(freq - prob) < 4 * se

    def test_substream_serial_correlation(self):
        g = rng.exponential_matrix(31337, 0, 20_000, 50).ravel()
        x, y = g[:-1], g[1:]
        r = np.corrcoef(x, y)[0, 1]
        assert abs(r) < 0.01


class TestRowTiles:
    """`sample_capacity_matrix` fills its output one row tile at a time; the
    tiles give the matrix of one untiled draw, bit for bit."""

    @pytest.mark.parametrize(
        "blocks, rows",
        [
            (1, 3),
            (1, TILE + 1),
            (64, TILE // 64 - 1),
            (64, TILE // 64),
            (64, TILE // 64 + 1),
            (1, BLOCK_TILE + 1),
            (64, BLOCK_TILE // 64 - 1),
            (64, BLOCK_TILE // 64),
            (64, BLOCK_TILE // 64 + 1),
            (2000, 131),
            (TILE - 1, 3),
            (TILE, 3),
            (TILE + 1, 3),  # a single row exceeds a tile
        ],
    )
    def test_tiles_match_one_draw(self, blocks, rows):
        p = params(snr=3.0, blocks=blocks)
        lo = 37
        tiled = sample_capacity_matrix(p, 99, lo, lo + rows)
        whole = untiled(p, 99, lo, lo + rows)
        assert tiled.shape == (rows, blocks)
        assert tiled.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("blocks", [1, 64, 65, 2000])
    def test_memory_order(self, blocks):
        # Rows of at most 64 blocks are sampled block-major, longer ones
        # row-major; the values are the same draw either way.
        p = params(snr=3.0, blocks=blocks)
        rows = 9
        caps = sample_capacity_matrix(p, 99, 37, 37 + rows)
        whole = untiled(p, 99, 37, 37 + rows)
        block_major = blocks <= channel.BLOCK_MAJOR_MAX_BLOCKS
        for matrix in (caps, whole):
            assert matrix.flags.f_contiguous == block_major
            assert matrix.flags.c_contiguous == (not block_major or blocks == 1)
        assert caps.tobytes() == whole.tobytes()
        row_major = rng.exponential_matrix(99, 37, 37 + rows, blocks)
        assert row_major.flags.c_contiguous
        assert caps.tobytes() == channel._capacities_in_place(row_major, p.power).tobytes()

    def test_tiles_cover_the_rows(self):
        # Each layout's cap, and one row past it: block-major rows of one
        # block, row-major rows of TILE + 1 blocks.
        past_cap = channel.tile_elements(1) + 1
        cases = (
            (0, 5), (1, 5), (131, 2000), (3, TILE + 1), (TILE + 1, 1), (past_cap, 1), (10_000, 20)
        )
        for rows, blocks in cases:
            ranges = list(channel.row_blocks(rows, blocks))
            edges = [0] + [hi for _, hi in ranges]
            assert ranges == list(zip(edges[:-1], edges[1:])) and edges[-1] == rows
            cap = channel.tile_elements(blocks)
            assert all(hi - lo == 1 or (hi - lo) * blocks <= cap for lo, hi in ranges)
            sizes = {hi - lo for lo, hi in ranges}
            assert len(sizes) <= 1 or max(sizes) - min(sizes) == 1  # balanced
            assert len(channel.row_blocks(rows, blocks)) == len(ranges)
        assert len(channel.row_blocks(past_cap, 1)) > 1
        assert list(channel.row_blocks(10_000, 20)) == [(k, k + 2500) for k in range(0, 10_000, 2500)]

    def test_ranges_are_made_when_read(self):
        # 2^62 one-row tiles: a list of them could not be built.
        ranges = channel.row_blocks(1 << 62, 1 << 16)
        assert len(ranges) == 1 << 62
        assert ranges[0] == (0, 1) and ranges[-1] == ((1 << 62) - 1, 1 << 62)
        with pytest.raises(IndexError):
            ranges[1 << 62]

    def test_tile_size_follows_the_layout(self):
        # Block-major tiles hold twice the capacities of row-major ones.
        m = channel.BLOCK_MAJOR_MAX_BLOCKS
        assert channel.tile_elements(1) == channel.tile_elements(m) == 2 * TILE
        assert channel.tile_elements(m + 1) == channel.tile_elements(2000) == TILE


class TestWorkspace:
    """A workspace's buffers serve every tile of a layout, the sampler's RNG
    scratch included, and a tile's scans are those of the untiled matrix."""

    @pytest.mark.parametrize("blocks", [8, 2000])
    def test_sampler_scratch_is_the_scan_buffers(self, monkeypatch, blocks):
        scratches = []
        real = rng.exponential_matrix

        def spy(*args, scratch, **kwargs):
            scratches.append(scratch)
            return real(*args, scratch=scratch, **kwargs)

        monkeypatch.setattr(rng, "exponential_matrix", spy)
        workspace = channel.Workspace()
        caps = sample_capacity_matrix(params(blocks=blocks), 5, 0, 7, workspace)
        tile = channel.Tile(caps, workspace)
        [(states, shifts)] = scratches
        assert np.shares_memory(states, tile.prefix)
        assert np.shares_memory(shifts, tile.running)
        assert not np.shares_memory(states, caps) and not np.shares_memory(shifts, caps)

    @pytest.mark.parametrize("blocks", [1, 64, 65, 2000])
    def test_tile_scans_equal_the_untiled_reference(self, blocks):
        # Two tiles or more through one workspace: each tile's sampling
        # overwrites the scans of the tile before it.
        p = params(snr=3.0, blocks=blocks)
        rows = channel.tile_elements(blocks) // blocks + 1
        whole = untiled(p, 11, 0, rows)
        weights = channel.equal_share_weights(blocks)
        workspace = channel.Workspace()
        ranges = channel.row_blocks(rows, blocks)
        assert len(ranges) >= 2
        for lo, hi in ranges:
            tile = channel.Tile(sample_capacity_matrix(p, 11, lo, hi, workspace), workspace)
            caps = whole[lo:hi]
            for got, expected in (
                (tile.caps, caps),
                (tile.prefix, np.cumsum(caps, axis=1)),
                (tile.running, np.cumsum(caps * weights, axis=1)),
            ):
                assert got.tobytes("C") == expected.tobytes("C")

    @pytest.mark.parametrize("blocks", [1, 8, 63, 64])
    def test_a_head_is_the_tile_of_its_columns(self, blocks):
        # The head's capacities and S are views of the wider tile's, block-
        # major and contiguous, and its W is its own, of weights 1/(M - t).
        workspace = channel.Workspace()
        caps = sample_capacity_matrix(params(blocks=64), 5, 0, 300, workspace)
        wide = channel.Tile(caps, workspace)
        head = wide.head(blocks)
        own = channel.as_tile(sample_capacity_matrix(params(blocks=blocks), 5, 0, 300))
        assert np.shares_memory(head.caps, wide.caps)
        assert np.shares_memory(head.prefix, wide.prefix)
        for got, expected in (
            (head.caps, own.caps),
            (head.prefix, own.prefix),
            (head.running, own.running),
        ):
            assert got.flags.f_contiguous
            assert got.tobytes("C") == expected.tobytes("C")

    def test_views_of_any_dtype_share_one_buffer(self):
        workspace = channel.Workspace()
        for blocks in (64, 2000):
            rows = channel.tile_elements(blocks) // blocks
            floats = workspace.array("x", np.float64, rows, blocks, blocks)
            ints = workspace.array("x", np.int32, rows, blocks + 1, blocks)  # one more column
            flags = workspace.array("x", bool, 3, 2, blocks)
            assert ints.flags.f_contiguous == flags.flags.f_contiguous == (blocks <= 64)
            assert floats.base is ints.base is flags.base
            assert floats.base.nbytes == 8 * channel.tile_elements(64)  # built by the larger layout
        assert workspace.array("x", np.float64, 1, 2 * TILE, 2 * TILE).base is None  # not kept


class TestDecodeProb:
    def test_frozen_values(self):
        for snr, expected in TRAPEZOID_DECODE_PROB.items():
            assert decode_success_prob(params(snr=snr, rate=1.0)) == pytest.approx(
                expected, abs=1e-10
            )

    def test_numerical_integration_oracle(self):
        # integrate the exponential pdf above the outage threshold
        for snr in (-5.0, 0.0, 5.0):
            p = params(snr=snr, rate=1.0)
            thr = (2.0**p.rate - 1.0) / p.power
            x = np.linspace(thr, thr + 50.0, 2_000_001)
            oracle = np.trapezoid(np.exp(-x), x)
            assert decode_success_prob(p) == pytest.approx(oracle, abs=1e-9)

    def test_vanishing_rate(self):
        assert decode_success_prob(params(rate=1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_rate_beyond_the_float_range_is_the_limit(self):
        # 2**2000 overflows a float; the probability is its limit, 0
        for rate in (2000.0, 1e300):
            assert decode_success_prob(params(rate=rate)) == 0.0


class TestMeanCapacity:
    def test_quadrature_matches_closed_form(self):
        # Below about -28.5 dB e^(1/P) overflows, and the closed form never
        # forms it, down to the lowest SNR the channel accepts.
        snrs = [*np.arange(-10.0, 15.5, 2.5), *np.arange(-80.0, 100.5, 2.0)]
        for snr in [*snrs, -300.0, lowest_usable_snr()]:
            p = params(snr=snr)
            quad, closed = mean_capacity(p), mean_capacity_closed_form(p)
            assert quad == pytest.approx(closed, abs=1e-8)
            assert abs(quad - closed) <= 1e-12 * closed, snr

    def test_frozen_trapezoid_values(self):
        for snr, expected in TRAPEZOID_MEAN_CAPACITY.items():
            assert mean_capacity(params(snr=snr)) == pytest.approx(expected, abs=1e-8)

    def test_vanishing_power(self):
        assert mean_capacity(params(snr=-80.0)) < 1e-7

    def test_error_estimate_above_tolerance_is_a_numeric_failure(self, monkeypatch):
        # One panel against two: 7e-8 and 4e-5 relative apart at 5 and 40 dB.
        monkeypatch.setattr(channel, "_MEAN_CAPACITY_PANELS", 1)
        for snr in (5.0, 40.0):
            with pytest.raises(NumericFailure, match="above tolerance"):
                mean_capacity(params(snr=snr))

    def test_error_tolerance_is_relative(self, monkeypatch):
        # At -80 dB the value is 1.4e-8: 6 panels are 1.6e-13 from 12, 1.1e-5
        # of the value, and raise; an absolute floor of 1e-12 let them pass.
        monkeypatch.setattr(channel, "_MEAN_CAPACITY_PANELS", 6)
        with pytest.raises(NumericFailure, match="above tolerance"):
            mean_capacity(params(snr=-80.0))


class TestExp1:
    def test_against_scipy(self):
        xs = np.concatenate(
            [
                np.linspace(0.01, 1.0, 40),
                np.linspace(1.0, 40.0, 60),
                np.geomspace(40.0, 700.0, 50),
                [0.5, 1.0, 2.0],
            ]
        )
        for x in xs:
            assert exp1(float(x)) == pytest.approx(
                float(scipy.special.exp1(x)), rel=1e-13, abs=1e-300
            )

    def test_continued_fraction_converges_for_large_x(self):
        # Near 1 a float steps by 2^-53 below and 2^-52 above, so a stop rule
        # tighter than an ulp missed for about 1 in 12 x above 1e18.
        for x in np.geomspace(1e5, 1.7e308, 2000).tolist():
            # e^x E1(x) = 1/f ~ (1 - 1/x + 2/x^2 - 6/x^3) / x, error below 24/x^5
            u = 1.0 / x
            series = 1.0 - u + 2.0 * u * u - 6.0 * u * u * u
            assert x / channel._exp1_fraction(x) == pytest.approx(series, rel=1e-14)
            assert exp1(x) >= 0.0

    def test_switchover_continuity(self):
        assert exp1(1.0 - 1e-12) == pytest.approx(exp1(1.0 + 1e-12), rel=1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            exp1(0.0)
        with pytest.raises(ValueError):
            exp1(-1.0)


class TestWindowDecodeProb:
    def test_single_block_matches_closed_form(self):
        for snr in (-5.0, 0.0, 5.0):
            p = params(snr=snr, rate=1.0)
            assert window_decode_prob(p, 1) == decode_success_prob(p)

    def test_grid_refinement_stable(self):
        p = params(snr=-5.0, rate=1.0, blocks=10)
        coarse, fine = (
            window_failure_masses_convolved(p.power, p.rate, 3, grid)[2]
            for grid in (1 << 12, 1 << 14)
        )
        assert abs(coarse - fine) < 2e-4

    @pytest.mark.parametrize("snr", [-10.0, -5.0, 0.0, 10.0])
    @pytest.mark.parametrize("rate", [1.0, 2.0, 3.0])
    def test_two_blocks_match_quadrature(self, snr, rate):
        # p_2 = Pr{(1 + g1 P)(1 + g2 P) >= 2^R}: for g1 below (2^R - 1)/P the
        # second block must reach the rest; above it the first block alone does.
        p = params(snr=snr, rate=rate, blocks=2)
        power, target = p.power, 2.0**rate
        split = (target - 1.0) / power
        inner, _ = scipy.integrate.quad(
            lambda g: math.exp(-g - (target / (1.0 + g * power) - 1.0) / power),
            0.0,
            split,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=200,
        )
        # The grid's own error, measured at most 1.3e-4 on these links.
        assert window_decode_prob(p, 2) == pytest.approx(inner + math.exp(-split), abs=3e-4)

    def test_against_monte_carlo(self):
        for snr, window in ((-5.0, 2), (-5.0, 5), (5.0, 3)):
            p = params(snr=snr, rate=1.0, blocks=window)
            sums = sample_capacity_matrix(p, 4242, 0, 400_000).sum(axis=1)
            freq = (sums >= p.rate).mean()
            se = math.sqrt(max(freq * (1 - freq), 1e-12) / sums.size)
            assert window_decode_prob(p, window) == pytest.approx(freq, abs=max(4 * se, 5e-4))

    def test_monotone_in_window(self):
        p = params(snr=-5.0, rate=1.0, blocks=10)
        probs = [window_decode_prob(p, b) for b in range(1, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(probs, probs[1:]))

    def test_independent_of_blocks(self):
        by_blocks = [
            [window_decode_prob(params(snr=-5.0, rate=1.0, blocks=m), b) for b in range(1, 6)]
            for m in (5, 8, 64)
        ]
        assert by_blocks[0] == by_blocks[1] == by_blocks[2]
        # the memoized float is the one a fresh chain computes
        link = params(snr=-5.0, rate=1.0, blocks=1)
        fresh = channel._FailureChain(link)
        fresh.extend(5)
        assert by_blocks[2] == fresh.probs

    @pytest.mark.parametrize("snr,rate", [(-5.0, 1.0), (0.0, 2.0), (10.0, 3.0), (-10.0, 0.5)])
    def test_failure_mass_matches_direct_convolution(self, snr, rate):
        # The FFT chain loses no more than rounding against a direct
        # convolution, also where 1 - p_B is far below 1e-9.
        p = params(snr=snr, rate=rate, blocks=24)
        exact = window_failure_masses_convolved(p.power, rate, 24, 1 << 13)
        for window in range(2, 25):
            assert abs((1.0 - window_decode_prob(p, window)) - exact[window - 1]) <= 4e-16

    def test_transforms_do_not_grow_with_window(self, monkeypatch):
        # 2 * 2233 - 1 below-rate cells at -5 dB, rate 1 fit 4608 = 9 * 2^9
        # points, for any window.
        lengths = []
        for name in ("rfft", "irfft"):
            real = getattr(np.fft, name)

            def recorded(a, n=None, *args, _real=real, **kwargs):
                lengths.append(n)
                return _real(a, n, *args, **kwargs)

            monkeypatch.setattr(channel.np.fft, name, recorded)
        channel._failure_chain.cache_clear()
        window_decode_prob(params(snr=-5.0, rate=1.0, blocks=200), 200)
        assert len(lengths) > 1 and set(lengths) == {4608}


def decode_probs(p, windows):
    """p_1..p_windows, read one window at a time."""
    return np.array([window_decode_prob(p, b) for b in range(1, windows + 1)])


class TestWindowDecodeProbs:
    """Every window's probability from one chain, against a direct convolution."""

    @pytest.mark.parametrize(
        "snr,rate",
        [
            (-5.0, 1.0),
            (0.0, 1.0),
            (5.0, 2.0),
            (-10.0, 0.3),
            (-5.0, 5.0),  # above log2(1 + 37 P) = 3.67
        ],
    )
    def test_matches_single_window(self, snr, rate):
        p = params(snr=snr, rate=rate, blocks=40)
        probs = decode_probs(p, 16)
        exact = window_failure_masses_convolved(p.power, rate, 16, 1 << 13)
        assert np.max(np.abs((1.0 - probs[1:]) - exact[1:])) <= 1e-12
        assert probs[0] == decode_success_prob(p)

    def test_short_call_agrees_with_long_chain(self):
        # At rate 20 and -5 dB, windows 2..5 cannot reach the rate on the
        # grid: a read that builds no grid and the chain agree.
        p = params(snr=-5.0, rate=20.0, blocks=40)
        channel._failure_chain.cache_clear()
        short = decode_probs(p, 5)
        assert channel._failure_chain.cache_info().currsize == 0
        assert short[1:].tolist() == [0.0] * 4
        probs = decode_probs(p, 12)
        assert channel._failure_chain(replace(p, blocks=1)).probs == probs.tolist()
        assert probs[:5].tolist() == short.tolist()

    def test_window_one_builds_no_chain(self):
        # p_1 is decode_success_prob: a link whose only window is B = 1 (MT,
        # the wTS rule at B = 1) takes no chain and no cache slot.
        p = params(snr=3.25, rate=0.875, blocks=9)
        before = channel._failure_chain.cache_info()
        assert window_decode_prob(p, 1) == decode_success_prob(p)
        after = channel._failure_chain.cache_info()
        assert (after.currsize, after.misses) == (before.currsize, before.misses)

    def test_extended_not_recomputed(self, monkeypatch):
        p = params(snr=-4.0, rate=1.25, blocks=7)
        channel._failure_chain.cache_clear()
        short = decode_probs(p, 6)
        chain = channel._failure_chain(replace(p, blocks=1))
        convolutions = []
        real = np.fft.irfft
        monkeypatch.setattr(
            channel.np.fft, "irfft", lambda *a, **k: convolutions.append(1) or real(*a, **k)
        )
        assert window_decode_prob(replace(p, blocks=30), 10) == chain.probs[9]
        assert channel._failure_chain(replace(p, blocks=1)) is chain
        assert len(convolutions) == 4  # windows 7..10 only
        assert decode_probs(p, 6).tolist() == short.tolist()
        assert len(convolutions) == 4

    def test_saturated_windows_stay_one(self):
        p = params(snr=10.0, rate=1.0)
        probs = decode_probs(p, 200)
        first = int(np.argmax(probs == 1.0))
        assert 1 < first < 20 and np.all(probs[first:] == 1.0)
        assert np.all(np.diff(probs) >= -1e-12)

    def test_unreachable_rate_allocates_nothing(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("built a capacity grid")

        monkeypatch.setattr(channel, "_capacity_masses", no_grid)
        for rate in (2000.0, 1e300):
            probs = decode_probs(params(snr=-5.0, rate=rate, blocks=40), 40)
            assert probs.tolist() == [0.0] * 40

    def test_validation(self):
        with pytest.raises(ValueError):
            window_decode_prob(params(), 0)


class TestSeedRange:
    def test_seeds_outside_64_bits_are_rejected(self):
        streams = np.arange(3, dtype=np.uint64)
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError):
                stream_base(seed, streams)
        assert stream_base((1 << 64) - 1, streams).shape == (3,)
