import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import informed_counts_and_delays_loop
from streamfade import channel, informed
from streamfade.channel import ChannelParams, sample_capacity_matrix
from streamfade.engine import Accumulator, evaluate_point, moments
from streamfade.informed import (
    greedy_allocate,
    informed_counts_and_delays,
    informed_trial,
    lower_bound_pattern,
    min_achievable_delay,
    min_delay_max_rate,
    oracle_exhaustive,
    _dominance_holds,
)
from streamfade.metrics import max_zero_run
from streamfade.schemes import Scheme


def fig2_trace():
    # Cumulative MI 1.2, 2.2, 2.5, 2.8, 3.3 reproduces the five-block worked
    # example: greedy decodes blocks 1, 2, 5.
    return np.array([1.2, 1.0, 0.3, 0.3, 0.5])


class TestGreedy:
    def test_worked_example(self):
        res = greedy_allocate(fig2_trace(), 1.0)
        assert res.decode_vector.tolist() == [1, 1, 0, 0, 1]
        assert res.cumulative_decoded.tolist() == [1, 2, 2, 2, 3]

    def test_all_zero_trace(self):
        res = greedy_allocate(np.zeros(4), 1.0)
        assert res.decode_vector.tolist() == [0, 0, 0, 0]

    def test_abundant_capacity(self):
        res = greedy_allocate(np.full(6, 1.5), 1.0)
        assert res.decode_vector.tolist() == [1] * 6

    def test_respects_cumulative_cap(self):
        # psi(t) <= min(t, floor(I_tot(t)/R)) for sampled traces
        params = ChannelParams(snr_db=0.0, rate=1.0, blocks=24)
        caps = sample_capacity_matrix(params, 5, 0, 50)
        for row in caps:
            res = greedy_allocate(row, 1.0)
            bound = np.minimum(np.arange(1, 25), np.floor(res.cumulative_mi / 1.0 + 1e-12))
            assert np.all(res.cumulative_decoded <= bound)


class TestLowerBoundPattern:
    @pytest.mark.parametrize(
        "D,expected",
        [
            (0, [1, 1, 1, 1, 1]),
            (1, [0, 1, 0, 1, 0]),
            (2, [0, 0, 1, 0, 0]),
            (3, [0, 0, 0, 1, 0]),
            (4, [0, 0, 0, 0, 1]),
            (5, [0, 0, 0, 0, 0]),
        ],
    )
    def test_length_five_catalog(self, D, expected):
        assert lower_bound_pattern(5, D).tolist() == expected

    def test_run_matches_request(self):
        for m in range(1, 20):
            for D in range(0, m):
                pattern = lower_bound_pattern(m, D)
                assert max_zero_run(pattern) == D

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lower_bound_pattern(5, 6)
        with pytest.raises(ValueError):
            lower_bound_pattern(5, -1)


class TestMinDelayMaxRate:
    def test_worked_example(self):
        s_opt, d = min_delay_max_rate([1, 1, 0, 0, 1])
        assert s_opt.tolist() == [0, 1, 0, 1, 1]
        assert d == 1

    def test_all_ones(self):
        s_opt, d = min_delay_max_rate([1, 1, 1])
        assert s_opt.tolist() == [1, 1, 1] and d == 0

    def test_all_zero(self):
        s_opt, d = min_delay_max_rate([0, 0, 0, 0])
        assert s_opt.tolist() == [0] * 4 and d == 4

    def test_single_leading_one(self):
        # Dominance already holds at D=2 through the pattern [0,0,1,0]; the
        # exhaustive oracle over subsets of equal size confirms run 2 is
        # optimal (any single decoded position m>=1 is feasible here).
        s_opt, d = min_delay_max_rate([1, 0, 0, 0])
        assert d == 2
        assert s_opt.tolist() == [0, 0, 1, 0]
        trace = np.array([1.0, 0.2, 0.2, 0.2])
        assert greedy_allocate(trace, 1.0).decode_vector.tolist() == [1, 0, 0, 0]
        assert oracle_exhaustive(trace, 1.0) == (1, 2)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=32))
    @settings(max_examples=300, deadline=None)
    def test_properties(self, bits):
        v = np.array(bits, dtype=np.int8)
        s_opt, d = min_delay_max_rate(v)
        # throughput preserved
        assert s_opt.sum() == v.sum()
        # never worse than the input's own gap structure
        assert max_zero_run(s_opt) <= max_zero_run(v)
        if v.any():
            assert max_zero_run(s_opt) == d

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_scan(self, bits):
        v = np.array(bits, dtype=np.int8)
        if not v.any():
            return
        psi = np.cumsum(v)
        scanned = 0
        while not _dominance_holds(psi, scanned):
            scanned += 1
        assert scanned == min_achievable_delay(psi)


class TestOracle:
    def test_worked_example(self):
        assert oracle_exhaustive(fig2_trace(), 1.0) == (3, 1)

    def test_all_zero(self):
        assert oracle_exhaustive(np.zeros(5), 1.0) == (0, 5)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracle_exhaustive(np.ones(21), 1.0)

    def test_matches_algorithm_on_random_traces(self):
        # small-scale preview of the acceptance criterion
        trial = 0
        for snr in (-5.0, 0.0, 5.0):
            for blocks in (2, 5, 8, 11):
                params = ChannelParams(snr_db=snr, rate=1.0, blocks=blocks)
                caps = sample_capacity_matrix(params, 17, trial, trial + 40)
                trial += 40
                for row in caps:
                    assert informed_trial(row, 1.0) == oracle_exhaustive(row, 1.0)

    def test_feasibility_of_reallocated_vector(self):
        # every one in the re-spread vector is covered by the running MI
        params = ChannelParams(snr_db=0.0, rate=1.0, blocks=12)
        caps = sample_capacity_matrix(params, 23, 0, 200)
        for row in caps:
            greedy = greedy_allocate(row, 1.0)
            s_opt, _ = min_delay_max_rate(greedy.decode_vector)
            positions = np.flatnonzero(s_opt) + 1
            for j, t in enumerate(positions, start=1):
                assert greedy.cumulative_mi[t - 1] >= j * 1.0


class TestVectorizedPath:
    def test_matches_scalar_trials(self):
        params = ChannelParams(snr_db=-5.0, rate=1.0, blocks=30)
        caps = sample_capacity_matrix(params, 71, 0, 300)
        counts, delays = informed_counts_and_delays(caps, 1.0)
        for i, row in enumerate(caps):
            c, d = informed_trial(row, 1.0)
            assert counts[i] == c
            assert delays[i] == d

    def test_quadratic_complexity_smoke(self, monkeypatch):
        # Worst case for the scan: a single trailing one forces D ~ M.  Each
        # dominance scan walks at most the M entries of psi, so scans * M
        # bounds the work; doubling M may multiply that bound by at most 5
        # (quadratic is 4).  Counting scans, not seconds, cannot flake.
        scanned = []

        def counting(psi, D):
            scanned.append(psi.shape[0])
            return _dominance_holds(psi, D)

        monkeypatch.setattr(informed, "_dominance_holds", counting)

        def work(m):
            v = np.zeros(m, dtype=np.int8)
            v[-1] = 1
            scanned.clear()
            _, delay = min_delay_max_rate(v)
            assert delay == m - 1
            assert 0 < len(scanned) <= m + 1 and set(scanned) == {m}
            return len(scanned) * m

        assert work(2000) <= 5 * work(1000)


def assert_matches_loop(caps, rate):
    counts, delays = informed_counts_and_delays(caps, rate)
    want_counts, want_delays = informed_counts_and_delays_loop(caps, rate)
    assert counts.tolist() == want_counts.tolist()
    assert delays.tolist() == want_delays.tolist()


# Rates whose I/R overflows, underflows to 0 or needs a fix-up step.
EXTREME_RATES = [5e-324, 1e-300, 1e300]


class TestClosedForm:
    """The loop-free kernel returns exactly the integers of the greedy scan."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_sampled_channels(self, data):
        params = ChannelParams(
            snr_db=data.draw(st.floats(-30.0, 40.0)),
            rate=1.0,
            blocks=data.draw(st.integers(1, 64)),
        )
        start = data.draw(st.integers(0, 10**6))
        caps = sample_capacity_matrix(params, 29, start, start + data.draw(st.integers(1, 8)))
        # Constant-capacity rows (every block at gain 1) next to the sampled ones.
        rows = data.draw(st.integers(0, 4))
        constant = np.full((rows, params.blocks), np.log2(1.0 + params.power))
        caps = np.asarray(np.vstack([caps, constant]), order=channel.tile_order(params.blocks))
        # Just above every row's total: nothing decodes, every delay is M.
        above_all = float(np.nextafter(np.cumsum(caps, axis=1)[:, -1].max(), np.inf))
        rate = data.draw(st.sampled_from([*EXTREME_RATES, above_all]) | st.floats(1e-3, 50.0))
        assert_matches_loop(caps, rate)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_capacities_on_the_rate_grid(self, data):
        # Running totals at or next to k*R put the scan's compare on a tie.
        rate = data.draw(st.sampled_from([1.0, 0.1, 1 / 3, 0.7, 2.5, *EXTREME_RATES]))
        shape = (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 64)))
        multiples = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
        steps = data.draw(arrays(np.float64, shape, elements=multiples))
        assert_matches_loop(steps * rate, rate)

    def test_row_blocks_are_transparent(self, monkeypatch):
        p = ChannelParams(-5.0, 1.0, 64)
        caps = sample_capacity_matrix(p, 41, 0, 1100)
        assert len(channel.row_blocks(1100, 64)) >= 2
        assert_matches_loop(caps, 1.0)
        sums = moments(*informed_counts_and_delays(caps, 1.0))
        reference = Accumulator(None, 1100, *sums)
        fixed = {"it": Scheme("it")}
        whole = evaluate_point(p, fixed, 1100, 41)["it"]
        assert whole == reference
        monkeypatch.setattr(channel, "tile_elements", lambda blocks: blocks)  # one row a tile
        assert evaluate_point(p, fixed, 1100, 41)["it"] == whole


class TestHorizons:
    """One scan of a tile serves every message count h up to its M: the
    result at h is the call on the tile's first h columns."""

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_equal_the_call_on_the_first_columns(self, data):
        m = data.draw(st.integers(1, 70))
        horizons = sorted(data.draw(st.sets(st.integers(1, m), min_size=1, max_size=11)))
        # At a tiny rate K is astronomically large, and the cap at M + 1 acts.
        rate = data.draw(st.floats(1e-3, 9.0))
        snr = data.draw(st.sampled_from([-10.0, -5.0, 0.0, 5.0, 15.0]))
        order = data.draw(st.sampled_from("CF"))
        rows = data.draw(st.integers(1, 12))
        caps = sample_capacity_matrix(ChannelParams(snr, rate, m), 31, 0, rows)
        caps = np.asarray(caps, order=order)
        got = informed_counts_and_delays(caps, rate, horizons)
        assert len(got) == len(horizons)
        for h, (counts, delays) in zip(horizons, got):
            first = np.array(caps[:, :h], order=order)  # a copy
            want_counts, want_delays = informed_counts_and_delays(first, rate)
            assert counts.tolist() == want_counts.tolist()
            assert delays.tolist() == want_delays.tolist()
            assert list(zip(counts.tolist(), delays.tolist())) == [
                informed_trial(row, rate) for row in first
            ]

    @pytest.mark.parametrize("horizons", [[1, 2, 3, 30], [30], list(range(1, 31))])
    def test_one_scan_for_any_horizons(self, monkeypatch, horizons):
        caps = sample_capacity_matrix(ChannelParams(-5.0, 1.0, 30), 3, 0, 50)
        scans = []

        def counted(*args, **kwargs):
            scans.append(args[0])
            return channel.scan_blocks(*args, **kwargs)

        monkeypatch.setattr(informed, "scan_blocks", counted)
        got = informed_counts_and_delays(caps, 1.0, horizons)
        assert scans == [np.minimum]
        if horizons == [30]:
            ((counts, delays),) = got
            want_counts, want_delays = informed_counts_and_delays(caps, 1.0)
            assert counts.tolist() == want_counts.tolist()
            assert delays.tolist() == want_delays.tolist()

    @pytest.mark.parametrize("horizons", [[], [0, 3], [3, 3], [4, 2], [31]])
    def test_horizons_must_rise_within_the_tile(self, horizons):
        caps = sample_capacity_matrix(ChannelParams(-5.0, 1.0, 30), 3, 0, 5)
        with pytest.raises(ValueError, match="horizons must rise within 1..30"):
            informed_counts_and_delays(caps, 1.0, horizons)
