import numpy as np
import pytest

from streamfade import engine
from streamfade.channel import ChannelParams, sample_capacity_matrix
from streamfade.engine import (
    evaluate_pb,
    evaluate_point,
    evaluate_wts,
    optimize_pb_window,
    pb_count_sums,
    tile_sums,
)
from streamfade.metrics import max_zero_run
from streamfade.schemes import (
    NONE,
    SCHEMES,
    Scheme,
    accumulate_mi,
    build_allocation,
    decode,
    transmitted_mask,
)


def params(snr=5.0, rate=1.0, blocks=4):
    return ChannelParams(snr_db=snr, rate=rate, blocks=blocks)


ALL_SPECS_FOR = lambda m: (
    [Scheme("mt"), Scheme("ets")]
    + [Scheme("pb", b) for b in range(1, m + 1)]
    + [Scheme("wts", b) for b in range(1, m + 1)]
)


class TestSpecValidation:
    @pytest.mark.parametrize("chosen", [{}, {"pb": Scheme("pb")}])
    @pytest.mark.parametrize("scheme", [Scheme("pb", 5), Scheme("wts", 5)])
    def test_a_window_longer_than_the_point_is_refused_before_sampling(
        self, monkeypatch, scheme, chosen
    ):
        def no_sampling(*args):
            raise AssertionError("sampled a point with a window longer than it")

        monkeypatch.setattr(engine, "sample_capacity_matrix", no_sampling)
        with pytest.raises(ValueError, match="window 5 exceeds messages 4"):
            evaluate_point(params(blocks=4), {"b": scheme, **chosen}, 10, 1)

    def test_window_required(self):
        # wTS needs a window; PB without one has no allocation matrix
        with pytest.raises(ValueError):
            build_allocation(Scheme("pb"), 4)
        with pytest.raises(ValueError):
            Scheme("wts")
        with pytest.raises(ValueError):
            Scheme("wts", 0)
        with pytest.raises(ValueError):
            Scheme("mt", 3)

    def test_window_bounded_by_blocks(self):
        with pytest.raises(ValueError):
            build_allocation(Scheme("pb", 5), 4)
        with pytest.raises(ValueError):
            build_allocation(Scheme("wts", 9), 8)


class TestResolution:
    """`Scheme.at`: the one rule for the fixed row a scheme is evaluated,
    allocated and closed-formed as at a point."""

    @pytest.mark.parametrize("m", [1, 2, 64, 65])
    def test_every_row_resolves_to_itself_but_mt_and_ets(self, m):
        special = {"mt": Scheme("wts", 1), "ets": Scheme("pb", m)}
        windows = sorted({1, (m + 1) // 2, m})
        rows = [Scheme(name) for name in ("mt", "ets", "pb", "twts", "dwts", "it")]
        rows += [Scheme(name, b) for name in ("pb", "wts") for b in windows]
        for scheme in rows:
            assert scheme.at(m) == special.get(scheme.name, scheme)

    @pytest.mark.parametrize("m", [1, 2, 64, 65])
    def test_a_chosen_window_fixes_only_the_rows_that_choose(self, m):
        assert Scheme("twts").at(m, m) == Scheme("dwts").at(m, m) == Scheme("wts", m)
        assert Scheme("pb").at(m, m) == Scheme("pb", m)
        assert Scheme("pb", 1).at(m, m) == Scheme("pb", 1)
        assert Scheme("mt").at(m, m) == Scheme("wts", 1)
        assert Scheme("ets").at(m, 1) == Scheme("pb", m)

    @pytest.mark.parametrize("m", [1, 2, 64, 65])
    def test_allocations_are_those_of_the_resolved_rows(self, m):
        mt, wts = build_allocation(Scheme("mt"), m), build_allocation(Scheme("wts", 1), m)
        ets, pb = build_allocation(Scheme("ets"), m), build_allocation(Scheme("pb", m), m)
        assert np.array_equal(mt, wts) and np.array_equal(ets, pb)


class TestAllocationMatrices:
    def test_mt_is_identity(self):
        assert np.array_equal(build_allocation(Scheme("mt"), 3), np.eye(3))

    def test_ets_example(self):
        alpha = build_allocation(Scheme("ets"), 3)
        assert alpha[2, 0] == pytest.approx(1 / 3)
        assert alpha[2, 1] == pytest.approx(1 / 2)
        assert alpha[2, 2] == 1.0
        assert np.allclose(alpha.sum(axis=0), 1.0, atol=1e-12)

    def test_pb_example(self):
        alpha = build_allocation(Scheme("pb", 2), 3)
        assert np.allclose(alpha[1], [0.5, 0.5, 0.0])
        assert np.allclose(alpha[2], [0.5, 0.5, 1.0])
        assert np.all(alpha[0] == 0.0)

    def test_pb_with_full_buffer_equals_ets(self):
        for m in (1, 2, 5, 9):
            assert np.allclose(
                build_allocation(Scheme("pb", m), m),
                build_allocation(Scheme("ets"), m),
                atol=1e-15,
            )

    def test_wts_window_layout(self):
        alpha = build_allocation(Scheme("wts", 3), 7)
        # windows: blocks 1-3 carry message 3, 4-6 message 6, block 7 message 7
        assert np.allclose(alpha[2, 0:3], 1.0)
        assert np.allclose(alpha[5, 3:6], 1.0)
        assert alpha[6, 6] == 1.0
        assert alpha.sum() == 7.0

    def test_invariants_exhaustive(self):
        # nonnegative, nothing after the deadline, column sums zero or one
        for m in range(1, 65):
            for spec in ALL_SPECS_FOR(m):
                alpha = build_allocation(spec, m)
                assert np.all(alpha >= 0.0)
                assert np.all(np.triu(alpha, k=1) == 0.0)
                colsums = alpha.sum(axis=0)
                assert np.all(
                    (np.abs(colsums - 1.0) < 1e-12) | (np.abs(colsums) < 1e-12)
                )


class TestAccumulateAndDecode:
    def test_mt_reads_own_block(self):
        tr = np.array([1.5, 0.2, 3.0])
        mi = accumulate_mi(build_allocation(Scheme("mt"), 3), tr)
        assert np.allclose(mi, [1.5, 0.2, 3.0])
        v = decode(build_allocation(Scheme("mt"), 3), tr, 1.0)
        assert v.tolist() == [True, False, True]

    def test_ets_hand_example(self):
        tr = np.array([2.0, 2.0])
        mi = accumulate_mi(build_allocation(Scheme("ets"), 2), tr)
        assert np.allclose(mi, [1.0, 3.0])

    def test_zero_trace(self):
        tr = np.zeros(5)
        for spec in ALL_SPECS_FOR(5):
            assert np.all(accumulate_mi(build_allocation(spec, 5), tr) == 0.0)

    def test_untransmitted_messages_stay_zero(self):
        tr = np.full(6, 9.0)
        alpha = build_allocation(Scheme("pb", 2), 6)
        v = decode(alpha, tr, 1.0)
        assert v[:4].tolist() == [False] * 4
        mask = transmitted_mask(alpha)
        assert mask.tolist() == [False] * 4 + [True] * 2

    def test_dimension_mismatch(self):
        tr = np.ones(3)
        with pytest.raises(ValueError):
            accumulate_mi(build_allocation(Scheme("mt"), 4), tr)

    def test_ets_decodes_a_suffix(self):
        p = params(snr=-5.0, blocks=12)
        caps = sample_capacity_matrix(p, 3, 0, 200)
        alpha = build_allocation(Scheme("ets"), 12)
        for row in caps:
            v = decode(alpha, row, 1.0)
            decoded = np.flatnonzero(v)
            if decoded.size:
                assert decoded.tolist() == list(range(12 - decoded.size, 12))

    def test_pb_decodes_a_suffix_of_transmitted(self):
        p = params(snr=-5.0, blocks=12)
        caps = sample_capacity_matrix(p, 4, 0, 200)
        alpha = build_allocation(Scheme("pb", 5), 12)
        for row in caps:
            v = decode(alpha, row, 1.0)
            decoded = np.flatnonzero(v)
            assert v[:7].sum() == 0
            if decoded.size:
                assert decoded.tolist() == list(range(12 - decoded.size, 12))
            # the undecoded prefix is one zero-run of length M - count
            assert max_zero_run(v) == 12 - decoded.size


class TestEngineMatchesAllocationPath:
    """The vectorized evaluators must agree with the explicit matrices."""

    @pytest.mark.parametrize("snr", [-5.0, 5.0])
    @pytest.mark.parametrize("blocks", [1, 2, 3, 7, 12])
    def test_all_schemes(self, snr, blocks):
        p = params(snr=snr, blocks=blocks)
        caps = sample_capacity_matrix(p, 11, 0, 64)
        rate = p.rate
        fast = {"mt": Scheme("mt").evaluate(caps, rate), "ets": Scheme("ets").evaluate(caps, rate)}
        for b in range(1, blocks + 1):
            fast[("pb", b)] = evaluate_pb(caps, rate, b)
            fast[("wts", b)] = evaluate_wts(caps, rate, b)
        specs = {"mt": Scheme("mt"), "ets": Scheme("ets")}
        for b in range(1, blocks + 1):
            specs[("pb", b)] = Scheme("pb", b)
            specs[("wts", b)] = Scheme("wts", b)
        for key, spec in specs.items():
            alpha = build_allocation(spec, blocks)
            counts = np.array([decode(alpha, row, rate).sum() for row in caps])
            delays = np.array([max_zero_run(decode(alpha, row, rate)) for row in caps])
            assert np.array_equal(fast[key][0], counts), (key, snr, blocks)
            assert np.array_equal(fast[key][1], delays), (key, snr, blocks)


class TestOptimizeWindow:
    """Windows chosen per point by `evaluate_point` from its one sampling pass."""

    CHOSEN = {"pb": Scheme("pb"), "twts": Scheme("twts"), "dwts": Scheme("dwts")}

    def test_single_message(self):
        p = params(blocks=1)
        accums = evaluate_point(p, self.CHOSEN, trials=64, seed=1)
        assert [acc.window for acc in accums.values()] == [1, 1, 1]

    def test_rejects_windowless_kinds(self):
        # MT, eTS and IT take no window, neither fixed nor chosen: eTS is PB
        # at depth M, and its B stays None.
        for name in ("mt", "ets", "it"):
            assert SCHEMES[name].window == NONE
            assert SCHEMES[name].table is None
            with pytest.raises(ValueError):
                Scheme(name, 3)
        accums = evaluate_point(params(), {n: Scheme(n) for n in ("mt", "ets", "it")}, 10, 1)
        assert [acc.window for acc in accums.values()] == [None, None, None]

    def test_requires_trials(self):
        with pytest.raises(ValueError):
            evaluate_point(params(), {"pb": Scheme("pb")}, 0, 1)

    def test_pb_objectives_agree(self):
        # delay = blocks - count per realization, so both objectives pick the
        # same window on a common trace set
        p = params(snr=-5.0, blocks=16)
        (table,) = tile_sums(p, 2000, 9, 1, lambda tile: [pb_count_sums(tile, p.rate)])
        w_t, _ = optimize_pb_window(table[0], 2000)
        depths = evaluate_point(p, {b: Scheme("pb", b) for b in range(1, 17)}, 2000, 9)
        w_d = min(depths, key=lambda b: depths[b].delay_sum)
        best = evaluate_point(p, {"pb": Scheme("pb")}, 2000, 9)["pb"]
        assert w_t == w_d == best.window
        assert best.mean_count() + best.mean_delay() == pytest.approx(16.0)

    def test_dwts_window_nondecreasing_in_blocks(self):
        windows = []
        for m in (7, 8):
            p = params(snr=5.0, blocks=m)
            windows.append(evaluate_point(p, {"d": Scheme("dwts")}, 20_000, 33)["d"].window)
        assert windows[0] <= windows[1]


class TestWtsStructure:
    def test_decode_support_is_window_ends(self):
        # only messages min(kB, M) can ever decode
        p = params(snr=5.0, blocks=11)
        caps = sample_capacity_matrix(p, 41, 0, 100)
        alpha = build_allocation(Scheme("wts", 4), 11)
        allowed = {3, 7, 10}  # 0-indexed ends of windows 1..3 (last shortened)
        for row in caps:
            v = decode(alpha, row, 1.0)
            assert set(np.flatnonzero(v)).issubset(allowed)

    def test_window_bits_iid_bernoulli_when_aligned(self):
        # M a multiple of B: window decodes are i.i.d. with probability p_B
        import scipy.stats

        from streamfade.channel import window_decode_prob
        from oracles import wts_decode_bits

        p = params(snr=-5.0, blocks=36)
        caps = sample_capacity_matrix(p, 53, 0, 20_000)
        bits, short = wts_decode_bits(caps, 1.0, 4)
        assert short is None
        p_b = window_decode_prob(p, 4)
        freq = bits.mean()
        se = np.sqrt(p_b * (1 - p_b) / bits.size)
        assert abs(freq - p_b) < 4 * se + 5e-4
        flat = bits.ravel()
        x, y = flat[:-1], flat[1:]
        table = np.array(
            [
                [np.sum(~x & ~y), np.sum(~x & y)],
                [np.sum(x & ~y), np.sum(x & y)],
            ]
        )
        assert scipy.stats.chi2_contingency(table)[1] > 0.01
