import math

import pytest

from oracles import lowest_usable_snr
from streamfade import channel, engine
from streamfade.asymptotic import alpha_opt, decode_all_probability
from streamfade.channel import (
    ChannelParams,
    mean_capacity,
    mean_capacity_closed_form,
    sample_capacity_matrix,
)
from streamfade.engine import evaluate_pb, evaluate_point
from streamfade.schemes import Scheme

# Mean capacity at 5 dB frozen from the pre-build trapezoid oracle.
MEAN_CAPACITY_5DB = 1.715974185066
SNRS_DB = (-10.0, -5.0, 0.0, 5.0, 10.0)


def chosen_fraction(params, trials, seed):
    """The depth `evaluate_point` chooses for a `pb` row, as a fraction of M."""
    window = evaluate_point(params, {"pb": Scheme("pb")}, trials, seed)["pb"].window
    return window / params.blocks


class TestAlphaOpt:
    def test_is_the_closed_form_fraction(self):
        for snr in SNRS_DB:
            for rate in (0.3, 1.0, 3.0):
                p = ChannelParams(snr_db=snr, rate=rate, blocks=600)
                assert alpha_opt(p) == 1.0 / (rate / mean_capacity_closed_form(p) + 1.0)

    def test_balanced_rate_gives_half(self):
        # rate equal to the mean capacity: alpha = 1/2
        for snr in SNRS_DB:
            c = mean_capacity_closed_form(ChannelParams(snr_db=snr, rate=1.0, blocks=1))
            p = ChannelParams(snr_db=snr, rate=c, blocks=600)
            assert alpha_opt(p) == pytest.approx(0.5, abs=1e-12)

    def test_two_to_one_ratio(self):
        # mean capacity twice the rate: alpha = 2/3
        for snr in SNRS_DB:
            c = mean_capacity_closed_form(ChannelParams(snr_db=snr, rate=1.0, blocks=1))
            p = ChannelParams(snr_db=snr, rate=c / 2.0, blocks=600)
            assert alpha_opt(p) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_finite_below_the_exponent_range(self):
        # e^(1/P) overflows below about -28.5 dB.  At the lowest SNR, R/C
        # overflows for R = 9 and alpha is 0, within a subnormal of C/(R + C).
        for snr in (-40.0, -300.0, lowest_usable_snr()):
            for rate in (1e-3, 1.0, 9.0):
                p = ChannelParams(snr_db=snr, rate=rate, blocks=600)
                alpha = alpha_opt(p)
                assert math.isfinite(alpha) and 0.0 <= alpha < 1.0
                c = mean_capacity(p)
                assert alpha == pytest.approx(c / (rate + c), rel=1e-12, abs=1e-300)

    def test_rayleigh_5db_matches_frozen_value(self):
        p = ChannelParams(snr_db=5.0, rate=1.0, blocks=600)
        expected = 1.0 / (1.0 / MEAN_CAPACITY_5DB + 1.0)
        assert alpha_opt(p) == pytest.approx(expected, abs=1e-8)


class TestVerifyThreshold:
    def test_threshold_direction_small_scale(self):
        p = ChannelParams(snr_db=5.0, rate=1.0, blocks=600)
        a_opt = alpha_opt(p)
        below, above = round((a_opt - 0.12) * 600), round((a_opt + 0.12) * 600)
        assert below < above
        assert decode_all_probability(p, below, trials=300, seed=5) > 0.9
        assert decode_all_probability(p, above, trials=300, seed=5) < 0.1

    def test_impossible_channel_never_decodes(self):
        # At -10 dB no block carries more than log2(1 + 3.7) = 2.23 bits (the
        # sampler's gain cap), so the first of B >= 300 messages, which
        # accumulates at most 301/B such blocks, never reaches rate 3.
        p = ChannelParams(snr_db=-10.0, rate=3.0, blocks=600)
        assert decode_all_probability(p, 300, trials=200, seed=2) == 0.0
        assert decode_all_probability(p, 450, trials=200, seed=2) == 0.0

    @pytest.mark.parametrize("trials", [0, -5])
    def test_decode_all_needs_a_trial(self, trials):
        p = ChannelParams(snr_db=-5.0, rate=1.0, blocks=20)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            decode_all_probability(p, 5, trials=trials, seed=1)

    @pytest.mark.parametrize("tile", [channel.ROW_BLOCK_ELEMENTS, 600])
    def test_equals_the_pb_rows_across_tiles(self, monkeypatch, tile):
        # 300 trials of M = 600 span six row tiles of 54 rows, or 300 tiles
        # of one row; depths from all-decode through none, about
        # alpha_opt M = 277.
        p = ChannelParams(snr_db=0.0, rate=1.0, blocks=600)
        caps = sample_capacity_matrix(p, 3, 0, 300)
        monkeypatch.setattr(channel, "ROW_BLOCK_ELEMENTS", tile)
        for b in (240, 265, 275, 285, 300):
            expected = (evaluate_pb(caps, p.rate, b)[0] == b).mean()
            assert decode_all_probability(p, b, trials=300, seed=3) == expected, b

    def test_reads_the_evaluator_on_engine_at_call_time(self, monkeypatch):
        # A wrapper or a fault on `engine.evaluate_pb` sees every call.
        p = ChannelParams(snr_db=5.0, rate=1.0, blocks=600)
        window = round((alpha_opt(p) - 0.12) * 600)
        assert decode_all_probability(p, window, trials=300, seed=5) > 0.9

        def none_decode(tile, rate, window):
            counts, delays = evaluate_pb(tile, rate, window)
            return counts * 0, delays

        monkeypatch.setattr(engine, "evaluate_pb", none_decode)
        assert decode_all_probability(p, window, trials=300, seed=5) == 0.0

    def test_monotone_in_window(self):
        p = ChannelParams(snr_db=0.0, rate=1.0, blocks=600)
        probs = [
            decode_all_probability(p, w, trials=400, seed=9)
            for w in (150, 250, 350, 450)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))


class TestOptimalFraction:
    def test_tracks_alpha_opt_loosely_at_moderate_scale(self):
        p = ChannelParams(snr_db=5.0, rate=1.0, blocks=400)
        fraction = chosen_fraction(p, trials=400, seed=11)
        assert abs(fraction - alpha_opt(p)) < 0.1
        assert 0 < fraction <= 1

    def test_finite_size_bias_direction_is_seed_consistent(self):
        # At M=40 the optimal fraction deviates from the asymptotic one in a
        # consistent direction across seeds; the magnitude is not pinned
        # because the threshold statement is asymptotic.
        p = ChannelParams(snr_db=5.0, rate=1.0, blocks=40)
        a_opt = alpha_opt(p)
        signs = set()
        fractions = []
        for seed in (1, 2, 3):
            fraction = chosen_fraction(p, trials=4000, seed=seed)
            fractions.append(fraction)
            signs.add(math.copysign(1.0, fraction - a_opt))
        assert len(signs) == 1, f"direction flipped across seeds: {fractions} vs {a_opt}"

    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, trials):
        p = ChannelParams(snr_db=-5.0, rate=1.0, blocks=20)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            chosen_fraction(p, trials, 1)
