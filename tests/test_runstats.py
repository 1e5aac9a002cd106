import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import run_tails_table, wts_mean_delay_enumerated
from streamfade.runstats import (
    enumerate_run_tails,
    mt_mean_max_delay,
    partial_fraction,
    q_polynomial,
    run_tail_matrix_power,
    run_tail_partial_fraction,
    run_tail_columns,
    run_tails,
    run_transition_matrix,
    wts_delay_bounds,
    wts_mean_delay,
    _laurent_coefficients,
)

# Success probabilities with the degenerate ends, exactly and nearly.
PROBS = st.sampled_from([0.0, 1.0, 1e-12, 1e-6, 1 - 1e-6, 1 - 1e-12]) | st.floats(0.0, 1.0)

# (window B, rising horizons h in B..64): B need not divide h.
HORIZONS = st.integers(1, 64).flatmap(
    lambda window: st.tuples(
        st.just(window),
        st.lists(st.integers(window, 64), min_size=1, max_size=12, unique=True).map(sorted),
    )
)


class TestTransitionMatrix:
    def test_structure(self):
        H = run_transition_matrix(3, 0.7)
        assert H.shape == (4, 4)
        for i in range(3):
            assert H[i, 0] == pytest.approx(0.7)
            assert H[i, i + 1] == pytest.approx(0.3)
        assert H[3, 3] == 1.0
        assert np.allclose(H.sum(axis=1), 1.0, atol=1e-12)

    def test_row_stochastic_under_squaring(self):
        # squarings cover M = 10^4
        H = run_transition_matrix(12, 0.37)
        A = H.copy()
        for _ in range(math.ceil(math.log2(10_000))):
            A = A @ A
            assert np.allclose(A.sum(axis=1), 1.0, atol=1e-10)


class TestMatrixPowerTail:
    def test_degenerate_probabilities(self):
        assert run_tail_matrix_power(6, 1.0, 1) == 0.0
        assert run_tail_matrix_power(6, 1.0, 6) == 0.0
        assert run_tail_matrix_power(6, 0.0, 3) == 1.0

    def test_enumerated_example(self):
        # 8 coin-flip sequences of length 3; {000, 001, 100} contain a 00 run
        assert run_tail_matrix_power(3, 0.5, 2) == pytest.approx(0.375, abs=1e-15)

    def test_full_run(self):
        assert run_tail_matrix_power(4, 0.5, 4) == pytest.approx(0.0625, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_tail_matrix_power(3, 0.5, 0)
        with pytest.raises(ValueError):
            run_tail_matrix_power(3, 0.5, 4)
        with pytest.raises(ValueError):
            run_tail_matrix_power(3, 1.5, 1)


class TestQPolynomial:
    def test_degree_one(self):
        assert np.allclose(q_polynomial(1, 0.3), [1.0, -0.3])

    def test_expanded_example(self):
        assert np.allclose(q_polynomial(2, 0.5), [1.0, -0.5, -0.25])

    def test_constant_term_always_one(self):
        for d in (1, 3, 9):
            for p in (0.05, 0.5, 0.95):
                assert q_polynomial(d, p)[0] == 1.0

    def test_value_at_one(self):
        # q_d(1) = (1-p)^d, which keeps z=1 a simple pole of the full function
        for d in (1, 4, 11):
            for p in (0.1, 0.6, 0.9):
                assert np.polyval(q_polynomial(d, p)[::-1], 1.0) == pytest.approx(
                    (1 - p) ** d, rel=1e-12
                )


class TestPartialFraction:
    def test_agreement_grid(self):
        for m in range(2, 11):
            enum = {p: enumerate_run_tails(m, p) for p in (0.1, 0.4, 0.65, 0.9)}
            for p, tails in enum.items():
                for d in range(1, m + 1):
                    pf = run_tail_partial_fraction(m, p, d)
                    mat = run_tail_matrix_power(m, p, d)
                    assert pf == pytest.approx(tails[d - 1], abs=1e-10)
                    assert mat == pytest.approx(tails[d - 1], abs=1e-10)

    def test_structure(self):
        pf = partial_fraction(5, 0.35)
        assert pf.roots[0] == 1.0 + 0.0j
        assert pf.multiplicities[0] == 1
        assert pf.coefficients[0][0] == pytest.approx(1.0, abs=1e-12)
        assert int(pf.multiplicities.sum()) == 6  # degree of (1-z) q_d
        # every root of q_d lies outside the unit circle
        assert np.all(np.abs(pf.roots[1:]) > 1.0)

    def test_reconstruction_residual(self):
        for d in (1, 2, 7, 14, 25):
            for p in (0.05, 0.5, 0.95):
                assert partial_fraction(d, p).max_reconstruction_error() < 1e-8

    def test_near_degenerate_root_regime(self):
        # q_d's real root approaches z=1 when (1-p)^d underflows the cluster
        # radius; the deflated evaluation must stay exact.
        for (m, p, d) in [(14, 0.6, 14), (14, 0.7, 14), (40, 0.7289, 40), (60, 0.9, 30)]:
            pf_val = run_tail_partial_fraction(m, p, d)
            assert pf_val == pytest.approx(run_tail_matrix_power(m, p, d), abs=1e-12)

    def test_requires_open_interval(self):
        with pytest.raises(ValueError):
            run_tail_partial_fraction(4, 0.0, 2)
        with pytest.raises(ValueError):
            run_tail_partial_fraction(4, 1.0, 2)

    def test_laurent_extraction_on_synthetic_double_pole(self):
        # g(z) = 3/(1 - z/c)^2 - 2/(1 - z/c) + analytic part
        c = 2.0 + 1.0j

        def g(z):
            w = 1.0 - z / c
            return 3.0 / w**2 - 2.0 / w + (1.0 + 0.25 * z)

        coeffs = _laurent_coefficients(g, c, 2, radius=1e-3)
        assert coeffs[0] == pytest.approx(-2.0, abs=1e-8)
        assert coeffs[1] == pytest.approx(3.0, abs=1e-8)


class TestRunTails:
    def test_degenerate_probabilities(self):
        assert run_tails(5, 0.0).tolist() == [1.0] * 5
        assert run_tails(5, 1.0).tolist() == [0.0] * 5

    def test_enumerated_example(self):
        # M=3, p=0.5: tails 7/8, 3/8, 1/8
        assert run_tails(3, 0.5).tolist() == [0.875, 0.375, 0.125]

    def test_validation(self):
        with pytest.raises(ValueError):
            run_tails(0, 0.5)
        with pytest.raises(ValueError):
            run_tails(3, 1.5)
        with pytest.raises(ValueError):
            run_tails(3, float("nan"))

    @given(m=st.integers(1, 12), p=PROBS)
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, m, p):
        tails = run_tails(m, p)
        assert np.all((tails >= 0.0) & (tails <= 1.0))
        assert np.max(np.abs(tails - enumerate_run_tails(m, p))) < 1e-13

    @given(m=st.integers(1, 200), p=PROBS, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_matrix_power(self, m, p, data):
        tails = run_tails(m, p)
        for d in data.draw(st.lists(st.integers(1, m), min_size=1, max_size=4)):
            assert abs(tails[d - 1] - run_tail_matrix_power(m, p, d)) < 1e-12, d

    @given(m=st.integers(1, 400), p=st.sampled_from([0.0, 1e-300, 1 - 1e-12, 1.0]) | PROBS)
    @settings(max_examples=150, deadline=None)
    def test_matches_table_oracle(self, m, p):
        # the column order adds the table's terms in the table's order
        assert run_tails(m, p).tobytes() == run_tails_table(m, p).tobytes()

    @pytest.mark.parametrize("m", [2000, 3000])
    def test_matches_table_oracle_at_scale(self, m):
        for p in (0.05, 0.3, 0.9):
            assert run_tails(m, p).tobytes() == run_tails_table(m, p).tobytes(), p

    def test_tails_grow_with_horizon(self):
        # tails over M trials are nondecreasing in M for every d
        short, long = run_tails(30, 0.4), run_tails(31, 0.4)
        assert np.all(long[:30] >= short)
        assert long[30] == pytest.approx(0.6**31, rel=1e-12)

    def test_tail_monotone_in_p(self):
        for d in (1, 3, 6):
            values = [run_tails(8, p)[d - 1] for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestMeanMaxDelay:
    def test_degenerate(self):
        assert mt_mean_max_delay(7, 1.0) == 0.0
        assert mt_mean_max_delay(7, 0.0) == 7.0

    def test_enumerated_spot_value(self):
        # tails 7/8, 3/8, 1/8
        assert mt_mean_max_delay(3, 0.5) == pytest.approx(1.375, abs=1e-12)

    def test_matches_enumeration(self):
        for m, p in [(6, 0.3), (9, 0.7), (11, 0.5)]:
            assert mt_mean_max_delay(m, p) == pytest.approx(
                float(enumerate_run_tails(m, p).sum()), abs=1e-10
            )


class TestWtsBounds:
    def test_single_block_windows_reduce_to_per_block(self):
        b = wts_delay_bounds(12, 1, 0.42)
        exact = mt_mean_max_delay(12, 0.42)
        assert b.delay_lower == pytest.approx(exact)
        assert b.delay_upper == pytest.approx(exact)

    def test_whole_file_window(self):
        m, p_b = 9, 0.8
        b = wts_delay_bounds(m, m, p_b)
        # single Bernoulli window: tail(1) = 1 - p_B
        assert b.delay_lower == pytest.approx(m * (1 - p_b))
        assert b.delay_upper == pytest.approx(m * (1 - p_b))

    def test_decoded_bounds(self):
        b = wts_delay_bounds(10, 3, 0.6)
        assert b.decoded_lower == pytest.approx(3 * 0.6)
        assert b.decoded_upper == pytest.approx(4 * 0.6)
        assert b.delay_lower <= b.delay_upper + 1e-12

    @given(m=st.integers(1, 60), p_b=PROBS, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_both_horizons_are_mt_delays(self, m, p_b, data):
        # one pass gives both horizons with the bits of two separate sums
        window = data.draw(st.integers(1, m))
        b = wts_delay_bounds(m, window, p_b)
        assert b.delay_lower == window * mt_mean_max_delay(m // window, p_b)
        assert b.delay_upper == window * mt_mean_max_delay(-(-m // window), p_b)

    def test_validation(self):
        with pytest.raises(ValueError):
            wts_delay_bounds(5, 6, 0.5)
        with pytest.raises(ValueError):
            wts_delay_bounds(5, 0, 0.5)

    @given(data=st.data(), p_b=PROBS)
    @settings(max_examples=150, deadline=None)
    def test_horizons_are_the_one_horizon_calls(self, data, p_b):
        # One pass over the window counts of every horizon gives each h the
        # bits of its own call, B dividing h or not.
        window, hs = data.draw(HORIZONS)
        got = wts_delay_bounds(hs[-1] + data.draw(st.integers(0, 3)), window, p_b, hs)
        assert got == [wts_delay_bounds(h, window, p_b) for h in hs]

    @pytest.mark.parametrize("horizons", [[], [2], [5, 5], [6, 5], [11]])
    def test_horizons_must_rise_within_the_window_and_m(self, horizons):
        with pytest.raises(ValueError, match=r"horizons must rise within 3\.\.10"):
            wts_delay_bounds(10, 3, 0.5, horizons)


class TestEnumeration:
    def test_guard(self):
        with pytest.raises(ValueError):
            enumerate_run_tails(21, 0.5)

    def test_small_hand_case(self):
        # M=2, p=0.5: tails are Pr{>=1 zero} = 3/4, Pr{00} = 1/4
        tails = enumerate_run_tails(2, 0.5)
        assert np.allclose(tails, [0.75, 0.25])


class TestWideAgreement:
    def test_triangle_extends_to_sixteen(self):
        for m in (15, 16):
            for p in (0.1, 0.5, 0.9):
                enum = enumerate_run_tails(m, p)
                for d in range(1, m + 1):
                    assert run_tail_partial_fraction(m, p, d) == pytest.approx(
                        enum[d - 1], abs=1e-9
                    )
                    assert run_tail_matrix_power(m, p, d) == pytest.approx(
                        enum[d - 1], abs=1e-9
                    )

    def test_matrix_power_agreement_up_to_two_hundred(self):
        # the recurrence must track the chain for every size up to 200
        cases = [
            (50, 0.3, 7),
            (120, 0.5, 20),
            (200, 0.2, 3),
            (200, 0.5, 60),
            (200, 0.7, 40),
            (200, 0.9, 100),
            (175, 0.05, 12),
        ]
        for m, p, d in cases:
            mat = run_tail_matrix_power(m, p, d)
            assert abs(run_tails(m, p)[d - 1] - mat) < 1e-9, (m, p, d)
        # the closed form stays a working cross-check on the moderate grid
        for m, p, d in cases:
            if d <= 60 and p <= 0.9:
                mat = run_tail_matrix_power(m, p, d)
                assert abs(run_tail_partial_fraction(m, p, d) - mat) < 1e-9, (m, p, d)


class TestRunTailColumn:
    @given(n=st.integers(1, 40), p=PROBS, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_run_tails(self, n, p, data):
        d = data.draw(st.integers(1, n + 2))
        *_, column = run_tail_columns(n, p, d)
        expected = [run_tails(i, p)[d - 1] if 1 <= d <= i else 0.0 for i in range(n)]
        # run_tails clamps at 1; the columns carry the unclamped sums
        assert np.minimum(column, 1.0).tolist() == expected

    def test_one_column_per_run_length(self):
        columns = list(run_tail_columns(7, 0.4, 9))
        assert len(columns) == 9 and all(c.shape == (7,) for c in columns)
        assert columns[6].tolist() == [0.0] * 7  # d = 7: no run fits in 6 trials

    def test_validation(self):
        with pytest.raises(ValueError):
            next(run_tail_columns(5, 1.5, 2))


class TestMemoryBound:
    """The run tails hold O(M) floats, not the (M+1)×M table (122 MiB at M = 4000)."""

    @pytest.mark.parametrize(
        "call",
        [lambda: run_tails(4000, 0.3), lambda: wts_delay_bounds(4000, 1, 0.3)],
        ids=["run_tails", "wts_delay_bounds"],
    )
    def test_traced_peak_under_one_mib(self, call):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestWtsMeanDelay:
    """The exact mean literal wTS delay against the 2^k enumeration."""

    @given(m=st.integers(1, 12), p_b=PROBS, p_r=PROBS, data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_enumeration(self, m, p_b, p_r, data):
        window = data.draw(st.integers(1, m))
        exact = wts_mean_delay(m, window, p_b, p_r)
        oracle = wts_mean_delay_enumerated(m, window, p_b, p_r)
        assert exact == pytest.approx(oracle, rel=1e-12, abs=0.0)

    def test_every_window_at_the_ends(self):
        for m in range(1, 13):
            for window in range(1, m + 1):
                for p_b in (0.0, 1.0):
                    for p_r in (0.0, 1.0):
                        assert wts_mean_delay(m, window, p_b, p_r) == wts_mean_delay_enumerated(
                            m, window, p_b, p_r
                        )

    def test_single_block_windows_are_per_block(self):
        # B = 1 is MT's delay: the longest run of M Bernoulli(p) failures.
        assert wts_mean_delay(12, 1, 0.37) == pytest.approx(mt_mean_max_delay(12, 0.37), rel=1e-13)

    def test_deterministic_windows(self):
        # every full window decodes: the gaps are B - 1, then the r - s trailing slots
        assert wts_mean_delay(10, 3, 1.0, 0.0) == 2.0
        assert wts_mean_delay(11, 3, 1.0, 1.0) == 2.0
        assert wts_mean_delay(11, 4, 1.0, 0.0) == 3.0
        assert wts_mean_delay(9, 4, 0.0, 0.0) == 9.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wts_mean_delay(5, 6, 0.5)
        with pytest.raises(ValueError):
            wts_mean_delay(5, 2, 0.5, 1.5)
        with pytest.raises(ValueError, match="one short-window probability per horizon"):
            wts_mean_delay(10, 3, 0.5, [0.5], [4, 5])
        with pytest.raises(ValueError):
            wts_mean_delay(10, 3, 0.5, [0.5, 1.5], [4, 5])
        with pytest.raises(ValueError, match=r"horizons must rise within 3\.\.10"):
            wts_mean_delay(10, 3, 0.5, [0.5, 0.5], [5, 4])

    @given(data=st.data(), p_b=PROBS)
    @settings(max_examples=200, deadline=None)
    def test_horizons_are_the_one_horizon_calls(self, data, p_b):
        # One pass over the tail columns at the largest k gives each h, with
        # its own short window, the bits of its own call.
        window, hs = data.draw(HORIZONS)
        p_r = data.draw(st.lists(PROBS, min_size=len(hs), max_size=len(hs)))
        got = wts_mean_delay(hs[-1] + data.draw(st.integers(0, 3)), window, p_b, p_r, hs)
        assert got == [wts_mean_delay(h, window, p_b, p) for h, p in zip(hs, p_r)]

    def test_horizons_make_one_tail_pass(self, monkeypatch):
        import streamfade.runstats as runstats

        lengths = []
        columns = runstats.run_tail_columns

        def counted(length, p, depth):
            lengths.append(length)
            return columns(length, p, depth)

        monkeypatch.setattr(runstats, "run_tail_columns", counted)
        wts_mean_delay(64, 3, 0.4, [0.1] * 5, [5, 9, 30, 31, 64])
        assert lengths == [21]  # k = 64 // 3
