import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import max_zero_run_rows_loop
from streamfade.channel import ChannelParams
from streamfade.engine import Accumulator, evaluate_point, moments
from streamfade.metrics import max_zero_run
from streamfade.schemes import Scheme


class TestMaxZeroRun:
    @pytest.mark.parametrize(
        "vector,expected",
        [
            ([1, 1, 0, 0, 1], 2),
            ([1, 0, 1, 0, 1], 1),
            ([0, 0, 0], 3),
            ([1, 1, 1], 0),
            ([0, 1, 1, 0, 0, 0, 1], 3),
        ],
    )
    def test_examples(self, vector, expected):
        assert max_zero_run(vector) == expected

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_matches_string_reference(self, bits):
        # longest run of '0' characters in the string rendering
        ref = max(len(chunk) for chunk in "".join(map(str, bits)).split("1"))
        assert max_zero_run(bits) == ref

    @given(st.integers(1, 8), st.integers(1, 30), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rowwise_matches_scalar(self, n, m, seed):
        rng = np.random.default_rng(seed)
        mat = rng.integers(0, 2, size=(n, m)).astype(bool)
        rows = max_zero_run_rows_loop(mat)
        assert [max_zero_run(row) for row in mat] == rows.tolist()


def reduce_trials(vectors):
    """Per-trial (decoded count, longest zero-run) of decode vectors, the pair
    every scheme evaluator returns."""
    bits = np.asarray(vectors, dtype=bool)
    return bits.sum(axis=1), max_zero_run_rows_loop(bits)


def accumulate(counts, delays) -> Accumulator:
    return Accumulator(None, len(counts), *moments(counts, delays))


class TestTrialMetrics:
    def test_counts_and_run(self):
        counts, delays = reduce_trials([[1, 1, 0, 0, 1]])
        assert (counts.tolist(), delays.tolist()) == ([3], [2])
        acc = accumulate(counts, delays)
        assert (acc.count_sum, acc.delay_sum) == (3, 2)

    def test_all_zero(self):
        counts, delays = reduce_trials([[0] * 7])
        assert counts[0] == 0 and delays[0] == 7


class TestAggregate:
    """`engine.Accumulator` is the one reduction over trials; a CSV row scales
    its mean count by rate / M into bits per channel use."""

    def test_single_all_ones_trial(self):
        acc = accumulate(*reduce_trials([[1, 1, 1, 1]]))
        assert 2.0 / 4 * acc.mean_count() == 2.0
        assert acc.mean_delay() == 0.0
        assert acc.trials == 1
        assert acc.stderr_count() == 0.0 and acc.stderr_delay() == 0.0

    def test_two_extreme_trials(self):
        m = 6
        acc = accumulate(*reduce_trials([[1] * m, [0] * m]))
        assert 1.0 / m * acc.mean_count() == pytest.approx(0.5)
        assert acc.mean_delay() == pytest.approx(m / 2)

    def test_eta_identity(self):
        # (R/M) * sum m*eta(m) must equal the direct throughput mean
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 11, size=5000)
        delays = rng.integers(0, 11, size=5000)
        acc = accumulate(counts, delays)
        eta_hist = np.bincount(counts, minlength=11) / acc.trials
        via_hist = 1.5 / 10 * np.dot(np.arange(11), eta_hist)
        assert abs(1.5 / 10 * acc.mean_count() - via_hist) < 1e-12
        assert eta_hist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 9, size=1000)
        delays = rng.integers(0, 9, size=1000)
        acc = accumulate(counts, delays)
        assert 0.0 <= 1.0 / 8 * acc.mean_count() <= 1.0
        assert 0.0 <= acc.mean_delay() <= 8.0

    def test_stderr_matches_numpy(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 5, size=400)
        delays = rng.integers(0, 5, size=400)
        acc = accumulate(counts, delays)
        assert acc.stderr_delay() == pytest.approx(delays.std(ddof=1) / np.sqrt(400))
        assert 1.0 / 4 * acc.stderr_count() == pytest.approx(
            counts.std(ddof=1) / np.sqrt(400) / 4
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            evaluate_point(ChannelParams(0.0, 1.0, 4), {"mt": Scheme("mt")}, 0, 1)
