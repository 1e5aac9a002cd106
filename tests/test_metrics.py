import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import max_zero_run_rows_loop
from streamfade.metrics import (
    TrialMetrics,
    aggregate,
    aggregate_arrays,
    max_zero_run,
    max_zero_run_at,
    max_zero_run_rows,
    trial_metrics,
)


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
        rows = max_zero_run_rows(mat)
        assert [max_zero_run(row) for row in mat] == rows.tolist()
        assert max_zero_run_rows_loop(mat).tolist() == rows.tolist()


    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_sparse_slots_match_expanded_vector(self, data):
        m = data.draw(st.integers(1, 30))
        slots = np.array(sorted(data.draw(st.lists(st.integers(0, m - 1), min_size=1, unique=True))))
        bits = data.draw(arrays(np.bool_, (3, slots.size)))
        expanded = np.zeros((3, m), dtype=bool)
        expanded[:, slots] = bits
        assert max_zero_run_at(bits, slots, m).tolist() == max_zero_run_rows_loop(expanded).tolist()


class TestTrialMetrics:
    def test_counts_and_run(self):
        t = trial_metrics([1, 1, 0, 0, 1])
        assert t == TrialMetrics(decoded_count=3, max_run0=2)

    def test_all_zero(self):
        t = trial_metrics([0] * 7)
        assert t.decoded_count == 0 and t.max_run0 == 7


class TestAggregate:
    def test_single_all_ones_trial(self):
        agg = aggregate([trial_metrics([1, 1, 1, 1])], rate=2.0, blocks=4)
        assert agg.avg_throughput_bpcu == 2.0
        assert agg.avg_max_delay_blocks == 0.0
        assert agg.trials == 1
        assert agg.stderr_throughput == 0.0

    def test_two_extreme_trials(self):
        m = 6
        trials = [trial_metrics([1] * m), trial_metrics([0] * m)]
        agg = aggregate(trials, rate=1.0, blocks=m)
        assert agg.avg_throughput_bpcu == pytest.approx(0.5)
        assert agg.avg_max_delay_blocks == pytest.approx(m / 2)

    def test_eta_identity(self):
        # (R/M) * sum m*eta(m) must equal the direct throughput mean
        rng = np.random.default_rng(3)
        counts = rng.integers(0, 11, size=5000)
        delays = rng.integers(0, 11, size=5000)
        agg = aggregate_arrays(counts, delays, rate=1.5, blocks=10)
        via_hist = 1.5 / 10 * np.dot(np.arange(11), agg.eta_hist)
        assert abs(agg.avg_throughput_bpcu - via_hist) < 1e-12
        assert agg.eta_hist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(4)
        counts = rng.integers(0, 9, size=1000)
        delays = rng.integers(0, 9, size=1000)
        agg = aggregate_arrays(counts, delays, rate=1.0, blocks=8)
        assert 0.0 <= agg.avg_throughput_bpcu <= 1.0
        assert 0.0 <= agg.avg_max_delay_blocks <= 8.0

    def test_stderr_matches_numpy(self):
        rng = np.random.default_rng(5)
        counts = rng.integers(0, 5, size=400)
        delays = rng.integers(0, 5, size=400)
        agg = aggregate_arrays(counts, delays, rate=1.0, blocks=4)
        assert agg.stderr_delay == pytest.approx(delays.std(ddof=1) / np.sqrt(400))
        assert agg.stderr_throughput == pytest.approx(
            counts.std(ddof=1) / np.sqrt(400) / 4
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], rate=1.0, blocks=4)
