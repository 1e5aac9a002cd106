"""Block-major and row-major tiles give the same results, bit for bit.

The sampler stores a tile of rows of at most `BLOCK_MAJOR_MAX_BLOCKS`
capacities block-major, and the evaluators then reduce across trials one
column at a time.  Every function must return the same arrays on C- and
F-ordered copies of one matrix, and leave its input as it was.
"""
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from streamfade import engine
from streamfade.channel import as_tile, scan_blocks
from streamfade.engine import (
    evaluate_pb,
    evaluate_wts,
    pb_count_sums,
    window_sums,
)
from streamfade.informed import informed_counts_and_delays
from streamfade.schemes import Scheme


def both_layouts(matrix):
    c, f = np.ascontiguousarray(matrix), np.asfortranarray(matrix)
    assert c.flags.c_contiguous and f.flags.f_contiguous
    return c, f


def assert_same_on_both(fn, matrix, *args):
    """`fn` gives identical arrays on both layouts and leaves them unchanged."""
    results = []
    for layout in both_layouts(matrix):
        before = layout.copy(order="K")
        results.append(fn(layout, *args))
        assert np.array_equal(layout, before)
    c_out, f_out = results
    if not isinstance(c_out, tuple):
        c_out, f_out = (c_out,), (f_out,)
    for x, y in zip(c_out, f_out):
        x, y = np.asarray(x), np.asarray(y)
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes(), fn.__name__


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_evaluators_agree_across_layouts(data):
    # M = 1..80 lies on both sides of BLOCK_MAJOR_MAX_BLOCKS; one-trial tiles
    # included.  Integer capacities give exact ties.
    m = data.draw(st.integers(1, 12) | st.integers(13, 80))
    rows = data.draw(st.integers(1, 9))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0]) | st.floats(0.0, 4.0)
    caps = data.draw(arrays(np.float64, (rows, m), elements=values))
    rate = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    window = data.draw(st.integers(1, m))
    assert_same_on_both(Scheme("mt").evaluate, caps, rate)
    assert_same_on_both(Scheme("ets").evaluate, caps, rate)  # depth M
    assert_same_on_both(evaluate_pb, caps, rate, window)
    assert_same_on_both(evaluate_wts, caps, rate, window)
    assert_same_on_both(informed_counts_and_delays, caps, rate)
    for kernel in (engine._pb_tile_by_counting, engine._pb_tile_by_search):
        with mock.patch.object(engine, "pb_tile_kernel", lambda _: kernel):
            assert_same_on_both(pb_count_sums, caps, rate)


def wts_at_horizons(matrix, rate, window, horizons):
    """`evaluate_wts` at `horizons`, flattened to one tuple of arrays."""
    return tuple(a for row in evaluate_wts(matrix, rate, window, horizons) for a in row)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_wts_horizons_equal_the_heads(data):
    # Row i of the horizons form is, bit for bit, the call on the tile's
    # first h_i columns.  B >= 8 sums windows pairwise; h = B, multiples of B
    # and h with a short last window are drawn, one-row tiles included, and
    # integer capacities give exact ties.
    m = data.draw(st.integers(1, 12) | st.integers(13, 80))
    window = data.draw(st.integers(1, m) | st.integers(min(8, m), m))
    rows = data.draw(st.integers(1, 9))
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]) | st.floats(0.0, 4.0)
    caps = data.draw(arrays(np.float64, (rows, m), elements=values))
    rate = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    multiples = st.sampled_from(range(window, m + 1, window))
    horizons = sorted(
        data.draw(st.sets(st.integers(window, m) | multiples | st.just(window), min_size=1))
    )
    assert_same_on_both(wts_at_horizons, caps, rate, window, horizons)
    for layout in both_layouts(caps):
        got = evaluate_wts(layout, rate, window, horizons)
        assert len(got) == len(horizons)
        for h, row in zip(horizons, got):
            head = evaluate_wts(as_tile(layout).head(h), rate, window)
            for x, y in zip(row, head):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (h, window)
        whole = evaluate_wts(layout, rate, window)
        (at_m,) = evaluate_wts(layout, rate, window, [m])
        assert all(x.tobytes() == y.tobytes() for x, y in zip(whole, at_m))


def test_scan_matches_accumulate():
    rng = np.random.default_rng(3)
    for rows, blocks in ((1, 5), (7, 1), (300, 8), (40, 65)):
        floats = rng.random((rows, blocks))
        ints = rng.integers(-50, 50, (rows, blocks), dtype=np.int32)
        for ufunc, matrix in ((np.add, floats), (np.maximum, ints), (np.minimum, ints)):
            expected = ufunc.accumulate(matrix, axis=1)
            for layout in both_layouts(matrix):
                assert scan_blocks(ufunc, layout).tobytes() == expected.tobytes()
                in_place = layout.copy(order="K")
                assert scan_blocks(ufunc, in_place, out=in_place) is in_place
                assert in_place.tobytes() == expected.tobytes()


def test_window_sums_are_numpys_row_major_sums():
    # numpy sums 8 or more terms pairwise; column adds below that, a
    # row-major copy from there on, must repeat its bits exactly.
    rng = np.random.default_rng(11)
    for window in range(1, 21):
        for rows, k in ((1, 1), (2, 3), (4096, 3)):
            matrix = rng.random((rows, k * window)) * 4.0
            expected = matrix.reshape(rows, k, window).sum(axis=2)
            for layout in both_layouts(matrix):
                assert window_sums(layout, window).tobytes() == expected.tobytes(), window
                # A scratch buffer takes the row-major copy; the bits stay.
                scratch = np.full(matrix.size + 5, np.nan)
                got = window_sums(layout, window, scratch)
                assert got.tobytes() == expected.tobytes(), window

