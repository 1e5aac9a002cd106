import gc
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc
import types
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    ets_counts_by_running_total,
    pb_count_sums_loop,
    pb_mi_matrix,
    wts_literal_delay_expanded,
    wts_window_delays,
    wts_window_search,
)
from streamfade import channel, engine
from streamfade.informed import informed_trial
from streamfade.metrics import max_zero_run
from streamfade.channel import (
    ChannelParams,
    decode_success_prob,
    sample_capacity_matrix,
    window_decode_prob,
)
from streamfade.engine import (
    Accumulator,
    evaluate_point,
    evaluate_points,
    evaluate_pb,
    evaluate_wts,
    moments,
    optimize_pb_window,
    optimize_wts_window,
    pb_accumulator,
    pb_count_sums,
    tile_sums,
)
from streamfade.experiments import ExperimentConfig, render_csv, run_experiment
from streamfade.runstats import wts_mean_delay
from streamfade.schemes import (
    Scheme,
    build_allocation,
    decode,
    parse_scheme_list,
    transmitted_mask,
)


PB_KERNELS = (engine._pb_tile_by_counting, engine._pb_tile_by_search)


def params(snr=-5.0, rate=1.0, blocks=20):
    return ChannelParams(snr_db=snr, rate=rate, blocks=blocks)


SCHEMES = {
    "mt": Scheme("mt"),
    "ets": Scheme("ets"),
    "pb8": Scheme("pb", 8),
    "wts3": Scheme("wts", 3),
    "it": Scheme("it"),
}


def depth_table(p, trials, seed, threads=1):
    """The (2, M) `pb_count_sums` table of one sampling pass."""
    return tile_sums(p, trials, seed, threads, lambda tile: [pb_count_sums(tile, p.rate)])[0]


def snapshot(accums):
    out = {}
    for key, acc in accums.items():
        out[key] = (
            acc.trials,
            acc.count_sum,
            acc.count_sqsum,
            acc.delay_sum,
            acc.delay_sqsum,
        )
    return out


def fake_fork_pool(monkeypatch):
    """Replaces the fork pool of a pass with one that starts no process: it
    records its size and runs the shares in this process, in order.
    Returns (pool sizes, the index k of each share run)."""
    sizes, shares = [], []

    class Pool:
        def __init__(self, workers, initializer, initargs):
            sizes.append(workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items):
            out = []
            for k in items:
                shares.append(k)
                out.append(fn(k))
            return out

    monkeypatch.setattr(engine, "_SHARE", None)  # set by the pool's initializer
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: types.SimpleNamespace(Pool=Pool))
    return sizes, shares


# Raised by a forked worker; defined here, so that the parent can unpickle it.
class Sampled(Exception):
    pass


class TestDeterminism:
    def test_thread_count_invariant(self, forks):
        p = params()
        single = evaluate_point(p, SCHEMES, trials=10_000, seed=42, threads=1)
        quad = evaluate_point(p, SCHEMES, trials=10_000, seed=42, threads=4)
        assert snapshot(single) == snapshot(quad)
        assert forks == [4]  # one worker per tile

    def test_workers_bounded_by_chunks_and_cores(self, monkeypatch):
        sizes, _ = fake_fork_pool(monkeypatch)
        monkeypatch.setattr(engine, "MIN_TILES_PER_WORKER", 1)
        p = params(blocks=1 << 16)
        assert len(channel.row_blocks(5, p.blocks)) == 5  # five tiles of one row
        rows = lambda tile: [np.array([tile.caps.shape[0]])]
        # (cores, --threads, pool sizes); no pool when one worker is left
        for cores, threads, pools in (
            (3, 5000, [3]),
            (2, 10**6, [2]),
            (64, 5000, [5]),
            (64, 2, [2]),
            (64, 1, []),
            (None, 4, []),
        ):
            monkeypatch.setattr(engine.os, "cpu_count", lambda c=cores: c)
            sizes.clear()
            assert tile_sums(p, 5, 1, threads, rows) == [5]
            assert sizes == pools, (cores, threads)
        # A share holds at least MIN_TILES_PER_WORKER tiles.
        monkeypatch.setattr(engine, "MIN_TILES_PER_WORKER", 3)
        sizes.clear()
        tile_sums(p, 5, 1, 2, rows)
        assert sizes == []

    @pytest.mark.parametrize("per_worker, pools, of_three", [(127, [], 2), (128, [2], 3)])
    def test_a_share_holds_at_least_128_tiles(self, monkeypatch, per_worker, pools, of_three):
        # At M = 2000 two workers of 64 tiles each did not win in every
        # measurement; at 128 they did.
        sizes, _ = fake_fork_pool(monkeypatch)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(
            engine, "sample_capacity_matrix",
            lambda params, seed, lo, hi, workspace: np.zeros((hi - lo, params.blocks)),
        )
        assert engine.MIN_TILES_PER_WORKER == 128
        assert engine._workers(2 * per_worker, 2) == len(pools) + 1
        assert engine._workers(3 * per_worker, 4) == of_three
        n = 2 * per_worker
        p = params(blocks=1 << 16)  # one row per tile
        assert len(channel.row_blocks(n, p.blocks)) == n
        assert tile_sums(p, n, 1, 2, lambda tile: [np.array([tile.caps.shape[0]])]) == [n]
        assert sizes == pools

    def test_chunking_transparent(self):
        # accumulator over row tiles equals one-shot evaluation
        p = params(blocks=9)
        accums = evaluate_point(p, {"pb": Scheme("pb", 4)}, trials=9_000, seed=7, threads=2)
        caps = sample_capacity_matrix(p, 7, 0, 9_000)
        counts, delays = evaluate_pb(caps, p.rate, 4)
        assert accums["pb"].count_sum == counts.sum()
        assert accums["pb"].delay_sum == delays.sum()
        assert accums["pb"].trials == 9_000

    def test_chunk_ranges_cover(self, monkeypatch):
        # Worker k of w takes the contiguous share [k n/w, (k+1) n/w) of the
        # n row tiles, so the shares cover the trials once, in order.
        _, shares = fake_fork_pool(monkeypatch)
        monkeypatch.setattr(engine, "MIN_TILES_PER_WORKER", 1)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
        sampled = []  # (share, tile's trial range)

        def sample(params, seed, lo, hi, workspace):
            sampled.append((shares[-1] if shares else 0, (lo, hi)))
            return np.zeros((hi - lo, params.blocks))

        monkeypatch.setattr(engine, "sample_capacity_matrix", sample)
        ranges = list(channel.row_blocks(10_000, 20))
        assert len(ranges) == 4
        # (workers, the share of each tile)
        for workers, owners in ((1, [0] * 4), (2, [0, 0, 1, 1]), (3, [0, 1, 2, 2]), (4, [0, 1, 2, 3])):
            sampled.clear()
            shares.clear()
            tile_sums(params(blocks=20), 10_000, 1, workers, lambda tile: [np.zeros(1, np.int64)])
            assert sampled == list(zip(owners, ranges)), workers


class TestChunkBudget:
    """Row tiles hold at most `channel.tile_elements` capacities; the sums
    they reduce to are exact integers keyed by trial index, so no result
    depends on the tile size, on either layout."""

    SCHEMES = {
        "mt": Scheme("mt"),
        "ets": Scheme("ets"),
        "pb1": Scheme("pb", 1),
        "wts1": Scheme("wts", 1),
        "pb": Scheme("pb"),
        "twts": Scheme("twts"),
        "dwts": Scheme("dwts"),
        "it": Scheme("it"),
    }

    @given(st.data())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_results_independent_of_budget_and_threads(self, forks, data):
        # M = 60..70 crosses BLOCK_MAJOR_MAX_BLOCKS: tiles are block-major up
        # to 64 and row-major above.  A budget is k whole rows, or any 1..120
        # capacities (at M >= 60 mostly less than a row: one-row tiles).
        blocks = data.draw(st.integers(1, 9) | st.integers(60, 70))
        budget = data.draw(st.integers(1, 40).map(lambda k: k * blocks) | st.integers(1, 120))
        threads = data.draw(st.sampled_from([1, 2]))
        config = ExperimentConfig(
            snr_db=0.0,
            rate=1.0,
            messages=blocks,
            schemes=parse_scheme_list("mt,ets,pb,pb:1,wts:1,twts,dwts"),
            include_it_bound=True,
            trials=97,
            seed=23,
        )
        p = params(snr=0.0, blocks=blocks)
        whole = snapshot(evaluate_point(p, self.SCHEMES, 97, 23))
        csv = render_csv(run_experiment(config))
        with mock.patch.object(channel, "tile_elements", lambda m: budget):
            tiles = len(channel.row_blocks(97, blocks))
            assert tiles == -(-97 // max(1, budget // blocks))
            forks.clear()
            assert snapshot(evaluate_point(p, self.SCHEMES, 97, 23, threads)) == whole
            assert render_csv(run_experiment(replace(config, threads=threads))) == csv
            assert forks == ([threads] * 2 if threads > 1 and tiles > 1 else [])


class TestMemoryBound:
    """A point's working set is a workspace of row tiles, whatever the trial
    count."""

    @pytest.fixture(autouse=True)
    def new_workspace(self, monkeypatch):
        # Buffers built before tracing starts would not be counted.
        monkeypatch.setattr(engine, "WORKSPACE", channel.Workspace())

    def test_peak_at_long_file_scale(self):
        p = params(blocks=2000)
        schemes = {"ets": Scheme("ets"), "pb": Scheme("pb"), "it": Scheme("it")}
        assert len(channel.row_blocks(1024, 2000)) == 64  # of 16 trials each
        tracemalloc.start()
        try:
            evaluate_point(p, schemes, 1024, 12345)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Three 2 MB matrices of float64 capacities (2^18 of them each).
        assert peak < 6 * 2**20
        # The pass holds a workspace of row tiles (~2 MB), not a 2 MB
        # matrix of 131 trials next to it: 2.0 MB traced, where a pass over
        # such matrices took 4.5 MB.
        assert peak < 3 * 2**20

    def test_peak_at_sweep_scale(self):
        # M = 64: the largest block-major tiles, 1024 trials, every scheme.
        schemes = dict(enumerate(parse_scheme_list("mt,ets,pb,pb:30,wts:9,twts,dwts")))
        schemes["it"] = Scheme("it")
        assert len(channel.row_blocks(10_000, 64)) == 10
        tracemalloc.start()
        try:
            evaluate_point(params(blocks=64), schemes, 10_000, 12345)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestPassMemory:
    """A pass adds each tile's sums to its share's total as the tile
    finishes and lists no tiles, and its arrays live in its process's
    workspace."""

    @pytest.fixture(autouse=True)
    def new_workspace(self, monkeypatch):
        monkeypatch.setattr(engine, "WORKSPACE", channel.Workspace())

    def test_peak_does_not_grow_with_the_chunks(self, monkeypatch, forks):
        # At two workers this process holds the two shares' totals, and each
        # worker holds what one pass in a process does.
        monkeypatch.setattr(channel, "tile_elements", lambda blocks: 2 * blocks)  # two rows
        p = params(blocks=2000)
        schemes = {"ets": Scheme("ets"), "pb": Scheme("pb")}
        evaluate_point(p, schemes, 2, 7)  # builds the workspace before tracing
        for threads in (1, 2):
            peaks, sums = {}, {}
            for tiles in (64, 256):
                assert len(channel.row_blocks(2 * tiles, 2000)) == tiles
                tracemalloc.start()
                try:
                    sums[tiles] = snapshot(evaluate_point(p, schemes, 2 * tiles, 7, threads))
                    _, peaks[tiles] = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert snapshot(evaluate_point(p, schemes, 2 * tiles, 7)) == sums[tiles]
            # A pass that kept every tile's (2, M) depth table would hold 6 MB more.
            assert peaks[256] < peaks[64] + 2**16, (threads, peaks)
        assert forks == [2, 2]

    def test_nothing_is_kept_after_a_pass(self, monkeypatch):
        # CPython keeps freed small objects on free lists, which tracemalloc
        # counts as current; gc.collect() clears them.
        monkeypatch.setattr(channel, "tile_elements", lambda blocks: 2 * blocks)  # two rows
        p = params(blocks=2000)
        schemes = {"ets": Scheme("ets"), "pb": Scheme("pb")}
        evaluate_point(p, schemes, 2, 7)  # builds the workspace before tracing
        kept = {}
        for tiles in (64, 1024):
            tracemalloc.start()
            try:
                evaluate_point(p, schemes, 2 * tiles, 7)
                gc.collect()
                kept[tiles], _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert abs(kept[1024] - kept[64]) <= 4096, kept

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_pass_starts_at_once(self, monkeypatch, threads):
        # 2^31 - 1 one-row tiles: a pass that listed its tiles, or made any
        # work per tile before the first, would not reach the sampler.  At
        # two workers the sentinel is raised in a forked worker.
        def sentinel(*args):
            raise Sampled

        monkeypatch.setattr(engine, "sample_capacity_matrix", sentinel)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        p = params(blocks=1 << 16)
        start = time.perf_counter()
        with pytest.raises(Sampled):
            tile_sums(p, (1 << 31) - 1, 1, threads, lambda tile: [])
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("blocks", [8, 64])
    def test_no_request_outgrows_a_buffer(self, monkeypatch, blocks):
        # A zero run's int32 (rows, M + 1) array included.
        outgrown = []
        real = channel.Workspace.array

        def array(self, name, *args):
            out = real(self, name, *args)
            if out.base is None:  # a new array, not a view of a kept buffer
                outgrown.append((name, out.dtype, out.shape))
            return out

        monkeypatch.setattr(channel.Workspace, "array", array)
        schemes = dict(enumerate(parse_scheme_list("mt,ets,pb,pb:3,wts:3,twts,dwts")))
        schemes["it"] = Scheme("it")
        evaluate_point(params(blocks=blocks), schemes, 4096, 12345)
        assert outgrown == []

    def test_no_buffer_is_rebuilt_after_a_layouts_first_tile(self, monkeypatch):
        schemes = dict(enumerate(parse_scheme_list("mt,ets,pb,wts:3,twts,dwts")))
        schemes["it"] = Scheme("it")
        for first, sweep in ((8, (8, 16, 33, 64)), (65, (65, 300, 2000))):
            workspace = channel.Workspace()
            monkeypatch.setattr(engine, "WORKSPACE", workspace)
            evaluate_point(params(blocks=first), schemes, 5, 3)  # one tile
            buffers = dict(workspace._buffers)
            for m in sweep:  # tiles of every size, several to a point
                evaluate_point(params(blocks=m), schemes, 8193, 3)
            assert workspace._buffers.keys() == buffers.keys()
            assert all(workspace._buffers[k] is v for k, v in buffers.items()), first


class TestOnePass:
    """Each row tile is sampled once per point, in one task, an optimized PB
    depth included."""

    FIXED = {
        "mt": Scheme("mt"),
        "ets": Scheme("ets"),
        "pb2": Scheme("pb", 2),
        "wts3": Scheme("wts", 3),
        "twts": Scheme("twts"),
        "dwts": Scheme("dwts"),
        "it": Scheme("it"),
    }

    def count_samples(self, monkeypatch, schemes):
        calls = []
        real = engine.sample_capacity_matrix

        def counted(*args):
            calls.append(args[2:4])
            return real(*args)

        monkeypatch.setattr(engine, "sample_capacity_matrix", counted)
        monkeypatch.setattr(channel, "tile_elements", lambda blocks: 4096 * blocks)
        evaluate_point(params(blocks=6), schemes, trials=8193, seed=5)
        return calls

    def test_one_sample_per_chunk(self, monkeypatch):
        calls = self.count_samples(monkeypatch, self.FIXED)
        assert calls == list(channel.row_blocks(8193, 6)) and len(calls) == 3

    def test_optimized_pb_samples_once(self, monkeypatch):
        calls = self.count_samples(monkeypatch, {**self.FIXED, "pb": Scheme("pb")})
        assert calls == list(channel.row_blocks(8193, 6)) and len(calls) == 3

    @pytest.mark.parametrize("blocks", [9, 64, 65, 130])
    def test_fixed_pb_rows_equal_the_depth_table(self, blocks):
        # 64 and 65 sit on either side of the table's kernel cutoff.  eTS is
        # PB at depth M, with no B of its own.  Without a chosen depth each
        # row is `evaluate_pb`'s; with one, every row is read off the table.
        p = params(snr=0.0, rate=2.0, blocks=blocks)
        table = depth_table(p, 300, 41)
        schemes = {b: Scheme("pb", b) for b in range(1, blocks + 1)}
        schemes["ets"] = Scheme("ets")
        expected = {b: pb_accumulator(table, 300, b) for b in range(1, blocks + 1)}
        expected["ets"] = replace(pb_accumulator(table, 300, blocks), window=None)
        expected = snapshot(expected)
        assert snapshot(evaluate_point(p, schemes, 300, 41)) == expected
        read_off = evaluate_point(p, {**schemes, "pb": Scheme("pb")}, 300, 41)
        assert read_off.pop("pb").window == optimize_pb_window(table[0], 300)[0]
        assert snapshot(read_off) == expected

    def test_a_table_point_evaluates_no_pb_row(self, monkeypatch):
        # A chosen depth builds the table, and eTS and every `pb:B` row are
        # read off it.
        def refuse(*args):
            raise AssertionError("evaluate_pb called at a point with a depth table")

        monkeypatch.setattr(engine, "evaluate_pb", refuse)
        schemes = dict(enumerate(parse_scheme_list("mt,ets,pb,pb:1,pb:3,wts:2,twts")))
        for blocks in (3, 64, 65):
            evaluate_points([params(blocks=m) for m in (3, blocks)], schemes, 1100, 2)

    def test_a_point_without_a_chosen_depth_builds_no_table(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("pb_count_sums called at a point without a chosen depth")

        monkeypatch.setattr(engine, "pb_count_sums", refuse)
        schemes = dict(enumerate(parse_scheme_list("mt,ets,pb:1,pb:3,wts:2,twts,dwts")))
        schemes["it"] = Scheme("it")
        for blocks in (3, 64, 65):
            evaluate_points([params(blocks=m) for m in (3, blocks)], schemes, 1100, 2)

    def test_optimized_rows_equal_fixed_rows_at_their_window(self):
        p = params(blocks=9)
        best = evaluate_point(
            p, {"pb": Scheme("pb"), "twts": Scheme("twts"), "dwts": Scheme("dwts")}, 3000, 8
        )
        fixed = evaluate_point(
            p,
            {
                "pb": Scheme("pb", best["pb"].window),
                "twts": Scheme("wts", best["twts"].window),
                "dwts": Scheme("wts", best["dwts"].window),
            },
            3000,
            8,
        )
        assert snapshot(best) == snapshot(fixed)


class TestEtsIsPbAtDepthM:
    """eTS is evaluated as PB at depth M: tau_M = (rate - S_0/M) + W_0 is the
    rate in exact arithmetic, and its per-trial counts equal those of the
    rule W >= rate on sampled traces."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_counts_equal_the_running_total_rule(self, data):
        m = data.draw(st.integers(1, 70) | st.sampled_from([64, 65]) | st.integers(1990, 2000))
        p = ChannelParams(
            snr_db=data.draw(st.floats(-10.0, 15.0)),
            rate=data.draw(st.floats(0.05, 5.0)),
            blocks=m,
        )
        trials = data.draw(st.integers(1, 60))
        caps = sample_capacity_matrix(p, data.draw(st.integers(0, (1 << 64) - 1)), 0, trials)
        expected = ets_counts_by_running_total(caps, p.rate)
        for layout in (np.ascontiguousarray(caps), np.asfortranarray(caps)):
            counts, delays = Scheme("ets").evaluate(layout, p.rate)
            assert counts.tolist() == expected.tolist()
            assert delays.tolist() == (m - expected).tolist()
            table = pb_count_sums(layout, p.rate)
            assert table[:, m - 1].tolist() == [expected.sum(), expected @ expected]


class TestSharedPass:
    """The block-major points of one link share one pass at their largest M
    and read their tiles as its first columns; every row equals that of the
    point's own pass, bit for bit."""

    def schemes(self, names):
        return dict(enumerate(parse_scheme_list(names) + (Scheme("it"),)))

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "blocks, names",
        [
            ((1, 7, 8, 63, 64, 65, 100), "mt,ets,pb,pb:1,wts:1,twts,dwts"),
            ((9, 63, 64, 65, 100), "mt,ets,pb,pb:1,wts:1,wts:9,twts,dwts"),
        ],
    )
    def test_rows_equal_the_points_own_passes(self, blocks, names, threads, forks):
        # 2100 trials: three tiles at M = 64, one of a point's own at M <= 8.
        schemes = self.schemes(names)
        points = [params(snr=0.0, blocks=m) for m in blocks]
        shared = evaluate_points(points, schemes, 2100, 13, threads)
        assert len(shared) == len(points)
        for p, got in zip(points, shared):
            assert got == evaluate_point(p, schemes, 2100, 13, threads), p.blocks
        assert bool(forks) == (threads > 1)

    def test_points_in_any_order_and_repeated(self):
        schemes = self.schemes("mt,ets,pb,wts:2,dwts")
        points = [params(blocks=m) for m in (64, 8, 65, 8, 2)]
        shared = evaluate_points(points, schemes, 1500, 3)
        assert shared == [evaluate_point(p, schemes, 1500, 3) for p in points]
        assert evaluate_points([], schemes, 1500, 3) == []

    def sampled(self, monkeypatch, run):
        """(M, SNR, lo, hi) of each tile that `run()` samples."""
        calls = []
        real = engine.sample_capacity_matrix

        def counted(p, seed, lo, hi, *rest):
            calls.append((p.blocks, p.snr_db, lo, hi))
            return real(p, seed, lo, hi, *rest)

        monkeypatch.setattr(engine, "sample_capacity_matrix", counted)
        run()
        return calls

    def test_a_message_sweep_samples_once(self, monkeypatch):
        config = ExperimentConfig(
            snr_db=-5.0,
            rate=1.0,
            messages=8,
            schemes=parse_scheme_list("mt,ets,pb,twts,dwts"),
            include_it_bound=True,
            trials=3000,
            seed=5,
            sweep_variable="messages",
            sweep_values=(8, 16, 24, 64),
        )
        calls = self.sampled(monkeypatch, lambda: run_experiment(config))
        ranges = channel.row_blocks(3000, 64)
        assert len(calls) == len(ranges) == 3
        assert calls == [(64, -5.0, lo, hi) for lo, hi in ranges]

    def test_an_snr_sweep_samples_each_point(self, monkeypatch):
        points = [params(snr=snr, blocks=24) for snr in (-5.0, 0.0, 5.0)]
        calls = self.sampled(
            monkeypatch, lambda: evaluate_points(points, self.schemes("mt,pb"), 3000, 5)
        )
        ranges = channel.row_blocks(3000, 24)
        assert calls == [(24, p.snr_db, lo, hi) for p in points for lo, hi in ranges]

    def test_row_major_points_sample_alone(self, monkeypatch):
        points = [params(blocks=m) for m in (8, 64, 65, 100)]
        calls = self.sampled(
            monkeypatch, lambda: evaluate_points(points, self.schemes("ets"), 700, 5)
        )
        assert calls == [
            (m, -5.0, lo, hi) for m in (64, 65, 100) for lo, hi in channel.row_blocks(700, m)
        ]


def _tile_rows(blocks: int) -> int:
    """Rows in a full row tile of rows of `blocks` blocks."""
    return max(1, channel.tile_elements(blocks) // blocks)


@st.composite
def _whole_passes(draw):
    """(points, schemes, trials, seed, threads): a message sweep of one link
    whose M often cross 64/65, fixed and chosen windows, and trials that
    often cross a tile boundary of one of the sweep's passes."""
    snr = draw(st.floats(-10.0, 15.0))
    rate = draw(st.floats(1e-3, 9.0))
    sizes = draw(
        st.lists(
            st.integers(1, 66) | st.sampled_from([64, 65, 100]), min_size=1, max_size=3, unique=True
        )
    )
    sizes += [m for m in draw(st.sampled_from([(), (64, 65), (63, 66)])) if m not in sizes]
    points = [ChannelParams(snr_db=snr, rate=rate, blocks=m) for m in sizes]
    # The block-major points share one pass at their largest M; every
    # row-major point has its own.
    shared = [m for m in sizes if m <= channel.BLOCK_MAJOR_MAX_BLOCKS]
    passes = ([max(shared)] if shared else []) + [m for m in sizes if m not in shared]
    crossings = [_tile_rows(m) + 1 for m in passes if _tile_rows(m) < 1100]
    trials = draw(st.sampled_from(crossings or [1]) | st.integers(1, 40))
    least = min(sizes)
    # Some draws have no chosen PB depth, and their PB rows are `evaluate_pb`'s.
    names = draw(
        st.lists(
            st.sampled_from(["mt", "ets", "pb", "pb:B", "wts:B", "twts", "dwts", "it"]),
            min_size=1,
            unique=True,
        )
    )
    schemes = {}
    for name in names:
        kind, _, fixed = name.partition(":")
        schemes[name] = Scheme(kind, draw(st.integers(1, least)) if fixed else None)
    seed = draw(st.integers(0, (1 << 64) - 1))
    return points, schemes, trials, seed, draw(st.sampled_from([1, 2]))


class TestWholePass:
    """Every row of `evaluate_points` equals the row built by references that
    share none of the engine's kernels: each trial decoded from the scheme's
    allocation matrix (`build_allocation`, `decode`, `max_zero_run`), the IT
    bound by `informed_trial`, a chosen PB depth as the argmax of the
    per-depth references, and a T-/D-wTS window as `optimize_wts_window`
    chooses it.  Each point's references sample the point on its own."""

    @staticmethod
    def reference(scheme: Scheme, caps: np.ndarray, rate: float) -> Accumulator:
        alpha = build_allocation(scheme, caps.shape[1])
        sent = transmitted_mask(alpha)
        decoded = [decode(alpha, row, rate, sent) for row in caps]
        sums = moments([v.sum() for v in decoded], [max_zero_run(v) for v in decoded])
        return Accumulator(scheme.window, len(caps), *sums.tolist())

    @given(_whole_passes())
    # The two tile layouts, a head of a shared pass, and two tiles in each
    # pass: 1024 rows at M = 64, 504 at M = 65.
    @example(
        (
            [ChannelParams(snr_db=-5.0, rate=1.0, blocks=m) for m in (8, 64, 65)],
            {"pb": Scheme("pb"), "ets": Scheme("ets"), "twts": Scheme("twts"), "it": Scheme("it")},
            1025,
            7,
            2,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_rows_equal_the_per_trial_references(self, case):
        points, schemes, trials, seed, threads = case
        results = evaluate_points(points, schemes, trials, seed, threads)
        for p, got in zip(points, results):
            m, rate = p.blocks, p.rate
            caps = sample_capacity_matrix(p, seed, 0, trials)
            for key, scheme in schemes.items():
                if scheme.name == "it":
                    sums = moments(*zip(*(informed_trial(row, rate) for row in caps)))
                    expected = Accumulator(None, trials, *sums.tolist())
                elif scheme.name in ("twts", "dwts"):
                    window, _ = optimize_wts_window(p, scheme.row.maximize)
                    expected = self.reference(Scheme("wts", window), caps, rate)
                elif scheme == Scheme("pb"):
                    # Each depth's decoded count over all trials: the
                    # trials are the columns of one trace matrix.
                    totals = []
                    for depth in range(1, m + 1):
                        alpha = build_allocation(Scheme("pb", depth), m)
                        sent = transmitted_mask(alpha)[:, None]
                        totals.append(decode(alpha, caps.T, rate, sent).sum())
                    depth = int(np.argmax(totals)) + 1
                    expected = self.reference(Scheme("pb", depth), caps, rate)
                else:
                    expected = self.reference(scheme, caps, rate)
                assert got[key] == expected, (m, key)


class TestTilePass:
    """`tile_sums` samples each row tile once; the sums of a pass equal
    those of the standalone evaluators on the sampled matrix, bit for bit."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_standalone_evaluators(self, data):
        m = data.draw(st.integers(1, 80) | st.integers(1995, 2005))
        trials = data.draw(st.integers(1, 60))
        # Tiles of several rows, of one row, or shorter than a row.
        tile = data.draw(
            st.integers(1, 24).map(lambda rows: rows * m)
            | st.just(m)
            | st.integers(1, max(1, m - 1))
        )
        threads = data.draw(st.sampled_from([1, 2]))
        window = data.draw(st.integers(1, m))
        p = params(snr=data.draw(st.sampled_from([-5.0, 5.0])), rate=1.0, blocks=m)
        names = f"mt,ets,pb:{window},wts:{window}"
        fixed = dict(enumerate(parse_scheme_list(names) + (Scheme("it"),)))
        with mock.patch.object(channel, "tile_elements", lambda blocks: tile):
            point = evaluate_point(p, fixed, trials, 3, threads)
            table = depth_table(p, trials, 3, threads)
        caps = sample_capacity_matrix(p, 3, 0, trials)
        for layout in (np.ascontiguousarray(caps), np.asfortranarray(caps)):
            assert table.tolist() == pb_count_sums(layout, p.rate).tolist()
            for key, scheme in fixed.items():
                sums = moments(*scheme.evaluate(layout, p.rate))
                assert point[key] == Accumulator(scheme.window, trials, *sums), names

    @pytest.mark.parametrize("trials", [0, -5])
    def test_needs_a_trial(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            depth_table(params(), trials, 1)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            evaluate_point(params(), SCHEMES, trials, 1)

    def test_rejects_trials_before_choosing_a_window(self, monkeypatch):
        def no_choice(*args):
            raise AssertionError("chose a window for a pass of no trials")

        monkeypatch.setattr(engine, "optimize_wts_window", no_choice)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            evaluate_point(params(blocks=4000), {"d": Scheme("dwts")}, 0, 1)

    def test_int64_sums_cannot_wrap(self, monkeypatch):
        # A count or delay is at most M, so trials * M^2 bounds every sum;
        # the pass refuses before it samples.
        def no_sampling(*args):
            raise AssertionError("sampled a pass whose sums could wrap")

        monkeypatch.setattr(engine, "sample_capacity_matrix", no_sampling)
        p = params(blocks=1 << 16)
        with pytest.raises(ValueError, match="2\\^63"):
            depth_table(p, 1 << 31, 1)
        with pytest.raises(ValueError, match="2\\^63"):
            evaluate_point(p, {"mt": Scheme("mt")}, 1 << 31, 1)
        engine._check_pass((1 << 31) - 1, 1 << 16)  # just below the bound

    @pytest.mark.parametrize("threads, most", [(1, 1), (2, 2)])
    def test_one_workspace_per_worker_per_run(self, monkeypatch, forks, threads, most):
        # `most` processes at most, each with its copy of the process's one
        # workspace: no pass builds one.
        built = []

        class Counted(channel.Workspace):
            def __init__(self):
                built.append(self)
                super().__init__()

        monkeypatch.setattr(engine, "WORKSPACE", channel.Workspace())  # as in a new process
        monkeypatch.setattr(channel, "Workspace", Counted)
        monkeypatch.setattr(engine, "Workspace", Counted)
        config = ExperimentConfig(
            snr_db=-5.0,
            rate=1.0,
            messages=8,
            schemes=parse_scheme_list("mt,ets,pb,wts:3,twts,dwts"),
            include_it_bound=True,
            trials=12288,
            seed=4,
            sweep_variable="messages",
            sweep_values=(8, 16, 64, 65, 300),
            threads=threads,
        )
        run_experiment(config)
        run_experiment(config)  # a second run reuses the workspace
        assert built == []
        assert max(forks, default=1) == most

    @pytest.mark.parametrize("threads", [2, 3])
    def test_uneven_shares_sum_every_tile_once(self, monkeypatch, forks, threads):
        # Five one-row tiles over 2 and 3 workers: shares of 2 + 3 and 1 + 2 + 2.
        def sample(params, seed, lo, hi, workspace):
            return np.full((hi - lo, 1), float(lo))  # the tile's first trial

        monkeypatch.setattr(engine, "sample_capacity_matrix", sample)
        seen = lambda tile: [np.bincount([int(tile.caps[0, 0])], minlength=5)]
        (once,) = tile_sums(params(blocks=1 << 16), 5, 1, threads, seen)
        assert once.tolist() == [1] * 5
        assert forks == [threads]

    def test_a_workers_error_ends_the_pass(self, monkeypatch, forks):
        # Worker 1 raises on its first tile while worker 0 is busy for 60 s:
        # the error reaches the caller at once, and no worker is left.
        def sample(params, seed, lo, hi, workspace):
            if lo == 0:
                time.sleep(60)
            if lo == 2:
                raise Sampled
            return np.zeros((hi - lo, params.blocks))

        monkeypatch.setattr(engine, "sample_capacity_matrix", sample)
        start = time.perf_counter()
        with pytest.raises(Sampled):
            tile_sums(params(blocks=1 << 16), 4, 1, 2, lambda tile: [np.zeros(1, np.int64)])
        assert time.perf_counter() - start < 10
        assert multiprocessing.active_children() == []
        assert forks == [2]

    def test_passes_of_concurrent_threads_match_the_serial_sums(self, forks):
        # Passes of several threads run in this process, one at a time in its
        # one workspace, and fork no worker while other threads run.
        p = params(blocks=70)  # row-major tiles of 468 rows: four tiles
        schemes = dict(enumerate(parse_scheme_list("mt,ets,pb,wts:3,dwts")))
        serial = evaluate_point(p, schemes, 1500, 9)
        results, barrier = [None] * 4, threading.Barrier(4)

        def run(i):
            barrier.wait()
            results[i] = evaluate_point(p, schemes, 1500, 9, threads=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [serial] * 4
        assert forks == []


class TestAccumulator:
    def test_stderr_matches_numpy(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 12, size=5000)
        delays = rng.integers(0, 12, size=5000)
        acc = Accumulator(None, 5000, *moments(counts, delays))
        assert acc.mean_count() == pytest.approx(counts.mean())
        assert acc.stderr_count() == pytest.approx(counts.std(ddof=1) / math.sqrt(5000))
        assert acc.stderr_delay() == pytest.approx(delays.std(ddof=1) / math.sqrt(5000))


# Fixed rows for the corner of `_pb_tile_by_counting` that no row of a tile
# hits.  CORNER_TIE: at rate 1, tau = 1 in every column and W = (0, 0, 1),
# so diagonal 0 skips two columns and ties at the third.  TAU_ROUNDS_UP:
# at rate 0.1, tau rises from column 0 to 1 by rounding.  With negative
# capacities (no channel makes them, but the kernels take any matrix) the
# column minima of tau rise (TAU_MINIMA_RISE, rate 0.5) and the column
# maxima of W fall (W_MAXIMA_FALL, rate 0.5), and only the running bounds
# skip no hit.
CORNER_TIE = np.array([[0.0, 0.0, 1.0]])
TAU_ROUNDS_UP = np.array([[0.0, 3.0, 3.0]])
TAU_MINIMA_RISE = np.array([[-2.0, -1.0, 3.0, -1.0]])
W_MAXIMA_FALL = np.array([[2.0, -2.0]])


@st.composite
def _count_sum_cases(draw):
    """(capacities, rate, capacities per row tile) for the depth table.

    M = 1..100 covers both sides of BLOCK_MAJOR_MAX_BLOCKS, with about half
    the cases at M <= 12; the tiles are of a patched size.  Integer
    capacities give exact tau/W ties; zero rows give a flat W."""
    m = draw(st.integers(1, 12) | st.integers(13, 100))
    rows = draw(st.integers(1, 7))
    values = st.sampled_from([0.0, 1.0, 2.0, 3.0]) | st.floats(0.0, 4.0)
    caps = draw(arrays(np.float64, (rows, m), elements=values))
    rate = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    return caps, rate, draw(st.integers(1, 3 * m))


def _scans(caps, rate):
    """(W, tau in forward column order) of a capacity matrix."""
    tile = channel.as_tile(caps)
    return tile.running, engine._depth_thresholds(tile, rate, tile.temporary(np.float64))


class TestPbSweepHelpers:
    def test_count_sums_match_direct_eval(self):
        p = params(blocks=14)
        caps = sample_capacity_matrix(p, 13, 0, 500)
        sums = pb_count_sums(caps, p.rate)
        for b in range(1, 15):
            counts, _ = evaluate_pb(caps, p.rate, b)
            assert sums[0, b - 1] == counts.sum()
            assert sums[1, b - 1] == (counts**2).sum()

    def test_count_sums_blocks_are_transparent(self, monkeypatch):
        p = params(blocks=10)
        caps = sample_capacity_matrix(p, 17, 0, 50)
        whole = depth_table(p, 50, 17)
        assert whole.tolist() == pb_count_sums(caps, 1.0).tolist()
        monkeypatch.setattr(channel, "tile_elements", lambda blocks: 30)  # 3 rows a tile
        assert depth_table(p, 50, 17).tolist() == whole.tolist()
        assert whole.tolist() == pb_count_sums_loop(caps, 1.0).tolist()

    @given(case=_count_sum_cases())
    @example(case=(CORNER_TIE, 1.0, 3))
    @example(case=(TAU_ROUNDS_UP, 0.1, 3))
    @example(case=(TAU_MINIMA_RISE, 0.5, 4))
    @example(case=(W_MAXIMA_FALL, 0.5, 2))
    @settings(max_examples=300, deadline=None)
    def test_count_sums_match_suffix_compare(self, case):
        caps, rate, tile = case
        rows, m = caps.shape
        expected = pb_count_sums_loop(caps, rate).tolist()
        before = caps.copy()
        with mock.patch.object(channel, "tile_elements", lambda blocks: tile):
            assert pb_count_sums(caps, rate).tolist() == expected
            for kernel in PB_KERNELS[: 1 if caps.min() < 0 else 2]:  # a search needs W to rise
                tiles = [kernel(caps[lo:hi], rate) for lo, hi in channel.row_blocks(rows, m)]
                assert np.sum(tiles, axis=0).tolist() == expected, kernel.__name__
        assert np.array_equal(caps, before)  # the kernels work on copies

    def test_fixed_cases_of_the_skipped_corner(self):
        # Each fixed example above is what its name says.
        running, tau = _scans(CORNER_TIE, 1.0)
        assert engine._diagonal_starts(running, tau)[0] == 2  # diagonal 0 skips 2 columns
        assert running[0, 2] == tau[0, 2]  # and ties at the next one: a hit
        for caps, rate in ((TAU_ROUNDS_UP, 0.1), (TAU_MINIMA_RISE, 0.5)):
            _, tau = _scans(caps, rate)
            assert np.any(np.diff(tau.min(axis=0)) > 0)
        running, _ = _scans(W_MAXIMA_FALL, 0.5)
        assert np.any(np.diff(running.max(axis=0)) < 0)

    @pytest.mark.parametrize("blocks", [16, 64])
    def test_a_sweep_tile_skips_part_of_the_triangle(self, blocks):
        # One block-major tile of `sweep-m` at -5 dB, rate 1.
        p = params(blocks=blocks)
        lo, hi = channel.row_blocks(10_000, blocks)[0]
        running, tau = _scans(sample_capacity_matrix(p, 12345, lo, hi), p.rate)
        starts = engine._diagonal_starts(running, tau)
        assert 0 < sum(starts) < blocks * (blocks + 1) // 2
        assert all(0 <= lo <= blocks - d for d, lo in enumerate(starts))

    @pytest.mark.parametrize("blocks", [8, 64, 65, 300])
    def test_depth_margins_are_the_column_quotients(self, blocks):
        # Divided by float64 depths, the margins are bit for bit those of
        # dividing each column by its depth M - c.
        p = params(blocks=blocks)
        lo, hi = channel.row_blocks(3000, blocks)[0]
        tile = channel.as_tile(sample_capacity_matrix(p, 9, lo, hi))
        assert channel.block_major(tile.caps) == (blocks <= channel.BLOCK_MAJOR_MAX_BLOCKS)
        margins = engine._depth_margins(tile, p.rate, tile.temporary(np.float64))
        for c in range(blocks):
            expected = p.rate - tile.prefix[:, c] / float(blocks - c)
            assert margins[:, c].tobytes() == expected.tobytes()

    def test_count_sum_dtype_at_the_int32_bound(self):
        # A column's sum of squared counts is at most rows * M^2.
        assert engine._count_sum_dtype((1 << 19) - 1, 64) == np.int32
        assert engine._count_sum_dtype(1 << 19, 64) == np.int64  # rows * 64^2 = 2^31
        assert engine._count_sum_dtype(1 << 31, 1) == np.int64
        assert engine._count_sum_dtype((1 << 31) - 1, 1) == np.int32

    @pytest.mark.parametrize("kernel", PB_KERNELS, ids=lambda k: k.__name__)
    @pytest.mark.parametrize("blocks", [2, 64, 128])
    def test_count_sums_edge_rows(self, kernel, blocks):
        depths = np.arange(1, blocks + 1)
        # A first capacity of M (a power of two) and zeros after it make
        # W_j = 1 at every j exactly; at rate 1, tau_M = 1 - M/M + 1 ties
        # every W, and a message whose W equals tau decodes.
        tie = np.zeros((1, blocks))
        tie[0, 0] = blocks
        flat = np.full((1, blocks), 3.0)
        zero = np.zeros((1, blocks))
        cases = [
            (tie, 1.0, depths),
            (zero, 1.0, 0 * depths),  # all-zero row: tau_B = rate above W = 0
            (zero, 0.0, depths),  # tau_B = 0 = W_j at every depth
            (flat, -1.0, depths),  # tau_B < 0 at every depth
            (flat, 1e9, 0 * depths),  # tau_B above W_{M-1}
        ]
        for caps, rate, counts in cases:
            expected = [counts.tolist(), (counts**2).tolist()]
            assert pb_count_sums_loop(caps, rate).tolist() == expected
            assert kernel(caps, rate).tolist() == expected, rate
            # The same row among others in one tile.
            tile = np.concatenate([tie, caps, flat, zero, caps])
            assert kernel(tile, rate).tolist() == pb_count_sums_loop(tile, rate).tolist()

    def test_kernel_choice(self):
        assert channel.BLOCK_MAJOR_MAX_BLOCKS == 64
        assert engine.pb_tile_kernel(8) is engine._pb_tile_by_counting
        assert engine.pb_tile_kernel(64) is engine._pb_tile_by_counting
        assert engine.pb_tile_kernel(65) is engine._pb_tile_by_search
        assert engine.pb_tile_kernel(2000) is engine._pb_tile_by_search

    def test_mi_matrix_monotone_over_transmitted(self):
        p = params(blocks=10)
        caps = sample_capacity_matrix(p, 19, 0, 200)
        mi = pb_mi_matrix(caps, 6)
        assert np.all(np.diff(mi, axis=1) >= -1e-15)

    def test_optimizers_tie_break_low(self, monkeypatch):
        # blocks=1 leaves a single candidate
        p = params(blocks=1)
        assert optimize_pb_window(depth_table(p, 128, 3)[0], 128)[0] == 1
        assert optimize_wts_window(p, True)[0] == 1
        assert optimize_wts_window(p, False)[0] == 1
        # equal objectives at B=2 and B=3 select B=2
        assert optimize_pb_window(np.array([5, 7, 7]), 10) == (2, 0.7)
        # Rate 20 at -5 dB is out of reach: every p_B is 0, nothing decodes
        # at any B, and every delay is M.
        p = params(snr=-5.0, rate=20.0, blocks=5)
        assert [window_decode_prob(p, b) for b in range(1, 6)] == [0.0] * 5
        assert optimize_wts_window(p, True) == (1, 0.0)
        assert optimize_wts_window(p, False) == (1, 5.0)
        # p_B is 0 for B = 1 and 1 above, at M = 5: B=2 decodes 2 full
        # windows, B=3 one full and the short pair.
        monkeypatch.setattr(channel, "window_decode_prob", lambda params, b: 0.0 if b == 1 else 1.0)
        assert optimize_wts_window(p, True) == (2, 2.0)


class TestWtsWindowChoice:
    """T-/D-wTS windows come from exact objectives, before any sampling."""

    def test_pinned_windows_of_the_m_sweep(self):
        chosen = {
            m: (optimize_wts_window(params(blocks=m), True)[0],
                optimize_wts_window(params(blocks=m), False)[0])
            for m in range(8, 65, 8)
        }
        assert [t for t, _ in chosen.values()] == [4] * 8
        assert [d for _, d in chosen.values()] == [4, 5, 6, 6, 6, 7, 7, 7]

    def test_objectives_are_the_exact_window_statistics(self):
        p = params(blocks=41)
        probs = [window_decode_prob(p, b) for b in range(1, 42)]

        def p_short(w):
            return probs[41 % w - 1] if 41 % w else 0.0

        b, count = optimize_wts_window(p, True)
        assert count == pytest.approx(41 // b * probs[b - 1] + p_short(b), rel=1e-15)
        delays = [wts_mean_delay(41, w, probs[w - 1], p_short(w)) for w in range(1, 42)]
        b, delay = optimize_wts_window(p, False)
        assert (b, delay) == (int(np.argmin(delays)) + 1, min(delays))

    def test_no_sampling_below_the_choice(self, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled while choosing a window")

        monkeypatch.setattr(engine, "sample_capacity_matrix", no_sampling)
        assert optimize_wts_window(params(blocks=30), True)[0] == 4
        assert optimize_wts_window(params(blocks=30), False)[0] == 6

    def wts_calls(self, monkeypatch):
        """(tile rows, window, horizons) of each `engine.evaluate_wts` call."""
        calls = []
        real = engine.evaluate_wts

        def counted(caps, rate, window, horizons=None):
            calls.append((caps.caps.shape[0], window, horizons))
            return real(caps, rate, window, horizons)

        monkeypatch.setattr(engine, "evaluate_wts", counted)
        return calls

    def test_one_scan_per_chunk_per_row(self, monkeypatch):
        # One wTS scan per sampled row tile per T-/D-wTS row at its chosen
        # window, not one per window B = 1..M.
        calls = self.wts_calls(monkeypatch)
        p = params(blocks=24)
        out = evaluate_point(p, {"t": Scheme("twts"), "d": Scheme("dwts")}, 8193, 5)
        windows = [window for _, window, _ in calls]
        tiles = len(channel.row_blocks(8193, 24))
        assert tiles == 4  # of 2048 or 2049 trials
        assert sorted(windows) == [out["t"].window] * tiles + [out["d"].window] * tiles
        assert (out["t"].window, out["d"].window) == (4, 6)

    @pytest.mark.parametrize("snr, windows", [(-5.0, {1, 4, 5, 6, 7}), (5.0, {1, 2, 3})])
    def test_a_message_sweep_scans_each_window_once_per_tile(self, monkeypatch, snr, windows):
        # MT is wTS at B = 1 and shares its scan with a T-/D-wTS row at
        # B = 1 (T-wTS at 5 dB); each scan is made at the M of the points
        # whose row uses its window.
        sweep = tuple(range(8, 65, 8))
        calls = self.wts_calls(monkeypatch)
        points = [params(snr=snr, blocks=m) for m in sweep]
        out = evaluate_points(points, dict(enumerate(parse_scheme_list("mt,twts,dwts"))), 3000, 5)
        horizons = {1: set(sweep)}  # MT's
        for m, rows in zip(sweep, out):
            for acc in (rows[1], rows[2]):
                horizons.setdefault(acc.window, set()).add(m)
        assert set(horizons) == windows
        tiles = channel.row_blocks(3000, 64)
        expected = [(hi - lo, w, sorted(horizons[w])) for w in sorted(windows) for lo, hi in tiles]
        assert len(tiles) == 3
        assert sorted(calls, key=lambda call: call[1]) == expected

    def test_equal_choices_share_one_scan(self, monkeypatch):
        # At 10 dB and M = 8 T-wTS and D-wTS both choose B = 1, MT's window.
        calls = self.wts_calls(monkeypatch)
        schemes = {"mt": Scheme("mt"), "t": Scheme("twts"), "d": Scheme("dwts")}
        out = evaluate_point(params(snr=10.0, blocks=8), schemes, 4000, 5)
        assert (out["t"].window, out["d"].window, out["mt"].window) == (1, 1, None)
        tiles = channel.row_blocks(4000, 8)
        assert calls == [(hi - lo, 1, [8]) for lo, hi in tiles]
        assert out["t"] == out["d"] == replace(out["mt"], window=1)

    @pytest.mark.parametrize("horizons", [[], [2], [3, 3], [5, 4], [31]])
    def test_horizons_must_rise_within_the_window_and_the_tile(self, horizons):
        with pytest.raises(ValueError, match=r"horizons must rise within 3\.\.30"):
            evaluate_wts(np.ones((2, 30)), 1.0, 3, horizons)

    @pytest.mark.parametrize(
        "snr,blocks,window",
        [(-5.0, 40, 3), (-5.0, 41, 4), (0.0, 30, 4), (-5.0, 64, 7), (-8.0, 23, 5)],
    )
    def test_simulated_delay_tracks_the_exact_mean(self, snr, blocks, window):
        p = params(snr=snr, blocks=blocks)
        acc = evaluate_point(p, {"w": Scheme("wts", window)}, 20_000, 31)["w"]
        p_r = window_decode_prob(p, blocks % window) if blocks % window else 0.0
        exact = wts_mean_delay(blocks, window, window_decode_prob(p, window), p_r)
        assert abs(acc.mean_delay() - exact) <= 4 * acc.stderr_delay()


# Links where p_B is 0 at every B (-5 dB, rate 20), near 1 from B = 1
# (30 dB, rate 0.5), or in between.
LINKS = st.sampled_from([(-5.0, 20.0), (30.0, 0.5), (-5.0, 1.0), (0.0, 2.0), (5.0, 2.0), (-8.0, 3.0)])
# Rising message counts from 1 to 64: a window B of one point can exceed
# another's M, or not divide it.
MESSAGE_LISTS = st.lists(st.integers(1, 64), min_size=1, max_size=10, unique=True).map(sorted)


class TestWtsWindowChoiceAtHorizons:
    """`optimize_wts_window` at horizons: each point's window and objective
    are, bit for bit, those of its own call, from one call for all."""

    @given(link=LINKS, hs=MESSAGE_LISTS, maximize=st.booleans(), extra=st.integers(0, 3))
    @example(link=(-5.0, 1.0), hs=list(range(8, 65, 8)), maximize=False, extra=0)
    @example(link=(5.0, 2.0), hs=[1, 2, 3, 17, 40, 64], maximize=False, extra=0)
    @settings(max_examples=80, deadline=None)
    def test_each_horizon_is_its_own_call(self, link, hs, maximize, extra):
        p = params(snr=link[0], rate=link[1], blocks=hs[-1] + extra)
        got = optimize_wts_window(p, maximize, hs)
        assert got == [optimize_wts_window(replace(p, blocks=h), maximize) for h in hs]

    def test_points_stop_the_search_at_different_windows(self, monkeypatch):
        # At -5 dB D-wTS chooses B = 4..7 over M = 8..64, and each point's
        # search stops at its own B; one `wts_mean_delay` call per B serves
        # the points still searching.
        p = params(blocks=64)
        hs = list(range(8, 65, 8))
        calls = []
        real = engine.wts_mean_delay

        def counted(M, B, p_B, p_r=0.0, horizons=None):
            calls.append((B, horizons))
            return real(M, B, p_B, p_r, horizons)

        monkeypatch.setattr(engine, "wts_mean_delay", counted)
        reached = []
        for h in hs:
            calls.clear()
            optimize_wts_window(replace(p, blocks=h), False)
            reached.append(max(b for b, _ in calls))
        assert len(set(reached)) > 1
        calls.clear()
        optimize_wts_window(p, False, hs)
        assert [b for b, _ in calls] == list(range(1, max(reached) + 1))
        for b, horizons in calls:
            assert horizons == [h for h, last in zip(hs, reached) if b <= last]

    @pytest.mark.parametrize("horizons", [[], [0], [3, 3], [5, 4], [21]])
    def test_horizons_must_rise_within_m(self, horizons):
        with pytest.raises(ValueError, match=r"horizons must rise within 1\.\.20"):
            optimize_wts_window(params(), False, horizons)


# Links where p_B is 0 up to B = 5 (-5 dB, rate 20), at every B <= 40
# (-5 dB, rate 2000), near 1 from B = 1 (30 dB, rate 0.5), or in between.
ORACLE_LINKS = st.sampled_from(
    [(-5.0, 1.0), (-5.0, 20.0), (-5.0, 2000.0), (30.0, 0.5), (0.0, 2.0), (5.0, 2.0),
     (-8.0, 3.0), (-10.0, 0.3)]
)


class TestWtsWindowOracle:
    """The search that stops where no larger window can win chooses, bit
    for bit, the (B, objective) of trying every B <= M."""

    def test_the_links_are_what_they_say(self):
        zero_below_six = params(snr=-5.0, rate=20.0, blocks=40)
        assert [window_decode_prob(zero_below_six, b) for b in range(1, 6)] == [0.0] * 5
        never = params(snr=-5.0, rate=2000.0, blocks=40)
        assert {window_decode_prob(never, b) for b in range(1, 41)} == {0.0}
        assert wts_window_search(never, True) == optimize_wts_window(never, True) == (1, 0.0)
        assert wts_window_search(never, False) == optimize_wts_window(never, False) == (1, 40.0)

    @given(
        link=ORACLE_LINKS,
        hs=st.lists(st.integers(1, 40), min_size=1, max_size=6, unique=True).map(sorted),
        maximize=st.booleans(),
    )
    @example(link=(-5.0, 20.0), hs=[3, 5, 6, 7, 40], maximize=True)
    @example(link=(-5.0, 20.0), hs=[3, 5, 6, 7, 40], maximize=False)
    @example(link=(-5.0, 1.0), hs=[8, 16, 24, 32, 40], maximize=False)
    @settings(max_examples=100, deadline=None)
    def test_the_stopped_search_is_the_every_window_search(self, link, hs, maximize):
        p = params(snr=link[0], rate=link[1], blocks=hs[-1])
        expected = [wts_window_search(replace(p, blocks=h), maximize) for h in hs]
        assert optimize_wts_window(p, maximize, hs) == expected
        assert [optimize_wts_window(replace(p, blocks=h), maximize) for h in hs] == expected


class TestLongWindowsInTheWorkspace:
    """A window of 8 or more blocks is summed over a row-major copy
    (`window_sums`); on a tile of a sampling pass the copy goes to the
    tile's float64 temporary, not a new tile-sized array."""

    def tile(self, blocks=64):
        p = params(snr=0.0, blocks=blocks)
        rows = channel.tile_elements(blocks) // blocks
        workspace = channel.Workspace()
        caps = sample_capacity_matrix(p, 5, 0, rows, workspace)
        return channel.Tile(caps, workspace), p

    def test_allocates_no_tile(self):
        tile, p = self.tile()
        assert tile.caps.shape == (1024, 64) and channel.block_major(tile.caps)
        evaluate_wts(tile, p.rate, 8)  # builds the workspace's buffers
        tracemalloc.start()
        try:
            evaluate_wts(tile, p.rate, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tile.caps.nbytes // 2  # a row-major copy of the tile takes 512 KB

    @pytest.mark.parametrize("window, horizons", [(8, None), (9, [9, 17, 26, 64]), (13, [20, 64])])
    def test_counts_and_delays_are_unchanged(self, window, horizons):
        # Short windows of 8 or more blocks (h = 17 at B = 9) use the same
        # temporary; a row-major copy of the tile takes no copy at all.
        tile, p = self.tile()
        caps = np.ascontiguousarray(tile.caps)
        got = evaluate_wts(tile, p.rate, window, horizons)
        want = evaluate_wts(caps, p.rate, window, horizons)
        for (c, d), (wc, wd) in zip(*([x] if horizons is None else x for x in (got, want))):
            assert c.tolist() == wc.tolist() and d.tolist() == wd.tolist()
        for h, (c, d) in zip(horizons or [64], [got] if horizons is None else got):
            expanded = wts_literal_delay_expanded(caps[:, :h], p.rate, window)
            assert d.tolist() == expanded.tolist()
            counts, _ = evaluate_wts(caps[:, :h], p.rate, window)
            assert c.tolist() == counts.tolist()


class TestClosedFormsOncePerSweep:
    """A message sweep chooses each T-/D-wTS window and builds each wTS
    delay cell once per pass, not once per point."""

    SWEEP = tuple(range(8, 65, 8))

    def sweep(self, snr=-5.0, values=SWEEP, schemes="mt,twts,dwts"):
        return ExperimentConfig(
            snr_db=snr, rate=1.0, messages=values[0], schemes=parse_scheme_list(schemes),
            include_it_bound=False, trials=50, seed=3,
            sweep_variable="messages", sweep_values=values,
        )

    def spy(self, monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_one_window_choice_per_optimized_scheme(self, monkeypatch):
        calls = self.spy(monkeypatch, engine, "optimize_wts_window")
        rows = run_experiment(self.sweep())
        assert sorted(maximize for _, maximize, _ in calls) == [False, True]
        assert all(list(hs) == list(self.SWEEP) for *_, hs in calls)
        assert len(rows) == 3 * len(self.SWEEP)

    def test_one_tail_pass_per_window_the_search_reaches(self, monkeypatch):
        import streamfade.runstats as runstats

        searches = self.spy(monkeypatch, engine, "wts_mean_delay")
        p = params(blocks=64)
        reached = []
        for m in self.SWEEP:
            searches.clear()
            optimize_wts_window(replace(p, blocks=m), False)
            reached.append(len(searches))  # one call per B = 1, 2, ...
        passes = self.spy(monkeypatch, runstats, "run_tail_columns")
        evaluate_points([replace(p, blocks=m) for m in self.SWEEP], {"d": Scheme("dwts")}, 50, 3)
        assert len(passes) == max(reached) == 7

    @pytest.mark.parametrize("snr", [-5.0, 5.0])
    def test_one_delay_bounds_call_per_window(self, monkeypatch, snr):
        import streamfade.experiments as experiments

        calls = self.spy(monkeypatch, experiments, "wts_delay_bounds")
        rows = run_experiment(self.sweep(snr))
        windows = {1} | {r.window for r in rows if r.scheme != "MT"}
        assert sorted(b for _, b, _, _ in calls) == sorted(windows)
        for m, b, _, hs in calls:
            assert hs == sorted({r.sweep_value for r in rows if (r.window or 1) == b})
            assert m == hs[-1]

    @pytest.mark.parametrize("snr", [-5.0, 5.0])
    def test_cells_across_the_layouts_are_each_points_own(self, snr):
        # Points on both sides of M = 64 share a call per window; each cell
        # is, bit for bit, that of a call of its own point.
        from streamfade.runstats import wts_delay_bounds

        values = (8, 40, 64, 65, 100)
        rows = run_experiment(self.sweep(snr, values, "mt,wts:2,twts,dwts"))
        assert len(rows) == 4 * len(values)
        for row in rows:
            point = params(snr=snr, blocks=int(row.sweep_value))
            b = row.window or 1
            bounds = wts_delay_bounds(point.blocks, b, channel.window_decode_prob(point, b))
            assert (row.analytic_delay_lower, row.analytic_delay_upper) == (
                bounds.delay_lower, bounds.delay_upper,
            )

    def test_one_call_per_link(self, monkeypatch):
        # Closed forms do not depend on the tile layout: row-major points
        # (M > 64) of one link share a call though each has a sampling pass
        # of its own, and the points of an SNR sweep, each its own link,
        # have a call each.
        import streamfade.experiments as experiments

        calls = self.spy(monkeypatch, experiments, "wts_delay_bounds")
        run_experiment(self.sweep(values=(65, 70), schemes="mt"))
        assert [hs for *_, hs in calls] == [[65, 70]]
        calls.clear()
        config = replace(self.sweep(schemes="mt"), sweep_variable="snr_db", sweep_values=(-5.0, 0.0))
        run_experiment(config)
        assert [hs for *_, hs in calls] == [[8], [8]]


class TestWtsWindowUnits:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_literal_delay_matches_expanded_slots(self, data):
        m = data.draw(st.integers(1, 16))
        window = data.draw(st.integers(1, m))
        values = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        caps = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), m), elements=values))
        _, delays = evaluate_wts(caps, 1.0, window)
        assert delays.tolist() == wts_literal_delay_expanded(caps, 1.0, window).tolist()

    def test_window_stat_equals_block_stat_for_unit_window(self):
        p = params(blocks=12)
        caps = sample_capacity_matrix(p, 29, 0, 400)
        _, delays = evaluate_wts(caps, p.rate, 1)
        assert np.array_equal(delays, wts_window_delays(caps, p.rate, 1))

    def test_window_stat_scales_full_window_runs(self):
        caps = np.array(
            [
                # windows of 3: decode bits 1,0,0,1 -> longest failed run 2
                [9.0, 0, 0, 0, 0, 0, 0, 0, 0, 9.0, 0, 0],
            ]
        )
        counts, delays = evaluate_wts(caps, 1.0, 3)
        assert counts[0] == 2
        assert wts_window_delays(caps, 1.0, 3)[0] == 6
        # literal zero-run spans blocks 4..11 between the decoded slots 3, 12
        assert delays[0] == 8


def mt_count_hist(p: ChannelParams, trials: int, seed: int) -> np.ndarray:
    """Histogram of per-trial MT decode counts over trials 0..trials-1."""
    counts, _ = Scheme("mt").evaluate(sample_capacity_matrix(p, seed, 0, trials), p.rate)
    return np.bincount(counts, minlength=p.blocks + 1)


class TestMtStatistics:
    def test_counts_are_binomial(self):
        # chi-square goodness of fit at the 1% level, 1e5 trials
        p = params(snr=-5.0, blocks=10)
        prob = decode_success_prob(p)
        expected = 100_000 * scipy.stats.binom.pmf(np.arange(11), 10, prob)
        observed = mt_count_hist(p, 100_000, 321).astype(float)
        # merge sparse bins (expected >= 5) from the right tail
        while expected[-1] < 5 and expected.size > 2:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        crit = scipy.stats.chi2.ppf(0.99, df=expected.size - 1)
        assert chi2 < crit

    def test_eta_close_to_binomial_in_total_variation(self):
        p = params(snr=5.0, blocks=10)
        prob = decode_success_prob(p)
        pmf = scipy.stats.binom.pmf(np.arange(11), 10, prob)
        eta = mt_count_hist(p, 100_000, 654) / 100_000
        tv = 0.5 * float(np.abs(eta - pmf).sum())
        assert tv < 0.01

    def test_lag_one_independence(self):
        # 2x2 contingency of consecutive decode bits, chi-square at 1%
        p = params(snr=0.0, blocks=40)
        caps = sample_capacity_matrix(p, 987, 0, 2500)
        bits = (caps >= p.rate).ravel()
        x, y = bits[:-1], bits[1:]
        table = np.array(
            [
                [np.sum(~x & ~y), np.sum(~x & y)],
                [np.sum(x & ~y), np.sum(x & y)],
            ]
        )
        _, pvalue, _, _ = scipy.stats.chi2_contingency(table)
        assert pvalue > 0.01


class TestBenchmarkSpans:
    """The benchmark's tracer (`bench/spans.py`) wraps module attributes, so
    it sees only calls made through them at call time."""

    def test_every_engine_span_records_calls(self, monkeypatch):
        import importlib
        from pathlib import Path

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        spans = importlib.import_module("spans")
        # Register every traced binding so that monkeypatch restores it afterwards.
        for bindings, _ in spans.SPANS.values():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, getattr(module, attr))
        tracer = spans.Tracer("test")
        tracer.install()
        config = ExperimentConfig(
            snr_db=-5.0,
            rate=1.0,
            messages=6,
            schemes=parse_scheme_list("mt,ets,pb,pb:3,wts:2,twts,dwts"),
            include_it_bound=True,
            trials=50,
            seed=1,
        )
        run_experiment(config)
        dump = tracer.dump()
        summary = spans.summarise(dump)
        traced = [
            name
            for name in spans.SPANS
            if name.startswith(("engine.evaluate_", "engine.optimize_"))
            or name in ("engine.pb_count_sums", "informed.informed_counts_and_delays")
        ]
        assert len(traced) == 9
        # MT is evaluated as wTS at B = 1, and its analytic cells are the wTS
        # bounds at B = 1: `engine.evaluate_mt` and the experiments' binding
        # of `mt_mean_max_delay` are gone.  eTS is PB at depth M, so
        # `engine.evaluate_ets` is gone too, and with a chosen PB depth the
        # eTS and `pb:3` rows are read off the depth table: no
        # `engine.evaluate_pb` call.  A run makes one
        # `engine.evaluate_points` call, which `evaluate_point` wraps.  No
        # evaluator calls `metrics.max_zero_run_rows`, which is gone with
        # the engine's binding of it.
        assert [name for name in traced if summary[f"{name}.calls"] == 0] == [
            "engine.evaluate_point",
            "engine.evaluate_mt",
            "engine.evaluate_ets",
            "engine.evaluate_pb",
        ]
        assert dump["absent"] == [
            "streamfade.engine.evaluate_mt",
            "streamfade.engine.evaluate_ets",
            "streamfade.metrics.max_zero_run_rows",
            "streamfade.engine.max_zero_run_rows",
            "streamfade.experiments.mt_mean_max_delay",
            "streamfade.runstats.run_tail",
        ]
