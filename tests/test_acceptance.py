"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is also part of the default `pytest` run.
"""
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import streamfade
from oracles import pb_mi_matrix
from streamfade.asymptotic import optimal_prebuffer_fraction, verify_threshold
from streamfade.channel import (
    ChannelParams,
    as_tile,
    decode_success_prob,
    mean_capacity,
    mean_capacity_closed_form,
    sample_capacity_matrix,
    window_decode_prob,
)
from streamfade.engine import (
    evaluate_pb,
    evaluate_wts,
    pb_count_sums,
    wts_window_delays,
)
from streamfade.informed import (
    informed_counts_and_delays,
    informed_trial,
    min_delay_max_rate,
    oracle_exhaustive,
)
from streamfade.metrics import max_zero_run_rows
from streamfade.runstats import (
    enumerate_run_tails,
    mt_mean_max_delay,
    run_tail_matrix_power,
    run_tail_partial_fraction,
    run_tails,
    wts_delay_bounds,
)
from streamfade.schemes import Scheme

SEED = 20250808
BLOCKS = 40
TRIALS = 100_000
REPO = Path(__file__).resolve().parents[1]
# Child interpreters import the same streamfade package as this test process.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(streamfade.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def params_at(snr_db, blocks=BLOCKS, rate=1.0):
    return ChannelParams(snr_db=snr_db, rate=rate, blocks=blocks)


@pytest.fixture(scope="module")
def caps_m40():
    """Shared 1e5-trial capacity matrices at M=40 for both acceptance SNRs."""
    return {
        snr: sample_capacity_matrix(params_at(snr), SEED, 0, TRIALS)
        for snr in (-5.0, 5.0)
    }


def _mean_se(values):
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def test_criterion_1_run_length_agreement_triangle():
    """Recurrence == partial fraction == matrix power == enumeration, |err| < 1e-9, < 60 s."""
    start = time.perf_counter()
    worst = 0.0
    for m in range(2, 15):
        for p100 in range(5, 100, 5):
            p = p100 / 100.0
            enum = enumerate_run_tails(m, p)
            rec = run_tails(m, p)
            for d in range(1, m + 1):
                pf = run_tail_partial_fraction(m, p, d)
                mat = run_tail_matrix_power(m, p, d)
                devs = [abs(x - enum[d - 1]) for x in (rec[d - 1], pf, mat)]
                worst = max(worst, *devs)
                assert max(devs) < 1e-9, (m, p, d, devs)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\n[criterion 1] PASS - four-method worst deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_mean_delay_spot_values():
    """Enumerated spot values, exact to 1e-12."""
    mean3 = mt_mean_max_delay(3, 0.5)
    tail4 = run_tail_partial_fraction(4, 0.5, 4)
    assert abs(mean3 - 1.375) < 1e-12
    assert abs(tail4 - 0.0625) < 1e-12
    print(f"\n[criterion 2] PASS - mean(3,0.5)={mean3!r}, tail(4,0.5,4)={tail4!r}")


def test_criterion_3_delay_minimizer_matches_exhaustive_oracle():
    """Greedy + re-spread equals the 2^M subset oracle on 1e4 seeded traces."""
    s_opt, d_it = min_delay_max_rate([1, 1, 0, 0, 1])
    assert s_opt.tolist() == [0, 1, 0, 1, 1] and d_it == 1

    total = 0
    per_combo = 278  # 3 SNRs x M in 1..12 -> just over 1e4 traces
    for snr in (-5.0, 0.0, 5.0):
        for blocks in range(1, 13):
            p = params_at(snr, blocks=blocks)
            caps = sample_capacity_matrix(p, SEED + blocks, 0, per_combo)
            for row in caps:
                assert informed_trial(row, 1.0) == oracle_exhaustive(row, 1.0)
            total += per_combo
    assert total >= 10_000
    print(f"\n[criterion 3] PASS - {total} traces, exact equality, worked example ok")


def test_criterion_4_scheme_delay_identities(caps_m40):
    """eTS and PB satisfy delay = M - decoded count on every realization."""
    checked = 0
    for snr, caps in caps_m40.items():
        ets_bits = as_tile(caps).running >= 1.0
        ets_delay = max_zero_run_rows(ets_bits)
        ets_count = ets_bits.sum(axis=1)
        assert np.all(ets_delay == BLOCKS - ets_count), f"eTS identity broken at {snr}"
        checked += caps.shape[0]
        for window in (2, 11, 25, 40):
            bits = np.zeros((caps.shape[0], BLOCKS), dtype=bool)
            bits[:, BLOCKS - window :] = pb_mi_matrix(caps, window) >= 1.0
            delay = max_zero_run_rows(bits)
            count = bits.sum(axis=1)
            assert np.all(delay == BLOCKS - count), f"PB identity broken at {snr}, B={window}"
            # aggregate corollary: T = R (1 - D/M)
            thr = count.mean() / BLOCKS
            assert thr == pytest.approx(1.0 - delay.mean() / BLOCKS, abs=1e-12)
            checked += caps.shape[0]
    print(f"\n[criterion 4] PASS - zero violations over {checked} realizations")


def test_criterion_5_per_block_scheme_analytics(caps_m40):
    """Simulated MT throughput and delay within 4 stderr of the closed forms."""
    start = time.perf_counter()
    lines = []
    for snr, caps in caps_m40.items():
        p = decode_success_prob(params_at(snr))
        counts, delays = Scheme("mt").evaluate(caps, 1.0)
        thr_mean, thr_se = _mean_se(counts / BLOCKS)
        dly_mean, dly_se = _mean_se(delays)
        exact_delay = mt_mean_max_delay(BLOCKS, p)
        assert abs(thr_mean - p) < 4 * thr_se, snr
        assert abs(dly_mean - exact_delay) < 4 * dly_se, snr
        lines.append(
            f"snr={snr:+.0f}: T {thr_mean:.5f} vs {p:.5f} (se {thr_se:.2e}), "
            f"D {dly_mean:.4f} vs {exact_delay:.4f} (se {dly_se:.2e})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"\n[criterion 5] PASS - {'; '.join(lines)} ({elapsed:.1f}s)")


def test_criterion_6_windowed_bounds(caps_m40):
    """Window-unit delay statistic and throughput within the floor/ceil bounds."""
    details = []
    for snr, caps in caps_m40.items():
        point = params_at(snr)
        for window in (2, 3, 5):
            counts, _ = evaluate_wts(caps, 1.0, window)
            window_delays = wts_window_delays(caps, 1.0, window)
            p_b = window_decode_prob(point, window)
            bounds = wts_delay_bounds(BLOCKS, window, p_b)
            d_mean, d_se = _mean_se(window_delays)
            assert bounds.delay_lower - 4 * d_se <= d_mean <= bounds.delay_upper + 4 * d_se, (
                snr,
                window,
                d_mean,
                bounds,
            )
            c_mean, c_se = _mean_se(counts)
            assert (
                bounds.decoded_lower - 4 * c_se
                <= c_mean
                <= bounds.decoded_upper + 4 * c_se
            ), (snr, window)
            details.append(
                f"snr={snr:+.0f} B={window}: D {d_mean:.3f} in "
                f"[{bounds.delay_lower:.3f},{bounds.delay_upper:.3f}]"
            )
    print(f"\n[criterion 6] PASS - {'; '.join(details)}")


def test_criterion_7_prebuffer_threshold():
    """Critical-fraction probes at M=2000 and the throughput-optimal fraction."""
    point = params_at(5.0, blocks=2000)
    quad = mean_capacity(point)
    closed = mean_capacity_closed_form(point)
    assert abs(quad - closed) < 1e-8
    report = verify_threshold(point, blocks=2000, delta=0.1, trials=1000, seed=SEED)
    assert report.decode_all_prob_below > 0.99
    assert report.decode_all_prob_above < 0.01
    window, fraction = optimal_prebuffer_fraction(point, trials=1000, seed=SEED)
    assert abs(fraction - report.alpha_opt) < 0.05
    print(
        f"\n[criterion 7] PASS - below={report.decode_all_prob_below:.3f}, "
        f"above={report.decode_all_prob_above:.3f}, B*/M={fraction:.4f} "
        f"vs alpha_opt={report.alpha_opt:.4f}, |C_quad-C_closed|={abs(quad-closed):.1e}"
    )


def _point_results(caps, rate=1.0):
    """All schemes (optimized where applicable) plus the genie bound."""
    n, m = caps.shape
    out = {}
    out["MT"] = Scheme("mt").evaluate(caps, rate)
    out["eTS"] = Scheme("ets").evaluate(caps, rate)
    b_pb = int(np.argmax(pb_count_sums(caps, rate)[0])) + 1
    out["PB"] = evaluate_pb(caps, rate, b_pb)
    wts_counts = np.zeros(m, dtype=np.int64)
    wts_delays = np.zeros(m, dtype=np.int64)
    for b in range(1, m + 1):
        c, d = evaluate_wts(caps, rate, b)
        wts_counts[b - 1] = c.sum()
        wts_delays[b - 1] = d.sum()
    b_t = int(np.argmax(wts_counts)) + 1
    b_d = int(np.argmin(wts_delays)) + 1
    out["T-wTS"] = evaluate_wts(caps, rate, b_t)
    out["D-wTS"] = evaluate_wts(caps, rate, b_d)
    out["IT"] = informed_counts_and_delays(caps, rate)
    return out, {"PB": b_pb, "T-wTS": b_t, "D-wTS": b_d}


def test_criterion_8_figure_orderings(caps_m40):
    """Throughput/delay orderings at M=40 and genie dominance on a sweep."""
    n_sub = 10_000
    results = {}
    for snr, caps in caps_m40.items():
        results[snr], _ = _point_results(caps[:n_sub])

    def thr(snr, name):
        return results[snr][name][0].mean() / BLOCKS

    def dly(snr, name):
        return results[snr][name][1].mean()

    # Low SNR: pre-buffering wins throughput, equal sharing loses; windowed
    # variants beat per-block transmission on delay.
    assert thr(-5.0, "PB") > thr(-5.0, "T-wTS") > thr(-5.0, "eTS")
    assert dly(-5.0, "T-wTS") < dly(-5.0, "MT")
    assert dly(-5.0, "D-wTS") < dly(-5.0, "MT")

    # High SNR: throughput-optimized windowing matches per-block transmission
    # within joint 4-stderr bands, both at least as good as pre-buffering.
    mt_c = results[5.0]["MT"][0] / BLOCKS
    tw_c = results[5.0]["T-wTS"][0] / BLOCKS
    gap = abs(mt_c.mean() - tw_c.mean())
    band = 4 * (mt_c.std(ddof=1) + tw_c.std(ddof=1)) / math.sqrt(n_sub)
    assert gap <= band
    assert thr(5.0, "MT") >= thr(5.0, "PB") - band
    assert thr(5.0, "T-wTS") >= thr(5.0, "PB") - band

    # Genie dominance per realization at every sweep point.
    sweep_blocks = (4, 8, 16, 28, 40, 52, 64)
    for snr in (-5.0, 5.0):
        for m in sweep_blocks:
            caps = sample_capacity_matrix(params_at(snr, blocks=m), SEED + m, 0, n_sub)
            point, _ = _point_results(caps)
            it_counts, it_delays = point["IT"]
            for name, (counts, delays) in point.items():
                if name == "IT":
                    continue
                assert np.all(it_counts >= counts), (snr, m, name)
                assert np.all(it_delays <= delays), (snr, m, name)
    print(
        "\n[criterion 8] PASS - orderings hold at M=40; genie dominates all "
        f"schemes per realization on {len(sweep_blocks)} sweep points x 2 SNRs"
    )


def test_criterion_9_byte_identical_csv_across_threads(tmp_path):
    """The acceptance config reproduces byte-identical CSVs with 1 or 4 workers."""
    config = REPO / "configs" / "acceptance.ini"
    outputs = []
    for threads in (1, 4, 1):
        out = tmp_path / f"acc_{threads}_{len(outputs)}.csv"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "streamfade.cli",
                "simulate",
                "--config",
                str(config),
                "--threads",
                str(threads),
                "--out-csv",
                str(out),
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].startswith(b"sweep_var,scheme,B,")
    print(f"\n[criterion 9] PASS - {len(outputs)} runs byte-identical ({len(outputs[0])} bytes)")
