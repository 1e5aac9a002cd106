from pathlib import Path

import numpy as np
import pytest

from streamfade import runstats
from streamfade.channel import ChannelParams, decode_success_prob
from streamfade.errors import ConfigError
from streamfade.experiments import (
    CSV_HEADER,
    ExperimentConfig,
    analytic_rows,
    emit_csv,
    parse_config,
    render_csv,
    render_svg,
    run_experiment,
    serialize_config,
)
from streamfade.runstats import mt_mean_max_delay
from streamfade.schemes import Scheme, format_scheme_token, parse_scheme_list, parse_scheme_token

ROOT = Path(__file__).resolve().parents[1]

CONFIG_TEXT = """
[channel]
snr_db = -5.0
rate = 1.0
messages = 12

[run]
trials = 400
seed = 99
threads = 1

[schemes]
list = mt, ets, pb, pb:4, wts:3, twts, dwts
include_it_bound = true

[sweep]
variable = messages
values = 8, 12

[output]
csv = out.csv
"""


def small_config(**overrides):
    fields = dict(
        snr_db=-5.0,
        rate=1.0,
        messages=10,
        schemes=(Scheme("mt"), Scheme("ets"), Scheme("pb"), Scheme("wts", 3)),
        include_it_bound=True,
        trials=500,
        seed=7,
        threads=1,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


class TestSchemeTokens:
    @pytest.mark.parametrize(
        "token", ["mt", "ets", "pb", "pb:8", "wts:3", "twts", "dwts"]
    )
    def test_round_trip(self, token):
        assert format_scheme_token(parse_scheme_token(token)) == token

    @pytest.mark.parametrize(
        "token,formatted,label,window",
        [
            ("mt", "mt", "MT", None),
            ("ets", "ets", "eTS", None),
            ("pb", "pb", "PB", None),
            ("pb:opt", "pb", "PB", None),
            ("pb:8", "pb:8", "PB", 8),
            ("wts:3", "wts:3", "wTS", 3),
            ("twts", "twts", "T-wTS", None),
            ("dwts", "dwts", "D-wTS", None),
        ],
    )
    def test_token_surface(self, token, formatted, label, window):
        scheme = parse_scheme_token(token)
        assert format_scheme_token(scheme) == formatted
        assert (scheme.label, scheme.window) == (label, window)

    def test_bad_tokens(self):
        # IT is added by include_it_bound only; wTS needs a window, T-/D-wTS take none
        for bad in ("xyz", "it", "wts", "twts:3", "pb:0", "wts:", "wts:x", "mt:opt", "wts:opt"):
            with pytest.raises(ConfigError) as err:
                parse_scheme_token(bad)
            assert err.value.field == "schemes.list"

    def test_labels(self):
        assert parse_scheme_token("twts").label == "T-wTS"
        assert parse_scheme_token("dwts").label == "D-wTS"
        assert parse_scheme_token("pb:4").label == "PB"


class TestConfigRoundTrip:
    def test_parse_serialize_parse(self):
        config = parse_config(CONFIG_TEXT)
        assert parse_config(serialize_config(config)) == config
        assert config.sweep_values == (8, 12)
        assert config.csv_path == "out.csv"

    def test_round_trip_without_sweep(self):
        config = small_config()
        assert parse_config(serialize_config(config)) == config

    def test_missing_key_names_field(self):
        broken = CONFIG_TEXT.replace("seed = 99", "")
        with pytest.raises(ConfigError) as err:
            parse_config(broken)
        assert "run.seed" in str(err.value)

    def test_fractional_message_values_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CONFIG_TEXT.replace("values = 8, 12", "values = 8.7, 16"))
        assert err.value.field == "sweep.values"

    def test_bad_sweep_order(self):
        with pytest.raises(ConfigError):
            small_config(sweep_variable="messages", sweep_values=(12, 8))

    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            small_config(trials=0)

    def test_unknown_sweep_variable(self):
        with pytest.raises(ConfigError):
            small_config(sweep_variable="power", sweep_values=(1.0, 2.0))

    # The CLI tests cover the typos of [output], [run] and [schemes].
    @pytest.mark.parametrize(
        "old,new,field",
        [
            ("[sweep]", "[sweeps]", "sweeps.variable"),
            ("[channel]", "[DEFAULT]\nmessages = 12\n[channel]", "DEFAULT.messages"),
            ("[output]\ncsv = out.csv", "[output]\ncsv = out.csv\n[extra]", "extra"),
        ],
    )
    def test_unknown_section_or_key_names_it(self, old, new, field):
        with pytest.raises(ConfigError) as err:
            parse_config(CONFIG_TEXT.replace(old, new))
        assert err.value.field == field

    def test_shipped_examples_parse(self):
        acceptance = (ROOT / "configs" / "acceptance.ini").read_text()
        assert parse_config(acceptance).trials == 5000
        readme = (ROOT / "README.md").read_text()
        example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config = parse_config(example)  # with its `; optional` line comments
        assert config.sweep_variable == "messages"
        assert config.svg_path == "results.svg"


class TestRunExperiment:
    def test_rows_and_csv_shape(self, tmp_path):
        config = small_config()
        rows = run_experiment(config)
        # 4 schemes + IT bound at a single sweep point
        assert len(rows) == 5
        labels = [r.scheme for r in rows]
        assert labels == ["MT", "eTS", "PB", "wTS", "IT"]
        for r in rows:  # bits per channel use: rate / M times the decoded count
            assert r.avg_throughput_bpcu == pytest.approx(config.rate / 10 * r.avg_decoded_msgs)
        csv_text = render_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 6
        path = tmp_path / "t.csv"
        emit_csv(rows, str(path))
        assert path.read_text().startswith("sweep_var,scheme,B,")

    def test_mt_analytic_columns(self):
        config = small_config()
        rows = run_experiment(config)
        mt = rows[0]
        p = decode_success_prob(ChannelParams(-5.0, 1.0, 10))
        assert mt.analytic_throughput == pytest.approx(1.0 * p)
        assert mt.analytic_delay_lower == pytest.approx(mt_mean_max_delay(10, p))
        assert mt.analytic_delay_lower == mt.analytic_delay_upper

    def test_schemes_without_closed_forms_have_empty_cells(self):
        rows = run_experiment(small_config())
        by_label = {r.scheme: r for r in rows}
        for label in ("eTS", "PB", "IT"):
            row = by_label[label]
            assert row.analytic_throughput is None
            assert row.analytic_delay_lower is None
            assert row.analytic_delay_upper is None
        wts = by_label["wTS"]
        assert wts.analytic_throughput is None
        assert wts.analytic_delay_lower is not None
        assert wts.analytic_delay_lower <= wts.analytic_delay_upper

    def test_deterministic_across_threads(self):
        rows1 = run_experiment(small_config(threads=1))
        rows4 = run_experiment(small_config(threads=4))
        assert render_csv(rows1) == render_csv(rows4)

    def test_repeat_run_byte_identical(self):
        config = small_config(trials=1)
        assert render_csv(run_experiment(config)) == render_csv(run_experiment(config))

    def test_window_cannot_exceed_sweep_point(self):
        config = small_config(
            schemes=(Scheme("wts", 9),),
            include_it_bound=False,
            sweep_variable="messages",
            sweep_values=(4, 16),
        )
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_snr_sweep(self):
        config = small_config(
            schemes=(Scheme("mt"),),
            include_it_bound=False,
            trials=200,
            sweep_variable="snr_db",
            sweep_values=(-5.0, 5.0),
        )
        rows = run_experiment(config)
        assert [r.sweep_value for r in rows] == [-5.0, 5.0]
        assert rows[1].avg_throughput_bpcu > rows[0].avg_throughput_bpcu


class TestAnalyticRows:
    def test_shape_and_emptiness(self):
        rows = analytic_rows(small_config(), windows=(2, 3))
        assert [r.scheme for r in rows] == ["MT", "wTS", "wTS"]
        assert all(r.avg_throughput_bpcu is None for r in rows)
        assert rows[0].analytic_throughput is not None

    def test_columns_come_from_the_recurrence_alone(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("analytic columns must not use this method")

        for name in ("partial_fraction", "run_tail_partial_fraction", "run_tail_matrix_power"):
            monkeypatch.setattr(runstats, name, unreachable)
        config = small_config(
            schemes=parse_scheme_list("mt,wts:3,twts,dwts"),
            sweep_variable="messages",
            sweep_values=(6, 40),
            include_it_bound=False,
            trials=200,
        )
        rows = run_experiment(config) + analytic_rows(config, windows=(1, 2, 5, 40))
        assert len(rows) == 2 * 4 + 2 * 5 - 1  # wTS B=40 exceeds M=6
        assert all(r.analytic_delay_upper is not None for r in rows)


class TestSimulationWithinAnalyticBounds:
    def test_mt_and_wts_points_track_their_closed_forms(self):
        # every simulated MT/wTS point within the analytic values +- 4 stderr;
        # the wTS delay bound applies to the whole-window run statistic
        from streamfade.channel import sample_capacity_matrix, window_decode_prob
        from streamfade.engine import evaluate_wts, wts_window_delays
        from streamfade.runstats import wts_delay_bounds

        config = small_config(
            schemes=(Scheme("mt"), Scheme("wts", 3)),
            include_it_bound=False,
            trials=20_000,
            messages=12,
        )
        rows = run_experiment(config)
        mt, wts = rows[0], rows[1]
        assert abs(mt.avg_throughput_bpcu - mt.analytic_throughput) <= 4 * mt.stderr_throughput
        assert abs(mt.avg_max_delay - mt.analytic_delay_lower) <= 4 * mt.stderr_delay

        point = ChannelParams(config.snr_db, config.rate, config.messages)
        caps = sample_capacity_matrix(point, config.seed, 0, config.trials)
        counts, _ = evaluate_wts(caps, config.rate, 3)
        window_delays = wts_window_delays(caps, config.rate, 3)
        bounds = wts_delay_bounds(12, 3, window_decode_prob(point, 3))
        se = window_delays.std(ddof=1) / np.sqrt(config.trials)
        assert bounds.delay_lower - 4 * se <= window_delays.mean() <= bounds.delay_upper + 4 * se
        se_c = counts.std(ddof=1) / np.sqrt(config.trials)
        assert (
            bounds.decoded_lower - 4 * se_c
            <= wts.avg_decoded_msgs
            <= bounds.decoded_upper + 4 * se_c
        )


class TestSvg:
    def _sweep_rows(self, schemes, include_it=False):
        config = small_config(
            schemes=schemes,
            include_it_bound=include_it,
            trials=300,
            sweep_variable="messages",
            sweep_values=(6, 12),
        )
        return run_experiment(config)

    def test_single_scheme_two_points_one_polyline(self):
        rows = self._sweep_rows((Scheme("mt"),))
        svg = render_svg(rows, metric="throughput")
        assert svg.count("<polyline") == 1
        assert "messages M" in svg
        assert "average throughput (bpcu)" in svg
        assert "xmlns" in svg and "href" not in svg

    def test_one_series_per_scheme(self):
        rows = self._sweep_rows(
            (Scheme("mt"), Scheme("ets")), include_it=True
        )
        svg = render_svg(rows, metric="delay")
        assert svg.count("<polyline") == 3
        assert "average max inter-decoding delay" in svg

    def test_requires_two_points(self):
        rows = run_experiment(small_config(trials=100))
        with pytest.raises(ValueError):
            render_svg(rows)
