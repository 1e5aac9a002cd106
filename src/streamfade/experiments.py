"""Experiment configuration, batch runs, and CSV/SVG emission.

A run evaluates a set of schemes over a sweep (message count or SNR) on
shared traces and writes one CSV row per (sweep point, scheme).  Analytic
closed forms are emitted alongside simulated values where they exist: the
per-block scheme has exact throughput and delay, windowed time-sharing has
floor/ceil delay bounds (in whole-window units, see README).
"""
from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from . import engine
from .channel import ChannelParams, decode_success_prob, usable_snr, window_decode_prob
from .errors import ConfigError
from .rng import SEED_BOUND
from .runstats import mt_mean_max_delay, wts_delay_bounds
from .schemes import Scheme, format_scheme_token, parse_scheme_list

_SWEEP_VARIABLES = ("messages", "snr_db")
_SNR_RULE = "snr_db must be finite and give a positive, finite transmit power"

CSV_HEADER = (
    "sweep_var,scheme,B,avg_throughput_bpcu,avg_decoded_msgs,avg_max_delay,"
    "stderr_throughput,stderr_delay,analytic_throughput,analytic_delay_lower,"
    "analytic_delay_upper,trials,seed"
)


@dataclass(frozen=True)
class ExperimentConfig:
    snr_db: float
    rate: float
    messages: int
    schemes: tuple
    include_it_bound: bool
    trials: int
    seed: int
    threads: int = 1
    sweep_variable: str | None = None
    sweep_values: tuple | None = None
    csv_path: str | None = None
    svg_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1", "run.trials")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1", "run.threads")
        if not 0 <= self.seed < SEED_BOUND:
            raise ConfigError("seed must lie in [0, 2**64)", "run.seed")
        if self.messages < 1:
            raise ConfigError("messages must be >= 1", "channel.messages")
        if not usable_snr(self.snr_db):
            raise ConfigError(_SNR_RULE, "channel.snr_db")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ConfigError("rate must be positive and finite", "channel.rate")
        if not self.schemes and not self.include_it_bound:
            raise ConfigError("no schemes requested", "schemes.list")
        for i, scheme in enumerate(self.schemes):
            if scheme in self.schemes[:i]:
                raise ConfigError(
                    f"scheme {format_scheme_token(scheme)!r} is listed twice", "schemes.list"
                )
        if self.sweep_variable is not None:
            if self.sweep_variable not in _SWEEP_VARIABLES:
                raise ConfigError(
                    f"sweep variable must be one of {_SWEEP_VARIABLES}", "sweep.variable"
                )
            values = self.sweep_values
            if not values:
                raise ConfigError("sweep values must be non-empty", "sweep.values")
            if not all(math.isfinite(v) for v in values):
                raise ConfigError("sweep values must be finite", "sweep.values")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError("sweep values must be strictly increasing", "sweep.values")
            if self.sweep_variable == "messages" and any(
                int(v) != v or v < 1 for v in values
            ):
                raise ConfigError("message sweep values must be positive integers", "sweep.values")
            if self.sweep_variable == "snr_db" and not all(usable_snr(v) for v in values):
                raise ConfigError(f"SNR sweep values: {_SNR_RULE}", "sweep.values")
        elif self.sweep_values is not None:
            raise ConfigError("sweep values given without a sweep variable", "sweep.variable")
        if self.svg_path and len(self.sweep_values or ()) < 2:
            raise ConfigError("a chart needs at least two sweep points", "output.svg")

    def sweep_points(self) -> list:
        """(sweep variable, value, channel parameters) of every sweep point."""
        base = ChannelParams(snr_db=self.snr_db, rate=self.rate, blocks=self.messages)
        if self.sweep_variable is None:
            return [("messages", float(base.blocks), base)]
        return [
            (
                self.sweep_variable,
                float(v),
                replace(base, blocks=int(v))
                if self.sweep_variable == "messages"
                else replace(base, snr_db=float(v)),
            )
            for v in self.sweep_values
        ]


def parse_sweep_values(variable: str, raw: str) -> tuple:
    """A comma-separated sweep grid.  Message counts become ints only when
    every value is integral; otherwise the floats are kept, so that
    `ExperimentConfig` rejects them instead of truncating them."""
    try:
        values = tuple(float(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad value list {raw!r}", "sweep.values") from exc
    if variable == "messages" and all(v.is_integer() for v in values):
        return tuple(int(v) for v in values)
    return values


# Every section and key of the INI format; anything else is a typo.
_INI_KEYS = {
    "channel": ("snr_db", "rate", "messages"),
    "run": ("trials", "seed", "threads"),
    "schemes": ("list", "include_it_bound"),
    "sweep": ("variable", "values"),
    "output": ("csv", "svg"),
}


def _read_ini(text: str) -> configparser.ConfigParser:
    """The INI file's sections, each checked against `_INI_KEYS`."""
    # No default section: a [DEFAULT] is an unknown section like any other.
    # `; comment` may end a line, as in the README's example.
    parser = configparser.ConfigParser(default_section="", inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    for section in parser.sections():
        keys = parser.options(section)
        if section not in _INI_KEYS:
            raise ConfigError(f"unknown section [{section}]", ".".join([section, *keys[:1]]))
        for key in keys:
            if key not in _INI_KEYS[section]:
                raise ConfigError(f"unknown key {key!r}", f"{section}.{key}")
    return parser


def _sweep_section(parser: configparser.ConfigParser) -> tuple:
    """(variable, values) of the [sweep] section, or (None, None) without one."""
    if not parser.has_section("sweep"):
        return None, None
    for key in _INI_KEYS["sweep"]:
        if not parser.has_option("sweep", key):
            raise ConfigError("missing required key", f"sweep.{key}")
    variable = parser.get("sweep", "variable")
    return variable, parse_sweep_values(variable, parser.get("sweep", "values"))


def parse_sweep_section(text: str) -> tuple:
    """(variable, values) of an INI file's [sweep] section, or (None, None)."""
    return _sweep_section(_read_ini(text))


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse the INI experiment format (see README for the schema).  Keyword
    arguments replace fields of the file before the whole is validated, so
    that flags may complete a file (say, a sweep for its `[output] svg`)."""
    parser = _read_ini(text)

    def need(section, key, cast, fallback=None):
        if not parser.has_option(section, key):
            if fallback is not None:
                return fallback
            raise ConfigError("missing required key", f"{section}.{key}")
        raw = parser.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value {raw!r}", f"{section}.{key}") from exc

    snr_db = need("channel", "snr_db", float)
    rate = need("channel", "rate", float)
    messages = need("channel", "messages", int)
    trials = need("run", "trials", int)
    seed = need("run", "seed", int)
    threads = need("run", "threads", int, fallback=1)

    def to_bool(raw: str) -> bool:
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(raw)

    tokens = need("schemes", "list", str)
    schemes = parse_scheme_list(tokens)
    include_it = need("schemes", "include_it_bound", to_bool, fallback=False)

    sweep_variable, sweep_values = _sweep_section(parser)

    csv_path = parser.get("output", "csv", fallback=None)
    svg_path = parser.get("output", "svg", fallback=None)
    fields = dict(
        snr_db=snr_db,
        rate=rate,
        messages=messages,
        schemes=schemes,
        include_it_bound=bool(include_it),
        trials=trials,
        seed=seed,
        threads=threads,
        sweep_variable=sweep_variable,
        sweep_values=sweep_values,
        csv_path=csv_path,
        svg_path=svg_path,
    )
    return ExperimentConfig(**{**fields, **overrides})


def serialize_config(config: ExperimentConfig) -> str:
    out = io.StringIO()
    out.write("[channel]\n")
    out.write(f"snr_db = {config.snr_db!r}\n")
    out.write(f"rate = {config.rate!r}\n")
    out.write(f"messages = {config.messages}\n\n")
    out.write("[run]\n")
    out.write(f"trials = {config.trials}\n")
    out.write(f"seed = {config.seed}\n")
    out.write(f"threads = {config.threads}\n\n")
    out.write("[schemes]\n")
    out.write(f"list = {', '.join(format_scheme_token(s) for s in config.schemes)}\n")
    out.write(f"include_it_bound = {'true' if config.include_it_bound else 'false'}\n")
    if config.sweep_variable is not None:
        out.write("\n[sweep]\n")
        out.write(f"variable = {config.sweep_variable}\n")
        values = ", ".join(
            str(v) if isinstance(v, int) else repr(v) for v in config.sweep_values
        )
        out.write(f"values = {values}\n")
    if config.csv_path or config.svg_path:
        out.write("\n[output]\n")
        if config.csv_path:
            out.write(f"csv = {config.csv_path}\n")
        if config.svg_path:
            out.write(f"svg = {config.svg_path}\n")
    return out.getvalue()


@dataclass(frozen=True)
class ResultRow:
    sweep_variable: str
    sweep_value: float
    scheme: str
    window: int | None
    avg_throughput_bpcu: float | None
    avg_decoded_msgs: float | None
    avg_max_delay: float | None
    stderr_throughput: float | None
    stderr_delay: float | None
    analytic_throughput: float | None
    analytic_delay_lower: float | None
    analytic_delay_upper: float | None
    trials: int
    seed: int


def _analytic_columns(params: ChannelParams, scheme: Scheme, window: int | None):
    """(analytic throughput bpcu, delay lower, delay upper) where closed forms exist."""
    form = scheme.row.analytic
    if form == "exact":
        p = decode_success_prob(params)
        exact_delay = mt_mean_max_delay(params.blocks, p)
        return params.rate * p, exact_delay, exact_delay
    if form == "bounds":
        p_b = window_decode_prob(params, window)
        bounds = wts_delay_bounds(params.blocks, window, p_b)
        return None, bounds.delay_lower, bounds.delay_upper
    return None, None, None


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every (sweep point, scheme) cell; deterministic in the seed."""
    schemes = config.schemes + ((Scheme("it"),) if config.include_it_bound else ())
    rows: list[ResultRow] = []
    for sweep_name, sweep_value, params in config.sweep_points():
        for scheme in schemes:
            scheme.check_window(params.blocks)
        accums = engine.evaluate_point(
            params, dict(enumerate(schemes)), config.trials, config.seed, config.threads
        )
        scale = params.rate / params.blocks
        for idx, acc in accums.items():
            thr, lo, hi = _analytic_columns(params, schemes[idx], acc.window)
            rows.append(
                ResultRow(
                    sweep_variable=sweep_name,
                    sweep_value=sweep_value,
                    scheme=schemes[idx].label,
                    window=acc.window,
                    avg_throughput_bpcu=scale * acc.mean_count(),
                    avg_decoded_msgs=acc.mean_count(),
                    avg_max_delay=acc.mean_delay(),
                    stderr_throughput=scale * acc.stderr_count(),
                    stderr_delay=acc.stderr_delay(),
                    analytic_throughput=thr,
                    analytic_delay_lower=lo,
                    analytic_delay_upper=hi,
                    trials=config.trials,
                    seed=config.seed,
                )
            )
    return rows


def analytic_rows(config: ExperimentConfig, windows) -> list[ResultRow]:
    """Closed-form-only table: per-block exact values plus windowed bounds."""
    rows = []
    for sweep_name, sweep_value, params in config.sweep_points():
        schemes = [Scheme("mt")] + [Scheme("wts", w) for w in windows if w <= params.blocks]
        for scheme in schemes:
            thr, lo, hi = _analytic_columns(params, scheme, scheme.window)
            rows.append(
                ResultRow(
                    sweep_variable=sweep_name,
                    sweep_value=sweep_value,
                    scheme=scheme.label,
                    window=scheme.window,
                    avg_throughput_bpcu=None,
                    avg_decoded_msgs=None,
                    avg_max_delay=None,
                    stderr_throughput=None,
                    stderr_delay=None,
                    analytic_throughput=thr,
                    analytic_delay_lower=lo,
                    analytic_delay_upper=hi,
                    trials=0,
                    seed=config.seed,
                )
            )
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def render_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [
                    _fmt(r.sweep_value),
                    r.scheme,
                    _fmt(r.window),
                    _fmt(r.avg_throughput_bpcu),
                    _fmt(r.avg_decoded_msgs),
                    _fmt(r.avg_max_delay),
                    _fmt(r.stderr_throughput),
                    _fmt(r.stderr_delay),
                    _fmt(r.analytic_throughput),
                    _fmt(r.analytic_delay_lower),
                    _fmt(r.analytic_delay_upper),
                    _fmt(r.trials),
                    _fmt(r.seed),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[ResultRow], path: str) -> None:
    if not rows:
        raise ValueError("refusing to write an empty result table")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_csv(rows))


_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def render_svg(rows: list[ResultRow], metric: str = "throughput") -> str:
    """Line chart of one metric across the sweep, one series per scheme."""
    if metric == "throughput":
        get = lambda r: r.avg_throughput_bpcu
        y_label = "average throughput (bpcu)"
    elif metric == "delay":
        get = lambda r: r.avg_max_delay
        y_label = "average max inter-decoding delay (channel blocks)"
    else:
        raise ValueError("metric must be 'throughput' or 'delay'")

    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if get(r) is None:
            continue
        series.setdefault(r.scheme, []).append((r.sweep_value, float(get(r))))
    series = {k: sorted(v) for k, v in series.items() if len(v) >= 2}
    if not series:
        raise ValueError("need at least two sweep points per scheme to plot")

    sweep_name = rows[0].sweep_variable
    x_label = "messages M" if sweep_name == "messages" else "SNR (dB)"
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    y_lo = min(y_lo, 0.0)

    width, height = 720, 480
    left, right, top, bottom = 72, 180, 24, 56
    plot_w, plot_h = width - left - right, height - top - bottom

    def px(x):
        return left + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return top + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    out.write(
        f'<line x1="{left}" y1="{top + plot_h}" x2="{left + plot_w}" y2="{top + plot_h}" '
        'stroke="black" stroke-width="1"/>\n'
    )
    out.write(
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{top + plot_h}" '
        'stroke="black" stroke-width="1"/>\n'
    )
    for i in range(5):
        xv = x_lo + (x_hi - x_lo) * i / 4
        yv = y_lo + (y_hi - y_lo) * i / 4
        out.write(
            f'<text x="{px(xv):.1f}" y="{top + plot_h + 18}" font-size="11" '
            f'text-anchor="middle">{xv:g}</text>\n'
        )
        out.write(
            f'<text x="{left - 6}" y="{py(yv):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yv:.3g}</text>\n'
        )
    out.write(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14}" font-size="13" '
        f'text-anchor="middle">{x_label}</text>\n'
    )
    out.write(
        f'<text x="18" y="{top + plot_h / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">{y_label}</text>\n'
    )
    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.write(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>\n'
        )
        ly = top + 16 + 18 * i
        lx = left + plot_w + 12
        out.write(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="3"/>\n'
        )
        out.write(f'<text x="{lx + 28}" y="{ly}" font-size="12">{name}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()


def emit_svg(rows: list[ResultRow], path: str, metric: str = "throughput") -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_svg(rows, metric))
