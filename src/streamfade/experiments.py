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
from .channel import ChannelParams, decode_success_prob, window_decode_prob
from .errors import ConfigError
from .runstats import mt_mean_max_delay, wts_delay_bounds
from .schemes import Objective, SchemeKind

_SWEEP_VARIABLES = ("messages", "snr_db")

CSV_HEADER = (
    "sweep_var,scheme,B,avg_throughput_bpcu,avg_decoded_msgs,avg_max_delay,"
    "stderr_throughput,stderr_delay,analytic_throughput,analytic_delay_lower,"
    "analytic_delay_upper,trials,seed"
)


@dataclass(frozen=True)
class SchemeRequest:
    """One requested scheme: fixed window, optimized window, or neither."""

    kind: SchemeKind
    window: int | None = None
    optimize: Objective | None = None

    def __post_init__(self):
        if self.window is not None and self.optimize is not None:
            raise ConfigError("scheme cannot both fix and optimize its window")
        if self.kind in (SchemeKind.MT, SchemeKind.ETS):
            if self.window is not None or self.optimize is not None:
                raise ConfigError(f"{self.kind.value} takes no window settings")
        else:
            if self.window is None and self.optimize is None:
                raise ConfigError(f"{self.kind.value} needs a window or an objective")

    @property
    def label(self) -> str:
        if self.kind is SchemeKind.MT:
            return "MT"
        if self.kind is SchemeKind.ETS:
            return "eTS"
        if self.kind is SchemeKind.PB:
            return "PB"
        if self.optimize is Objective.MAX_THROUGHPUT:
            return "T-wTS"
        if self.optimize is Objective.MIN_MAX_DELAY:
            return "D-wTS"
        return "wTS"


def parse_scheme_token(token: str) -> SchemeRequest:
    tok = token.strip().lower()
    if tok == "mt":
        return SchemeRequest(SchemeKind.MT)
    if tok == "ets":
        return SchemeRequest(SchemeKind.ETS)
    if tok == "twts":
        return SchemeRequest(SchemeKind.WTS, optimize=Objective.MAX_THROUGHPUT)
    if tok == "dwts":
        return SchemeRequest(SchemeKind.WTS, optimize=Objective.MIN_MAX_DELAY)
    if tok == "pb" or tok == "pb:opt":
        # The delay- and throughput-optimal buffer depths coincide.
        return SchemeRequest(SchemeKind.PB, optimize=Objective.MAX_THROUGHPUT)
    for prefix, kind in (("pb:", SchemeKind.PB), ("wts:", SchemeKind.WTS)):
        if tok.startswith(prefix):
            try:
                window = int(tok[len(prefix) :])
            except ValueError:
                raise ConfigError(f"bad window in scheme token {token!r}", "schemes.list")
            if window < 1:
                raise ConfigError(f"window must be >= 1 in {token!r}", "schemes.list")
            return SchemeRequest(kind, window=window)
    raise ConfigError(f"unknown scheme token {token!r}", "schemes.list")


def format_scheme_token(req: SchemeRequest) -> str:
    if req.kind is SchemeKind.MT:
        return "mt"
    if req.kind is SchemeKind.ETS:
        return "ets"
    if req.kind is SchemeKind.PB:
        return "pb" if req.window is None else f"pb:{req.window}"
    if req.optimize is Objective.MAX_THROUGHPUT:
        return "twts"
    if req.optimize is Objective.MIN_MAX_DELAY:
        return "dwts"
    return f"wts:{req.window}"


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
        if self.messages < 1:
            raise ConfigError("messages must be >= 1", "channel.messages")
        if not math.isfinite(self.snr_db):
            raise ConfigError("snr_db must be finite", "channel.snr_db")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ConfigError("rate must be positive and finite", "channel.rate")
        if not self.schemes and not self.include_it_bound:
            raise ConfigError("no schemes requested", "schemes.list")
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
        elif self.sweep_values is not None:
            raise ConfigError("sweep values given without a sweep variable", "sweep.variable")

    def base_params(self) -> ChannelParams:
        return ChannelParams(snr_db=self.snr_db, rate=self.rate, blocks=self.messages)


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


def parse_config(text: str) -> ExperimentConfig:
    """Parse the INI experiment format (see README for the schema)."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

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
    schemes = tuple(parse_scheme_token(t) for t in tokens.split(",") if t.strip())
    include_it = need("schemes", "include_it_bound", to_bool, fallback=False)

    sweep_variable = None
    sweep_values = None
    if parser.has_section("sweep"):
        sweep_variable = need("sweep", "variable", str)
        sweep_values = parse_sweep_values(sweep_variable, need("sweep", "values", str))

    csv_path = parser.get("output", "csv", fallback=None)
    svg_path = parser.get("output", "svg", fallback=None)
    return ExperimentConfig(
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


def _analytic_columns(params: ChannelParams, req: SchemeRequest, window: int | None):
    """(analytic throughput bpcu, delay lower, delay upper) where closed forms exist."""
    if req.kind is SchemeKind.MT:
        p = decode_success_prob(params)
        exact_delay = mt_mean_max_delay(params.blocks, p)
        return params.rate * p, exact_delay, exact_delay
    if req.kind is SchemeKind.WTS and window is not None:
        p_b = window_decode_prob(params, window)
        bounds = wts_delay_bounds(params.blocks, window, p_b)
        return None, bounds.delay_lower, bounds.delay_upper
    return None, None, None


def _engine_spec(params: ChannelParams, req: SchemeRequest) -> tuple[str, int | None]:
    """The (tag, window) form of a request that `engine.evaluate_point` takes."""
    if req.window is not None and req.window > params.blocks:
        raise ConfigError(f"window {req.window} exceeds messages {params.blocks}", "schemes.list")
    if req.kind is SchemeKind.WTS and req.optimize is not None:
        return ("twts" if req.optimize is Objective.MAX_THROUGHPUT else "dwts"), None
    return req.kind.value, req.window


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every (sweep point, scheme) cell; deterministic in the seed."""
    base = config.base_params()
    if config.sweep_variable is None:
        points = [("messages", float(base.blocks), base)]
    else:
        points = []
        for value in config.sweep_values:
            if config.sweep_variable == "messages":
                params = replace(base, blocks=int(value))
            else:
                params = replace(base, snr_db=float(value))
            points.append((config.sweep_variable, float(value), params))

    rows: list[ResultRow] = []
    for sweep_name, sweep_value, params in points:
        reqs = list(config.schemes)
        specs = {idx: _engine_spec(params, req) for idx, req in enumerate(reqs)}
        if config.include_it_bound:
            specs[len(reqs)] = ("it", None)
        accums = engine.evaluate_point(
            params, specs, config.trials, config.seed, config.threads
        )
        scale = params.rate / params.blocks
        for idx, acc in accums.items():
            if idx == len(reqs):
                label = "IT"
                analytic = (None, None, None)
            else:
                req = reqs[idx]
                label = req.label
                analytic = _analytic_columns(params, req, acc.window)
            rows.append(
                ResultRow(
                    sweep_variable=sweep_name,
                    sweep_value=sweep_value,
                    scheme=label,
                    window=acc.window,
                    avg_throughput_bpcu=scale * acc.mean_count(),
                    avg_decoded_msgs=acc.mean_count(),
                    avg_max_delay=acc.mean_delay(),
                    stderr_throughput=scale * acc.stderr_count(),
                    stderr_delay=acc.stderr_delay(),
                    analytic_throughput=analytic[0],
                    analytic_delay_lower=analytic[1],
                    analytic_delay_upper=analytic[2],
                    trials=config.trials,
                    seed=config.seed,
                )
            )
    return rows


def analytic_rows(config: ExperimentConfig, windows=(2, 3, 5)) -> list[ResultRow]:
    """Closed-form-only table: per-block exact values plus windowed bounds."""
    base = config.base_params()
    if config.sweep_variable is None:
        points = [("messages", float(base.blocks), base)]
    else:
        points = [
            (
                config.sweep_variable,
                float(v),
                replace(base, blocks=int(v))
                if config.sweep_variable == "messages"
                else replace(base, snr_db=float(v)),
            )
            for v in config.sweep_values
        ]
    rows = []
    for sweep_name, sweep_value, params in points:
        reqs = [("MT", None)] + [("wTS", w) for w in windows if w <= params.blocks]
        for label, window in reqs:
            req = (
                SchemeRequest(SchemeKind.MT)
                if label == "MT"
                else SchemeRequest(SchemeKind.WTS, window=window)
            )
            thr, lo, hi = _analytic_columns(params, req, window)
            rows.append(
                ResultRow(
                    sweep_variable=sweep_name,
                    sweep_value=sweep_value,
                    scheme=label,
                    window=window,
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
