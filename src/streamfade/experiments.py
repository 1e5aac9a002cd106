"""Experiment configuration, batch runs, and CSV/SVG emission.

`FIELDS` is the one table of the INI keys of an `ExperimentConfig`; the INI
reader and the command line's flags both read it, so a key and its flag
take the same text to the same value or `section.key` error.

A run evaluates a set of schemes over a sweep (message count or SNR) on
shared traces and writes one CSV row per (sweep point, scheme).  Analytic
closed forms are emitted alongside simulated values where they exist: the
per-block scheme (MT) has exact throughput and delay, windowed time-sharing
has floor/ceil delay bounds (in whole-window units, see README).
The points that share a sampling pass share the delay bounds' run tails too:
one `wts_delay_bounds` call per window B for all of them (`_delay_cells`).
"""
from __future__ import annotations

import configparser
import io
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import engine
from .channel import SNR_RULE, ChannelParams, usable_snr, window_decode_prob
from .errors import ConfigError
from .rng import SEED_BOUND
from .runstats import wts_delay_bounds
from .schemes import Scheme, format_scheme_token, parse_scheme_list

_SWEEP_VARIABLES = ("messages", "snr_db")


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
            raise ConfigError(SNR_RULE, "channel.snr_db")
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
                raise ConfigError(f"SNR sweep values: {SNR_RULE}", "sweep.values")
        elif self.sweep_values is not None:
            raise ConfigError("sweep values given without a sweep variable", "sweep.variable")
        most = int(max(self.sweep_values)) if self.sweep_variable == "messages" else self.messages
        if self.trials * most * most >= 1 << 63:  # the int64 sums of a sampling pass would wrap
            raise ConfigError("trials * messages^2 must be < 2^63", "run.trials")
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


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(text)


def _floats(text: str) -> tuple:
    """A comma-separated list; `ExperimentConfig` checks the values."""
    return tuple(float(v) for v in text.split(",") if v.strip())


def _path(text: str) -> str:
    if not text:
        raise ValueError("empty path")
    return text


REQUIRED = object()  # a `Field.default`: the file must give the key


@dataclass(frozen=True)
class Field:
    """One INI key: the `ExperimentConfig` field it sets, the parser of its
    text, its flag, and its default where a file leaves it out."""

    section: str
    key: str
    attr: str
    parse: Callable[[str], object]  # raises ValueError on bad text
    flag: str | None
    default: object = REQUIRED

    @property
    def name(self) -> str:
        return f"{self.section}.{self.key}"

    def read(self, text: str):
        """The field's value of a key's or a flag's text."""
        try:
            return self.parse(text)
        except ConfigError:  # the scheme parser names the field itself
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value {text!r}", self.name) from exc


# Every key of the INI format, in the order a file is read.
FIELDS = (
    Field("channel", "snr_db", "snr_db", float, "--snr-db"),
    Field("channel", "rate", "rate", float, "--rate"),
    Field("channel", "messages", "messages", int, "--messages"),
    Field("run", "trials", "trials", int, "--trials"),
    Field("run", "seed", "seed", int, "--seed"),
    Field("run", "threads", "threads", int, "--threads", 1),
    Field("schemes", "list", "schemes", parse_scheme_list, "--scheme"),
    Field("schemes", "include_it_bound", "include_it_bound", _bool, None, False),
    Field("sweep", "variable", "sweep_variable", str, "--variable", None),
    Field("sweep", "values", "sweep_values", _floats, "--values", None),
    Field("output", "csv", "csv_path", _path, "--out-csv", None),
    Field("output", "svg", "svg_path", _path, "--out-svg", None),
)


def config_fields(text: str, unread=()) -> dict:
    """The `ExperimentConfig` fields of an INI file, unvalidated: each key's
    value, or its row's default where the file leaves the key out.  The
    fields named in `unread` are left out: a command that sets them itself
    neither parses nor requires their keys, which may still appear."""
    # No default section: a [DEFAULT] is an unknown section like any other.
    # `; comment` may end a line, as in the README's example.  Values are literal.
    parser = configparser.ConfigParser(
        default_section="", inline_comment_prefixes=(";",), interpolation=None
    )
    try:
        parser.read_string(text)
    except configparser.DuplicateOptionError as exc:
        # A line "=" is a parsing error, unless a second one comes first.
        field = f"{exc.section}.{exc.option}" if exc.option else exc.section
        raise ConfigError("key given twice", field) from exc
    except configparser.DuplicateSectionError as exc:
        raise ConfigError("section given twice", exc.section) from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc), "config") from exc
    for section in parser.sections():
        keys = parser.options(section)
        if all(row.section != section for row in FIELDS):
            raise ConfigError(f"unknown section [{section}]", ".".join([section, *keys[:1]]))
        for key in keys:
            if all((row.section, row.key) != (section, key) for row in FIELDS):
                raise ConfigError(f"unknown key {key!r}", f"{section}.{key}")
    fields = {}
    for row in FIELDS:
        if row.attr in unread:
            continue
        if parser.has_option(row.section, row.key):
            fields[row.attr] = row.read(parser.get(row.section, row.key))
        elif row.default is REQUIRED:
            raise ConfigError("missing required key", row.name)
        else:
            fields[row.attr] = row.default
    return fields


def parse_config(text: str, **overrides) -> ExperimentConfig:
    """Parse the INI experiment format (see README for the schema).  Keyword
    arguments replace fields of the file before the whole is validated, so
    that flags may complete a file (say, a sweep for its `[output] svg`)."""
    return ExperimentConfig(**{**config_fields(text), **overrides})


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


# The CSV's columns in order: (header, `ResultRow` field).
_CSV_COLUMNS = (
    ("sweep_var", "sweep_value"),
    ("scheme", "scheme"),
    ("B", "window"),
    ("avg_throughput_bpcu", "avg_throughput_bpcu"),
    ("avg_decoded_msgs", "avg_decoded_msgs"),
    ("avg_max_delay", "avg_max_delay"),
    ("stderr_throughput", "stderr_throughput"),
    ("stderr_delay", "stderr_delay"),
    ("analytic_throughput", "analytic_throughput"),
    ("analytic_delay_lower", "analytic_delay_lower"),
    ("analytic_delay_upper", "analytic_delay_upper"),
    ("trials", "trials"),
    ("seed", "seed"),
)
CSV_HEADER = ",".join(header for header, _ in _CSV_COLUMNS)
_csv_values = operator.attrgetter(*(field for _, field in _CSV_COLUMNS))


def _window_prob(params: ChannelParams, scheme: Scheme, window: int | None):
    """(B, p_B) of a cell's closed forms, or None where there are none: B is
    that of the row `Scheme.at` names at the window the cell reports."""
    if scheme.row.analytic is None:
        return None
    b = scheme.at(params.blocks, window).window
    return b, window_decode_prob(params, b)


def _delay_cells(points: list, probs: list) -> list[dict]:
    """Per point, B -> (delay lower, delay upper): the wTS delay bounds at
    each B of `probs[i]`, point i's (B, p_B) cells.  The points that share a
    sampling pass (`engine._passes`: the block-major points of one link)
    share one `wts_delay_bounds` call per B, at the M of each of its points;
    every other point makes its own."""
    out = [{} for _ in points]
    for indices in engine._passes(points):
        wanted = {}  # B -> (p_B, the points that ask for it)
        for i in indices:
            for b, p_b in filter(None, probs[i]):
                wanted.setdefault(b, (p_b, []))[1].append(i)
        for b, (p_b, asking) in wanted.items():
            hs = sorted({points[i].blocks for i in asking})
            bounds = dict(zip(hs, wts_delay_bounds(hs[-1], b, p_b, hs)))
            for i in asking:
                cell = bounds[points[i].blocks]
                out[i][b] = cell.delay_lower, cell.delay_upper
    return out


def _rows(config, points: list, cells: list) -> list[ResultRow]:
    """The rows of every sweep point (sweep variable, value, params) of
    `points`, one per (scheme, window, accumulator) of its `cells`; a cell
    without an accumulator is closed-form only.  Analytic cells exist where
    a closed form does: the wTS delay bounds at the row's B (`_window_prob`),
    and MT's throughput rate * p_1."""
    params = [p for *_, p in points]
    probs = [
        [_window_prob(p, scheme, window) for scheme, window, _ in row]
        for p, row in zip(params, cells)
    ]
    delays = _delay_cells(params, probs)
    rows = []
    for (sweep_name, sweep_value, point), row, windows, bounds in zip(points, cells, probs, delays):
        scale = point.rate / point.blocks
        for (scheme, window, acc), prob in zip(row, windows):
            simulated = (None,) * 5 if acc is None else (
                scale * acc.mean_count(),
                acc.mean_count(),
                acc.mean_delay(),
                scale * acc.stderr_count(),
                acc.stderr_delay(),
            )
            if prob is None:
                analytic = (None, None, None)
            else:
                b, p_b = prob
                exact = point.rate * p_b if scheme.row.analytic == "exact" else None
                analytic = (exact, *bounds[b])
            trials = 0 if acc is None else config.trials
            rows.append(
                ResultRow(
                    sweep_name, sweep_value, scheme.label, window, *simulated, *analytic,
                    trials, config.seed,
                )
            )
    return rows


def run_experiment(config: ExperimentConfig) -> list[ResultRow]:
    """Evaluate every (sweep point, scheme) cell in one `engine.evaluate_points`
    call, which shares a pass among the points of a message sweep;
    deterministic in the seed."""
    schemes = config.schemes + ((Scheme("it"),) if config.include_it_bound else ())
    points = config.sweep_points()
    results = engine.evaluate_points(
        [params for *_, params in points],
        dict(enumerate(schemes)),
        config.trials,
        config.seed,
        config.threads,
    )
    cells = [[(schemes[idx], acc.window, acc) for idx, acc in accums.items()] for accums in results]
    return _rows(config, points, cells)


def analytic_rows(config: ExperimentConfig) -> list[ResultRow]:
    """Closed-form-only table: one row per scheme of `config` at each sweep
    point, skipping a window longer than the point's M (`analyze` asks for
    MT and windowed bounds)."""
    points = config.sweep_points()
    cells = [
        [(scheme, scheme.window, None) for scheme in config.schemes
         if scheme.at(params.blocks).window <= params.blocks]
        for *_, params in points
    ]
    return _rows(config, points, cells)


def _fmt(value) -> str:
    if isinstance(value, float):  # most cells, so tested first
        return format(value, ".9g")
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".9g")


def render_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER, *(",".join(map(_fmt, _csv_values(r))) for r in rows)]
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


def render_svg(rows: list[ResultRow]) -> str:
    """Line chart of the average throughput across the sweep, one series per
    scheme."""
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if r.avg_throughput_bpcu is not None:
            series.setdefault(r.scheme, []).append((r.sweep_value, float(r.avg_throughput_bpcu)))
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
        f'transform="rotate(-90 18 {top + plot_h / 2:.1f})">average throughput (bpcu)</text>\n'
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


def emit_svg(rows: list[ResultRow], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_svg(rows))
