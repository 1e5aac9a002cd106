"""Command line entry points.

Subcommands: simulate (one configuration), sweep (messages or SNR grid),
analyze (closed forms only), bound (informed-transmitter bound only), and
verify (quick oracle-equivalence self-checks).  Exit codes: 0 success,
1 verification failure, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import informed, runstats
from .channel import (
    ChannelParams,
    mean_capacity,
    mean_capacity_closed_form,
    sample_capacity_matrix,
)
from .engine import Accumulator, evaluate_points, moments, pb_count_sums, tile_sums
from .errors import ConfigError, NumericFailure
from .experiments import (
    FIELDS,
    ExperimentConfig,
    analytic_rows,
    config_fields,
    emit_csv,
    emit_svg,
    render_csv,
    run_experiment,
)
from .rng import SEED_BOUND
from .metrics import max_zero_run
from .schemes import Scheme, build_allocation, decode, parse_scheme_list, transmitted_mask

_DEFAULTS = ExperimentConfig(
    snr_db=-5.0,
    rate=1.0,
    messages=40,
    schemes=parse_scheme_list("mt,ets,pb,twts,dwts"),
    include_it_bound=True,
    trials=10_000,
    seed=12345,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamfade",
        description="Throughput and inter-decoding delay of streaming over block fading",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fields(p, rows):
        for row in rows:
            help = f"read as [{row.section}] {row.key} of an INI file"
            p.add_argument(row.flag, dest=row.attr, metavar=row.key.upper(), help=help)

    def add_common(p, *skip):
        p.add_argument("--config", metavar="PATH", help="INI experiment file")
        add_fields(p, [r for r in FIELDS if r.flag and r.section not in ("sweep", *skip)])

    p_sim = sub.add_parser("simulate", help="run one configuration")
    add_common(p_sim)

    p_sweep = sub.add_parser("sweep", help="sweep messages or SNR")
    add_common(p_sweep)
    add_fields(p_sweep, [row for row in FIELDS if row.section == "sweep"])

    p_an = sub.add_parser("analyze", help="closed forms only, no sampling")
    add_common(p_an, "schemes")  # analyze and bound choose their own rows
    p_an.add_argument("--windows", default="2,3,5", metavar="B1,B2,...")

    p_bound = sub.add_parser("bound", help="informed-transmitter bound only")
    add_common(p_bound, "schemes")

    p_ver = sub.add_parser("verify", help="run the oracle-equivalence self checks")
    add_fields(p_ver, [row for row in FIELDS if row.attr == "seed"])
    return parser


# Options whose value may start with "-": a negative SNR grid or window
# list.  argparse takes "-10,0,10" for an option, so `main` attaches such a
# value to its option with "=", as in `--values=-10,0,10`.
_DASH_VALUE_OPTIONS = ("--values", "--windows")


def _attach_dash_values(argv: list[str]) -> list[str]:
    out = []
    for arg in argv:
        option = out[-1] if out else ""
        # argparse also accepts an option by a prefix of its name.
        named = len(option) > 2 and any(o.startswith(option) for o in _DASH_VALUE_OPTIONS)
        if named and arg[:1] == "-" and arg[:2] != "--":
            out[-1] = f"{option}={arg}"
        else:
            out.append(arg)
    return out


def _read_config(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the file: {exc}", "config") from exc


def _flag_fields(args) -> dict:
    """The fields that flags set, each read by its INI key's row."""
    texts = {row: getattr(args, row.attr, None) for row in FIELDS}
    flags = {row.attr: row.read(text) for row, text in texts.items() if text is not None}
    # Unlike an INI `[schemes] list`, which may be empty, the flag must name a scheme.
    if flags.get("schemes") == ():
        raise ConfigError(f"--scheme {args.schemes!r} names no scheme", "schemes.list")
    return flags


def _default_sweep(variable: str):
    if variable == "messages":
        return tuple(range(1, 65))
    return tuple(float(v) for v in range(-10, 16))


def _config_from_args(args, **rows) -> ExperimentConfig:
    """The file's fields, then the flags', then `rows`: the schemes of a
    command that writes its own rows, which the file's keys do not set."""
    if args.config:
        fields = config_fields(_read_config(args.config), unread=rows)
    else:
        fields = dict(vars(_DEFAULTS))
    flags = _flag_fields(args)
    if args.command == "sweep":
        # A flag overrides or completes the file's [sweep], and a flag left
        # out keeps the file's value; the file's values serve only the
        # file's variable.  Without a [sweep], message counts are swept.
        if fields["sweep_variable"] is None and fields["sweep_values"] is None:
            fields.update(sweep_variable="messages", sweep_values=_default_sweep("messages"))
        variable = fields["sweep_variable"]
        if variable is not None and flags.get("sweep_variable", variable) != variable:
            fields["sweep_values"] = _default_sweep(flags["sweep_variable"])
    config = ExperimentConfig(**{**fields, **flags, **rows})
    # Fail before sampling rather than after it.
    for field, path in (("output.csv", config.csv_path), ("output.svg", config.svg_path)):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"the directory of {path!r} does not exist", field)
    return config


def _write(emit, rows, path: str, field: str, *args) -> None:
    try:
        emit(rows, path, *args)
    except OSError as exc:
        raise ConfigError(f"cannot write the file: {exc}", field) from exc


def _write_outputs(rows, config):
    if config.csv_path:
        _write(emit_csv, rows, config.csv_path, "output.csv")
    else:
        sys.stdout.write(render_csv(rows))
    if config.svg_path:
        _write(emit_svg, rows, config.svg_path, "output.svg")


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    rows = run_experiment(config)
    _write_outputs(rows, config)
    return 0


def _cmd_analyze(args) -> int:
    try:
        windows = tuple(int(w) for w in args.windows.split(",") if w.strip())
    except ValueError:
        raise ConfigError(f"bad window list {args.windows!r}", "analyze.windows")
    if not windows:
        raise ConfigError(f"no window in {args.windows!r}", "analyze.windows")
    if any(w < 1 for w in windows):
        raise ConfigError(f"windows must be >= 1, got {args.windows!r}", "analyze.windows")
    if len(set(windows)) < len(windows):
        raise ConfigError(f"repeated window in {args.windows!r}", "analyze.windows")
    schemes = (Scheme("mt"), *(Scheme("wts", w) for w in windows))
    config = _config_from_args(args, schemes=schemes, include_it_bound=False)
    if config.svg_path:
        raise ConfigError("analyze writes no chart: it has no simulated columns", "output.svg")
    rows = analytic_rows(config)
    _write_outputs(rows, config)
    return 0


def _cmd_bound(args) -> int:
    config = _config_from_args(args, schemes=(), include_it_bound=True)
    rows = run_experiment(config)
    _write_outputs(rows, config)
    return 0


def _cmd_verify(args) -> int:
    """Fast oracle-equivalence suite; prints one PASS/FAIL line per check."""
    seed = _flag_fields(args).get("seed", 2025)
    if not 0 <= seed < SEED_BOUND:
        raise ConfigError("seed must lie in [0, 2**64)", "run.seed")
    failures = 0

    def report(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    # Run-length agreement: enumeration == recurrence == matrix power == partial fractions.
    worst = 0.0
    for m in range(2, 11):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            enum = runstats.enumerate_run_tails(m, p)
            rec = runstats.run_tails(m, p)
            for d in range(1, m + 1):
                mat = runstats.run_tail_matrix_power(m, p, d)
                pf = runstats.run_tail_partial_fraction(m, p, d)
                worst = max(worst, *(abs(enum[d - 1] - x) for x in (rec[d - 1], mat, pf)))
    report(f"run-length agreement, four methods (worst dev {worst:.2e})", worst < 1e-9)

    # Greedy + delay minimization against the exhaustive subset oracle.
    ok = True
    trial = 0
    for snr in (-5.0, 0.0, 5.0):
        for m in range(2, 11):
            params = ChannelParams(snr_db=snr, rate=1.0, blocks=m)
            for _ in range(12):
                caps = sample_capacity_matrix(params, seed, trial, trial + 1)[0]
                trial += 1
                count, delay = informed.informed_trial(caps, 1.0)
                ok = ok and (count, delay) == informed.oracle_exhaustive(caps, 1.0)
    report("informed-transmitter bound vs exhaustive oracle", ok)

    # Mean-capacity closed form against Gauss-Legendre quadrature, relative to
    # the closed form, which is 1.4e-4 at -40 dB.
    devs = []
    for snr in (-40.0, -5.0, 0.0, 5.0, 10.0, 40.0):
        params = ChannelParams(snr_db=snr, rate=1.0, blocks=1)
        closed = mean_capacity_closed_form(params)
        devs.append(abs(mean_capacity(params) - closed) / closed)
    report(f"mean-capacity closed form (worst relative dev {max(devs):.2e})", max(devs) < 1e-8)

    # The tile pass (`evaluate_points`' rows and the summed depth table)
    # against references that share none of its kernels: every fixed row and
    # every PB depth from its allocation matrix, decoded trial by trial, the
    # chosen PB depth as their argmax, and the IT bound from the greedy scan
    # of each trial.  With a chosen depth, eTS (PB at depth M) and the `pb:B`
    # rows are read off the pass's depth table.  The eTS and PB rows' delay
    # identity, delay = M - count, is held through these references.  M = 12
    # and 16 share one pass of block-major tiles, as a message sweep's points
    # do, with the depth table's counting kernel, and every wTS window of
    # M = 12 is one scan read at both horizons; M = 65, the shortest
    # row-major rows, runs the search kernel in a pass of its own.  At 2 dB
    # and rate 1 about half the messages decode, so the depths near M, and
    # the runs of the windows near a horizon, differ on some trials.
    ok = True
    link = ChannelParams(snr_db=2.0, rate=1.0, blocks=1)
    for sweep, trials in (((12, 16), 300), ((65,), 200)):
        rows = [Scheme(n, b) for n in ("pb", "wts") for b in range(1, sweep[0] + 1)]
        rows = [Scheme("mt"), Scheme("ets"), *rows, Scheme("it")]
        points = [replace(link, blocks=m) for m in sweep]
        schemes = {**dict(enumerate(rows)), "pb": Scheme("pb")}
        for params, point in zip(points, evaluate_points(points, schemes, trials, seed)):
            m = params.blocks
            caps = sample_capacity_matrix(params, seed, 0, trials)
            (table,) = tile_sums(params, trials, seed, 1, lambda t: [pb_count_sums(t, 1.0)])
            depths = [Scheme("pb", b) for b in range(1, m + 1)]
            refs = {}
            for scheme in {*rows, *depths}:
                if scheme.name == "it":
                    counts, delays = np.array([informed.informed_trial(r, 1.0) for r in caps]).T
                else:
                    alpha = build_allocation(scheme, m)
                    sent = transmitted_mask(alpha)
                    decoded = np.array([decode(alpha, r, 1.0, sent) for r in caps])
                    counts, delays = decoded.sum(axis=1), [max_zero_run(v) for v in decoded]
                refs[scheme] = moments(counts, delays).tolist()
            for key, scheme in enumerate(rows):
                ok = ok and point[key] == Accumulator(scheme.window, trials, *refs[scheme])
            for depth in depths:
                ok = ok and table[:, depth.window - 1].tolist() == refs[depth][:2]
            best = max(depths, key=lambda depth: refs[depth][0])
            ok = ok and point["pb"] == Accumulator(best.window, trials, *refs[best])
    # A pass of several row tiles sums their depth tables exactly: at M = 65
    # a tile holds at most 504 rows, so 505 trials make two.
    params = replace(link, blocks=65)
    caps = sample_capacity_matrix(params, seed, 0, 505)
    (table,) = tile_sums(params, 505, seed, 1, lambda t: [pb_count_sums(t, 1.0)])
    ok = ok and table.tolist() == pb_count_sums(caps, 1.0).tolist()
    report("equal-share and pre-buffering delay identities, PB depth table, tile pass", ok)
    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_dash_values(sys.argv[1:] if argv is None else list(argv)))
    handlers = {
        "simulate": _cmd_run,
        "sweep": _cmd_run,
        "analyze": _cmd_analyze,
        "bound": _cmd_bound,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
