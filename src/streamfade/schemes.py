"""The schemes compared on shared channel draws, in one table.

A `Scheme` is a row name of `SCHEMES` plus, for PB and wTS, an optional
fixed window B (PB's buffer depth, wTS's window length).  Scheme tokens,
CSV labels, the engine's evaluation and window choice, and the analytic CSV
columns all read the table, and every layer takes a scheme at a point as
the fixed row `Scheme.at` names.

`build_allocation` is the reference path for the fixed-window schemes:
alpha[m-1, t-1] is the fraction of block t's channel uses spent on message m.
Nothing is ever sent for a message after its deadline (t > m), and every
block's fractions sum to one (or zero if the block carries no message).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import engine
from .channel import as_tile
from .errors import ConfigError

# Window rules: a scheme takes no B, needs a fixed B, or takes a fixed B or
# none, in which case B is chosen at each sweep point.
NONE, REQUIRED, OPTIONAL = "none", "required", "optional"


@dataclass(frozen=True)
class SchemeRow:
    """One scheme of the table.

    label     the CSV `scheme` cell
    window    the window rule: NONE, REQUIRED or OPTIONAL
    evaluate  (caps, rate, B) -> per-trial (decoded counts, longest zero-runs);
              wTS's and IT's also take a rising list of message counts and
              then return one pair per count
    table     a row without a window is this row at the window chosen at
              each point (`Scheme.at`): "wts", from exact objectives before
              sampling (`engine.optimize_wts_window`), or "pb", by the
              point's depth table.  None for every other row
    maximize  the choice maximizes throughput, else it minimizes delay (PB's
              two choices coincide, since delay = M - count per realization)
    analytic  the closed form behind the analytic CSV cells: "bounds" (the
              wTS floor/ceil delay bounds at the row's B) or "exact" (those
              bounds, which coincide at MT's B = 1, and the throughput
              rate * p_1); None where no closed form exists
    token     accepted as a scheme token; the IT bound is requested by
              `include_it_bound` only
    """

    label: str
    window: str
    evaluate: Callable
    table: str | None = None
    maximize: bool = True
    analytic: str | None = None
    token: bool = True


# Evaluators are looked up on the engine module at call time, so that a
# wrapper installed there (a tracer or a test double) sees every call.
def _evaluate_wts(caps, rate, window, horizons=None):
    return engine.evaluate_wts(caps, rate, window, horizons)


def _evaluate_pb(caps, rate, window):
    return engine.evaluate_pb(caps, rate, window)


def _evaluate_it(caps, rate, _, horizons=None):
    return engine.informed_counts_and_delays(caps, rate, horizons)


# MT and eTS are evaluated as the rows `Scheme.at` names.
SCHEMES = {
    "mt": SchemeRow("MT", NONE, _evaluate_wts, analytic="exact"),
    "ets": SchemeRow("eTS", NONE, _evaluate_pb),
    "pb": SchemeRow("PB", OPTIONAL, _evaluate_pb, table="pb"),
    "wts": SchemeRow("wTS", REQUIRED, _evaluate_wts, analytic="bounds"),
    "twts": SchemeRow("T-wTS", NONE, _evaluate_wts, table="wts", maximize=True, analytic="bounds"),
    "dwts": SchemeRow("D-wTS", NONE, _evaluate_wts, table="wts", maximize=False, analytic="bounds"),
    "it": SchemeRow("IT", NONE, _evaluate_it, token=False),
}


@dataclass(frozen=True)
class Scheme:
    """A row of `SCHEMES` by name, with a fixed window B where its rule allows
    one; no B on a row with a `table` means B is chosen at each point."""

    name: str
    window: int | None = None

    def __post_init__(self):
        if self.name not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.name!r}", "schemes.list")
        rule = SCHEMES[self.name].window
        if self.window is None:
            if rule == REQUIRED:
                raise ConfigError(f"{self.name} requires a window", "schemes.list")
        elif rule == NONE:
            raise ConfigError(f"{self.name} takes no window", "schemes.list")
        elif int(self.window) != self.window or self.window < 1:
            raise ConfigError(
                f"window must be a positive integer, got {self.window!r}", "schemes.list"
            )

    @property
    def row(self) -> SchemeRow:
        return SCHEMES[self.name]

    @property
    def label(self) -> str:
        return self.row.label

    def at(self, blocks: int, chosen: int | None = None) -> Scheme:
        """The fixed row this scheme is evaluated, allocated and closed-formed
        as at M = `blocks`.  MT, which sends message t in block t only, is
        `wts:1`; eTS, which shares every block among all unexpired messages,
        is `pb:M`; a row with a `table` and no window is that table's row at
        the window `chosen` at its point, once there is one; and every other
        scheme is itself."""
        if self.name == "mt":
            return Scheme("wts", 1)
        if self.name == "ets":
            return Scheme("pb", blocks)
        if self.window is None and self.row.table and chosen is not None:
            return Scheme(self.row.table, chosen)
        return self

    def evaluate(self, caps, rate: float):
        tile = as_tile(caps)
        fixed = self.at(tile.caps.shape[1])
        return fixed.row.evaluate(tile, rate, fixed.window)

    def check_window(self, blocks: int) -> None:
        if self.window is not None and self.window > blocks:
            raise ConfigError(f"window {self.window} exceeds messages {blocks}", "schemes.list")


def parse_scheme_token(token: str) -> Scheme:
    """`name`, `name:B`, or `pb:opt` (the same as `pb`)."""
    name, sep, arg = token.strip().lower().partition(":")
    row = SCHEMES.get(name)
    if row is None or not row.token:
        raise ConfigError(f"unknown scheme token {token!r}", "schemes.list")
    if not sep or (arg == "opt" and row.window == OPTIONAL):
        return Scheme(name)
    try:
        window = int(arg)
    except ValueError:
        raise ConfigError(f"bad window in scheme token {token!r}", "schemes.list") from None
    return Scheme(name, window)


def parse_scheme_list(text: str) -> tuple:
    return tuple(parse_scheme_token(t) for t in text.split(",") if t.strip())


def format_scheme_token(scheme: Scheme) -> str:
    return scheme.name if scheme.window is None else f"{scheme.name}:{scheme.window}"


def build_allocation(scheme: Scheme, blocks: int) -> np.ndarray:
    """Construct the (blocks, blocks) time-fraction matrix of a scheme whose
    row at M = `blocks` (`Scheme.at`) is `pb:B` or `wts:B`: MT, eTS, or
    those rows."""
    fixed = scheme.at(blocks)
    fixed.check_window(blocks)
    m, b = blocks, fixed.window
    alpha = np.zeros((m, m))
    if fixed.name == "pb" and b is not None:
        first = m - b  # transmitted rows are first..m-1 (messages M-B+1..M)
        alpha[first:, : first + 1] = 1.0 / b
        for j in range(first + 1, m):  # later blocks shared by survivors
            alpha[j:, j] = 1.0 / (m - j)
    elif fixed.name == "wts":
        windows = -(-m // b)
        for k in range(1, windows + 1):
            msg = min(k * b, m)
            alpha[msg - 1, (k - 1) * b : msg] = 1.0
    else:
        raise ValueError(f"{format_scheme_token(scheme)} has no fixed allocation matrix")
    return alpha


def transmitted_mask(alpha: np.ndarray) -> np.ndarray:
    return alpha.sum(axis=1) > 0


def accumulate_mi(alpha: np.ndarray, trace) -> np.ndarray:
    """Total mutual information per message (zero for untransmitted ones)."""
    caps = np.asarray(trace, dtype=np.float64)
    if caps.shape[0] != alpha.shape[1]:
        raise ValueError("trace length does not match the allocation matrix")
    return alpha @ caps


def decode(alpha: np.ndarray, trace, rate: float, sent: np.ndarray | None = None) -> np.ndarray:
    """Decode vector: transmitted messages whose accumulated MI reaches rate.
    `sent` is `transmitted_mask(alpha)`, made here when it is not given: a
    caller that decodes many traces with one allocation makes it once."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    if sent is None:
        sent = transmitted_mask(alpha)
    return (accumulate_mi(alpha, trace) >= rate) & sent
