"""The schemes compared on shared channel draws, in one table.

A `Scheme` is a row name of `SCHEMES` plus, for PB and wTS, an optional
fixed window B (PB's buffer depth, wTS's window length).  Scheme tokens,
CSV labels, the engine's evaluation and window choice, and the analytic CSV
columns all read the table.

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
from .errors import ConfigError

# Window rules: a scheme takes no B, needs a fixed B, or takes a fixed B or
# none, in which case B is chosen at each sweep point.
NONE, REQUIRED, OPTIONAL = "none", "required", "optional"


@dataclass(frozen=True)
class SchemeRow:
    """One scheme of the table.

    label     the CSV `scheme` cell
    window    the window rule: NONE, REQUIRED or OPTIONAL
    evaluate  (caps, rate, B) -> per-trial (decoded counts, longest zero-runs)
    table     how an absent B is chosen at each point: "wts" (from exact
              objectives before sampling, `engine.optimize_wts_window`; the
              row is then evaluated as `wts:B` in the point's one pass) or
              "pb" (from the PB depth table of that pass, which also gives
              the row at the chosen depth); None when B is never chosen
    maximize  the choice maximizes throughput, else it minimizes delay (PB's
              two choices coincide, since delay = M - count per realization)
    analytic  the closed form behind the analytic CSV cells: "exact" (MT
              throughput and delay) or "bounds" (wTS floor/ceil delay bounds
              at the row's B); None where no closed form exists
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
def _evaluate_wts(caps, rate, window):
    return engine.evaluate_wts(caps, rate, window)


SCHEMES = {
    "mt": SchemeRow(
        "MT", NONE, lambda caps, rate, _: engine.evaluate_mt(caps, rate), analytic="exact"
    ),
    "ets": SchemeRow("eTS", NONE, lambda caps, rate, _: engine.evaluate_ets(caps, rate)),
    "pb": SchemeRow(
        "PB", OPTIONAL, lambda caps, rate, b: engine.evaluate_pb(caps, rate, b), table="pb"
    ),
    "wts": SchemeRow("wTS", REQUIRED, _evaluate_wts, analytic="bounds"),
    "twts": SchemeRow("T-wTS", NONE, _evaluate_wts, table="wts", maximize=True, analytic="bounds"),
    "dwts": SchemeRow("D-wTS", NONE, _evaluate_wts, table="wts", maximize=False, analytic="bounds"),
    "it": SchemeRow(
        "IT", NONE, lambda caps, rate, _: engine.informed_counts_and_delays(caps, rate), token=False
    ),
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

    def evaluate(self, caps: np.ndarray, rate: float):
        return self.row.evaluate(caps, rate, self.window)

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
    """Construct the (blocks, blocks) time-fraction matrix of a scheme with a
    fixed window (or none): MT, eTS, `pb:B` or `wts:B`."""
    scheme.check_window(blocks)
    m, b = blocks, scheme.window
    alpha = np.zeros((m, m))
    if scheme.name == "mt":
        np.fill_diagonal(alpha, 1.0)
    elif scheme.name == "ets":
        for j in range(m):  # block j+1 shared by messages j+1..M
            alpha[j:, j] = 1.0 / (m - j)
    elif scheme.name == "pb" and b is not None:
        first = m - b  # transmitted rows are first..m-1 (messages M-B+1..M)
        alpha[first:, : first + 1] = 1.0 / b
        for j in range(first + 1, m):  # later blocks shared by survivors
            alpha[j:, j] = 1.0 / (m - j)
    elif scheme.name == "wts":
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


def decode(alpha: np.ndarray, trace, rate: float) -> np.ndarray:
    """Decode vector: transmitted messages whose accumulated MI reaches rate."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return (accumulate_mi(alpha, trace) >= rate) & transmitted_mask(alpha)
