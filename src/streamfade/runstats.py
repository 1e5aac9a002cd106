"""Distribution of the longest failure run in an i.i.d. Bernoulli decode sequence.

Pr{longest zero-run >= d} over M trials with per-trial success probability p
is computed four independent ways:

* the exact run-tail recurrence (`run_tail_columns`), the production path:
  with q = 1 - p and T_n the tail over n trials, T_n = 0 for n < d,
  T_d = q^d and T_n = T_{n-1} + p q^d (1 - T_{n-d-1}), the tail form of
  Feller's A_n = A_{n-1} - p q^d A_{n-d-1} for A_n = 1 - T_n (Feller, Vol. I
  XIII.7; Schilling, "The Longest Run of Heads", 1990).  It runs one run
  length d at a time, in blocks of d + 1 trials that each read only the
  block before, so memory is O(M) for any M.  Each block adds the same terms
  in the same order as a loop over n, so the tails keep that loop's bits.
  The term added at n is the probability that the first run of d failures
  ends at trial n, so the tails only grow by nonnegative terms and keep
  their relative accuracy,
* exhaustive weighted enumeration over all 2^M sequences (small M oracle),
* absorbing Markov chain raised to the M-th power,
* closed form from the partial-fraction expansion of the run generating
  function ((1-p) z)^d / ((1-z) q_d(z)), where
  q_d(z) = 1 - p * sum_{j=1..d} z^j (1-p)^(j-1).

The last three are cross-checks of the recurrence.  Every closed form reads
its columns: `run_tails` (and so `mt_mean_max_delay`) takes the last entry
of each.  The wTS forms take horizons, a rising list of message counts, so
that the points of a message sweep share one pass per window B:
`wts_delay_bounds` reads the floor and ceil window counts of every horizon
from one pass, and `wts_mean_delay`, the D-wTS window objective, iterates
the columns at the largest horizon once for all of them.  The CSV's MT
cells are both bounds at B = 1: `mt_mean_max_delay`.

In the partial-fraction expansion the z = 1 pole always has residue exactly 1
(q_d(1) = (1-p)^d), so it is peeled off in closed form before any numerics;
the remaining expansion only involves the roots of q_d, which all lie outside
the unit circle.  This keeps the evaluation stable even when q_d's real root
approaches 1 for large d.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _bits
from .errors import NumericFailure

_CLUSTER_RADIUS = 1e-7
_RESIDUAL_TOL = 1e-8
_CLAMP_TOL = 1e-6
_IMAG_TOL = 1e-9


def _validate(M: int, p: float, d: int) -> None:
    if not (1 <= d <= M):
        raise ValueError(f"need 1 <= d <= M, got d={d}, M={M}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"success probability must lie in [0, 1], got {p}")


def run_transition_matrix(d: int, p: float) -> np.ndarray:
    """Absorbing chain over zero-run lengths 0..d.

    A success (probability p) resets the run to state 0, a failure extends
    it by one; state d absorbs.  Rows sum to one.
    """
    if d < 1:
        raise ValueError("run threshold d must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("success probability must lie in [0, 1]")
    H = np.zeros((d + 1, d + 1))
    for i in range(d):
        H[i, 0] = p
        H[i, i + 1] = 1.0 - p
    H[d, d] = 1.0
    return H


def run_tail_matrix_power(M: int, p: float, d: int) -> float:
    """Pr{longest zero-run >= d} as entry (0, d) of the chain's M-step matrix."""
    _validate(M, p, d)
    H = run_transition_matrix(d, p)
    result = np.eye(d + 1)
    base = H.copy()
    steps = M
    while steps:
        if steps & 1:
            result = result @ base
        steps >>= 1
        if steps:
            base = base @ base
    return float(min(1.0, max(0.0, result[0, d])))


def q_polynomial(d: int, p: float) -> np.ndarray:
    """Ascending coefficients of q_d(z) = 1 - p sum_{j=1..d} z^j (1-p)^(j-1)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    coeffs[1:] = -p * (1.0 - p) ** np.arange(d)
    return coeffs


@dataclass(frozen=True)
class PartialFraction:
    """Expansion of ((1-p) z)^d / ((1-z) q_d(z)) in powers of (1 - z/root)^-r.

    roots[0] is always exactly 1 with multiplicity 1 and coefficient 1; the
    remaining entries are the clustered roots of q_d.  coefficients[i][r-1]
    multiplies (1 - z/roots[i])^-r.
    """

    run_length: int
    success_prob: float
    roots: np.ndarray
    multiplicities: np.ndarray
    coefficients: tuple

    def _reconstruct_with_mass(self, z):
        """Expansion value and the sum of term magnitudes (its roundoff scale)."""
        z = np.asarray(z, dtype=np.complex128)
        total = np.zeros_like(z)
        mass = np.zeros(z.shape, dtype=np.float64)
        for root, mult, coef in zip(self.roots, self.multiplicities, self.coefficients):
            base = 1.0 / (1.0 - z / root)
            for r in range(1, mult + 1):
                term = coef[r - 1] * base**r
                total = total + term
                mass += np.abs(term)
        return total, mass

    def direct(self, z: np.ndarray) -> np.ndarray:
        """The target rational function evaluated directly."""
        z = np.asarray(z, dtype=np.complex128)
        d, p = self.run_length, self.success_prob
        q = np.polyval(q_polynomial(d, p)[::-1], z)
        return ((1.0 - p) * z) ** d / ((1.0 - z) * q)

    def max_reconstruction_error(self, samples: int = 64) -> float:
        """Worst sample-point deviation of the expansion from the rational form.

        Relative to the larger of the direct value and the expansion's own
        term-magnitude sum: for large d the function is exponentially small
        inside the unit disk while the basis terms stay O(1) and cancel, so a
        plain relative error would only measure that inherent roundoff, not
        coefficient quality.  A wrong coefficient shows up at O(term mass),
        eight orders above the 1e-8 gate; correct ones sit at machine epsilon.
        """
        z = 0.5 * np.exp(2j * np.pi * (np.arange(samples) + 0.25) / samples)
        ref = self.direct(z)
        rebuilt, mass = self._reconstruct_with_mass(z)
        err = np.abs(rebuilt - ref)
        scale = np.maximum(np.abs(ref), np.maximum(mass, 1e-30))
        return float(np.max(err / scale))

    def tail(self, M: int) -> float:
        """Pr{longest zero-run >= d} over M trials, via the inverse transform."""
        if M < self.run_length:
            raise ValueError("need M >= d")
        total = 0.0 + 0.0j
        for root, mult, coef in zip(self.roots, self.multiplicities, self.coefficients):
            decay = root ** (-float(M))
            for r in range(1, mult + 1):
                total += coef[r - 1] * math.comb(M + r - 1, r - 1) * decay
        if abs(total.imag) > _IMAG_TOL:
            raise NumericFailure(
                f"imaginary residue {total.imag:g} in run-tail inverse transform"
            )
        value = total.real
        if value < -_CLAMP_TOL or value > 1.0 + _CLAMP_TOL:
            raise NumericFailure(f"run-tail value {value:g} outside [0, 1] beyond tolerance")
        return min(1.0, max(0.0, value))


def _cluster_roots(roots: np.ndarray) -> list[np.ndarray]:
    """Group roots whose pairwise distance is below the clustering radius."""
    remaining = list(roots)
    clusters: list[list[complex]] = []
    for root in sorted(remaining, key=lambda z: (z.real, z.imag)):
        for members in clusters:
            if abs(root - np.mean(members)) < _CLUSTER_RADIUS:
                members.append(root)
                break
        else:
            clusters.append([root])
    return [np.array(c) for c in clusters]


def _laurent_coefficients(g, center: complex, order: int, radius: float, samples: int = 256):
    """Coefficients a_1..a_order of sum a_r (1 - z/center)^-r for g near center.

    Contour extraction in the local variable w = 1 - z/center on |w| = radius.
    """
    theta = 2.0 * np.pi * np.arange(samples) / samples
    w = radius * np.exp(1j * theta)
    values = g(center * (1.0 - w))
    coeffs = []
    for r in range(1, order + 1):
        coeffs.append(complex(np.mean(values * w**r)))
    return np.array(coeffs)


def _build_partial_fraction(d: int, p: float) -> PartialFraction:
    q = q_polynomial(d, p)
    # Trailing coefficients may underflow for extreme p; drop exact zeros.
    d_eff = d
    while d_eff > 0 and q[d_eff] == 0.0:
        d_eff -= 1
    if d_eff == 0:
        raise NumericFailure(f"q_{d} degenerates to a constant at p={p}")
    q = q[: d_eff + 1]
    # q_d(1) telescopes to (1-p)^d exactly; the closed form avoids the
    # catastrophic cancellation of summing the coefficients in floats.
    q_at_one = (1.0 - p) ** d_eff
    if not q_at_one > 0.0:
        raise NumericFailure("q_d(1) = (1-p)^d must be positive; z=1 must stay a simple pole")

    # Numerator N(z) = ((1-p) z)^d restricted to the effective degree.
    numer = np.zeros(d_eff + 1)
    scale = (1.0 - p) ** d
    if d <= d_eff:
        numer[d] = scale
    # Peel the exact z=1 pole: residue N(1)/q(1); deflate (N - a*q) / (1 - z).
    residue_one = (scale if d <= d_eff else 0.0) / q_at_one
    deflated = numer - residue_one * q
    # Synthetic division by (1 - z): running prefix sums.
    h = np.cumsum(deflated[:d_eff])
    if abs(deflated[d_eff] + h[-1]) > 1e-9 * max(1.0, abs(deflated[d_eff])):
        raise NumericFailure("deflation by (1 - z) left a remainder")

    q_desc = np.poly1d(q[::-1])
    dq_desc = q_desc.deriv()
    h_desc = np.poly1d(h[::-1]) if h.size else np.poly1d([0.0])

    roots = np.roots(q[::-1]).astype(np.complex128)
    # One Newton polish per root.
    roots = roots - q_desc(roots) / dq_desc(roots)
    resid = np.abs(q_desc(roots)) / max(1.0, np.max(np.abs(q)))
    if np.any(resid > 1e-10):
        raise NumericFailure("root-finding residual above tolerance")
    # A root of q_d that collapses onto z=1 in floating point needs no check:
    # its contribution stays finite because the z=1 pole was deflated.

    def g(z):
        return h_desc(z) / q_desc(z)

    clusters = _cluster_roots(roots)
    out_roots = [1.0 + 0.0j]
    out_mults = [1]
    out_coeffs = [np.array([residue_one + 0.0j])]
    for members in clusters:
        center = complex(np.mean(members))
        s = len(members)
        if s == 1:
            coef = np.array([-h_desc(center) / (dq_desc(center) * center)])
        else:
            others = np.array(
                [r for c in clusters if c is not members for r in c] + [1.0 + 0.0j]
            )
            spread = max(abs(m - center) for m in members)
            gap = float(np.min(np.abs(others - center))) if others.size else np.inf
            radius_w = max(1e-4, 50.0 * spread / abs(center))
            if radius_w * abs(center) > 0.25 * gap:
                raise NumericFailure("pole cluster too close to other poles to separate")
            coef = _laurent_coefficients(g, center, s, radius_w)
        out_roots.append(center)
        out_mults.append(s)
        out_coeffs.append(coef)

    pf = PartialFraction(
        run_length=d,
        success_prob=p,
        roots=np.array(out_roots),
        multiplicities=np.array(out_mults),
        coefficients=tuple(out_coeffs),
    )
    err = pf.max_reconstruction_error()
    if err > _RESIDUAL_TOL:
        raise NumericFailure(f"partial-fraction reconstruction residual {err:g}")
    return pf


@lru_cache(maxsize=4096)
def partial_fraction(d: int, p: float) -> PartialFraction:
    """Cached expansion for a given (run length, success probability)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if not (0.0 < p < 1.0):
        raise ValueError("partial fractions require 0 < p < 1")
    return _build_partial_fraction(d, float(p))


def run_tail_partial_fraction(M: int, p: float, d: int) -> float:
    """Closed-form tail; raises NumericFailure instead of silently degrading."""
    _validate(M, p, d)
    if not (0.0 < p < 1.0):
        raise ValueError("partial fractions require 0 < p < 1")
    return partial_fraction(d, p).tail(M)


def run_tail_columns(length: int, p: float, depth: int):
    """Yield T_n(d) = Pr{longest zero-run >= d} over n Bernoulli(p) trials for
    n = 0..length-1, one new array per run length d = 1..depth.

    T_n(d) = 0 for n < d, T_d(d) = q^d and T_n(d) = T_{n-1}(d) + p q^d
    (1 - T_{n-d-1}(d)).  T_n reads T_{n-d-1}, so in each block of d + 1
    trials every increment p q^d (1 - T_{n-d-1}) comes from the block
    before, and one `np.add.accumulate` over [T_{lo-1}, increments] gives the
    block's tails: the recurrence's additions in its own order, so every
    caller reads the same bits.  Memory is O(length).
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"success probability must lie in [0, 1], got {p}")
    q_pow = (1.0 - p) ** np.arange(1, depth + 1, dtype=np.float64)
    for d in range(1, depth + 1):
        step = p * q_pow[d - 1]
        tails = np.zeros(length)
        if d < length:
            tails[d] = q_pow[d - 1]
        for lo in range(d + 1, length, d + 1):
            hi = min(lo + d + 1, length)
            block = tails[lo - 1 : hi]  # T_{lo-1}, then the block's increments
            increments = block[1:]
            np.subtract(1.0, tails[lo - d - 1 : hi - d - 1], out=increments)
            np.multiply(increments, step, out=increments)
            np.add.accumulate(block, out=block)
        yield tails


def run_tails(M: int, p: float) -> np.ndarray:
    """Pr{longest zero-run >= d} over M Bernoulli(p) trials; entry d-1 for
    d = 1..M, the last entry of each column of `run_tail_columns`."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return _horizon_tails(M, p, [M])[0]


def _horizon_tails(length: int, p: float, horizons: list[int]) -> list[np.ndarray]:
    """Tails T_n(d) for d = 1..n at each horizon n <= `length`, from one pass
    over the columns; rounding can lift a tail near 1 (small p) a few ulps
    above it, so each is clamped at 1."""
    tails = np.empty((len(horizons), length))
    for d, column in enumerate(run_tail_columns(length + 1, p, length), start=1):
        tails[:, d - 1] = column[horizons]
    return [np.minimum(row[:n], 1.0) for row, n in zip(tails, horizons)]


def _mean_of_tails(tails: np.ndarray) -> float:
    """The sum of the tails, taken left to right."""
    return float(sum(tails.tolist()))


def mt_mean_max_delay(M: int, p: float) -> float:
    """Mean longest zero-run over M Bernoulli(p) decode events.

    Sum of the tail probabilities for d = 1..M, taken left to right; this is
    the exact average maximum inter-decoding delay of per-block memoryless
    transmission, and both delay bounds of `wts_delay_bounds(M, 1, p)`.
    """
    return _mean_of_tails(run_tails(M, p))


@dataclass(frozen=True)
class WtsBounds:
    """Floor/ceil window-count bounds for windowed time-sharing.

    Delays are in window units: B times the mean longest run of consecutive
    failed windows; decoded message counts bound the raw expected number of
    decoded messages.
    """

    delay_lower: float
    delay_upper: float
    decoded_lower: float
    decoded_upper: float


def check_horizons(M: int, first: int, horizons) -> list[int]:
    """The message counts a call over M messages evaluates: M itself when
    `horizons` is None, else the rising sequence `horizons` of counts h
    with `first` <= h <= M, as a list."""
    ends = [M] if horizons is None else list(horizons)
    if not (ends and first <= ends[0] and all(a < b for a, b in zip(ends, ends[1:]))
            and ends[-1] <= M):
        raise ValueError(f"horizons must rise within {first}..{M}, got {horizons}")
    return ends


def wts_delay_bounds(M: int, B: int, p_B: float, horizons=None):
    """The `WtsBounds` of M messages at window B, or with `horizons`, a
    rising sequence of message counts h with B <= h <= M, one per h, each
    equal to the call at M = h.  Every floor and ceil window count of every
    h is one horizon of one `_horizon_tails` pass."""
    if not (1 <= B <= M):
        raise ValueError(f"need 1 <= B <= M, got B={B}, M={M}")
    if not (0.0 <= p_B <= 1.0):
        raise ValueError("window decode probability must lie in [0, 1]")
    ends = check_horizons(M, B, horizons)
    counts = sorted({w for h in ends for w in (h // B, -(-h // B))})
    means = {
        w: B * _mean_of_tails(tails)
        for w, tails in zip(counts, _horizon_tails(counts[-1], p_B, counts))
    }
    bounds = [
        WtsBounds(
            delay_lower=means[h // B],
            delay_upper=means[-(-h // B)],
            decoded_lower=h // B * p_B,
            decoded_upper=-(-h // B) * p_B,
        )
        for h in ends
    ]
    return bounds[0] if horizons is None else bounds


def wts_mean_delay(M: int, B: int, p_B: float, p_r=0.0, horizons=None):
    """Exact mean literal wTS delay: the longest zero-run over all M message
    slots (the statistic of `engine.evaluate_wts`) when the k = M // B full
    windows decode i.i.d. with probability p_B and the short last window of
    r = M % B blocks decodes with probability p_r.

    Only slots jB and, for r > 0, slot M can decode.  A run of f failed full
    windows ended by a success is a gap of (f+1)B - 1 slots; after the last
    full success, f failed windows leave fB + r - s slots, where s is the
    short window's bit.  So for x >= 1, with a = x // B,
    b = ceil((x - r + s) / B), m = min(max(b, 0), k) and q = 1 - p_B,

        Pr{L >= x | s} = [b <= k] q^m + sum_{f < m} p_B q^f T_{k-f-1}(a),

    summed over the index k - f of the last successful full window; T_n(a)
    is the run tail of `run_tail_columns` (T_n(0) = 1: at x < B the gap before
    any success is already too long).  Every term is nonnegative.  The mean
    is the sum over x = 1..M, averaged over s.

    With `horizons`, a rising sequence of message counts h with
    B <= h <= M, `p_r` holds one short-window probability per h (that of
    h mod B blocks) and the call returns one mean per h, each equal to the
    call at M = h.  A column T_n(a), n < k, is bit for bit a prefix of the
    same column at a larger k, so one pass over the columns at the largest
    k serves every h: each h's one or two short-bit rows are stacked, and a
    column updates only the rows of the h whose k exceeds it.  Memory is
    O(rows * M): one tail column at a time.
    """
    if not (1 <= B <= M):
        raise ValueError(f"need 1 <= B <= M, got B={B}, M={M}")
    ends = check_horizons(M, B, horizons)
    shorts = [p_r] if horizons is None else list(p_r)
    if len(shorts) != len(ends):
        raise ValueError(f"need one short-window probability per horizon, got {p_r}")
    if not (0.0 <= p_B <= 1.0 and all(0.0 <= p <= 1.0 for p in shorts)):
        raise ValueError("window decode probabilities must lie in [0, 1]")
    k = ends[-1] // B
    q_pow = (1.0 - p_B) ** np.arange(k + 1, dtype=np.float64)
    weights = p_B * q_pow[:k]
    x = np.arange(1, ends[-1] + 1)
    # One row per (h, short window's bit s) of nonzero probability w, in the
    # order of h; s = 0 only when B divides h.
    rows = [
        (i, h % B, s, w)
        for i, (h, p) in enumerate(zip(ends, shorts))
        for s, w in ([(0, 1.0 - p), (1, p)] if h % B else [(0, 1.0)])
        if w
    ]
    owner = np.array([i for i, *_ in rows])
    k_ends = [h // B for h in ends]
    ks = [k_ends[i] for i, *_ in rows]
    # Each row's m, and its tails' first term: [b <= k] times q^m.
    m = np.empty((len(rows), x.size), np.int64)
    tails = np.empty(m.shape)
    for row, first, (_, r, s, _), kr in zip(m, tails, rows, ks):
        np.floor_divide(r - s - x, B, out=row)
        np.negative(row, out=row)  # b
        np.less_equal(row, kr, out=first)
        np.clip(row, 0, kr, out=row)
    np.multiply(tails, q_pow[m], out=tails)
    # Row i of `prefix` holds h_i's sums over f < j of p_B q^f T_{k_i-f-1}(a),
    # the column read in reverse from its own k_i; no j > k_i is ever read.
    reverse = np.array(k_ends)[:, None] - 1 - np.arange(k)
    np.maximum(reverse, 0, out=reverse)
    prefix = np.zeros((len(ends), k + 1))
    h0 = r0 = 0  # the first h, and the first row, whose k exceeds the column
    # a = k adds nothing: T_n(k) = 0 for n < k
    columns = itertools.chain([np.ones(k)], run_tail_columns(k, p_B, k - 1))
    for a, column in enumerate(columns):
        while k_ends[h0] <= a:
            h0 += 1
        while ks[r0] <= a:
            r0 += 1
        if h0 == len(ends) - 1:  # the largest h alone reads the whole column
            gathered = np.multiply(column[::-1], weights)[None]
        else:
            gathered = column[reverse[h0:]]
            np.multiply(gathered, weights, out=gathered)
        np.cumsum(gathered, axis=1, out=prefix[h0:, 1:])
        xs = slice(max(a * B, 1) - 1, (a + 1) * B - 1)
        tails[r0:, xs] += prefix[owner[r0:, None], m[r0:, xs]]
    means = [0] * len(ends)
    for (i, _, _, w), row in zip(rows, tails):
        means[i] += w * row[: ends[i]].sum()
    means = [float(mean) for mean in means]
    return means[0] if horizons is None else means


def enumerate_run_tails(M: int, p: float) -> np.ndarray:
    """Exact tails for d = 1..M by weighted enumeration of all 2^M sequences."""
    if not (0.0 <= p <= 1.0):
        raise ValueError("success probability must lie in [0, 1]")
    runs = _bits.max_zero_run_table(M)
    ones = _bits.popcount_table(M)
    weights = p ** ones.astype(np.float64) * (1.0 - p) ** (M - ones).astype(np.float64)
    pmf = np.bincount(runs, weights=weights, minlength=M + 1)
    tails = np.cumsum(pmf[::-1])[::-1]
    return tails[1:].copy()
