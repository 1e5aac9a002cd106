"""Counter-based random numbers for reproducible parallel Monte Carlo.

Every variate is a pure function of (seed, stream, counter), so trial
substreams can be generated in any order, on any number of workers, and
always reproduce bit-for-bit.  The mixer is the SplitMix64 finalizer
applied twice: once to derive a per-(seed, stream) base state and once
per counter value.  Uniforms use the top 53 bits.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_SALT = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = float(2.0**-53)


def _finalize(z: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer; overwrites `z` when it is an array, and takes
    its shifted copies in `shifted`, an array of z's shape, when given."""
    z ^= np.right_shift(z, np.uint64(30), out=shifted)
    z *= _MIX1
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= _MIX2
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


# Seeds are unsigned 64-bit integers: 0 <= seed < SEED_BOUND.
SEED_BOUND = 1 << 64


def stream_base(seed: int, streams: np.ndarray) -> np.ndarray:
    """Mix a 64-bit seed with stream indices into independent base states."""
    if not 0 <= seed < SEED_BOUND:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    with np.errstate(over="ignore"):
        s = _finalize(np.uint64(seed) * _MIX1 + _SEED_SALT)
        return _finalize(s ^ (streams.astype(np.uint64) * _GOLDEN + _MIX2))


def uniform_matrix(
    seed: int,
    start: int,
    stop: int,
    count: int,
    order: str = "C",
    *,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Uniforms in [0, 1) for streams start..stop-1, `count` values each.

    Returns an array of shape (stop - start, count) in memory order `order`
    ("C" or "F"); row i is the substream for stream index start + i, with
    the same values in either order.  The values are written into `out`, a
    float64 array of that shape and order, when it is given.  When `scratch`,
    two uint64 arrays of that shape and order, is given, it holds the states
    and their shifts, and no other temporary as large as the matrix is made.
    """
    if stop < start or start < 0:
        raise ValueError("stream range must be nonnegative and ordered")
    shape = (stop - start, count)
    z, shifted = scratch if scratch is not None else (np.empty(shape, np.uint64, order=order), None)
    with np.errstate(over="ignore"):
        base = stream_base(seed, np.arange(start, stop, dtype=np.uint64))
        steps = np.arange(1, count + 1, dtype=np.uint64) * _GOLDEN
        if order == "F":
            np.add.outer(steps, base, out=z.T)
        else:
            np.add.outer(base, steps, out=z)
        _finalize(z, shifted)
    np.right_shift(z, np.uint64(11), out=z)
    # Top 53 bits: the float64 cast is exact, and so is the scaling.  They
    # fit an int64, whose cast is a vector instruction; uint64's is not.
    u = np.empty(shape, order=order) if out is None else out
    return np.multiply(z.view(np.int64), _INV_2_53, out=u)


def exponential_matrix(
    seed: int,
    start: int,
    stop: int,
    count: int,
    order: str = "C",
    *,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Unit-mean exponentials via the inverse CDF, -ln(1 - u), in the memory
    order `order` of `uniform_matrix`, into `out` with `scratch` as there."""
    u = uniform_matrix(seed, start, stop, count, order, out=out, scratch=scratch)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)
