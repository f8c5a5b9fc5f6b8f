"""Dense kernels, seeded random numbers, and numeric helpers.

Everything computes in 64-bit floats. Randomness comes from a counter-based
SplitMix64 generator implemented on numpy uint64 arrays, so the draw sequence
is a pure function of (seed, position): the same seed always replays the same
stream, and independent streams are obtained by deriving child seeds, never
by sharing one stream between consumers.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_U53_INV = float(2.0**-53)


def _mix64(x: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer; input must be a uint64 array (scalar uint64 ops warn on wrap).
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX_A
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX_B
    return x ^ (x >> np.uint64(31))


class Rng:
    """Counter-based SplitMix64 stream.

    Draw i of a stream with seed s is mix64(s + (i+1) * golden_ratio_64),
    so streams can be replayed or advanced without touching earlier draws.
    Gaussians use the Box-Muller transform on top of the uniform stream.
    Uniform draws are integer-derived and bit-identical across platforms;
    Gaussian draws additionally go through libm (log/cos/sin) and are
    bit-stable per platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._pos = 0

    def raw64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws as a uint64 array."""
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        return _mix64(np.uint64(self.seed) + idx * _GOLDEN)

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles in [0, 1) built from the top 53 bits of raw draws."""
        return (self.raw64(n) >> np.uint64(11)).astype(np.float64) * _U53_INV

    def derive(self, *tags: int) -> "Rng":
        """Child generator with a seed folded from this seed and the tags.

        Used to give each purpose (init, per-epoch dropout, sweep cells) its
        own stream.
        """
        key = np.array([self.seed], dtype=np.uint64)
        for t in tags:
            step = np.array([((int(t) & 0xFFFFFFFFFFFFFFFF) + 1) & 0xFFFFFFFFFFFFFFFF],
                            dtype=np.uint64)
            key = _mix64(key + step * _GOLDEN)
        return Rng(int(key[0]))


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Probabilities along the last axis with max-subtraction, into out (may be z) if given."""
    z = np.asarray(z, dtype=np.float64)
    e = np.subtract(z, np.max(z, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def sample_gaussian(rng: Rng, mean: float, stddev: float, n: int) -> np.ndarray:
    """n draws from N(mean, stddev^2) via Box-Muller."""
    if stddev < 0:
        raise ValueError("stddev must be non-negative")
    if n == 0:
        return np.zeros(0)
    m = (n + 1) // 2
    u1 = rng.uniform01(m)
    u2 = rng.uniform01(m)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 in (0,1], so the log is finite
    theta = (2.0 * np.pi) * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
    return mean + stddev * z


def sample_uniform(rng: Rng, lo: float, hi: float, n: int) -> np.ndarray:
    """n draws from U[lo, hi)."""
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    return lo + (hi - lo) * rng.uniform01(n)


def dropout_mask(rng: Rng, n: int, p_drop: float) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability p_drop, else 1/(1-p_drop).

    p_drop = 0 returns all ones without consuming the stream.
    """
    if not 0.0 <= p_drop < 1.0:
        raise ValueError("p_drop must lie in [0, 1)")
    if p_drop == 0.0:
        return np.ones(n)
    keep = 1.0 / (1.0 - p_drop)
    return np.where(rng.uniform01(n) < p_drop, 0.0, keep)


def global_norm(arrays) -> float:
    return float(np.sqrt(sum(float(np.sum(a * a)) for a in arrays)))


def clip_by_global_norm(arrays, max_norm: float):
    """Scale all arrays in place so their joint L2 norm is at most max_norm.

    Returns (arrays, factor); factor is 1.0 when no scaling was applied.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    arrays = list(arrays)
    g = global_norm(arrays)
    factor = 1.0
    if g > max_norm:
        factor = max_norm / g
        for a in arrays:
            a *= factor
    return arrays, factor
