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
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Draws are formed PIECE draws at a time in reused 256 KiB buffers, so a
# block of any size costs its own bytes plus a fixed scratch, never a
# block-sized temporary per pass.
PIECE = 32_768
_COUNT = np.arange(1, PIECE + 1, dtype=np.uint64)  # the counters 1..PIECE, never written
_COUNT.flags.writeable = False


def _mix64(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on the uint64 array x, in place; tmp is uint64 scratch of x's size."""
    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= _MIX_A
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= _MIX_B
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


def _checked_out(out: np.ndarray | None, n: int) -> np.ndarray:
    """out when it is a C-contiguous float64 array of shape (n,), a new one when it is None."""
    if out is None:
        return np.empty(n)
    if out.shape != (n,) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape ({n},); got "
                         f"{out.dtype} {out.shape}, C-contiguous={out.flags.c_contiguous}")
    return out


def _spans(n: int, size: int = PIECE):
    """(a, b) bounds of consecutive pieces of at most size covering range(n)."""
    return ((a, min(a + size, n)) for a in range(0, n, size))


def _scratch(n: int) -> np.ndarray:
    """Two uint64 rows for the mixer, long enough for a piece of n draws."""
    return np.empty((2, min(n, PIECE)), dtype=np.uint64)


class Rng:
    """Counter-based SplitMix64 stream.

    Draw i of a stream with seed s is mix64(s + (i+1) * golden_ratio_64),
    so streams can be replayed or advanced without touching earlier draws:
    `at(pos)` starts the stream at draw pos. Draws are formed PIECE at a
    time; the values do not depend on how a request is split.
    Gaussians use the Box-Muller transform on top of the uniform stream.
    Uniform draws are integer-derived and bit-identical across platforms;
    Gaussian draws additionally go through libm (log/cos/sin) and are
    bit-stable per platform.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._pos = 0

    def at(self, pos: int) -> "Rng":
        """A stream with this seed whose next draw is draw pos."""
        if pos < 0:
            raise ValueError(f"stream position must be non-negative; got {pos}")
        rng = Rng(self.seed)
        rng._pos = int(pos)
        return rng

    def _raw(self, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
        """The next len(out) <= PIECE raw draws into the uint64 array out."""
        n = len(out)
        np.add(_COUNT[:n], np.uint64(self._pos), out=out)
        out *= _GOLDEN
        out += np.uint64(self.seed)
        self._pos += n
        return _mix64(out, tmp)

    def _uniform(self, out: np.ndarray, scratch: np.ndarray) -> None:
        """The next len(out) <= PIECE doubles in [0, 1) into out, through _scratch rows."""
        bits = self._raw(scratch[0, :len(out)], scratch[1, :len(out)])
        bits >>= np.uint64(11)
        # An int64 view casts faster than uint64 and is exact: the top 53 bits fit a double.
        np.multiply(bits.view(np.int64), _U53_INV, out=out)

    def raw64(self, n: int) -> np.ndarray:
        """Next n raw 64-bit draws as a uint64 array."""
        out = np.empty(n, dtype=np.uint64)
        tmp = np.empty(min(n, PIECE), dtype=np.uint64)
        for a, b in _spans(n):
            self._raw(out[a:b], tmp[:b - a])
        return out

    def uniform01(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """n doubles in [0, 1) built from the top 53 bits of raw draws, into out if given."""
        out = _checked_out(out, n)
        scratch = _scratch(n)
        for a, b in _spans(n):
            self._uniform(out[a:b], scratch)
        return out

    def derive(self, *tags: int) -> "Rng":
        """Child generator with a seed folded from this seed and the tags.

        Used to give each purpose (init, per-epoch dropout, sweep cells) its
        own stream. Each tag t folds the seed into draw t of its stream.
        """
        seed = self.seed
        for t in tags:
            seed = int(Rng(seed).at(int(t) & _MASK64).raw64(1)[0])
        return Rng(seed)


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Probabilities along the last axis with max-subtraction, into out (may be z) if given."""
    z = np.asarray(z, dtype=np.float64)
    e = np.subtract(z, np.max(z, axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= np.sum(e, axis=-1, keepdims=True)
    return e


def sample_gaussian(rng: Rng, mean: float, stddev: float, n: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """n draws from N(mean, stddev^2) via Box-Muller, into out if given.

    With m = ceil(n/2) pairs, pair j takes uniform draws j and m + j of the
    stream; element j < m is its cos half and element m + j its sin half (the
    last sin half is dropped when n is odd). The stream advances by 2m.
    """
    if stddev < 0:
        raise ValueError("stddev must be non-negative")
    out = _checked_out(out, n)
    m = (n + 1) // 2
    radii, angles = rng.at(rng._pos), rng.at(rng._pos + m)  # draws j and m + j
    rng._pos += 2 * m
    scratch = _scratch(min(m, PIECE // 2))
    r_piece, theta_piece = np.empty((2, min(m, PIECE // 2)))
    for a, b in _spans(m, PIECE // 2):  # a piece of pairs is PIECE draws
        r, theta = r_piece[:b - a], theta_piece[:b - a]
        radii._uniform(r, scratch)
        angles._uniform(theta, scratch)
        np.negative(r, out=r)  # 1-u1 in (0,1], so the log is finite
        np.log1p(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        for half, trig in ((out[a:b], np.cos), (out[m + a:m + min(b, n - m)], np.sin)):
            trig(theta[:len(half)], out=half)
            half *= r[:len(half)]
            half *= stddev
            half += mean
    return out


def sample_uniform(rng: Rng, lo: float, hi: float, n: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """n draws from U[lo, hi), into out if given."""
    if lo > hi:
        raise ValueError("lo must not exceed hi")
    out = _checked_out(out, n)
    scratch = _scratch(n)
    for a, b in _spans(n):
        u = out[a:b]
        rng._uniform(u, scratch)
        u *= hi - lo
        u += lo
    return out


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


def block_sum(a: np.ndarray, square: bool = False, divisor: float | None = None,
              leaf: int = PIECE) -> float:
    """float(np.sum(a * a)) when square, else float(np.sum(a)), bit for bit,
    after a /= divisor in place when a divisor is given.

    numpy sums a C- or F-contiguous block in memory order along one pairwise
    tree, adding the total to 0.0: a node of n > 128 elements is the sum of
    its first n2 = n // 2 - (n // 2) % 8 elements and the rest. This follows
    the same splits down to nodes of at most max(leaf, 128) elements and hands
    each to np.sum, squared into one reused scratch when square, so the block
    is read once, a leaf at a time, and no temporary its size is made. A
    block with nothing to divide or square, and any other block, is summed
    by np.sum itself, the latter after it is divided whole.
    """
    if divisor is None and not square:
        return float(np.sum(a))
    if not (a.flags.c_contiguous or a.flags.f_contiguous):
        if divisor is not None:
            a /= divisor
        return float(np.sum(a * a) if square else np.sum(a))
    flat = a.reshape(-1, order="A")  # a view in memory order
    leaf = max(leaf, 128)
    scratch = np.empty(min(flat.size, leaf)) if square else None
    return 0.0 + _pairwise(flat, leaf, scratch, divisor)


def _pairwise(x: np.ndarray, leaf: int, scratch: np.ndarray | None,
              divisor: float | None) -> float:
    """block_sum's tree node x: split as numpy splits it, down to leaves."""
    if x.size > leaf:
        half = x.size // 2
        half -= half % 8
        return (_pairwise(x[:half], leaf, scratch, divisor)
                + _pairwise(x[half:], leaf, scratch, divisor))
    if divisor is not None:
        x /= divisor
    if scratch is not None:
        x = np.multiply(x, x, out=scratch[:x.size])
    return float(np.sum(x))


def global_norm(arrays) -> float:
    """The joint L2 norm, sqrt of the arrays' float(np.sum(a * a)) added in order."""
    return float(np.sqrt(sum(block_sum(a, square=True) for a in arrays)))


class Squares(list):
    """Each block's float(np.sum(a * a)), in block order, from a pass that has
    already read the blocks (see block_sum)."""


def clip_by_global_norm(arrays, max_norm: float):
    """Scale all arrays in place so their joint L2 norm is at most max_norm.

    Returns (arrays, factor); factor is 1.0 when no scaling was applied and
    max_norm / norm otherwise. Given Squares in place of the arrays, the norm
    is read from them and nothing is scaled: whoever holds the blocks applies
    the factor (training.sgd_apply does, panel by panel).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    given = isinstance(arrays, Squares)
    arrays = arrays if given else list(arrays)
    g = float(np.sqrt(sum(arrays))) if given else global_norm(arrays)
    factor = 1.0
    if g > max_norm:
        factor = max_norm / g
        for a in () if given else arrays:
            a *= factor
    return arrays, factor
