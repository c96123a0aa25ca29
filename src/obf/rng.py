"""Portable, stream-keyed random numbers for reproducible data generation.

Bit-reproducibility across runs and thread schedules is a hard contract of
the generator, so nothing here depends on a global RNG state or on
platform-variant algorithms:

* Bits come from the Philox 4x64-10 counter-based generator, keyed per
  logical stream. The 128-bit key is derived from (seed, stream ids) with
  the splitmix64 finalizer, so any tuple of small integers names a stream.
  Every word of a stream is a pure function of (key, counter), so the first
  words of many streams can be drawn in one call (``stream_words``) and
  equal what each stream's own ``Stream`` would give.
* Uniforms map the top 53 bits of each word into (0, 1] via
  ``((raw >> 11) + 1) * 2**-53``.
* Normal variates use Box-Muller on consecutive uniform pairs, cosine branch
  first, interleaved ``[z_cos0, z_sin0, z_cos1, ...]`` (Ziggurat and other
  table-driven methods vary across library builds and are deliberately
  avoided).
* Bounded integers use rejection sampling on raw 64-bit words, which makes
  ``permutation`` a plain Fisher-Yates shuffle.

Across CPUs the bits are not yet fixed, and Box-Muller is why: numpy picks
its ``log`` kernel by the CPU's SIMD features, and for float64 ``sin`` and
``cos`` it calls glibc, which picks an FMA or a non-FMA variant by CPU.

``mix64``, ``derive64``, ``uniforms`` and ``normals`` work on whole arrays;
``Stream`` and ``replicate_seed`` are one-stream views of them.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_KEY_SALT_0 = np.uint64(0x243F6A8885A308D3)
_KEY_SALT_1 = np.uint64(0x452821E638D01377)
_RAW_BUFFER = 1024


def mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array; a fixed 64-bit bijective hash."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _as_u64(x) -> np.ndarray:
    """An int (any sign) or integer array as uint64, reduced mod 2**64."""
    if isinstance(x, np.ndarray):
        return x.astype(np.uint64)
    return np.array(int(x) & _MASK64, dtype=np.uint64, ndmin=1)


def derive64(seed, *ids) -> np.ndarray:
    """Fold a seed and any number of stream ids into 64-bit values.

    Each argument is an int or an integer array; they broadcast, and the
    result is a uint64 array of at least one element.
    """
    h = mix64(_as_u64(seed))
    for i in ids:
        h = mix64(h ^ mix64(_as_u64(i)))
    return h


def _philox_keys(seed, *ids) -> np.ndarray:
    """The (count, 2) uint64 Philox keys of the streams (seed, *ids)."""
    base = derive64(seed, *ids)
    return np.stack([mix64(base ^ _KEY_SALT_0), mix64(base ^ _KEY_SALT_1)], axis=-1)


def stream_words(seed: int, family: int, members, words: int) -> np.ndarray:
    """The first `words` raw words of each stream (seed, family, m) as rows.

    Returns a (len(members), words) uint64 array whose row i equals
    ``Stream(seed, family, members[i]).raw(words)``. One Philox generator is
    rekeyed through its ``state`` setter for each stream, which is several
    times cheaper than constructing one.
    """
    keys = _philox_keys(seed, family, np.asarray(members, dtype=np.int64))
    out = np.empty((keys.shape[0], words), dtype=np.uint64)
    bitgen = np.random.Philox(0)
    state = bitgen.state  # a fresh generator's: counter 0, empty buffer
    for i, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        out[i] = bitgen.random_raw(words)
    return out


def uniforms(raw: np.ndarray) -> np.ndarray:
    """Raw words mapped elementwise to doubles in (0, 1]."""
    return ((raw >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)


def normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller over consecutive uniform pairs of the last axis.

    The last axis has even length; pair (u[2i], u[2i+1]) gives
    ``z[2i] = r cos(theta)`` and ``z[2i+1] = r sin(theta)``.
    """
    r = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    theta = (2.0 * np.pi) * u[..., 1::2]
    out = np.empty(u.shape, dtype=np.float64)
    out[..., 0::2] = r * np.cos(theta)
    out[..., 1::2] = r * np.sin(theta)
    return out


class Stream:
    """One independent random stream identified by (seed, *ids)."""

    def __init__(self, seed: int, *ids: int):
        self._bitgen = np.random.Philox(key=_philox_keys(seed, *ids)[0])
        self._buffer: list[int] = []

    def raw(self, count: int) -> np.ndarray:
        """`count` raw 64-bit words."""
        out = self._bitgen.random_raw(count)
        return np.atleast_1d(np.asarray(out, dtype=np.uint64))

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles in (0, 1]."""
        return uniforms(self.raw(count))

    def normals(self, count: int) -> np.ndarray:
        """`count` standard normals via Box-Muller (cos branch first)."""
        pairs = (count + 1) // 2
        return normals(self.uniforms(2 * pairs))[:count]

    def _next_raw(self) -> int:
        if not self._buffer:
            self._buffer = [int(v) for v in self.raw(_RAW_BUFFER)][::-1]
        return self._buffer.pop()

    def integer_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection (no modulo bias)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = ((1 << 64) // bound) * bound
        while True:
            r = self._next_raw()
            if r < threshold:
                return r % bound

    def _take(self, count: int) -> np.ndarray:
        """The next `count` words ``_next_raw`` would give, leaving the
        buffer as it would."""
        words = self._buffer[::-1]
        if count > len(words):
            extra = count - len(words)
            fresh = self.raw(-(-extra // _RAW_BUFFER) * _RAW_BUFFER).tolist()
            words += fresh[:extra]
            self._buffer = fresh[extra:][::-1]
        else:
            self._buffer = words[count:][::-1]
        return np.array(words[:count], dtype=np.uint64)

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n): ``integer_below(i + 1)``
        for i = n - 1 down to 1, each swapped with i."""
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        words = self._take(bounds.size)
        # integer_below rejects a word at or above 2**64 - (2**64 % bound)
        rejected = np.flatnonzero(words > ~((np.uint64(0) - bounds) % bounds))
        done = rejected[0] if rejected.size else bounds.size
        # words from the first rejection on go back, for the loop
        self._buffer += words[done:][::-1].tolist()
        perm = list(range(n))
        swaps = (words[:done] % bounds[:done]).tolist()
        for i, j in zip(range(n - 1, 0, -1), swaps):
            perm[i], perm[j] = perm[j], perm[i]
        for i in range(n - 1 - done, 0, -1):
            j = self.integer_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


def replicate_seed(base_seed: int, n: int, replicate: int) -> int:
    """Stable per-replicate seed so grids can be extended without reshuffling."""
    return int(derive64(base_seed, n, replicate)[0])
