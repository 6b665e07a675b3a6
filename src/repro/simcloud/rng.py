"""Seeded random streams and distribution helpers.

Every stochastic component of the simulation draws from a named child
stream of a single root seed, so that adding a new consumer of
randomness does not perturb the draws seen by existing components, and
a whole experiment is reproducible from one integer.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass

import numpy as np

__all__ = ["RngFactory", "Dist", "BufferedSampler", "normal", "lognormal",
           "constant", "uniform"]


class RngFactory:
    """Derives independent, named ``numpy`` generators from a root seed."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return a generator keyed by ``(seed, name)``.

        The same ``(seed, name)`` always yields an identical stream;
        distinct names yield streams that are statistically independent
        (seeded by a SHA-256 of the pair).
        """
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory, for components that own many streams."""
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        return RngFactory(int.from_bytes(digest[8:16], "little"))


@dataclass(frozen=True, slots=True)
class Dist:
    """A samplable distribution over positive reals.

    ``kind`` is one of ``normal``, ``lognormal``, ``constant``,
    ``uniform``.  Samples from unbounded kinds are truncated below at
    ``floor`` (physical quantities like latencies and bandwidths cannot
    be negative); ``floor=-inf`` leaves a signed quantity untruncated.
    """

    kind: str
    a: float
    b: float = 0.0
    floor: float = 1e-9

    def sample(self, rng: np.random.Generator, size: int | None = None):
        if self.kind == "normal":
            x = rng.normal(self.a, self.b, size)
        elif self.kind == "lognormal":
            x = rng.lognormal(self.a, self.b, size)
        elif self.kind == "constant":
            x = self.a if size is None else np.full(size, float(self.a))
        elif self.kind == "uniform":
            x = rng.uniform(self.a, self.b, size)
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        return np.maximum(x, self.floor)

    @property
    def mean(self) -> float:
        if self.kind == "normal":
            return self.a
        if self.kind == "lognormal":
            return float(np.exp(self.a + self.b**2 / 2))
        if self.kind == "constant":
            return self.a
        if self.kind == "uniform":
            return (self.a + self.b) / 2
        raise ValueError(self.kind)

    @property
    def std(self) -> float:
        if self.kind == "normal":
            return self.b
        if self.kind == "lognormal":
            m = self.mean
            return float(m * np.sqrt(np.exp(self.b**2) - 1))
        if self.kind == "constant":
            return 0.0
        if self.kind == "uniform":
            return (self.b - self.a) / np.sqrt(12)
        raise ValueError(self.kind)


#: First chunk a sampler draws of its block; doubles per refill.
_FIRST_BLOCK = 16

#: What checkpoints are restored into: seeded, as an unseeded ``PCG64()``
#: reads OS entropy, and overwritten by every :func:`_restore`.
_SCRATCH = np.random.Generator(np.random.PCG64(0))

_U128 = (1 << 128) - 1


def _checkpoint(rng: np.random.Generator) -> int:
    """``rng``'s PCG64 state, increment and buffered 32-bit draw as one
    int: 60 B where an idle ``Generator`` holds 1.2 KB."""
    s = rng.bit_generator.state
    return (s["state"]["state"] | s["state"]["inc"] << 128
            | s["has_uint32"] << 256 | s["uinteger"] << 257)


def _restore(checkpoint: int) -> np.random.Generator:
    """The stream ``checkpoint`` was taken from, in a generator shared by
    every restore: draw from it before the next one."""
    _SCRATCH.bit_generator.state = {
        "bit_generator": "PCG64", "state": {
            "state": checkpoint & _U128, "inc": checkpoint >> 128 & _U128},
        "has_uint32": checkpoint >> 256 & 1, "uinteger": checkpoint >> 257}
    return _SCRATCH


class BufferedSampler:
    """Scalar draws from a :class:`Dist` served out of vectorized blocks.

    Per-call ``Generator.normal()`` carries ~µs of NumPy dispatch
    overhead; hot latency samplers (KV responses, storage request
    admission) draw millions of scalars.  Drawing a block at a time
    amortizes the dispatch while staying fully seeded-deterministic
    (the block is drawn from the same stream, just ahead of time).

    Samplers that *share* ``rng`` interleave their draws by whole
    blocks, so there ``block`` decides every value either of them
    returns and must never change.  ``owns_stream=True`` promises that
    nothing else draws from ``rng`` from now on: the stream is then one
    endless block.  NumPy's array fills are split-invariant (``n``
    values in one call equal the same ``n`` drawn in several), so a
    sampler serves a block in chunks sized to demand, 16 values first
    and doubling, and holds the block's undrawn rest as a checkpoint of
    where it starts, not as drawn values: most of a large tenancy's
    tables and notification hookups serve a handful of draws.  A shared
    sampler still moves ``rng`` past a whole block at each take; once
    its chunks reach ``block`` it keeps whole blocks.
    """

    __slots__ = ("_dist", "_rng", "_block", "_max_block", "_buf", "_idx",
                 "_rest", "_left")

    def __init__(self, dist: Dist, rng: np.random.Generator, block: int = 512,
                 *, owns_stream: bool = False):
        self._dist = dist
        self._rng = None if owns_stream else rng
        # The current block's undrawn rest: a checkpoint and a count.
        self._rest = _checkpoint(rng) if owns_stream else None
        self._left = math.inf if owns_stream else 0
        self._block = min(block, _FIRST_BLOCK)
        self._max_block = block
        # Packed doubles: 8 B a value where a list of floats holds 40.
        self._buf = array("d")
        self._idx = 0

    def sample(self) -> float:
        idx = self._idx
        buf = self._buf
        if idx >= len(buf):
            buf = self._buf = array("d", self._refill().tobytes())
            idx = 0
        self._idx = idx + 1
        return buf[idx]

    def _refill(self) -> np.ndarray:
        n, dist, rng = self._block, self._dist, self._rng
        self._block = min(2 * n, self._max_block)
        if self._left:                          # redraw the rest's next n
            if rng is not None:                 # a shared block's: finite
                n = min(n, self._left)
                self._left -= n
            live = _restore(self._rest)
            values = dist.sample(live, n)
            self._rest = _checkpoint(live) if self._left else None
        elif n == self._max_block:              # hot: take, keep a block
            values = dist.sample(rng, n)
        else:                                   # cold: take a block, keep n
            values = dist.sample(rng, n)
            self._rest = _checkpoint(rng)
            self._left = self._max_block - n
            dist.sample(rng, self._left)        # the stream moves past it
        return values


def normal(mean: float, std: float, floor: float = 1e-9) -> Dist:
    return Dist("normal", mean, std, floor)


def lognormal(mu: float, sigma: float, floor: float = 1e-9) -> Dist:
    return Dist("lognormal", mu, sigma, floor)


def constant(value: float) -> Dist:
    return Dist("constant", value)


def uniform(lo: float, hi: float, floor: float = 1e-9) -> Dist:
    return Dist("uniform", lo, hi, floor)
