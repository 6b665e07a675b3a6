"""Synthetic IBM COS trace generator.

Calibrated to the published characteristics of the IBM Cloud Object
Storage traces the paper analyzes (§2):

* **Size distribution (Fig 2)** — a five-component lognormal mixture:
  small objects dominate request *count* (~80 % of PUTs ≤ 1 MB,
  >99.99 % < 1 GB) while rare large objects dominate *capacity*.
* **Arrival process (Fig 3)** — a modulated Poisson process: a diurnal
  baseline multiplied by an AR(1) lognormal per-minute factor plus
  occasional short burst spikes, so per-minute throughput "can change
  sharply from minute to minute".
* **Operations** — PUTs dominate; a small fraction of DELETEs target
  existing keys.  Keys are drawn Zipf-style per tenant so hot objects
  receive repeated updates.

Generation is batched per minute: every random quantity a minute needs
(arrival times, sizes, op/reuse coin flips, Zipf ranks, tenant picks,
delete positions) is drawn as one NumPy vector, and requests are
emitted as struct-of-arrays :class:`TraceBatch` columns, the only form
a trace takes.  The live-key set uses a head pointer (O(1) oldest-key
eviction) and swap-with-head removal (O(1) random deletes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = ["TraceBatch", "SizeModel", "IbmCosTraceGenerator"]

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

OP_PUT = 0
OP_DELETE = 1


@dataclass(frozen=True)
class TraceBatch:
    """One minute of trace requests in column form.

    ``ops`` holds :data:`OP_PUT`/:data:`OP_DELETE` codes; ``sizes`` is
    0 for deletes.  Row ``i`` is ``(times[i], ops[i], keys[i],
    sizes[i])``.
    """

    times: np.ndarray    # float64, ascending within the batch
    ops: np.ndarray      # uint8 op codes
    keys: list[str]
    sizes: np.ndarray    # int64 bytes

    def __len__(self) -> int:
        return len(self.keys)


class SizeModel:
    """The PUT-size lognormal mixture behind Fig 2."""

    #: (weight, median bytes, sigma of ln-size)
    COMPONENTS = (
        (0.34, 2 * KB, 1.6),
        (0.45, 96 * KB, 1.3),
        (0.1962, 6 * MB, 1.0),
        (0.01375, 120 * MB, 0.75),
        (0.00005, 1280 * MB, 0.6),
    )

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._weights = np.array([w for w, _, _ in self.COMPONENTS])
        self._weights = self._weights / self._weights.sum()
        self._mus = np.array([math.log(m) for _, m, _ in self.COMPONENTS])
        self._sigmas = np.array([s for _, _, s in self.COMPONENTS])

    def sample(self, count: int = 1) -> np.ndarray:
        comp = self._rng.choice(len(self._weights), size=count, p=self._weights)
        sizes = self._rng.lognormal(self._mus[comp], self._sigmas[comp])
        return np.maximum(1, sizes).astype(np.int64)


class _LiveKeys:
    """Append-ordered key set with O(1) evict-oldest and random removal.

    Keys live in ``self._keys[self._head:]`` in (approximate) insertion
    order.  Evicting the oldest advances the head pointer; removing a
    random key swaps the head key into its slot first, so only the
    oldest key's position is perturbed — Zipf reuse reads from the
    *recent* end, which stays exact.
    """

    __slots__ = ("_keys", "_head")

    def __init__(self) -> None:
        self._keys: list[str] = []
        self._head = 0

    def __len__(self) -> int:
        return len(self._keys) - self._head

    def append(self, key: str) -> None:
        self._keys.append(key)

    def evict_oldest(self) -> None:
        self._head += 1
        if self._head > 4096 and self._head * 2 > len(self._keys):
            del self._keys[:self._head]
            self._head = 0

    def from_recent(self, rank: int) -> str:
        """The ``rank``-th most recent key (clamped to the oldest)."""
        n = len(self._keys) - self._head
        return self._keys[-rank if rank < n else self._head]

    def remove_at(self, frac: float) -> str:
        """Remove and return the key at relative position ``frac`` ∈ [0, 1)."""
        keys, head = self._keys, self._head
        idx = head + int(frac * (len(keys) - head))
        key = keys[idx]
        keys[idx] = keys[head]
        self._head = head + 1
        if head > 4096 and head * 2 > len(keys):
            del keys[: self._head]
            self._head = 0
        return key


#: AR(1) coefficient of the per-minute log-rate drift.
_MINUTE_RHO = 0.7
#: Relative swing of the diurnal baseline around ``mean_rps``.
_DIURNAL_AMPLITUDE = 0.45
#: :meth:`IbmCosTraceGenerator.busy_hour` draws from ``seed`` plus this.
_BUSY_HOUR_SEED_OFFSET = 7


class IbmCosTraceGenerator:
    """Seeded synthetic trace factory."""

    def __init__(
        self,
        seed: int = 0,
        mean_rps: float = 20.0,
        tenants: int = 8,
        keys_per_tenant: int = 4000,
        delete_fraction: float = 0.04,
        update_fraction: float = 0.35,
        burst_rate_per_hour: float = 6.0,
        burst_multiplier: float = 8.0,
        minute_sigma: float = 0.55,
    ):
        """``update_fraction`` of PUTs overwrite an existing hot key
        (Zipf-selected); the rest create fresh keys."""
        self.seed = seed
        self.mean_rps = mean_rps
        self.tenants = tenants
        self.keys_per_tenant = keys_per_tenant
        self.delete_fraction = delete_fraction
        self.update_fraction = update_fraction
        self.burst_rate_per_hour = burst_rate_per_hour
        self.burst_multiplier = burst_multiplier
        self.minute_sigma = minute_sigma
        self._rng = np.random.default_rng(seed)
        self.sizes = SizeModel(np.random.default_rng(seed + 1))

    # -- arrival-rate machinery ------------------------------------------------

    def minute_rates(self, duration_s: float) -> np.ndarray:
        """Mean request rate (per second) for each minute of the trace."""
        minutes = int(math.ceil(duration_s / 60.0))
        rates = np.empty(minutes)
        drift = 0.0
        innov_scale = self.minute_sigma * math.sqrt(1 - _MINUTE_RHO**2)
        for i in range(minutes):
            t = i * 60.0
            diurnal = 1.0 + _DIURNAL_AMPLITUDE * math.sin(
                2 * math.pi * t / 86400.0
            )
            drift = _MINUTE_RHO * drift + self._rng.normal(0.0, innov_scale)
            factor = math.exp(drift - self.minute_sigma**2 / 2)
            rate = self.mean_rps * diurnal * factor
            if self._rng.random() < self.burst_rate_per_hour / 60.0:
                rate *= 1.0 + self._rng.exponential(self.burst_multiplier - 1.0)
            rates[i] = rate
        return rates

    # -- trace generation ----------------------------------------------------------

    def iter_batches(self, duration_s: float) -> Iterator[TraceBatch]:
        """Yield one :class:`TraceBatch` per non-empty trace minute."""
        rng = self._rng
        rates = self.minute_rates(duration_s)
        live = _LiveKeys()
        n_live = 0
        key_seq = 0
        cap = self.tenants * self.keys_per_tenant
        delete_fraction = self.delete_fraction
        update_fraction = self.update_fraction
        for minute, rate in enumerate(rates):
            window = min(60.0, duration_s - minute * 60.0)
            count = int(rng.poisson(rate * window))
            if count == 0:
                continue
            # Every random quantity this minute needs, in bulk; the
            # selection loop below then runs RNG-free over plain lists
            # (scalar indexing into NumPy arrays is ~10× slower).
            times = np.sort(rng.uniform(0.0, window, count)) + minute * 60.0
            sizes = self.sizes.sample(count)
            op_draws = rng.random(count).tolist()
            reuse_draws = rng.random(count).tolist()
            del_positions = rng.random(count).tolist()
            ranks = rng.zipf(1.4, count).tolist()
            tenant_draws = rng.integers(0, self.tenants, count).tolist()
            delete_rows: list[int] = []
            keys: list[str] = []
            append_key = keys.append
            for i in range(count):
                if op_draws[i] < delete_fraction and n_live:
                    delete_rows.append(i)
                    append_key(live.remove_at(del_positions[i]))
                    n_live -= 1
                    continue
                if reuse_draws[i] < update_fraction and n_live >= 16:
                    # Zipf-ish: overwhelmingly prefer recent/hot keys.
                    append_key(live.from_recent(ranks[i]))
                else:
                    key = f"t{tenant_draws[i]}/obj{key_seq}"
                    key_seq += 1
                    live.append(key)
                    append_key(key)
                    if n_live >= cap:
                        live.evict_oldest()
                    else:
                        n_live += 1
            ops = np.zeros(count, dtype=np.uint8)
            if delete_rows:
                ops[delete_rows] = OP_DELETE
                sizes[delete_rows] = 0
            yield TraceBatch(times=times, ops=ops, keys=keys, sizes=sizes)

    def generate(self, duration_s: float) -> list[TraceBatch]:
        """Materialize a trace segment of ``duration_s`` seconds."""
        return list(self.iter_batches(duration_s))

    def busy_hour(self, total_requests: int = 50_000) -> list[TraceBatch]:
        """A busy 60-minute segment with approximately the requested
        number of PUT/DELETE requests (the paper replays ~0.99 M; scale
        ``total_requests`` to your simulation budget)."""
        return IbmCosTraceGenerator(
            seed=self.seed + _BUSY_HOUR_SEED_OFFSET,
            mean_rps=total_requests / 3600.0,
            tenants=self.tenants,
            keys_per_tenant=self.keys_per_tenant,
            delete_fraction=self.delete_fraction,
            update_fraction=self.update_fraction,
            burst_rate_per_hour=self.burst_rate_per_hour,
            burst_multiplier=self.burst_multiplier,
            minute_sigma=self.minute_sigma,
        ).generate(3600.0)
